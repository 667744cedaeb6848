//! A hostile scene file cannot make a decoder reserve more memory than
//! its own size justifies.
//!
//! Both decoders size their `Vec`s from the input: the binary one checks
//! a declared record count against the bytes left before reserving, the
//! JSON one grows as records arrive on one thread and, on several, counts
//! the record spans the text holds — spans long enough to be records —
//! and reserves exactly that many. This test watches every allocation
//! a decode makes — through a counting global allocator, which is why it
//! is an integration test of its own: the crate itself forbids `unsafe`
//! — over truncations at every offset, seeded byte edits and forged
//! counts, and holds the largest single request to a small multiple of
//! the input's length.

use gcc_scene::rng::StdRng;
use gcc_scene::{io, Scene, SceneConfig, ScenePreset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation request since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed atomic max
// on a statistic that publishes no other data.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's arguments are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// A record is 236 bytes resident and at least 120 bytes of JSON (59
/// one-digit numbers, separators, brackets), and a growing `Vec` doubles:
/// four times the input covers the worst case, the rest is slack for
/// error strings and the name. It is not twice the input because one
/// thread still grows its `Vec`: sizing it once from a count was measured
/// (PR 22, Palace@0.18: 5.96 → 6.38 ms with the span walk, 5.70 → 6.31
/// from a byte bound) and not taken — EXPERIMENTS.md "What one thread
/// pays". Only a decode on several threads allocates once.
fn budget(input: usize) -> usize {
    4 * input + 4096
}

fn largest_request(decode: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    decode();
    LARGEST.load(Ordering::Relaxed)
}

fn tiny_scene() -> Scene {
    let mut scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.001));
    scene.gaussians.truncate(6);
    scene
}

fn check_binary(bytes: &[u8], why: &str) {
    let largest = largest_request(|| drop(io::decode_scene(bytes, 1)));
    assert!(
        largest <= budget(bytes.len()),
        "{why}: a {}-byte binary file made the decoder ask for {largest} bytes",
        bytes.len()
    );
}

/// On one thread (the growing `Vec`) and on two (the span walk).
fn check_json(text: &str, why: &str) {
    for threads in [1, 2] {
        let largest = largest_request(|| drop(io::decode_scene(text.as_bytes(), threads)));
        assert!(
            largest <= budget(text.len()),
            "{why}: a {}-byte JSON file made the decoder ask for {largest} bytes on {threads}",
            text.len()
        );
    }
}

// One test function: the high-water mark is process-wide, so nothing
// else may allocate while a decode is being watched.
#[test]
fn no_decode_reserves_more_than_its_input_justifies() {
    let scene = tiny_scene();
    let mut image = Vec::new();
    io::write_binary(&scene, &mut image).unwrap();
    let doc = io::to_json(&scene, false).unwrap();

    for cut in 0..=image.len() {
        check_binary(&image[..cut], "truncated");
    }
    for cut in (0..=doc.len()).filter(|&c| doc.is_char_boundary(c)) {
        check_json(&doc[..cut], "truncated");
    }

    // Every 8-byte window overwritten with counts a forger would try:
    // this hits the record count wherever it sits.
    for forged in [u64::MAX, u64::MAX / 236, 1 << 32, 1 << 24, 1 << 16] {
        for at in 8..image.len() - 8 {
            let mut bytes = image.clone();
            bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            check_binary(&bytes, "forged count");
        }
    }

    let mut rng = StdRng::seed_from_u64(0x5CE7_E004);
    for _ in 0..4000 {
        let mut bytes = image.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen_range(0..256usize) as u8;
        check_binary(&bytes, "byte edit");

        let mut bytes = doc.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len());
        const STRUCTURAL: &[u8] = b"[]{},:\"\\-+.eE0123456789 ";
        let byte = STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())];
        if rng.gen_range(0..3usize) == 0 {
            bytes.insert(at, byte);
        } else {
            bytes[at] = byte;
        }
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check_json(text, "byte edit");
        }
    }

    // The smallest records there can be: the JSON worst case above.
    let dense = |records: usize| {
        format!(
            "{{\"gaussians\":[{}]}}",
            vec![format!("[{}]", vec!["0"; 59].join(",")); records].join(",")
        )
    };
    check_json(&dense(300), "dense records");

    // Long enough (600 KB) to be decoded in chunks on two threads: the
    // array is sized once, from its span count, so twice the input
    // covers it (the document is then refused for the fields it lacks).
    // Cut anywhere, the walk stops short and the growing `Vec`'s budget
    // holds.
    let long = dense(5000);
    let largest = largest_request(|| drop(io::decode_scene(long.as_bytes(), 2)));
    assert!(
        largest <= budget(long.len()) / 2,
        "{} bytes of dense records made the chunked decoder ask for {largest} bytes",
        long.len()
    );
    for cut in [long.len() / 3, long.len() / 2, long.len() - 2] {
        let largest = largest_request(|| drop(io::decode_scene(&long.as_bytes()[..cut], 2)));
        assert!(largest <= budget(cut), "cut at {cut}: {largest} bytes");
    }
}
