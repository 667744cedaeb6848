//! A hostile payload cannot make a wire decoder reserve more memory than
//! its own size justifies.
//!
//! Every size a payload declares — a collection's count, an image's
//! width × height — is checked against the bytes that remain before
//! anything is allocated from it. This test watches every allocation a
//! decode makes — through a counting global allocator, which is why it is
//! an integration test of its own: the crate itself forbids `unsafe` —
//! and holds the largest single request far below what the forged sizes
//! ask for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gcc_render::RenderOptions;
use gcc_serve::{ServeStats, StreamConfig, StreamSpec};
use gcc_wire::{Request, Response, WireError};

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

const MIB: usize = 1 << 20;

/// The kind byte of `Response::Frame`.
const FRAME: u8 = 0x82;

/// Decodes a forged payload, which must be `Malformed`, and returns the
/// largest single allocation the attempt made.
fn largest_request<T: std::fmt::Debug>(decode: impl FnOnce() -> Result<T, WireError>) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = decode();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        matches!(outcome, Err(WireError::Malformed(_))),
        "a forged payload decoded to {outcome:?}"
    );
    largest
}

/// Overwrites the first occurrence of `old` in `bytes` with `new`.
fn forge(bytes: &mut [u8], old: &[u8], new: &[u8]) {
    let at = bytes
        .windows(old.len())
        .position(|w| w == old)
        .expect("the value being forged is in the payload");
    bytes[at..at + new.len()].copy_from_slice(new);
}

// One test function: the high-water mark is process-wide, so nothing
// else may allocate while a decode is being watched.
#[test]
fn no_decode_reserves_more_than_its_payload_justifies() {
    // A 24-byte `Frame` payload — stream, index, width, height and no
    // pixel — declaring 8192 x 8192: 768 MiB of pixels if believed.
    let mut frame = Vec::new();
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.extend_from_slice(&8192u32.to_le_bytes());
    frame.extend_from_slice(&8192u32.to_le_bytes());
    assert_eq!(frame.len(), 24);
    let largest = largest_request(|| Response::decode(FRAME, &frame));
    assert!(largest < MIB, "a 24-byte frame asked for {largest} bytes");

    // The same header in front of a frame's worth of counters.
    frame.extend_from_slice(&[0u8; 24 * 8]);
    let largest = largest_request(|| Response::decode(FRAME, &frame));
    assert!(largest < MIB, "a 216-byte frame asked for {largest} bytes");

    // An `Open` whose view list declares 2^20 views and carries none.
    let (kind, mut open) = Request::Open {
        scene: "palace".into(),
        defaults: RenderOptions::default(),
        spec: StreamSpec::ViewList(Vec::new()),
        config: StreamConfig::default(),
    }
    .encode();
    // The count sits in front of the default config's 10 bytes
    // (priority, no deadline, window).
    let at = open.len() - 14;
    assert_eq!(open[at - 1..at + 4], [2, 0, 0, 0, 0], "ViewList tag, count");
    open[at..at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    let largest = largest_request(|| Request::decode(kind, &open));
    assert!(
        largest < MIB,
        "a {}-byte open asked for {largest} bytes",
        open.len()
    );

    // A stats snapshot whose rung and decision counts are forged.
    let mut stats = ServeStats::default();
    stats.lod.frames_by_rung = vec![7, 7, 7];
    let (kind, snapshot) = Response::Stats(Box::new(stats)).encode();
    for forged in [u32::MAX, 1 << 24, 1 << 16] {
        let mut bytes = snapshot.clone();
        forge(&mut bytes, &3u32.to_le_bytes(), &forged.to_le_bytes());
        let largest = largest_request(|| Response::decode(kind, &bytes));
        assert!(
            largest < MIB,
            "a {}-byte snapshot asked for {largest} bytes",
            bytes.len()
        );
    }
}
