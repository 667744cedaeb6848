//! Golden pins: hard-coded image checksums and `FrameStats` digests for
//! every schedule, so "bit-identical to the previous commit" is something
//! the test suite checks rather than a sentence in a changelog.
//!
//! The matrix is the four [`Schedule`]s × {Lego@0.1, Train@0.05} × {full
//! frame, centre-quarter ROI}, each rendered under `Sequential` and
//! `fixed(2)` — both thread counts must hit the same pin. The stats digest
//! covers every `FrameStats` field except `pixels_tested_obb` (a Table 1
//! diagnostic whose population rule is allowed to change; see
//! `pipeline/stats.rs`).
//!
//! To re-pin after an *intended* output change, run
//! `cargo test --test golden_frames -- --nocapture`: on a mismatch the test
//! prints the whole table in paste-ready form before failing.

use gcc_repro::render::pipeline::{FrameScratch, FrameStats, Parallelism};
use gcc_repro::render::{Image, RenderJob, RenderOptions, Roi, Schedule};
use gcc_scene::{SceneConfig, ScenePreset};

/// FNV-1a folded per 32-bit word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        self.0 = (self.0 ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn long(&mut self, v: u64) {
        self.word(v as u32);
        self.word((v >> 32) as u32);
    }
}

/// Order-sensitive checksum over the image size and the exact bit pattern
/// of every channel — one flipped mantissa bit changes it.
fn image_checksum(image: &Image) -> u64 {
    let mut h = Fnv::new();
    h.word(image.width());
    h.word(image.height());
    for p in image.pixels() {
        h.word(p.x.to_bits());
        h.word(p.y.to_bits());
        h.word(p.z.to_bits());
    }
    h.0
}

/// Digest of every counter but `pixels_tested_obb`. The exhaustive
/// destructuring makes a new `FrameStats` field a compile error here, so
/// the pin can never silently stop covering one.
fn stats_digest(stats: &FrameStats) -> u64 {
    let FrameStats {
        total_gaussians,
        geometry_loads,
        projected,
        sh_loads,
        rendered,
        render_invocations,
        pixels_blended,
        sort_elements,
        windows,
        tiles,
        kv_pairs,
        tile_loads,
        unique_loaded,
        pixels_tested,
        pixels_tested_aabb,
        pixels_tested_obb: _,
        near_culled,
        groups_total,
        groups_processed,
        groups_skipped,
        blocks_dispatched,
        blocks_masked_skips,
        pixels_evaluated,
        alpha_lane_evals,
    } = *stats;
    let mut h = Fnv::new();
    for v in [
        total_gaussians,
        geometry_loads,
        projected,
        sh_loads,
        rendered,
        render_invocations,
        pixels_blended,
        sort_elements,
        windows,
        tiles,
        kv_pairs,
        tile_loads,
        unique_loaded,
        pixels_tested,
        pixels_tested_aabb,
        near_culled,
        groups_total,
        groups_processed,
        groups_skipped,
        blocks_dispatched,
        blocks_masked_skips,
        pixels_evaluated,
        alpha_lane_evals,
    ] {
        h.long(v);
    }
    h.0
}

const SCENES: [(ScenePreset, f32); 2] = [(ScenePreset::Lego, 0.1), (ScenePreset::Train, 0.05)];

/// `(image checksum, stats digest)` per scene × schedule × {full, ROI},
/// in the iteration order of [`render_matrix`].
const PINS: [(u64, u64); 16] = [
    (0xcde98825a0218e61, 0xe2814a64a7381efd), // Lego@0.1 standard full
    (0xbae45c4259a11339, 0x36bab6206eaf6455), // Lego@0.1 standard roi
    (0xcbafc84cc299897d, 0x543a36e1ce4cc36a), // Lego@0.1 gscore full
    (0x517eb0d36a4332e2, 0x967e1c2f0cbab50b), // Lego@0.1 gscore roi
    (0x64c3589a16fd9bfc, 0x2aea72a434624d3e), // Lego@0.1 gaussian_wise full
    (0x56548fe9677237e6, 0x7749d4bdf1a3782f), // Lego@0.1 gaussian_wise roi
    (0x2ded5c853cc3f37d, 0x4f44e52f2b8dba37), // Lego@0.1 gcc_hardware full
    (0x0e7199a2a3d9958f, 0x26d6197ef0b1647a), // Lego@0.1 gcc_hardware roi
    (0x8e39a387fd85fce8, 0xe209edf72ff0331f), // Train@0.05 standard full
    (0x3a8352b27f9baea5, 0x1c366fd6caa5bf9d), // Train@0.05 standard roi
    (0x9e9595cf9062487e, 0x2d8f26b75b5f5caa), // Train@0.05 gscore full
    (0x089317890f0cd64e, 0x5fa4f7207add8578), // Train@0.05 gscore roi
    (0x1f0c73c39e45f709, 0xab759982b1a0d220), // Train@0.05 gaussian_wise full
    (0xec8d05fd446fab08, 0xfd50749e64601937), // Train@0.05 gaussian_wise roi
    (0x0394742faa4f3956, 0xf48bdfabfb792a4a), // Train@0.05 gcc_hardware full
    (0x605235332cb6f72c, 0x23f9182db7d72bbd), // Train@0.05 gcc_hardware roi
];

/// Renders the whole matrix under `parallelism`; one `(label, image
/// checksum, stats digest)` per cell.
fn render_matrix(parallelism: Parallelism) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let mut scratch = FrameScratch::new();
    for (preset, scale) in SCENES {
        let scene = preset.build(&SceneConfig::with_scale(scale));
        let cam = scene.default_camera();
        let centre = Roi::new(cam.width / 4, cam.height / 4, cam.width / 2, cam.height / 2);
        for schedule in Schedule::ALL {
            let renderer = schedule.renderer();
            for roi in [None, Some(centre)] {
                let options = match roi {
                    Some(r) => RenderOptions::default().with_roi(r),
                    None => RenderOptions::default(),
                };
                let job = RenderJob::with_options(&scene.gaussians, &cam, options)
                    .with_parallelism(parallelism);
                let frame = renderer.render_job(&job, &mut scratch);
                let region = if roi.is_some() { "roi" } else { "full" };
                out.push((
                    format!("{preset}@{scale} {schedule} {region}"),
                    image_checksum(&frame.image),
                    stats_digest(&frame.stats),
                ));
            }
        }
    }
    out
}

#[test]
fn every_schedule_reproduces_its_golden_image_and_stats() {
    for parallelism in [Parallelism::Sequential, Parallelism::fixed(2)] {
        let cells = render_matrix(parallelism);
        assert_eq!(cells.len(), PINS.len());
        let matches = cells
            .iter()
            .zip(PINS)
            .all(|((_, image, stats), pin)| (*image, *stats) == pin);
        if !matches {
            println!("const PINS: [(u64, u64); {}] = [", cells.len());
            for (label, image, stats) in &cells {
                println!("    ({image:#018x}, {stats:#018x}), // {label}");
            }
            println!("];");
        }
        for ((label, image, stats), (want_image, want_stats)) in cells.iter().zip(PINS) {
            assert_eq!(
                *image, want_image,
                "{label} ({parallelism:?}): image checksum moved"
            );
            assert_eq!(
                *stats, want_stats,
                "{label} ({parallelism:?}): FrameStats digest moved"
            );
        }
    }
}

/// Every schedule is a distinct configuration: two whose pins agree on a
/// scene and region are one configuration under two names.
#[test]
fn no_two_schedules_share_a_pin() {
    let regions = ["full", "roi"];
    let per_scene = Schedule::ALL.len() * regions.len();
    assert_eq!(PINS.len(), SCENES.len() * per_scene);
    for (scene, (preset, scale)) in SCENES.iter().enumerate() {
        for (region, name) in regions.iter().enumerate() {
            let pin = |s: usize| PINS[scene * per_scene + s * regions.len() + region];
            for a in 0..Schedule::ALL.len() {
                for b in a + 1..Schedule::ALL.len() {
                    assert_ne!(
                        pin(a),
                        pin(b),
                        "{preset}@{scale} {name}: {} and {} share a pin",
                        Schedule::ALL[a],
                        Schedule::ALL[b]
                    );
                }
            }
        }
    }
}
