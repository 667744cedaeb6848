//! Golden pins: hard-coded image checksums and `FrameStats` digests for
//! every schedule, so "bit-identical to the previous commit" is something
//! the test suite checks rather than a sentence in a changelog.
//!
//! The matrix is the five [`Schedule`]s × {Lego@0.1, Train@0.05} × {full
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
const PINS: [(u64, u64); 20] = [
    (0x25755c2c79ec5286, 0xe2814a64a7381efd), // Lego@0.1 reference full
    (0xc9f22101b0a1b5bc, 0x36bab6206eaf6455), // Lego@0.1 reference roi
    (0x25755c2c79ec5286, 0xe2814a64a7381efd), // Lego@0.1 standard full
    (0xc9f22101b0a1b5bc, 0x36bab6206eaf6455), // Lego@0.1 standard roi
    (0xba2d2de25137240a, 0xc0c28091fc057248), // Lego@0.1 gscore full
    (0x5393aee677aff55c, 0x72f18af1ba18fc78), // Lego@0.1 gscore roi
    (0xe755864fda74ca65, 0x2aea72a434624d3e), // Lego@0.1 gaussian_wise full
    (0xb7e0fa39d3cb6437, 0x7749d4bdf1a3782f), // Lego@0.1 gaussian_wise roi
    (0x265184153e1ae1a0, 0x4f44e52f2b8dba37), // Lego@0.1 gcc_hardware full
    (0xe9480b7bcae46ced, 0x26d6197ef0b1647a), // Lego@0.1 gcc_hardware roi
    (0x219d4daed6e62560, 0xe209edf72ff0331f), // Train@0.05 reference full
    (0x8b29db1ceaa7d615, 0x1c366fd6caa5bf9d), // Train@0.05 reference roi
    (0x219d4daed6e62560, 0xe209edf72ff0331f), // Train@0.05 standard full
    (0x8b29db1ceaa7d615, 0x1c366fd6caa5bf9d), // Train@0.05 standard roi
    (0x2f8dab9f21654995, 0x2d8f26b75b5f5caa), // Train@0.05 gscore full
    (0xa9cb75d9d3ead5c4, 0x5fa4f7207add8578), // Train@0.05 gscore roi
    (0x33b70dabc4af88a2, 0xab759982b1a0d220), // Train@0.05 gaussian_wise full
    (0xe4a8125e08d18bb3, 0xfd50749e64601937), // Train@0.05 gaussian_wise roi
    (0x2b20ae38272a848f, 0x201d08e286d81be3), // Train@0.05 gcc_hardware full
    (0xa53840ac3533f4a0, 0x23f9182db7d72bbd), // Train@0.05 gcc_hardware roi
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
            let renderer = schedule.renderer_with(parallelism);
            for roi in [None, Some(centre)] {
                let options = match roi {
                    Some(r) => RenderOptions::default().with_roi(r),
                    None => RenderOptions::default(),
                };
                let job = RenderJob::with_options(&scene.gaussians, &cam, options);
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
