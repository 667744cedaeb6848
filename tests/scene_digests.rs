//! Golden pins of the synthetic scenes themselves: one FNV-1a digest over
//! every float of every Gaussian, for each preset at two test scales, the
//! repo benchmark's five scenes, and two seeds of each — so "the same
//! scene, bit for bit" is something the suite checks whatever route a
//! scene was built through and on however many threads. (That a cold load
//! inside a `RenderService` leaves the same scene resident is checked
//! where the cache can be looked into: `gcc-serve`'s
//! `a_cold_load_on_lent_threads_leaves_the_scene_a_direct_build_is`.)
//!
//! To re-pin after an *intended* change to the synthesis, run
//! `cargo test --test scene_digests -- --nocapture`: on a mismatch the
//! test prints the whole table in paste-ready form before failing.

use gcc_scene::{Scene, SceneConfig, ScenePreset, ALL_PRESETS};

/// FNV-1a folded per 32-bit word (the fold of `tests/golden_frames.rs`)
/// over the Gaussian count and the bit pattern of every record float, in
/// `Gaussian3D::to_floats` order.
fn scene_digest(scene: &Scene) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u32| h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
    word(scene.len() as u32);
    for g in &scene.gaussians {
        for v in g.to_floats() {
            word(v.to_bits());
        }
    }
    h
}

/// The seed every scene is also pinned under, beside its preset's own.
const OTHER_SEED: u64 = 7;

/// `(preset, scale)` of every pinned scene: the six presets at the two
/// scales the test suites build them at, then the scenes of the repo
/// benchmark (`benchmark/src/script.rs`).
fn pinned_scenes() -> Vec<(ScenePreset, f32)> {
    let mut scenes = Vec::new();
    for preset in ALL_PRESETS {
        for scale in [0.02, 0.1] {
            scenes.push((preset, scale));
        }
    }
    scenes.extend([
        (ScenePreset::Lego, 0.5),
        (ScenePreset::Lego, 0.25),
        (ScenePreset::Lego, 0.15),
        (ScenePreset::Train, 0.05),
        (ScenePreset::Palace, 0.18),
    ]);
    scenes
}

/// `[default seed, OTHER_SEED]` digests, in [`pinned_scenes`] order.
const PINS: [[u64; 2]; 17] = [
    [0xb297f03e1ed66bf8, 0xb815e7a611d971b8], // Palace@0.02
    [0xfb7ee275016931eb, 0xd7be9d7d938c7c17], // Palace@0.1
    [0x83ace3b4f2c7fe38, 0xf063d08559a085f3], // Lego@0.02
    [0xc31abb65030b9c58, 0xd95c988860d4673a], // Lego@0.1
    [0x74a36118109808c9, 0x1373657aa67b5f48], // Train@0.02
    [0xde19b69cd000ab18, 0x227a6177fe8c136f], // Train@0.1
    [0xd04291371ed5dd16, 0xe1ace1ace5da16b1], // Truck@0.02
    [0x665b4ca90b00cb9b, 0x370cdee45535d3b1], // Truck@0.1
    [0xdbf922cf2a9f5d4b, 0x63655362fffc30b0], // Playroom@0.02
    [0xcd025036bfcd6b24, 0x5d2187862657936b], // Playroom@0.1
    [0xc169060648841d50, 0x61996f5318b3d2ab], // Drjohnson@0.02
    [0x3794a46a6a70deab, 0x71c1f95d48bab8c7], // Drjohnson@0.1
    [0x958c39a692d26730, 0xf05d21eb98f7dedb], // Lego@0.5
    [0xd0d44c93893c2b7a, 0x6a0fed25aa6f68f3], // Lego@0.25
    [0x36dd44bf236fadc3, 0x50538c75dc25e93c], // Lego@0.15
    [0x827bfceb86221425, 0xe56cd617b4a70ca5], // Train@0.05
    [0xcc6d7be6436af6d2, 0xf136d34d7fc33861], // Palace@0.18
];

fn config(scale: f32, seed: Option<u64>) -> SceneConfig {
    SceneConfig {
        seed,
        ..SceneConfig::with_scale(scale)
    }
}

/// Digests of every pinned scene as `build` builds it under the seeds of
/// `columns` (0: the preset's own, 1: [`OTHER_SEED`]), checked against
/// [`PINS`]; on a mismatch the measured table is printed paste-ready.
fn check(route: &str, columns: &[usize], build: impl Fn(ScenePreset, &SceneConfig) -> Scene) {
    let scenes = pinned_scenes();
    assert_eq!(scenes.len(), PINS.len());
    let mut measured = PINS;
    for (row, &(preset, scale)) in measured.iter_mut().zip(&scenes) {
        for &column in columns {
            let seed = [None, Some(OTHER_SEED)][column];
            row[column] = scene_digest(&build(preset, &config(scale, seed)));
        }
    }
    if measured != PINS {
        println!("const PINS: [[u64; 2]; {}] = [", measured.len());
        for ([default, other], (preset, scale)) in measured.iter().zip(&scenes) {
            println!("    [{default:#018x}, {other:#018x}], // {preset}@{scale}");
        }
        println!("];");
    }
    for ((pin, got), (preset, scale)) in PINS.iter().zip(&measured).zip(&scenes) {
        assert_eq!(
            got, pin,
            "{route}: {preset}@{scale} [default seed, seed {OTHER_SEED}]: {got:#018x?}"
        );
    }
}

#[test]
fn every_preset_builds_its_pinned_scene() {
    check("ScenePreset::build", &[0, 1], |preset, config| {
        preset.build(config)
    });
}

#[test]
fn every_thread_count_builds_the_pinned_scenes() {
    // One thread is the fused loop, two the scout and one filler, three
    // and eight more fillers than this host may have cores for.
    for threads in [1, 2, 3, 8] {
        check(
            &format!("build_on(_, {threads})"),
            &[0, 1],
            |preset, config| preset.build_on(config, threads),
        );
    }
}

#[test]
fn a_scene_source_loads_the_pinned_scenes() {
    use gcc_repro::serve::SceneSource;
    // A source has no seed of its own: the default seed's column.
    for threads in [1, 2, 3] {
        check(&format!("load_on({threads})"), &[0], |preset, config| {
            let source = SceneSource::Preset {
                preset,
                scale: config.scale,
            };
            let scene = source.load_on(threads).expect("a preset builds");
            std::sync::Arc::unwrap_or_clone(scene)
        });
    }
}
