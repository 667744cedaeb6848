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
    [0xa209ea326e1e75f1, 0x51228ddd112bc7da], // Palace@0.02
    [0xf26c47e876cc6060, 0xd5faf7e5f171ad27], // Palace@0.1
    [0x640ce31c27667b23, 0x00b7bd5b28199a94], // Lego@0.02
    [0x87d1d3a96178f502, 0x560d04fc1c6067e3], // Lego@0.1
    [0x2211b49c63834631, 0x0bfb1c98cabccb7d], // Train@0.02
    [0xc2fe344c71292f4c, 0x93ae7460658148c0], // Train@0.1
    [0x085d09914bc4b787, 0xddfc9897ed071207], // Truck@0.02
    [0x5c32b748bd0c35f3, 0x2ed432ee28d2bd62], // Truck@0.1
    [0x04836c4bb0770f8a, 0x354a34cbd1d2b8b7], // Playroom@0.02
    [0x158a7a7c84fce7e1, 0x2f5bb63a7576436d], // Playroom@0.1
    [0xbe4cfc47395ecb46, 0x81562a2b9ea6c0b5], // Drjohnson@0.02
    [0x73ebe2672bf689b5, 0xaaa49fcb02e884ca], // Drjohnson@0.1
    [0x2605dc5a44fbffc4, 0x690660d79f904ba6], // Lego@0.5
    [0xaa2064abcbd33bb5, 0xde6055ad385e0f0c], // Lego@0.25
    [0xd0b2c4c0d948eccf, 0xf3e634cece53a52a], // Lego@0.15
    [0xa28b6a240963e17f, 0x5f4ad5d616482b95], // Train@0.05
    [0x0f1322b7d3397f44, 0x0cdf36e9a2764522], // Palace@0.18
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
