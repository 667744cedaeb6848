//! Request scripts: the fixed cyclic sequences each workload replays,
//! generated from `--seed`.
//!
//! The seed moves view phases and the orbit start angle — never scene
//! sizes, client counts, frame counts or the scene × schedule rotation
//! order — so every seed asks for the same amount of work in the same
//! order (the driver compares runs of different seeds, so whatever the
//! seed moves shows up as run-to-run spread). The program under test
//! only ever receives the generated requests.

use std::time::Duration;

use gcc_render::{RenderOptions, Schedule};
use gcc_scene::rng::StdRng;
use gcc_scene::{ScenePreset, ViewSpec};
use gcc_serve::{Priority, StreamConfig};

/// Output size of every frame in every workload.
pub const RESOLUTION: (u32, u32) = (256, 256);

/// Views per lap of `render_orbit` and per stream of `deadline_lod`.
pub const LAP: usize = 48;

/// Frames per Bulk orbit stream of the served workloads.
pub const BULK_ORBIT: usize = 24;

/// On-disk format of a served scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneFormat {
    /// `gcc_scene::io::write_binary_file`.
    Binary,
    /// `gcc_scene::io::write_json_file`.
    Json,
}

/// One scene of a workload: where it comes from and the id it serves
/// under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneDef {
    /// Registry id (for the sharded topology, also the ring key).
    pub id: &'static str,
    /// Preset the scene is synthesized from.
    pub preset: ScenePreset,
    /// Count scale of the preset.
    pub scale: f32,
    /// File format the served workloads load it from.
    pub format: SceneFormat,
}

/// The scene of `render_orbit`: Lego@0.25 (8.5k Gaussians).
pub const ORBIT_SCENE: SceneDef = SceneDef {
    id: "lego",
    preset: ScenePreset::Lego,
    scale: 0.25,
    format: SceneFormat::Binary,
};

/// The scene of `deadline_lod`: Lego@0.5 (17k Gaussians), sized so the
/// `full` rung misses a 33 ms deadline and `half_res` meets it.
pub const LOD_SCENE: SceneDef = SceneDef {
    id: "lego",
    preset: ScenePreset::Lego,
    scale: 0.5,
    format: SceneFormat::Binary,
};

/// The three scenes of `serve_mixed` / `wire_loopback`, two binary and
/// one JSON. The ids are ring keys: `ShardRing::new(2)` sends `a` and
/// `c` to backend 0 and `b` to backend 1 (all six paper scene names
/// land on backend 1, which would idle a shard); set-up asserts the
/// split.
pub const SERVED_SCENES: [SceneDef; 3] = [
    SceneDef {
        id: "a",
        preset: ScenePreset::Lego,
        scale: 0.15,
        format: SceneFormat::Binary,
    },
    SceneDef {
        id: "b",
        preset: ScenePreset::Train,
        scale: 0.05,
        format: SceneFormat::Binary,
    },
    SceneDef {
        id: "c",
        preset: ScenePreset::Palace,
        scale: 0.18,
        format: SceneFormat::Json,
    },
];

/// The four schedules the Interactive client rotates through.
pub const SERVED_SCHEDULES: [Schedule; 4] = [
    Schedule::Standard,
    Schedule::Gscore,
    Schedule::GaussianWise,
    Schedule::GccHardware,
];

/// Options of one scripted frame.
pub fn options(schedule: Schedule) -> RenderOptions {
    RenderOptions::default()
        .with_schedule(schedule)
        .at_resolution(RESOLUTION.0, RESOLUTION.1)
}

/// FNV-1a over the `Debug` rendering of a script: equal hashes mean the
/// program received the same requests.
fn hash_debug(script: &impl std::fmt::Debug) -> u64 {
    format!("{script:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `n` orbit views evenly spaced over a full turn from `start`.
fn orbit_from(start: f32, n: usize) -> Vec<ViewSpec> {
    (0..n)
        .map(|i| ViewSpec::orbit(start + std::f32::consts::TAU * i as f32 / n as f32))
        .collect()
}

/// `render_orbit`: one trajectory lap, rendered alternately through the
/// Gaussian-wise and the standard schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbitScript {
    /// The lap's views (`t = (i + phase) / LAP`).
    pub views: Vec<ViewSpec>,
}

impl OrbitScript {
    /// Schedule of the even and of the odd laps.
    pub const SCHEDULES: [Schedule; 2] = [Schedule::GaussianWise, Schedule::Standard];

    /// The script for `seed`.
    pub fn generate(seed: u64) -> Self {
        let phase: f32 = StdRng::seed_from_u64(seed).gen();
        let views = (0..LAP)
            .map(|i| ViewSpec::trajectory((i as f32 + phase) / LAP as f32))
            .collect();
        Self { views }
    }

    /// Script hash (see [`hash_debug`]).
    pub fn hash(&self) -> u64 {
        hash_debug(self)
    }
}

/// One Interactive request: a one-frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveRequest {
    /// Index into [`SERVED_SCENES`].
    pub scene: usize,
    /// Schedule of the frame.
    pub schedule: Schedule,
    /// The view.
    pub view: ViewSpec,
}

/// One Bulk stream: an orbit turn over one scene on `standard`.
#[derive(Debug, Clone, PartialEq)]
pub struct BulkStream {
    /// Index into [`SERVED_SCENES`].
    pub scene: usize,
    /// The stream's views.
    pub views: Vec<ViewSpec>,
}

/// `serve_mixed` / `wire_loopback`: the cyclic request sequences of the
/// Interactive client A and the Bulk client B.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScript {
    /// Client A: 48 one-frame requests, every scene × schedule pair four
    /// times, each at its own trajectory view.
    pub interactive: Vec<InteractiveRequest>,
    /// Client B: one orbit stream per scene.
    pub bulk: Vec<BulkStream>,
}

impl ServeScript {
    /// Client A's stream policy: Interactive, one frame outstanding.
    pub fn interactive_config() -> StreamConfig {
        StreamConfig::default()
            .with_priority(Priority::Interactive)
            .with_window(1)
    }

    /// Client B's stream policy: Bulk, four frames in flight.
    pub fn bulk_config() -> StreamConfig {
        StreamConfig::bulk().with_window(4)
    }

    /// The script for `seed`. Request `k` asks for scene `k % 3` through
    /// schedule `(k / 3) % 4`, so consecutive requests alternate scenes
    /// (and shards) and every twelve cover every pair.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let phase: f32 = rng.gen();
        let scenes = SERVED_SCENES.len();
        let total = 4 * scenes * SERVED_SCHEDULES.len();
        let interactive = (0..total)
            .map(|k| InteractiveRequest {
                scene: k % scenes,
                schedule: SERVED_SCHEDULES[(k / scenes) % SERVED_SCHEDULES.len()],
                view: ViewSpec::trajectory(((k as f32 + phase) / total as f32).fract()),
            })
            .collect();
        let start = rng.gen::<f32>() * std::f32::consts::TAU;
        let bulk = (0..scenes)
            .map(|scene| BulkStream {
                scene,
                views: orbit_from(start, BULK_ORBIT),
            })
            .collect();
        Self { interactive, bulk }
    }

    /// Script hash (see [`hash_debug`]).
    pub fn hash(&self) -> u64 {
        hash_debug(self)
    }
}

/// `deadline_lod`: one orbit turn, streamed back to back at 30 Hz under
/// a 33 ms per-frame deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct LodScript {
    /// The stream's views.
    pub views: Vec<ViewSpec>,
}

impl LodScript {
    /// Per-frame deadline.
    pub const DEADLINE: Duration = Duration::from_millis(33);

    /// Pacing interval: frame `k` is due at `t0 + k · TICK` (30 Hz).
    pub const TICK: Duration = Duration::from_nanos(1_000_000_000 / 30);

    /// The stream policy: Interactive, one frame outstanding, the
    /// deadline on every frame.
    pub fn config() -> StreamConfig {
        StreamConfig::default()
            .with_priority(Priority::Interactive)
            .with_window(1)
            .with_deadline(Self::DEADLINE)
    }

    /// The script for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = rng.gen::<f32>() * std::f32::consts::TAU;
        Self {
            views: orbit_from(start, LAP),
        }
    }

    /// Script hash (see [`hash_debug`]).
    pub fn hash(&self) -> u64 {
        hash_debug(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        assert_eq!(OrbitScript::generate(12), OrbitScript::generate(12));
        assert_eq!(
            ServeScript::generate(12).hash(),
            ServeScript::generate(12).hash()
        );
        assert_eq!(
            LodScript::generate(12).hash(),
            LodScript::generate(12).hash()
        );
        assert_ne!(
            OrbitScript::generate(12).hash(),
            OrbitScript::generate(13).hash()
        );
        assert_ne!(
            ServeScript::generate(12).hash(),
            ServeScript::generate(13).hash()
        );
        assert_ne!(
            LodScript::generate(12).hash(),
            LodScript::generate(13).hash()
        );
    }

    #[test]
    fn the_seed_moves_views_but_never_the_amount_or_order_of_work() {
        for seed in [0, 12, 13, u64::MAX] {
            let orbit = OrbitScript::generate(seed);
            assert_eq!(orbit.views.len(), LAP);
            let serve = ServeScript::generate(seed);
            assert_eq!(serve.interactive.len(), 48);
            for scene in 0..SERVED_SCENES.len() {
                for schedule in SERVED_SCHEDULES {
                    let n = serve
                        .interactive
                        .iter()
                        .filter(|r| r.scene == scene && r.schedule == schedule)
                        .count();
                    assert_eq!(n, 4, "seed {seed}: scene {scene} × {schedule}");
                }
            }
            let bulk: Vec<usize> = serve.bulk.iter().map(|b| b.scene).collect();
            assert_eq!(bulk, [0, 1, 2]);
            assert!(serve.bulk.iter().all(|b| b.views.len() == BULK_ORBIT));
            assert_eq!(LodScript::generate(seed).views.len(), LAP);
            for r in &serve.interactive {
                r.view.validate().expect("scripted views are valid");
            }
        }
    }
}
