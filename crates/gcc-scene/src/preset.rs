//! The six benchmark scenes of the paper, as statistical presets.
//!
//! Base Gaussian counts are proportional to the published model sizes
//! (Train ≈ 1.1 M, Truck ≈ 2.6 M, Playroom ≈ 2.3 M, Drjohnson ≈ 3.3 M,
//! Lego ≈ 0.3 M, Palace ≈ 0.25 M) at a default 1/20 scale; resolutions are
//! scaled versions of the evaluation resolutions (synthetic 800², T&T
//! ≈ 980×545, Deep Blending ≈ 1264×832). `SceneConfig::scale` rescales
//! counts for quick tests or heavier runs.

use crate::scene::{Scene, SceneConfig};

/// Coarse scene layout family, controlling how the generator places
/// Gaussian clusters and the default camera.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// Synthetic object-centric capture (Lego, Palace): a compact object
    /// at the origin, camera orbiting outside it, nearly everything in
    /// frustum.
    Object,
    /// Outdoor scan (Train, Truck): ground plane, a central subject, and a
    /// wide surrounding shell of background Gaussians, a third of which
    /// fall outside any single view.
    Outdoor,
    /// Indoor scan (Playroom, Drjohnson): room walls plus furniture
    /// clusters; the camera stands inside, so most content is in frustum.
    Indoor,
}

/// Generation parameters for one scene preset.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetParams {
    /// Scene name as used in the paper's tables.
    pub name: &'static str,
    /// Layout family.
    pub kind: SceneKind,
    /// Gaussian count at `scale = 1.0`.
    pub base_count: usize,
    /// Render resolution (width, height) at `scale = 1.0` (held fixed
    /// across scales; counts scale instead).
    pub resolution: (u32, u32),
    /// Vertical field of view, degrees.
    pub fov_y_deg: f32,
    /// Overall world radius of the scene content.
    pub world_radius: f32,
    /// Number of Gaussian clusters ("objects"/surfaces).
    pub cluster_count: usize,
    /// Spatial σ of each cluster relative to `world_radius`.
    pub cluster_sigma: f32,
    /// Median of the log-normal Gaussian scale distribution (ln units,
    /// world space).
    pub log_scale_mean: f32,
    /// σ of the log-normal scale distribution.
    pub log_scale_sigma: f32,
    /// Fraction of Gaussians drawn from the near-transparent opacity tail
    /// (ω ∈ [0.004, 0.08]).
    pub opacity_low_frac: f32,
    /// Fraction drawn from the mid band (ω ∈ [0.08, 0.6]); the remainder
    /// is the opaque mode (ω ∈ [0.6, 1.0]).
    pub opacity_mid_frac: f32,
    /// Half-angle (degrees) of the content sector around the default view
    /// direction; content outside it is what frustum culling removes.
    pub sector_half_angle_deg: f32,
    /// Camera orbit radius as a multiple of `world_radius`.
    pub camera_distance: f32,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

/// The six paper scenes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenePreset {
    /// Synthetic palace model (compact, Gaussians cluster near the view
    /// center — paper §5.2).
    Palace,
    /// Synthetic-NeRF Lego bulldozer (the paper's peak-throughput scene).
    Lego,
    /// Tanks & Temples "Train" (medium outdoor).
    Train,
    /// Tanks & Temples "Truck" (large outdoor).
    Truck,
    /// Deep Blending "Playroom" (indoor).
    Playroom,
    /// Deep Blending "Drjohnson" (large indoor).
    Drjohnson,
}

/// All presets in the paper's table order.
pub const ALL_PRESETS: [ScenePreset; 6] = [
    ScenePreset::Palace,
    ScenePreset::Lego,
    ScenePreset::Train,
    ScenePreset::Truck,
    ScenePreset::Playroom,
    ScenePreset::Drjohnson,
];

impl std::fmt::Display for ScenePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.params().name)
    }
}

impl ScenePreset {
    /// Generation parameters of this preset.
    pub fn params(&self) -> PresetParams {
        match self {
            ScenePreset::Palace => PresetParams {
                name: "Palace",
                kind: SceneKind::Object,
                base_count: 28_000,
                resolution: (256, 256),
                fov_y_deg: 47.0,
                world_radius: 1.6,
                cluster_count: 48,
                cluster_sigma: 0.16,
                log_scale_mean: -3.6,
                log_scale_sigma: 0.55,
                opacity_low_frac: 0.38,
                opacity_mid_frac: 0.34,
                sector_half_angle_deg: 180.0,
                camera_distance: 2.4,
                seed: 0x9a1ace,
            },
            ScenePreset::Lego => PresetParams {
                name: "Lego",
                kind: SceneKind::Object,
                base_count: 34_000,
                resolution: (256, 256),
                fov_y_deg: 47.0,
                world_radius: 1.4,
                cluster_count: 64,
                cluster_sigma: 0.14,
                log_scale_mean: -3.75,
                log_scale_sigma: 0.5,
                opacity_low_frac: 0.35,
                opacity_mid_frac: 0.33,
                sector_half_angle_deg: 180.0,
                camera_distance: 2.6,
                seed: 0x1e60,
            },
            ScenePreset::Train => PresetParams {
                name: "Train",
                kind: SceneKind::Outdoor,
                base_count: 110_000,
                resolution: (320, 180),
                fov_y_deg: 52.0,
                world_radius: 10.0,
                cluster_count: 90,
                cluster_sigma: 0.08,
                log_scale_mean: -2.62,
                log_scale_sigma: 0.7,
                opacity_low_frac: 0.34,
                opacity_mid_frac: 0.12,
                sector_half_angle_deg: 108.0,
                camera_distance: 0.55,
                seed: 0x7a11,
            },
            ScenePreset::Truck => PresetParams {
                name: "Truck",
                kind: SceneKind::Outdoor,
                base_count: 260_000,
                resolution: (320, 180),
                fov_y_deg: 52.0,
                world_radius: 12.0,
                cluster_count: 140,
                cluster_sigma: 0.08,
                log_scale_mean: -2.74,
                log_scale_sigma: 0.72,
                opacity_low_frac: 0.36,
                opacity_mid_frac: 0.24,
                sector_half_angle_deg: 102.0,
                camera_distance: 0.55,
                seed: 0x7276c,
            },
            ScenePreset::Playroom => PresetParams {
                name: "Playroom",
                kind: SceneKind::Indoor,
                base_count: 230_000,
                resolution: (320, 210),
                fov_y_deg: 62.0,
                world_radius: 4.5,
                cluster_count: 110,
                cluster_sigma: 0.10,
                log_scale_mean: -3.62,
                log_scale_sigma: 0.75,
                opacity_low_frac: 0.40,
                opacity_mid_frac: 0.22,
                sector_half_angle_deg: 140.0,
                camera_distance: 0.35,
                seed: 0x91a9,
            },
            ScenePreset::Drjohnson => PresetParams {
                name: "Drjohnson",
                kind: SceneKind::Indoor,
                base_count: 330_000,
                resolution: (320, 210),
                fov_y_deg: 62.0,
                world_radius: 5.5,
                cluster_count: 150,
                cluster_sigma: 0.10,
                log_scale_mean: -3.32,
                log_scale_sigma: 0.78,
                opacity_low_frac: 0.40,
                opacity_mid_frac: 0.33,
                sector_half_angle_deg: 145.0,
                camera_distance: 0.35,
                seed: 0xd101,
            },
        }
    }

    /// Builds the scene for this preset under `config`, on every hardware
    /// thread: [`Self::build_on`] for a caller with nothing else running.
    pub fn build(&self, config: &SceneConfig) -> Scene {
        self.build_on(config, gcc_parallel::available_threads())
    }

    /// Builds the scene for this preset under `config` on up to `threads`
    /// threads (what a serving worker is lent at the moment it loads).
    /// The scene is the same, bit for bit, at every thread count.
    pub fn build_on(&self, config: &SceneConfig, threads: usize) -> Scene {
        crate::builder::build_scene(&self.params(), config, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_presets_with_paper_names() {
        let names: Vec<&str> = ALL_PRESETS.iter().map(|p| p.params().name).collect();
        assert_eq!(
            names,
            ["Palace", "Lego", "Train", "Truck", "Playroom", "Drjohnson"]
        );
    }

    #[test]
    fn counts_are_proportional_to_published_model_sizes() {
        // Train : Truck : Playroom : Drjohnson ≈ 1.1 : 2.6 : 2.3 : 3.3.
        let train = ScenePreset::Train.params().base_count as f64;
        let truck = ScenePreset::Truck.params().base_count as f64;
        let drj = ScenePreset::Drjohnson.params().base_count as f64;
        assert!((truck / train - 2.6 / 1.1).abs() < 0.3);
        assert!((drj / train - 3.3 / 1.1).abs() < 0.4);
    }

    #[test]
    fn opacity_fractions_are_valid() {
        for p in ALL_PRESETS {
            let pa = p.params();
            assert!(
                pa.opacity_low_frac + pa.opacity_mid_frac < 1.0,
                "{}",
                pa.name
            );
            assert!(pa.opacity_low_frac > 0.0);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ScenePreset::Lego.to_string(), "Lego");
    }
}
