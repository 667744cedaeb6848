//! The [`Scene`] container: a Gaussian cloud plus the camera rig it is
//! meant to be viewed with, and aggregate statistics.

use crate::lod::SceneLod;
use crate::trajectory::OrbitRig;
use gcc_core::{Camera, Gaussian3D};

/// Controls how a preset is instantiated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Multiplies the preset's base Gaussian count. `1.0` is the default
    /// repro scale documented in `DESIGN.md` §7; tests typically run at
    /// `0.02`–`0.1`.
    pub scale: f32,
    /// Optional seed override (defaults to the preset's own seed).
    pub seed: Option<u64>,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: None,
        }
    }
}

impl SceneConfig {
    /// Config with a count scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale ≤ 100`.
    pub fn with_scale(scale: f32) -> Self {
        assert!(
            scale > 0.0 && scale <= 100.0,
            "scene scale {scale} out of range"
        );
        Self { scale, seed: None }
    }

    /// Reads `GCC_SCENE_SCALE` from the environment (used by the bench
    /// binaries), falling back to `default_scale`.
    pub fn from_env(default_scale: f32) -> Self {
        let scale = std::env::var("GCC_SCENE_SCALE")
            .ok()
            .and_then(|s| s.parse::<f32>().ok())
            .filter(|s| *s > 0.0 && *s <= 100.0)
            .unwrap_or(default_scale);
        Self::with_scale(scale)
    }
}

/// A synthesized scene: Gaussians plus viewing setup.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Scene name (paper table row).
    pub name: String,
    /// The Gaussian cloud.
    pub gaussians: Vec<Gaussian3D>,
    /// Render resolution (width, height).
    pub resolution: (u32, u32),
    /// Vertical field of view in degrees.
    pub fov_y_deg: f32,
    /// Default camera trajectory.
    pub rig: OrbitRig,
    /// Optional coarse-to-fine Gaussian hierarchy for the adaptive
    /// quality ladder, built in memory by `gcc-lod` (the serving layer
    /// builds one when it loads a scene under a ladder). No scene file
    /// stores it: a loaded scene has `None`, and the writers leave it
    /// out. `None` means only full quality is available.
    pub lod: Option<SceneLod>,
}

impl Scene {
    /// Camera at trajectory parameter `t ∈ [0, 1)` (one full orbit).
    pub fn camera(&self, t: f32) -> Camera {
        self.rig
            .camera(t, self.fov_y_deg, self.resolution.0, self.resolution.1)
    }

    /// The evaluation viewpoint used by the single-frame experiments.
    pub fn default_camera(&self) -> Camera {
        self.camera(0.0)
    }

    /// Number of Gaussians.
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// `true` when the scene holds no Gaussians.
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Resident heap+inline size of this scene in bytes — the accounting
    /// unit of the serving layer's byte-budgeted scene cache. Dominated by
    /// the Gaussian records; the container, the name, and any attached
    /// LOD hierarchy are included so the LRU byte-budget invariant stays
    /// honest for scenes carrying auxiliary data.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.capacity()
            + self.gaussians.capacity() * std::mem::size_of::<Gaussian3D>()
            + self.lod.as_ref().map_or(0, SceneLod::approx_bytes)
    }

    /// Aggregate statistics of the Gaussian population.
    pub fn stats(&self) -> SceneStats {
        let n = self.gaussians.len().max(1);
        let mut opacities: Vec<f32> = self.gaussians.iter().map(|g| g.opacity()).collect();
        opacities.sort_by(f32::total_cmp);
        let mut scales: Vec<f32> = self
            .gaussians
            .iter()
            .map(|g| g.scale.max_component())
            .collect();
        scales.sort_by(f32::total_cmp);
        let q = |v: &[f32], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                v[((v.len() - 1) as f64 * p) as usize]
            }
        };
        SceneStats {
            count: self.gaussians.len(),
            opacity_mean: opacities.iter().sum::<f32>() / n as f32,
            opacity_p10: q(&opacities, 0.1),
            opacity_p50: q(&opacities, 0.5),
            opacity_p90: q(&opacities, 0.9),
            scale_p50: q(&scales, 0.5),
            scale_p90: q(&scales, 0.9),
        }
    }
}

/// Aggregate Gaussian population statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneStats {
    /// Total Gaussians.
    pub count: usize,
    /// Mean opacity.
    pub opacity_mean: f32,
    /// 10th-percentile opacity.
    pub opacity_p10: f32,
    /// Median opacity.
    pub opacity_p50: f32,
    /// 90th-percentile opacity.
    pub opacity_p90: f32,
    /// Median of the per-Gaussian maximum scale.
    pub scale_p50: f32,
    /// 90th percentile of the per-Gaussian maximum scale.
    pub scale_p90: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenePreset;

    #[test]
    fn with_scale_validates() {
        let c = SceneConfig::with_scale(0.5);
        assert_eq!(c.scale, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_scale_panics() {
        let _ = SceneConfig::with_scale(0.0);
    }

    #[test]
    fn stats_reflect_population() {
        let scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.1));
        let s = scene.stats();
        assert_eq!(s.count, scene.len());
        assert!(s.opacity_p10 <= s.opacity_p50 && s.opacity_p50 <= s.opacity_p90);
        assert!(s.opacity_mean > 0.0 && s.opacity_mean < 1.0);
        assert!(s.scale_p50 <= s.scale_p90);
    }

    #[test]
    fn approx_bytes_tracks_population() {
        let small = ScenePreset::Lego.build(&SceneConfig::with_scale(0.02));
        let large = ScenePreset::Lego.build(&SceneConfig::with_scale(0.08));
        assert!(small.approx_bytes() > small.len() * std::mem::size_of::<Gaussian3D>());
        assert!(large.approx_bytes() > 2 * small.approx_bytes());
    }

    #[test]
    fn approx_bytes_charges_attached_lod_hierarchy() {
        use crate::lod::{LodLevel, SceneLod};
        let mut scene = ScenePreset::Lego.build(&SceneConfig::with_scale(0.02));
        let bare = scene.approx_bytes();
        let coarse = scene.gaussians[..scene.len() / 2].to_vec();
        let coarse_bytes = coarse.capacity() * std::mem::size_of::<Gaussian3D>();
        scene.lod = Some(SceneLod {
            levels: vec![LodLevel {
                gaussians: coarse,
                cell_size: 0.5,
            }],
            seed: 7,
        });
        assert!(
            scene.approx_bytes() >= bare + coarse_bytes,
            "hierarchy bytes must be charged: {} vs {}",
            scene.approx_bytes(),
            bare + coarse_bytes
        );
    }

    #[test]
    fn object_orbit_is_periodic_scan_arc_is_not() {
        // Object scenes orbit a full circle; scans sweep a small arc.
        let lego = ScenePreset::Lego.build(&SceneConfig::with_scale(0.02));
        let a = lego.camera(0.0);
        let b = lego.camera(1.0);
        assert!((a.position - b.position).norm() < 1e-3);

        let train = ScenePreset::Train.build(&SceneConfig::with_scale(0.02));
        let c = train.camera(0.0);
        let d = train.camera(0.5);
        assert!((c.position - d.position).norm() > 1e-3);
    }
}
