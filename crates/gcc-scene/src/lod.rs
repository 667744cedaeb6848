//! Coarse-to-fine Gaussian hierarchy attached to a [`Scene`](crate::Scene).
//!
//! A [`SceneLod`] is a stack of mip-style levels: level 0 is the full
//! cloud (stored once, in `Scene::gaussians`, *not* duplicated here);
//! level `ℓ ≥ 1` replaces spatial clusters of level `ℓ-1` with single
//! fatter, opacity/SH-compensated Gaussians. The hierarchy *builder*
//! lives in the `gcc-lod` crate (it needs the parallel stack); this
//! module holds only the data type and its byte accounting, so the serve
//! cache can charge a hierarchy without a dependency cycle. A hierarchy
//! is built in memory after a scene loads: no scene file carries one.

use gcc_core::Gaussian3D;

/// One coarse level of the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct LodLevel {
    /// Merged Gaussians at this level (coarser ⇒ fewer, fatter).
    pub gaussians: Vec<Gaussian3D>,
    /// Edge length of the merge voxel grid that produced this level, in
    /// world units. Doubles per level.
    pub cell_size: f32,
}

impl LodLevel {
    /// Resident heap size of this level in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.gaussians.capacity() * std::mem::size_of::<Gaussian3D>()
    }
}

/// A coarse-to-fine Gaussian hierarchy: `levels[0]` is the *first coarse*
/// level (one merge step above the full cloud), `levels.last()` the
/// coarsest. Level indices exposed to callers are therefore 1-based:
/// "level 0" always means the scene's own full-resolution cloud.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneLod {
    /// Coarse levels, finest first. Never empty in a built hierarchy.
    pub levels: Vec<LodLevel>,
    /// Seed the builder was run with (determinism receipt).
    pub seed: u64,
}

impl SceneLod {
    /// Number of coarse levels (excludes the implicit full-quality level 0).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The Gaussians at hierarchy level `level`, where level 0 is the
    /// full cloud (`full` must be the scene's own `gaussians`). Levels
    /// beyond the coarsest clamp to the coarsest.
    pub fn level_gaussians<'a>(&'a self, full: &'a [Gaussian3D], level: usize) -> &'a [Gaussian3D] {
        if level == 0 || self.levels.is_empty() {
            full
        } else {
            &self.levels[(level - 1).min(self.levels.len() - 1)].gaussians
        }
    }

    /// Resident heap+inline size of the hierarchy in bytes — charged
    /// against the serve cache's byte budget via `Scene::approx_bytes`.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .levels
                .iter()
                .map(LodLevel::approx_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn sample_lod() -> SceneLod {
        let g = |x: f32, r: f32| {
            Gaussian3D::isotropic(Vec3::new(x, 0.0, 0.0), r, 0.8, Vec3::splat(0.5))
        };
        SceneLod {
            levels: vec![
                LodLevel {
                    gaussians: vec![g(0.0, 0.1), g(1.0, 0.2), g(2.0, 0.3)],
                    cell_size: 0.5,
                },
                LodLevel {
                    gaussians: vec![g(0.5, 0.4)],
                    cell_size: 1.0,
                },
            ],
            seed: 42,
        }
    }

    #[test]
    fn level_gaussians_clamps_and_maps_zero_to_full() {
        let lod = sample_lod();
        let full = vec![Gaussian3D::default(); 7];
        assert_eq!(lod.level_gaussians(&full, 0).len(), 7);
        assert_eq!(lod.level_gaussians(&full, 1).len(), 3);
        assert_eq!(lod.level_gaussians(&full, 2).len(), 1);
        // Beyond the coarsest clamps.
        assert_eq!(lod.level_gaussians(&full, 99).len(), 1);
    }

    #[test]
    fn approx_bytes_counts_all_levels() {
        let lod = sample_lod();
        let per_gaussian = std::mem::size_of::<Gaussian3D>();
        assert!(lod.approx_bytes() >= 4 * per_gaussian);
    }
}
