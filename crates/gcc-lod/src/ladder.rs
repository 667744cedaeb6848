//! The quality ladder: named degradation rungs built from existing
//! [`RenderOptions`] knobs plus hierarchy level selection.
//!
//! Rung 0 is always exact full quality — applying it is a no-op on the
//! request's options, so ladder-on serving renders bit-identically to
//! ladder-off whenever the deadline affords it. Every degraded rung
//! documents the worst PSNR/SSIM it is allowed to cost versus the full
//! render (`min_psnr_db` / `min_ssim`); `tests/lod_quality.rs` measures
//! the Table 2 scenes against exactly these floors and EXPERIMENTS.md
//! records the measured deltas.

use gcc_render::RenderOptions;

/// One rung of the quality ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRung {
    /// Stable identifier (stats keys, bench labels, wire records).
    pub name: &'static str,
    /// Hierarchy level to render from (0 = the full cloud; levels past
    /// a scene's coarsest clamp to the coarsest).
    pub lod_level: usize,
    /// Render at `target / resolution_div`, then upscale back with the
    /// filtered upscale pass. 1 = native resolution.
    pub resolution_div: u32,
    /// SH-degree ceiling merged into the request (`min` with any
    /// caller-provided clamp).
    pub sh_degree: u8,
    /// `alpha_min` floor merged into the request (`max` with any
    /// caller-provided threshold).
    pub alpha_min: f32,
    /// A guess at the rung's cost relative to the full rung (1.0).
    /// Nothing in the workspace prices a frame with it — the cost model is
    /// measured-only, and the guesses are wrong in shape (EXPERIMENTS.md
    /// "Quality ladder": `coarse` costs more than `half_res`). The field
    /// survives only because `benchmark/src/layers.rs` seeds its
    /// `select_rung` timing fixture from it and a change that claims a
    /// gain may not edit the benchmark; delete it together with that
    /// line.
    pub nominal_cost: f64,
    /// Documented lower bound on PSNR (dB) versus the full-quality
    /// render of the same view.
    pub min_psnr_db: f64,
    /// Documented lower bound on SSIM versus the full-quality render.
    pub min_ssim: f64,
}

impl QualityRung {
    /// `true` for every rung except exact full quality.
    pub fn degrades(&self) -> bool {
        self.lod_level > 0 || self.resolution_div > 1 || self.sh_degree < 3 || self.alpha_min > 0.0
    }

    /// The reduced resolution this rung renders a `target`-sized frame
    /// at (clamped to at least 1×1).
    pub fn render_resolution(&self, target: (u32, u32)) -> (u32, u32) {
        let d = self.resolution_div.max(1);
        ((target.0 / d).max(1), (target.1 / d).max(1))
    }

    /// Merges this rung into a request's options for a frame whose full
    /// output size is `target`. ROI requests keep their native
    /// resolution (the ROI crop identity is pinned bit-exact and does
    /// not survive resampling); the cheaper shading knobs still apply.
    pub fn apply(&self, options: &RenderOptions, target: (u32, u32)) -> RenderOptions {
        let mut out = options.clone();
        if self.resolution_div > 1 && options.roi.is_none() {
            let (w, h) = self.render_resolution(target);
            out.resolution = Some((w, h));
        }
        if self.sh_degree < 3 {
            out.sh_degree = Some(
                out.sh_degree
                    .map_or(self.sh_degree, |d| d.min(self.sh_degree)),
            );
        }
        if self.alpha_min > 0.0 {
            out.alpha_min = Some(
                out.alpha_min
                    .map_or(self.alpha_min, |a| a.max(self.alpha_min)),
            );
        }
        out
    }
}

/// An ordered set of rungs, best quality first. Index 0 is always the
/// exact full-quality rung; the last index is the floor the dispatcher
/// falls to under pressure (and on cold-start scenes with no cost
/// observations yet).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityLadder {
    rungs: Vec<QualityRung>,
}

impl QualityLadder {
    /// Builds a ladder from explicit rungs.
    ///
    /// # Panics
    ///
    /// Panics if `rungs` is empty or rung 0 degrades quality — the
    /// serving layer's parity story depends on rung 0 being exact.
    pub fn new(rungs: Vec<QualityRung>) -> Self {
        assert!(!rungs.is_empty(), "ladder needs at least one rung");
        assert!(!rungs[0].degrades(), "rung 0 must be exact full quality");
        Self { rungs }
    }

    /// The standard four-rung ladder. Quality floors and measured
    /// per-rung costs are documented in EXPERIMENTS.md ("Quality ladder"
    /// table) from measurements on the Table 2 scenes.
    pub fn standard() -> Self {
        Self::new(vec![
            QualityRung {
                name: "full",
                lod_level: 0,
                resolution_div: 1,
                sh_degree: 3,
                alpha_min: 0.0,
                nominal_cost: 1.0,
                // Exact: applying this rung leaves the request untouched.
                min_psnr_db: 99.0,
                min_ssim: 0.999,
            },
            QualityRung {
                name: "half_res",
                lod_level: 0,
                resolution_div: 2,
                sh_degree: 3,
                alpha_min: 0.0,
                nominal_cost: 0.40,
                min_psnr_db: 21.0,
                min_ssim: 0.78,
            },
            QualityRung {
                name: "coarse",
                lod_level: 1,
                resolution_div: 2,
                sh_degree: 1,
                alpha_min: 0.003,
                nominal_cost: 0.20,
                min_psnr_db: 14.0,
                min_ssim: 0.25,
            },
            QualityRung {
                name: "floor",
                lod_level: 2,
                resolution_div: 4,
                sh_degree: 0,
                alpha_min: 0.01,
                nominal_cost: 0.10,
                min_psnr_db: 12.5,
                min_ssim: 0.12,
            },
        ])
    }

    /// The rungs, best quality first.
    pub fn rungs(&self) -> &[QualityRung] {
        &self.rungs
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// `false` always (a ladder holds at least one rung), provided for
    /// clippy's `len_without_is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Index of the floor (cheapest) rung.
    pub fn floor(&self) -> usize {
        self.rungs.len() - 1
    }
}

impl Default for QualityLadder {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_render::{Roi, Schedule};

    #[test]
    fn standard_ladder_shape() {
        let ladder = QualityLadder::standard();
        assert_eq!(ladder.len(), 4);
        assert!(!ladder.rungs()[0].degrades());
        for r in &ladder.rungs()[1..] {
            assert!(r.degrades(), "{}", r.name);
        }
        // Quality floors loosen monotonically down the ladder (costs do
        // not: they are measured per scene, never assumed).
        for pair in ladder.rungs().windows(2) {
            assert!(pair[1].min_psnr_db <= pair[0].min_psnr_db);
            assert!(pair[1].min_ssim <= pair[0].min_ssim);
        }
        assert_eq!(ladder.floor(), 3);
    }

    #[test]
    fn rung_zero_apply_is_identity() {
        let ladder = QualityLadder::standard();
        let opts = RenderOptions::default()
            .with_schedule(Schedule::GaussianWise)
            .with_sh_degree(2);
        assert_eq!(ladder.rungs()[0].apply(&opts, (640, 480)), opts);
    }

    #[test]
    fn degraded_rungs_merge_knobs_conservatively() {
        let ladder = QualityLadder::standard();
        let rung = &ladder.rungs()[2];
        let opts = RenderOptions::default()
            .with_sh_degree(0)
            .with_alpha_min(0.05);
        let applied = rung.apply(&opts, (640, 480));
        // Caller's stricter SH clamp and alpha floor both survive.
        assert_eq!(applied.sh_degree, Some(0));
        assert_eq!(applied.alpha_min, Some(0.05));
        assert_eq!(applied.resolution, Some((320, 240)));

        let loose = RenderOptions::default();
        let applied = rung.apply(&loose, (640, 480));
        assert_eq!(applied.sh_degree, Some(1));
        assert_eq!(applied.alpha_min, Some(0.003));
    }

    #[test]
    fn roi_requests_keep_native_resolution() {
        let ladder = QualityLadder::standard();
        let rung = &ladder.rungs()[1];
        let opts = RenderOptions::default().with_roi(Roi::new(0, 0, 32, 32));
        let applied = rung.apply(&opts, (640, 480));
        assert_eq!(applied.resolution, None);
        assert_eq!(applied.roi, opts.roi);
    }

    #[test]
    fn render_resolution_clamps_to_one_pixel() {
        let ladder = QualityLadder::standard();
        let rung = &ladder.rungs()[3];
        assert_eq!(rung.render_resolution((640, 480)), (160, 120));
        assert_eq!(rung.render_resolution((2, 2)), (1, 1));
    }

    #[test]
    #[should_panic(expected = "rung 0 must be exact")]
    fn degrading_first_rung_is_rejected() {
        let mut rungs = QualityLadder::standard().rungs().to_vec();
        rungs[0].resolution_div = 2;
        let _ = QualityLadder::new(rungs);
    }
}
