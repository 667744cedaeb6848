//! The unified per-frame workload statistics every renderer reports.
//!
//! `FrameStats` is one flat struct covering both schedules: a **common
//! core** every schedule fills (loads, projections, SH fetches, blends,
//! sort workload) plus **schedule sections** whose counters are zero when
//! the schedule doesn't produce them (tile KV pairs for the tile-wise
//! path, depth-group and block-traversal counters for the Gaussian-wise
//! path). Simulators and scaling laws consume this one type; a renderer
//! added later (e.g. a GSCore-style hierarchical tile schedule) plugs into
//! `gcc-sim` by filling the sections its cost model reads.
//!
//! All counters are additive across disjoint work units (tiles, windows,
//! frames), which is what lets the parallel engine merge per-worker
//! partials with [`FrameStats::merge_add`] and reproduce single-threaded
//! counts exactly.

/// Unified workload statistics of one rendered frame (or, summed, of a
/// trajectory of frames).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    // ---- Common core (every schedule) ----
    /// Gaussians in the scene.
    pub total_gaussians: u64,
    /// Gaussian geometry records streamed from memory. The standard
    /// schedule reads every record once in preprocessing; the
    /// Gaussian-wise schedule loads conditionally (Cmode duplicates
    /// counted).
    pub geometry_loads: u64,
    /// Gaussians surviving cull + projection (the standard schedule's
    /// "preprocessed" count, the Gaussian-wise SCU survivors).
    pub projected: u64,
    /// SH color records streamed from memory (standard: one per projected
    /// Gaussian, up front; Gaussian-wise: conditional, post-boundary).
    pub sh_loads: u64,
    /// Unique Gaussians that contributed at least one blended pixel.
    pub rendered: u64,
    /// Per-work-unit contributing Gaussians: equals [`Self::rendered`] for
    /// single-window schedules, counts sub-view duplicates under Cmode
    /// (Fig. 6 "Rendering Invocations").
    pub render_invocations: u64,
    /// Blends actually applied (alpha ≥ 1/255 on a live pixel).
    pub pixels_blended: u64,
    /// Total elements through depth sorting (per-tile lists or per-group
    /// sorts).
    pub sort_elements: u64,
    /// Rendering windows: 1 for full-frame schedules, the sub-view count
    /// under Compatibility Mode.
    pub windows: u64,

    // ---- Tile-wise schedule section ----
    /// Image tiles in the tile grid.
    pub tiles: u64,
    /// Gaussian-tile key-value pairs created at binning.
    pub kv_pairs: u64,
    /// Gaussian loads during tile rendering (pairs processed before their
    /// tile terminated) — the numerator of Fig. 2(b).
    pub tile_loads: u64,
    /// Unique Gaussians loaded by at least one tile — the denominator of
    /// Fig. 2(b).
    pub unique_loaded: u64,
    /// Alpha evaluations the configured footprint performed.
    pub pixels_tested: u64,
    /// Alpha evaluations an AABB footprint would perform on the same
    /// workload (Table 1 "AABB").
    pub pixels_tested_aabb: u64,
    /// Alpha evaluations the OBB footprint performed (Table 1 "OBB").
    /// Filled only by renders whose footprint *is* the OBB
    /// (`Footprint::Obb`, e.g. `Schedule::Gscore`), where it equals
    /// [`Self::pixels_tested`]; an AABB render never walks OBBs and leaves
    /// it zero.
    pub pixels_tested_obb: u64,

    // ---- Gaussian-wise schedule section ----
    /// Stage I near-plane culls.
    pub near_culled: u64,
    /// Depth groups in the global structure.
    pub groups_total: u64,
    /// (window, group) units entered.
    pub groups_processed: u64,
    /// (window, group) units skipped by cross-stage termination.
    pub groups_skipped: u64,
    /// Pixel blocks dispatched to the alpha PE array.
    pub blocks_dispatched: u64,
    /// Dispatch skips due to the transmittance mask.
    pub blocks_masked_skips: u64,
    /// Alpha-lane evaluations dispatched to the PE array (all in-bounds
    /// lanes of dispatched blocks — the *throughput* cost).
    pub pixels_evaluated: u64,
    /// Alpha evaluations on live (non-terminated) lanes — the *energy*
    /// cost after S-map/T-mask clock gating.
    pub alpha_lane_evals: u64,
}

impl FrameStats {
    /// Average tile loads per unique Gaussian (Fig. 2(b)); zero for
    /// schedules without tile re-loads.
    pub fn avg_loads_per_gaussian(&self) -> f64 {
        if self.unique_loaded == 0 {
            0.0
        } else {
            self.tile_loads as f64 / self.unique_loaded as f64
        }
    }

    /// Fraction of projected Gaussians never used by rendering (the
    /// paper's ">60% unused" motivation).
    pub fn unused_fraction(&self) -> f64 {
        if self.projected == 0 {
            0.0
        } else {
            1.0 - self.rendered as f64 / self.projected as f64
        }
    }

    /// Geometry records loaded per scene Gaussian: the preprocessing
    /// reduction delivered by conditional processing (1.0 means every
    /// record streamed once).
    pub fn geometry_load_fraction(&self) -> f64 {
        if self.total_gaussians == 0 {
            0.0
        } else {
            self.geometry_loads as f64 / self.total_gaussians as f64
        }
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// This is the parallel engine's merge: additive over disjoint work
    /// units and associative, so any merge tree over per-worker partials
    /// reproduces the sequential counts bit-for-bit. Frame-global fields
    /// (`total_gaussians`, `tiles`, `groups_total`, `windows`, …) must be
    /// set exactly once — conventionally in the frame-level base stats,
    /// with worker partials leaving them zero.
    pub fn merge_add(&mut self, other: &FrameStats) {
        let Self {
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
            pixels_tested_obb,
            near_culled,
            groups_total,
            groups_processed,
            groups_skipped,
            blocks_dispatched,
            blocks_masked_skips,
            pixels_evaluated,
            alpha_lane_evals,
        } = other;
        self.total_gaussians += total_gaussians;
        self.geometry_loads += geometry_loads;
        self.projected += projected;
        self.sh_loads += sh_loads;
        self.rendered += rendered;
        self.render_invocations += render_invocations;
        self.pixels_blended += pixels_blended;
        self.sort_elements += sort_elements;
        self.windows += windows;
        self.tiles += tiles;
        self.kv_pairs += kv_pairs;
        self.tile_loads += tile_loads;
        self.unique_loaded += unique_loaded;
        self.pixels_tested += pixels_tested;
        self.pixels_tested_aabb += pixels_tested_aabb;
        self.pixels_tested_obb += pixels_tested_obb;
        self.near_culled += near_culled;
        self.groups_total += groups_total;
        self.groups_processed += groups_processed;
        self.groups_skipped += groups_skipped;
        self.blocks_dispatched += blocks_dispatched;
        self.blocks_masked_skips += blocks_masked_skips;
        self.pixels_evaluated += pixels_evaluated;
        self.alpha_lane_evals += alpha_lane_evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unused_fraction_definition() {
        let s = FrameStats {
            projected: 10,
            rendered: 4,
            ..FrameStats::default()
        };
        assert!((s.unused_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(FrameStats::default().unused_fraction(), 0.0);
    }

    #[test]
    fn loads_per_gaussian_definition() {
        let s = FrameStats {
            tile_loads: 12,
            unique_loaded: 4,
            ..FrameStats::default()
        };
        assert!((s.avg_loads_per_gaussian() - 3.0).abs() < 1e-12);
        assert_eq!(FrameStats::default().avg_loads_per_gaussian(), 0.0);
    }

    #[test]
    fn geometry_load_fraction_definition() {
        let s = FrameStats {
            total_gaussians: 100,
            geometry_loads: 37,
            ..FrameStats::default()
        };
        assert!((s.geometry_load_fraction() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn merge_add_is_associative_fieldwise() {
        let mk = |k: u64| FrameStats {
            total_gaussians: k,
            geometry_loads: 2 * k,
            projected: 3 * k,
            sh_loads: 4 * k,
            rendered: 5 * k,
            render_invocations: 6 * k,
            pixels_blended: 7 * k,
            sort_elements: 8 * k,
            windows: k,
            tiles: k,
            kv_pairs: 9 * k,
            tile_loads: 10 * k,
            unique_loaded: 11 * k,
            pixels_tested: 12 * k,
            pixels_tested_aabb: 13 * k,
            pixels_tested_obb: 14 * k,
            near_culled: 15 * k,
            groups_total: 16 * k,
            groups_processed: 17 * k,
            groups_skipped: 18 * k,
            blocks_dispatched: 19 * k,
            blocks_masked_skips: 20 * k,
            pixels_evaluated: 21 * k,
            alpha_lane_evals: 22 * k,
        };
        let mut left = mk(1);
        left.merge_add(&mk(2));
        left.merge_add(&mk(4));
        let mut right = mk(2);
        right.merge_add(&mk(4));
        let mut right_total = mk(1);
        right_total.merge_add(&right);
        assert_eq!(left, right_total);
        assert_eq!(left, mk(7));
    }
}
