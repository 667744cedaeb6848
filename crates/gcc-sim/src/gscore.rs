//! The baseline accelerator model: GSCore (Lee et al., ASPLOS'24), as the
//! paper reproduces it — standard two-stage dataflow, OBB + tile-wise
//! rendering, 4-way projection and SH units, bitonic-16 sorting, 272 KB
//! SRAM, 3.95 mm² at 28 nm / 1 GHz.
//!
//! The model consumes exact workload statistics from the instrumented
//! tile renderer and charges per-module cycle and energy costs. Phases
//! (preprocess → sort → render) execute sequentially, each internally
//! bounded by the slower of compute and DRAM.

use crate::dram::DramModel;
use crate::ops::{
    OpCounters, OpEnergy, DIVSQRT_PER_PROJECTION, FMA_PER_ALPHA, FMA_PER_BLEND, FMA_PER_PROJECTION,
    FMA_PER_SH,
};
use crate::report::{EnergyBreakdown, PhaseTiming, SimReport, TrafficBreakdown};
use crate::sram::sram_energy_pj;
use gcc_core::{Camera, Gaussian3D};
use gcc_render::pipeline::FrameStats;
use gcc_render::{Frame, Renderer, StandardRenderer};

/// GSCore configuration.
#[derive(Debug, Clone)]
pub struct GscoreConfig {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Off-chip memory.
    pub dram: DramModel,
    /// Parallel culling/projection units (GSCore: 4).
    pub projection_parallelism: u32,
    /// Parallel SH units (GSCore: 4).
    pub sh_parallelism: u32,
    /// Volume-rendering lanes (GSCore: 256-pixel VRC).
    pub alpha_lanes: u32,
    /// Elements per cycle through the hierarchical bitonic sorter.
    pub sort_throughput: f64,
    /// Fixed per-(tile, Gaussian) issue overhead in cycles (fetch, setup).
    pub load_overhead_cycles: f64,
    /// DRAM bandwidth utilization for sequential streams (preprocessing
    /// reads every Gaussian record back-to-back).
    pub seq_dram_efficiency: f64,
    /// DRAM bandwidth utilization for the tile-wise rendering phase:
    /// repeated, depth-ordered random reads of 48-byte 2D records achieve
    /// a small fraction of peak (row misses + burst under-utilization) —
    /// the "high-cost, repeated DRAM accesses" of paper §5.3.
    pub scatter_dram_efficiency: f64,
}

impl Default for GscoreConfig {
    fn default() -> Self {
        Self {
            clock_ghz: 1.0,
            dram: DramModel::lpddr4_3200(),
            projection_parallelism: 4,
            sh_parallelism: 4,
            alpha_lanes: 256,
            sort_throughput: 4.0,
            load_overhead_cycles: 4.0,
            seq_dram_efficiency: 0.85,
            scatter_dram_efficiency: 0.40,
        }
    }
}

/// Byte sizes of the standard dataflow's DRAM records.
pub mod records {
    /// Full 3D Gaussian record (59 × FP32).
    pub const GAUSS3D: f64 = 236.0;
    /// Projected 2D Gaussian record (μ′, conic, color, depth, opacity,
    /// radius ≈ 12 × FP32).
    pub const GAUSS2D: f64 = 48.0;
    /// Gaussian-tile key-value pair (tile key + Gaussian index).
    pub const KV: f64 = 8.0;
}

/// Simulates one frame on the GSCore model. Returns the report plus the
/// [`Frame`] it was derived from (GSCore's tile-wise render: image +
/// stats), so callers can reuse both.
pub fn simulate_gscore(
    gaussians: &[Gaussian3D],
    cam: &Camera,
    cfg: &GscoreConfig,
    scene_name: &str,
) -> (SimReport, Frame) {
    let frame = StandardRenderer::gscore().render_frame(gaussians, cam);
    let report = report_from_stats(&frame.stats, cfg, scene_name);
    (report, frame)
}

/// Builds the timing/energy report from unified workload statistics
/// (exposed so scaling studies can rescale the stats without
/// re-rendering). Reads the common core plus the tile-wise schedule
/// section of [`FrameStats`].
pub fn report_from_stats(s: &FrameStats, cfg: &GscoreConfig, scene_name: &str) -> SimReport {
    let n = s.total_gaussians as f64;
    let pre = s.projected as f64;
    let kv = s.kv_pairs as f64;
    let loads = s.tile_loads as f64;
    let tested = s.pixels_tested as f64;
    let blended = s.pixels_blended as f64;

    // ---- Phase 1: preprocessing (cull → project → SH for everything). --
    let proj_units = f64::from(cfg.projection_parallelism);
    let sh_units = f64::from(cfg.sh_parallelism);
    // Pipelined II=1 per unit: one Gaussian per cycle per unit per task.
    let pre_compute = n / proj_units + pre / proj_units + pre / sh_units;
    let pre_read = n * records::GAUSS3D;
    let pre_write = pre * records::GAUSS2D + kv * records::KV;
    let pre_bytes = pre_read + pre_write;

    // ---- Phase 2: sorting (per-tile depth sort of KV lists). ----
    let sort_compute = kv / cfg.sort_throughput;
    let sort_bytes = kv * records::KV; // stream KV lists back in

    // ---- Phase 3: tile-wise rendering. ----
    let lanes = f64::from(cfg.alpha_lanes);
    let alpha_cycles = (tested / lanes).max(loads); // ≥1 cycle per load
    let render_compute = loads * cfg.load_overhead_cycles + alpha_cycles;
    let render_bytes = loads * records::GAUSS2D;

    let phases = vec![
        PhaseTiming {
            name: "preprocess".into(),
            compute_cycles: pre_compute,
            dram_bytes: pre_bytes,
            dram_cycles: cfg.dram.cycles_for(pre_bytes, cfg.clock_ghz) / cfg.seq_dram_efficiency,
        },
        PhaseTiming {
            name: "sort".into(),
            compute_cycles: sort_compute,
            dram_bytes: sort_bytes,
            dram_cycles: cfg.dram.cycles_for(sort_bytes, cfg.clock_ghz) / cfg.seq_dram_efficiency,
        },
        PhaseTiming {
            name: "render".into(),
            compute_cycles: render_compute,
            dram_bytes: render_bytes,
            dram_cycles: cfg.dram.cycles_for(render_bytes, cfg.clock_ghz)
                / cfg.scatter_dram_efficiency,
        },
    ];
    let total_cycles: f64 = phases.iter().map(PhaseTiming::cycles).sum();

    // ---- Operation counts (energy). ----
    let ops = OpCounters {
        fma32: (n * 12.0) as u64 // culling view transform
            + (pre as u64) * FMA_PER_PROJECTION
            + (pre as u64) * FMA_PER_SH
            + (tested as u64) * FMA_PER_ALPHA
            + (blended as u64) * FMA_PER_BLEND,
        fma16: 0,
        exp: tested as u64, // FP16 EXP unit, modeled at LUT-class energy ×2
        div_sqrt: (pre as u64) * DIVSQRT_PER_PROJECTION,
        cmp: (kv * 16.0) as u64, // sorting comparisons
    };
    let e = OpEnergy::default();
    let compute_pj = ops.energy_pj(&e) + tested * e.exp_lut_pj; // FP16 EXP premium

    // ---- SRAM traffic: 2D Gaussian buffer + VRC state. ----
    let sram_words = loads * 12.0      // 2D record into the tile buffer
        + tested * 2.0                 // T read + alpha staging
        + blended * 4.0                // color+T update
        + kv * 2.0; // KV staging
    let sram_pj = sram_energy_pj(272.0 / 8.0, sram_words as u64);

    let traffic = TrafficBreakdown {
        gauss3d_bytes: pre_read,
        gauss2d_bytes: pre * records::GAUSS2D + render_bytes,
        kv_bytes: kv * records::KV * 2.0,
        other_bytes: 0.0,
    };

    let energy = EnergyBreakdown {
        dram_pj: cfg.dram.energy_pj(traffic.total()),
        sram_pj,
        compute_pj,
    };

    SimReport {
        accelerator: "GSCore".into(),
        scene: scene_name.to_string(),
        phases,
        total_cycles,
        clock_ghz: cfg.clock_ghz,
        energy,
        traffic,
        area_mm2: crate::area::gscore_summary().area_mm2,
        render_ops: tested * FMA_PER_ALPHA as f64 + blended * FMA_PER_BLEND as f64,
    }
}

#[cfg(test)]
// Test data: libm `sin` / `cos` place synthetic Gaussians.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use gcc_math::Vec3;

    fn tiny_workload() -> (Vec<Gaussian3D>, Camera) {
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            60.0,
            128,
            96,
        );
        let gaussians = (0..200)
            .map(|i| {
                let t = i as f32 / 200.0;
                Gaussian3D::isotropic(
                    Vec3::new((t * 17.0).sin(), (t * 11.0).cos() * 0.6, t * 2.0),
                    0.08,
                    0.1f32.max(t),
                    Vec3::new(t, 1.0 - t, 0.4),
                )
            })
            .collect();
        (gaussians, cam)
    }

    #[test]
    fn report_has_three_sequential_phases() {
        let (g, cam) = tiny_workload();
        let (r, _) = simulate_gscore(&g, &cam, &GscoreConfig::default(), "tiny");
        assert_eq!(r.phases.len(), 3);
        let sum: f64 = r.phases.iter().map(PhaseTiming::cycles).sum();
        assert!((sum - r.total_cycles).abs() < 1e-6);
        assert!(r.fps() > 0.0);
    }

    #[test]
    fn preprocessing_reads_every_gaussian_fully() {
        let (g, cam) = tiny_workload();
        let (r, out) = simulate_gscore(&g, &cam, &GscoreConfig::default(), "tiny");
        // Challenge 1: all 59 floats of every Gaussian stream in.
        let expect = out.stats.total_gaussians as f64 * records::GAUSS3D;
        assert!((r.traffic.gauss3d_bytes - expect).abs() < 1e-6);
    }

    #[test]
    fn render_traffic_scales_with_tile_loads() {
        let (g, cam) = tiny_workload();
        let (r, out) = simulate_gscore(&g, &cam, &GscoreConfig::default(), "tiny");
        assert!(r.traffic.gauss2d_bytes >= out.stats.tile_loads as f64 * records::GAUSS2D);
    }

    #[test]
    fn higher_bandwidth_never_slows_the_frame() {
        let (g, cam) = tiny_workload();
        let slow = GscoreConfig::default();
        let fast = GscoreConfig {
            dram: DramModel::lpddr5_6400(),
            ..GscoreConfig::default()
        };
        let (rs, _) = simulate_gscore(&g, &cam, &slow, "tiny");
        let (rf, _) = simulate_gscore(&g, &cam, &fast, "tiny");
        assert!(rf.total_cycles <= rs.total_cycles);
    }

    #[test]
    fn energy_is_dominated_by_memory_system() {
        // Fig. 12: DRAM accesses dominate in both designs.
        let (g, cam) = tiny_workload();
        let (r, _) = simulate_gscore(&g, &cam, &GscoreConfig::default(), "tiny");
        assert!(r.energy.dram_pj > r.energy.compute_pj);
    }

    #[test]
    fn area_matches_published_gscore() {
        let (g, cam) = tiny_workload();
        let (r, _) = simulate_gscore(&g, &cam, &GscoreConfig::default(), "tiny");
        assert!((r.area_mm2 - 3.95).abs() < 1e-9);
    }
}
