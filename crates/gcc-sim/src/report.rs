//! Common simulation-report structures shared by the GSCore and GCC
//! models.

/// Timing of one pipeline phase: cycles are the max of the compute demand
/// and the memory demand (each phase is internally pipelined; the slower
/// resource bounds throughput).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase name.
    pub name: String,
    /// Cycles the compute pipeline needs.
    pub compute_cycles: f64,
    /// Bytes moved to/from DRAM during the phase.
    pub dram_bytes: f64,
    /// Cycles the DRAM needs at peak bandwidth.
    pub dram_cycles: f64,
}

impl PhaseTiming {
    /// The phase's wall-clock cycles: whichever resource is the
    /// bottleneck.
    pub fn cycles(&self) -> f64 {
        self.compute_cycles.max(self.dram_cycles)
    }

    /// `true` when DRAM is the bottleneck.
    pub fn memory_bound(&self) -> bool {
        self.dram_cycles > self.compute_cycles
    }
}

/// DRAM traffic by content class (Fig. 11(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficBreakdown {
    /// 3D Gaussian attribute bytes (geometry + SH).
    pub gauss3d_bytes: f64,
    /// Projected 2D Gaussian bytes (written then re-read).
    pub gauss2d_bytes: f64,
    /// Tile key-value mapping bytes.
    pub kv_bytes: f64,
    /// Other bytes (depth/group metadata, sub-view spill).
    pub other_bytes: f64,
}

impl TrafficBreakdown {
    /// Total DRAM bytes.
    pub fn total(&self) -> f64 {
        self.gauss3d_bytes + self.gauss2d_bytes + self.kv_bytes + self.other_bytes
    }
}

/// Energy by source (Fig. 12).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Off-chip memory access energy, pJ.
    pub dram_pj: f64,
    /// On-chip SRAM access energy, pJ.
    pub sram_pj: f64,
    /// Datapath (compute) energy, pJ.
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.sram_pj + self.compute_pj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }
}

/// The full result of simulating one frame on one accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Accelerator name.
    pub accelerator: String,
    /// Scene name.
    pub scene: String,
    /// Per-phase timing.
    pub phases: Vec<PhaseTiming>,
    /// Total frame cycles (phases are sequential).
    pub total_cycles: f64,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// DRAM traffic breakdown.
    pub traffic: TrafficBreakdown,
    /// Die area in mm².
    pub area_mm2: f64,
    /// Rendering computation count (alpha + blend ops), for Fig. 11(c).
    pub render_ops: f64,
}

impl SimReport {
    /// Frame time in milliseconds.
    pub fn frame_ms(&self) -> f64 {
        self.total_cycles / (self.clock_ghz * 1e9) * 1e3
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        1e3 / self.frame_ms()
    }

    /// Area-normalized throughput in FPS/mm² (the paper's headline
    /// comparison metric).
    pub fn fps_per_mm2(&self) -> f64 {
        self.fps() / self.area_mm2
    }

    /// Energy per frame in mJ.
    pub fn energy_per_frame_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Fraction of total cycles spent in the named phase.
    pub fn phase_fraction(&self, name: &str) -> f64 {
        let c: f64 = self
            .phases
            .iter()
            .filter(|p| p.name == name)
            .map(PhaseTiming::cycles)
            .sum();
        c / self.total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            accelerator: "test".into(),
            scene: "scene".into(),
            phases: vec![
                PhaseTiming {
                    name: "pre".into(),
                    compute_cycles: 4e5,
                    dram_bytes: 1e6,
                    dram_cycles: 2e4,
                },
                PhaseTiming {
                    name: "render".into(),
                    compute_cycles: 6e5,
                    dram_bytes: 0.0,
                    dram_cycles: 0.0,
                },
            ],
            total_cycles: 1e6,
            clock_ghz: 1.0,
            energy: EnergyBreakdown {
                dram_pj: 5e9,
                sram_pj: 1e9,
                compute_pj: 2e9,
            },
            traffic: TrafficBreakdown::default(),
            area_mm2: 2.0,
            render_ops: 1e6,
        }
    }

    #[test]
    fn fps_from_cycles() {
        let r = report();
        // 1e6 cycles at 1 GHz = 1 ms → 1000 FPS.
        assert!((r.frame_ms() - 1.0).abs() < 1e-12);
        assert!((r.fps() - 1000.0).abs() < 1e-9);
        assert!((r.fps_per_mm2() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn phase_bottleneck_is_max_of_resources() {
        let p = PhaseTiming {
            name: "x".into(),
            compute_cycles: 100.0,
            dram_bytes: 1e4,
            dram_cycles: 300.0,
        };
        assert_eq!(p.cycles(), 300.0);
        assert!(p.memory_bound());
    }

    #[test]
    fn energy_total_sums_components() {
        let r = report();
        assert!((r.energy.total_mj() - 8.0).abs() < 1e-12);
        assert!((r.energy_per_frame_mj() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn phase_fraction() {
        let r = report();
        assert!((r.phase_fraction("pre") - 0.4).abs() < 1e-12);
        assert!((r.phase_fraction("render") - 0.6).abs() < 1e-12);
    }
}
