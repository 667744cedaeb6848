//! Arithmetic operation counters and 28 nm-class per-op energy constants.
//!
//! Both accelerators build their datapaths from floating-point FMAs
//! (paper §4.1, citing FPnew \[25\]); GCC's EXP unit is a fixed-point
//! 16-segment LUT (§4.4), GSCore's an FP16 unit.

use std::ops::{Add, AddAssign};

/// Energy per operation in pJ (28 nm, ~1 GHz signoff, datapath + local
/// control; values in the range used by accelerator papers of this class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpEnergy {
    /// FP32 fused multiply-add.
    pub fma32_pj: f64,
    /// FP16 fused multiply-add.
    pub fma16_pj: f64,
    /// LUT-based fixed-point EXP evaluation.
    pub exp_lut_pj: f64,
    /// Iterative fused divide / square root (per result).
    pub div_sqrt_pj: f64,
    /// Comparator / small ALU op.
    pub cmp_pj: f64,
}

impl Default for OpEnergy {
    fn default() -> Self {
        Self {
            fma32_pj: 3.0,
            fma16_pj: 1.1,
            exp_lut_pj: 0.8,
            div_sqrt_pj: 9.0,
            cmp_pj: 0.25,
        }
    }
}

/// Counters for the operations a frame executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// FP32 FMAs.
    pub fma32: u64,
    /// FP16 FMAs.
    pub fma16: u64,
    /// EXP evaluations.
    pub exp: u64,
    /// Divide/square-root results.
    pub div_sqrt: u64,
    /// Comparisons.
    pub cmp: u64,
}

impl OpCounters {
    /// Total dynamic energy in pJ under `e`.
    pub fn energy_pj(&self, e: &OpEnergy) -> f64 {
        self.fma32 as f64 * e.fma32_pj
            + self.fma16 as f64 * e.fma16_pj
            + self.exp as f64 * e.exp_lut_pj
            + self.div_sqrt as f64 * e.div_sqrt_pj
            + self.cmp as f64 * e.cmp_pj
    }

    /// Total operation count.
    pub fn total(&self) -> u64 {
        self.fma32 + self.fma16 + self.exp + self.div_sqrt + self.cmp
    }
}

impl Add for OpCounters {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            fma32: self.fma32 + rhs.fma32,
            fma16: self.fma16 + rhs.fma16,
            exp: self.exp + rhs.exp,
            div_sqrt: self.div_sqrt + rhs.div_sqrt,
            cmp: self.cmp + rhs.cmp,
        }
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Per-Gaussian FMA cost of the full projection chain (view transform,
/// covariance reconstruction, EWA product, conic) — shared by both
/// accelerator models.
pub const FMA_PER_PROJECTION: u64 = gcc_core::projection::FMA_PER_PROJECTION;

/// Per-Gaussian FMA cost of a full three-channel SH evaluation.
pub const FMA_PER_SH: u64 = gcc_core::sh::FMA_PER_EVAL;

/// Per-Gaussian divide/sqrt results in projection (NDC division, radius).
pub const DIVSQRT_PER_PROJECTION: u64 = 4;

/// FMAs per pixel for alpha evaluation (quadratic form + exponent input).
pub const FMA_PER_ALPHA: u64 = 5;

/// FMAs per pixel for blending (transmittance update + 3-channel color).
pub const FMA_PER_BLEND: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_weighted_sum() {
        let c = OpCounters {
            fma32: 10,
            fma16: 20,
            exp: 5,
            div_sqrt: 2,
            cmp: 100,
        };
        let e = OpEnergy::default();
        let expect = 10.0 * 3.0 + 20.0 * 1.1 + 5.0 * 0.8 + 2.0 * 9.0 + 100.0 * 0.25;
        assert!((c.energy_pj(&e) - expect).abs() < 1e-9);
    }

    #[test]
    fn counters_add() {
        let a = OpCounters {
            fma32: 1,
            ..OpCounters::default()
        };
        let b = OpCounters {
            fma32: 2,
            exp: 3,
            ..OpCounters::default()
        };
        let c = a + b;
        assert_eq!(c.fma32, 3);
        assert_eq!(c.exp, 3);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn fp16_is_cheaper_than_fp32() {
        let e = OpEnergy::default();
        assert!(e.fma16_pj < e.fma32_pj);
        assert!(e.exp_lut_pj < e.fma16_pj);
    }
}
