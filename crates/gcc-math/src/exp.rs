//! The Alpha Unit's lookup-table exponential (paper §4.4).
//!
//! Hardware rationale, quoted from the paper: meaningful alpha values lie in
//! `[1/255, 1)`, so the exponent input is confined to `[-5.54, 0)`. The LUT
//! covers only that interval with **16 linear segments**; inputs below
//! `-5.54` clamp to `α = 0` and inputs `≥ 0` saturate to `α = 1`, and the
//! whole unit runs in fixed-point arithmetic (avoiding GSCore's FP16
//! overflow issue). The paper states the approximation error is below 1%,
//! which this implementation meets (see the error-bound test).

use crate::fixed::{fixed_mul, from_fixed, to_fixed};

/// Lower edge of the LUT input range: `ln(1/255) ≈ -5.5413`.
pub const EXP_INPUT_MIN: f32 = -5.54;

/// `log2(e)` for the deterministic exponential's range reduction.
pub const DET_EXP_LOG2E: f32 = std::f32::consts::LOG2_E;

/// High part of `ln(2)` (Cody–Waite split; exactly representable with the
/// low 12 mantissa bits zero, so `k * DET_EXP_LN2_HI` is exact for the
/// small integer `k` values the reduction produces).
// The full decimal expansion is the point: it spells out the exact f32
// (0x3F317000) the split is built around.
#[allow(clippy::excessive_precision)]
pub const DET_EXP_LN2_HI: f32 = 0.693_359_375;

/// Low part of `ln(2)` (Cody–Waite split).
pub const DET_EXP_LN2_LO: f32 = -2.121_944_4e-4;

/// Degree-6 polynomial coefficients of the deterministic exponential
/// (Cephes `expf` minimax fit of `e^r` on `|r| ≤ ½·ln 2`), highest degree
/// first, with the trailing `r + 1` terms applied separately.
// Minimax coefficients, kept digit-for-digit as fitted (the ½-looking
// term is deliberately not exactly 0.5).
#[allow(clippy::excessive_precision)]
pub const DET_EXP_POLY: [f32; 6] = [
    1.987_569_2e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_7e-2,
    1.666_666_5e-1,
    5.000_000_1e-1,
];

/// Deterministic software `e^x`: a fixed, explicitly ordered sequence of
/// IEEE-754 single-precision operations (range reduction by `ln 2`, a
/// degree-6 polynomial, and an exponent-bits scale) with **no FMA and no
/// libm call**, so the result is bit-identical on every target — and a
/// SIMD kernel that performs the same per-lane operation sequence is
/// bit-identical to this scalar reference by construction. This is the
/// bit-exactness anchor of the renderer's `ExpMode::Exact` datapath and
/// the `gcc_core::dispatch` vectorized alpha kernels.
///
/// Accuracy is ~2 ulp of `f32::exp` (the relative-error test pins `< 1e-6`
/// over the alpha domain `[-5.54, 0)`). Callers are expected to clamp the
/// domain first (the alpha datapath maps `x < -5.54 → 0`, `x ≥ 0 → 1`);
/// inputs of large magnitude overflow the exponent-bit scale and return
/// garbage rather than saturating.
#[inline]
pub fn det_exp(x: f32) -> f32 {
    // k = round-to-floor(x·log2(e) + ½): the power-of-two exponent.
    // Floor via truncate-and-adjust rather than `f32::floor`: on baseline
    // x86-64 (no SSE4.1) `floor` lowers to a libm call that dominates the
    // whole function's cost. Truncation rounds toward zero, so step down
    // where it rounded up (negative non-integer inputs) — an exact floor,
    // bit-identical to `t.floor()` for every in-range input.
    let t = x * DET_EXP_LOG2E + 0.5;
    let tf = t as i32 as f32;
    let k = if tf > t { tf - 1.0 } else { tf };
    // r = x − k·ln2, split high/low so the subtraction stays exact.
    let r = x - k * DET_EXP_LN2_HI - k * DET_EXP_LN2_LO;
    // e^r ≈ poly(r)·r² + r + 1, Horner order fixed.
    let mut p = DET_EXP_POLY[0];
    p = p * r + DET_EXP_POLY[1];
    p = p * r + DET_EXP_POLY[2];
    p = p * r + DET_EXP_POLY[3];
    p = p * r + DET_EXP_POLY[4];
    p = p * r + DET_EXP_POLY[5];
    let y = p * (r * r) + r + 1.0;
    // Scale by 2^k through the exponent bits (k is a small integer here;
    // the `as i32` cast saturates on the garbage inputs the doc warns
    // about, matching the SIMD truncating conversion closely enough that
    // clamped callers never observe a difference).
    y * f32::from_bits((((k as i32) + 127) << 23) as u32)
}

/// Number of piecewise-linear segments in the LUT.
pub const EXP_SEGMENTS: usize = 16;

/// Fractional bits of the fixed-point datapath.
const FRAC_BITS: u32 = 20;

/// Piecewise-linear fixed-point approximation of `e^x` over `[-5.54, 0)`.
///
/// Each segment stores a slope/intercept pair fitted as a *shifted chord*:
/// the chord between segment endpoints, lowered by half its midpoint
/// deviation, which near-halves the maximum error of a plain chord fit.
///
/// # Example
///
/// ```
/// use gcc_math::PwlExp;
/// let exp = PwlExp::new();
/// let approx = exp.eval(-1.0);
/// assert!((approx - (-1.0f32).exp()).abs() / (-1.0f32).exp() < 0.01);
/// assert_eq!(exp.eval(-9.0), 0.0); // clamped
/// assert_eq!(exp.eval(0.5), 1.0); // saturated
/// ```
#[derive(Debug, Clone)]
pub struct PwlExp {
    /// Per-segment slope in fixed point.
    slope: Vec<i32>,
    /// Per-segment intercept in fixed point.
    intercept: Vec<i32>,
    /// Segment width in input units.
    step: f32,
}

impl Default for PwlExp {
    fn default() -> Self {
        Self::new()
    }
}

impl PwlExp {
    /// Builds the 16-segment LUT used by the GCC Alpha Unit.
    pub fn new() -> Self {
        Self::with_segments(EXP_SEGMENTS)
    }

    /// Builds a LUT with a custom segment count (used by the accuracy
    /// ablation in the benches).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn with_segments(segments: usize) -> Self {
        assert!(segments > 0, "LUT needs at least one segment");
        let lo = EXP_INPUT_MIN;
        let step = -lo / segments as f32;
        let mut slope = Vec::with_capacity(segments);
        let mut intercept = Vec::with_capacity(segments);
        for i in 0..segments {
            let x0 = lo + i as f32 * step;
            let x1 = x0 + step;
            let (y0, y1) = (det_exp(x0), det_exp(x1));
            let a = (y1 - y0) / (x1 - x0);
            // Chord intercept, then lower by half the midpoint deviation
            // (exp is convex, so the chord lies above the curve).
            let b_chord = y0 - a * x0;
            let mid = 0.5 * (x0 + x1);
            let dev = (a * mid + b_chord) - det_exp(mid);
            let b = b_chord - 0.5 * dev;
            slope.push(to_fixed(a, FRAC_BITS));
            intercept.push(to_fixed(b, FRAC_BITS));
        }
        Self {
            slope,
            intercept,
            step,
        }
    }

    /// Number of segments in the table.
    pub fn segments(&self) -> usize {
        self.slope.len()
    }

    /// Evaluates the LUT exponential with the hardware's clamping rules:
    /// inputs `< -5.54` produce exactly `0.0`, inputs `≥ 0` produce `1.0`.
    pub fn eval(&self, x: f32) -> f32 {
        if x < EXP_INPUT_MIN {
            return 0.0;
        }
        if x >= 0.0 {
            return 1.0;
        }
        let xf = to_fixed(x, FRAC_BITS);
        let idx = self.segment_index(x);
        let y = fixed_mul(self.slope[idx], xf, FRAC_BITS).saturating_add(self.intercept[idx]);
        from_fixed(y.max(0), FRAC_BITS)
    }

    /// Index of the segment covering input `x` (caller guarantees the range).
    fn segment_index(&self, x: f32) -> usize {
        let rel = (x - EXP_INPUT_MIN) / self.step;
        (rel as usize).min(self.slope.len() - 1)
    }

    /// Worst-case relative error against [`det_exp`] (itself within 1e-6
    /// of `e^x`) over a dense sweep of the covered interval. Exposed so
    /// tests and benches can report it.
    pub fn max_relative_error(&self, samples: usize) -> f32 {
        let mut worst = 0.0f32;
        for i in 0..samples {
            let x = EXP_INPUT_MIN + (-EXP_INPUT_MIN) * (i as f32 + 0.5) / samples as f32;
            let exact = det_exp(x);
            let approx = self.eval(x);
            worst = worst.max((approx - exact).abs() / exact);
        }
        worst
    }
}

#[cfg(test)]
// Reference values: libm `exp`.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_segments_meet_the_papers_error_bound() {
        let lut = PwlExp::new();
        let err = lut.max_relative_error(20_000);
        assert!(err < 0.01, "LUT error {err} exceeds the paper's 1% bound");
    }

    #[test]
    fn clamping_below_range_gives_zero() {
        let lut = PwlExp::new();
        assert_eq!(lut.eval(-5.55), 0.0);
        assert_eq!(lut.eval(-100.0), 0.0);
    }

    #[test]
    fn saturation_above_range_gives_one() {
        let lut = PwlExp::new();
        assert_eq!(lut.eval(0.0), 1.0);
        assert_eq!(lut.eval(10.0), 1.0);
    }

    #[test]
    fn output_is_monotone_up_to_fit_error() {
        // Segment boundaries may dip by at most the per-segment fit error
        // (each shifted chord is lowered by its own half-deviation), so
        // monotonicity holds up to that bound — never more.
        let lut = PwlExp::new();
        let mut prev = -1.0f32;
        for i in 0..4096 {
            let x = EXP_INPUT_MIN + (-EXP_INPUT_MIN) * i as f32 / 4095.0;
            let y = lut.eval(x - 1e-6);
            let allowed_dip = 0.01 * prev.abs() + 1e-6;
            assert!(
                y >= prev - allowed_dip,
                "dip beyond fit error at x={x}: {y} after {prev}"
            );
            prev = y;
        }
    }

    #[test]
    fn more_segments_reduce_error() {
        let coarse = PwlExp::with_segments(4).max_relative_error(5_000);
        let fine = PwlExp::with_segments(64).max_relative_error(5_000);
        assert!(fine < coarse);
    }

    #[test]
    fn boundary_value_at_range_edge_is_near_alpha_min() {
        let lut = PwlExp::new();
        // exp(-5.54) ≈ 1/255 ≈ 0.00392.
        let v = lut.eval(EXP_INPUT_MIN + 1e-4);
        assert!((v - (1.0f32 / 255.0)).abs() < 5e-4, "edge value {v}");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _ = PwlExp::with_segments(0);
    }

    #[test]
    fn det_exp_tracks_libm_below_1e6_relative() {
        // The deterministic exponential must sit well inside the 1e-6
        // tolerance the alpha-datapath tests use against `f32::exp`,
        // across the whole clamped alpha domain and a margin beyond it.
        let mut worst = 0.0f32;
        for i in 0..200_000 {
            let x = -6.0 + 6.5 * (i as f32 + 0.5) / 200_000.0;
            let exact = x.exp();
            let approx = det_exp(x);
            worst = worst.max((approx - exact).abs() / exact);
        }
        assert!(worst < 1e-6, "det_exp relative error {worst}");
    }

    #[test]
    fn det_exp_is_exact_at_zero() {
        assert_eq!(det_exp(0.0).to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn det_exp_is_monotone_over_the_alpha_domain() {
        let mut prev = det_exp(EXP_INPUT_MIN - 0.1);
        for i in 0..50_000 {
            let x = -5.6 + 5.6 * i as f32 / 49_999.0;
            let y = det_exp(x);
            assert!(y >= prev, "det_exp dips at x={x}: {y} after {prev}");
            prev = y;
        }
    }
}
