//! Deterministic logarithm and sine/cosine: the seed-to-pixel companions
//! of [`det_exp`](crate::exp::det_exp).
//!
//! Each function is a fixed, explicitly ordered sequence of IEEE-754
//! single-precision basic operations — add, subtract, multiply, divide,
//! `sqrt`, conversions and bit operations — with **no FMA and no libm
//! call**, so its result is the same bits on every target and in every
//! build profile. They are also branch-free: every data-dependent choice
//! is a select through a bit mask, so a SIMD kernel that runs the same
//! operation sequence per lane is bit-identical to these scalar twins by
//! construction (`gcc_core::dispatch`'s `box_muller` is one).
//!
//! Both follow Cephes (`logf`, `sinf` / `cosf`): the same splits, the same
//! minimax polynomials, the same Horner order.

use crate::exp::{DET_EXP_LN2_HI, DET_EXP_LN2_LO};

/// `√½`: [`det_ln`] splits the mantissa here, so the polynomial argument
/// stays within `[√½ − 1, √2 − 1)`.
pub const DET_LN_SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// Degree-9 polynomial of [`det_ln`] (Cephes `logf`), highest degree
/// first: `ln(1 + f) ≈ f − f²/2 + f³·P(f)`.
// Minimax coefficients, kept digit for digit as fitted.
#[allow(clippy::excessive_precision)]
pub const DET_LN_POLY: [f32; 9] = [
    7.037_683_629_2e-2,
    -1.151_461_031_0e-1,
    1.167_699_874_0e-1,
    -1.242_014_084_6e-1,
    1.424_932_278_7e-1,
    -1.666_805_766_5e-1,
    2.000_071_476_5e-1,
    -2.499_999_399_3e-1,
    3.333_333_117_4e-1,
];

/// `4/π`: [`det_sin_cos`] counts octants with it.
// Cephes' decimal, as written there.
#[allow(clippy::excessive_precision)]
pub const DET_FOUR_OVER_PI: f32 = 1.273_239_544_735_16;

/// `π/4` in three parts (Cephes `DP1..DP3`) for the reduction
/// `r = ((x − j·DP1) − j·DP2) − j·DP3`. The first two have few enough
/// significant bits that their products with the octant count `j` are
/// exact for `|x| ≤` [`DET_SIN_COS_MAX`].
// Cephes' decimals, as written there.
#[allow(clippy::excessive_precision)]
pub const DET_PI_4_SPLIT: [f32; 3] = [
    0.785_156_25,
    2.418_756_484_985_351_562_5e-4,
    3.774_894_977_445_941_08e-8,
];

/// Degree-3 (in `r²`) sine polynomial of [`det_sin_cos`] (Cephes `sinf`),
/// highest degree first: `sin r ≈ r + r³·S(r²)`.
// Minimax coefficients, kept digit for digit as fitted.
#[allow(clippy::excessive_precision)]
pub const DET_SIN_POLY: [f32; 3] = [-1.951_529_589_1e-4, 8.332_160_873_6e-3, -1.666_665_461_1e-1];

/// Degree-3 (in `r²`) cosine polynomial of [`det_sin_cos`] (Cephes
/// `cosf`), highest degree first: `cos r ≈ 1 − r²/2 + r⁴·C(r²)`.
// Minimax coefficients, kept digit for digit as fitted.
#[allow(clippy::excessive_precision)]
pub const DET_COS_POLY: [f32; 3] = [
    2.443_315_711_809_948e-5,
    -1.388_731_625_493_765e-3,
    4.166_664_568_298_827e-2,
];

/// Largest `|x|` [`det_sin_cos`] reduces accurately (Cephes' bound).
pub const DET_SIN_COS_MAX: f32 = 8192.0;

/// All-ones when `c` holds, else zero: the mask a vector compare yields.
#[inline(always)]
fn mask(c: bool) -> u32 {
    0u32.wrapping_sub(u32::from(c))
}

/// `a` where `m` is all-ones, `b` where it is zero.
#[inline(always)]
fn select(m: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

/// Deterministic natural logarithm (Cephes `logf`, branch-free).
///
/// `x = m·2^e` with `m ∈ [√½, √2)`; `ln x = ln m + e·ln 2`, where
/// `ln m = f − f²/2 + f³·P(f)` for `f = m − 1` and `e·ln 2` is added in
/// two Cody–Waite parts. Subnormal inputs are scaled by `2²⁵` first
/// (exactly). `det_ln(1.0)` is `+0.0`; `0` gives `−∞`, `+∞` gives `+∞`
/// and a negative or NaN input gives NaN.
///
/// Within 8.1e-8 relative of the exact logarithm on the scene builder's
/// uniform lattice (`k · 2⁻²⁴`, tested exhaustively).
#[inline]
pub fn det_ln(x: f32) -> f32 {
    let sub = mask(x < f32::MIN_POSITIVE);
    let xs = x * select(sub, f32::from_bits((127 + 25) << 23), 1.0);
    let bits = xs.to_bits();
    // m ∈ [½, 1) and x = m·2^e (frexp).
    let e = (bits >> 23) as i32 - 126 - (sub & 25) as i32;
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    // Below √½, take m + m and one off e: f = 2m − 1 = (m − 1) + m.
    let low = mask(m < DET_LN_SQRT_HALF);
    let e = e - (low & 1) as i32;
    let f = (m - 1.0) + f32::from_bits(m.to_bits() & low);
    let z = f * f;
    let mut p = DET_LN_POLY[0];
    for c in &DET_LN_POLY[1..] {
        p = p * f + c;
    }
    let fe = e as f32;
    let mut y = p * f * z;
    y += fe * DET_EXP_LN2_LO;
    y += -0.5 * z;
    let r = (f + y) + fe * DET_EXP_LN2_HI;
    let r = select(mask(x == f32::INFINITY), f32::INFINITY, r);
    let r = select(mask(x == 0.0), f32::NEG_INFINITY, r);
    select(mask(x < 0.0 || x.is_nan()), f32::NAN, r)
}

/// Deterministic `(sin x, cos x)` (Cephes `sinf` / `cosf`, branch-free,
/// one reduction for both).
///
/// `|x|` is reduced by the nearest even multiple `j` of `π/4` in three
/// parts; both polynomials are evaluated on the remainder, and bits 1 and
/// 2 of `j` pick which one each result takes and its sign. Accurate for
/// `|x| ≤` [`DET_SIN_COS_MAX`]: within 7.8e-8 absolute of the exact values
/// at `2π·k·2⁻²⁴` (the scene builder's angles, tested exhaustively).
/// Beyond that the reduction loses bits, and past `i32` octants the
/// result is meaningless.
#[inline]
pub fn det_sin_cos(x: f32) -> (f32, f32) {
    const SIGN: u32 = 0x8000_0000;
    let ax = x.abs();
    // The even octant count nearest above: round j up to even.
    let j = ((ax * DET_FOUR_OVER_PI) as i32 + 1) & !1;
    let y = j as f32;
    let [dp1, dp2, dp3] = DET_PI_4_SPLIT;
    let r = ((ax - y * dp1) - y * dp2) - y * dp3;
    let z = r * r;
    let mut c = DET_COS_POLY[0];
    c = c * z + DET_COS_POLY[1];
    c = c * z + DET_COS_POLY[2];
    let c = ((c * z) * z - 0.5 * z) + 1.0;
    let mut s = DET_SIN_POLY[0];
    s = s * z + DET_SIN_POLY[1];
    s = s * z + DET_SIN_POLY[2];
    let s = (s * z) * r + r;
    // Odd quadrant: sin takes the cosine polynomial and vice versa.
    let swap = mask(j & 2 != 0);
    let (sin, cos) = (select(swap, c, s), select(swap, s, c));
    let j = j as u32;
    let sin_sign = (x.to_bits() & SIGN) ^ ((j & 4) << 29);
    let cos_sign = (!j.wrapping_sub(2) & 4) << 29;
    (
        f32::from_bits(sin.to_bits() ^ sin_sign),
        f32::from_bits(cos.to_bits() ^ cos_sign),
    )
}

#[cfg(test)]
// The reference values are the platform libm's, in f64.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    /// The scene builder's uniform lattice: `k · 2⁻²⁴` for `k` in
    /// `0..2²⁴`, every `stride`-th point.
    fn lattice(stride: usize) -> impl Iterator<Item = f32> {
        (0..1u32 << 24)
            .step_by(stride)
            .map(|k| k as f32 * (1.0 / (1u32 << 24) as f32))
    }

    /// Worst relative error of `det_ln` against the f64 logarithm over
    /// the lattice (`k ≥ 1`) and over the builder's Box–Muller `u1`
    /// mapping of it onto `[1e-7, 1)`.
    fn ln_worst(stride: usize) -> f64 {
        let mut worst = 0.0f64;
        for u in lattice(stride) {
            let u1 = (1e-7 + u * (1.0 - 1e-7)).min(1.0f32.next_down());
            for x in [u, u1] {
                if x == 0.0 {
                    continue;
                }
                let exact = f64::from(x).ln();
                let got = f64::from(det_ln(x));
                let err = if exact == 0.0 {
                    got.abs()
                } else {
                    ((got - exact) / exact).abs()
                };
                worst = worst.max(err);
            }
        }
        worst
    }

    /// Worst absolute error of `det_sin_cos` against the f64 sine and
    /// cosine at the builder's angles `2π·u` (and their negatives).
    fn sin_cos_worst(stride: usize) -> f64 {
        let mut worst = 0.0f64;
        for u in lattice(stride) {
            for x in [std::f32::consts::TAU * u, -std::f32::consts::TAU * u] {
                let (s, c) = det_sin_cos(x);
                let (es, ec) = f64::from(x).sin_cos();
                worst = worst.max((f64::from(s) - es).abs());
                worst = worst.max((f64::from(c) - ec).abs());
            }
        }
        worst
    }

    const LN_BOUND: f64 = 8.1e-8;
    const SIN_COS_BOUND: f64 = 7.8e-8;

    #[test]
    fn det_ln_is_within_its_bound_on_a_stride_of_the_lattice() {
        let worst = ln_worst(61);
        assert!(worst <= LN_BOUND, "det_ln relative error {worst:e}");
    }

    #[test]
    #[ignore = "every lattice point: run in release"]
    fn det_ln_is_within_its_bound_on_the_whole_lattice() {
        let worst = ln_worst(1);
        assert!(worst <= LN_BOUND, "det_ln relative error {worst:e}");
    }

    #[test]
    fn det_sin_cos_is_within_its_bound_on_a_stride_of_the_lattice() {
        let worst = sin_cos_worst(61);
        assert!(
            worst <= SIN_COS_BOUND,
            "det_sin_cos absolute error {worst:e}"
        );
    }

    #[test]
    #[ignore = "every lattice point: run in release"]
    fn det_sin_cos_is_within_its_bound_on_the_whole_lattice() {
        let worst = sin_cos_worst(1);
        assert!(
            worst <= SIN_COS_BOUND,
            "det_sin_cos absolute error {worst:e}"
        );
    }

    #[test]
    fn det_ln_edge_values() {
        assert_eq!(det_ln(1.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(det_ln(0.0), f32::NEG_INFINITY);
        assert_eq!(det_ln(-0.0), f32::NEG_INFINITY);
        assert_eq!(det_ln(f32::INFINITY), f32::INFINITY);
        assert!(det_ln(-1.0).is_nan());
        assert!(det_ln(f32::NAN).is_nan());
        assert!(det_ln(f32::NEG_INFINITY).is_nan());
        // Both sides of the √½ split, and powers of two either side of it.
        let split = DET_LN_SQRT_HALF;
        for x in [
            split.next_down(),
            split,
            split.next_up(),
            2.0 * split.next_down(),
            2.0 * split,
            0.5,
            2.0,
            1.0f32.next_down(),
            1.0f32.next_up(),
            f32::MAX,
        ] {
            let exact = f64::from(x).ln();
            let err = ((f64::from(det_ln(x)) - exact) / exact).abs();
            assert!(err <= 1.2e-7, "det_ln({x:e}) relative error {err:e}");
        }
        // Subnormals, down to the smallest, and the smallest normal.
        for bits in [1u32, 2, 3, 0x1234, 0x0040_0000, 0x007f_ffff, 0x0080_0000] {
            let x = f32::from_bits(bits);
            let exact = f64::from(x).ln();
            let err = ((f64::from(det_ln(x)) - exact) / exact).abs();
            assert!(err <= 1.2e-7, "det_ln({x:e}) relative error {err:e}");
        }
    }

    #[test]
    fn det_sin_cos_edge_values() {
        assert_eq!(det_sin_cos(0.0), (0.0, 1.0));
        let (s, c) = det_sin_cos(-0.0);
        assert_eq!((s.to_bits(), c), ((-0.0f32).to_bits(), 1.0));
        // Multiples of π/4 either side of zero: where the octant count
        // and the quadrant swap change.
        for k in -64..=64 {
            let x = k as f32 * std::f32::consts::FRAC_PI_4;
            for x in [x.next_down(), x, x.next_up()] {
                let (s, c) = det_sin_cos(x);
                let (es, ec) = f64::from(x).sin_cos();
                assert!((f64::from(s) - es).abs() <= 1.2e-7, "sin({x}) = {s}");
                assert!((f64::from(c) - ec).abs() <= 1.2e-7, "cos({x}) = {c}");
            }
        }
        // Odd in x for sin, even for cos: bit for bit.
        for i in 0..10_000 {
            let x = i as f32 * 0.8191;
            let (s, c) = det_sin_cos(x);
            let (ns, nc) = det_sin_cos(-x);
            assert_eq!(ns.to_bits(), (-s).to_bits(), "sin(-{x})");
            assert_eq!(nc.to_bits(), c.to_bits(), "cos(-{x})");
        }
        // Out to the reduction's bound.
        for x in [DET_SIN_COS_MAX, -DET_SIN_COS_MAX, 1000.5, -4097.25] {
            let (s, c) = det_sin_cos(x);
            let (es, ec) = f64::from(x).sin_cos();
            assert!((f64::from(s) - es).abs() <= 2e-6, "sin({x}) = {s}");
            assert!((f64::from(c) - ec).abs() <= 2e-6, "cos({x}) = {c}");
        }
    }
}
