//! Alpha evaluation and front-to-back compositing (paper Eqs. 3, 4, 9) with
//! the early-termination rule that the whole GCC dataflow is built around.

use crate::{ProjectedGaussian, ALPHA_MAX, ALPHA_MIN, TRANSMITTANCE_EPS};
use gcc_math::{PwlExp, Vec2, Vec3};

/// Which exponential the alpha evaluation uses.
#[derive(Debug, Clone, Default)]
pub enum ExpMode {
    /// The deterministic software exponential
    /// ([`gcc_math::exp::det_exp`]) — the GPU-reference datapath. Its
    /// fixed IEEE-754 operation sequence (~2 ulp of `f32::exp`) is what
    /// lets the [`crate::dispatch`] SIMD kernels reproduce this mode
    /// bit-for-bit lane by lane.
    #[default]
    Exact,
    /// GCC's 16-segment fixed-point LUT (paper §4.4).
    Lut(PwlExp),
}

impl ExpMode {
    /// The GCC hardware LUT.
    pub fn lut() -> Self {
        Self::Lut(PwlExp::new())
    }

    /// Evaluates `e^x` with the unit's clamping rules: `x < -5.54 → 0`,
    /// `x ≥ 0 → 1` (both modes share the clamps so they are comparable).
    pub fn exp(&self, x: f32) -> f32 {
        match self {
            Self::Exact => {
                if x < gcc_math::exp::EXP_INPUT_MIN {
                    0.0
                } else if x >= 0.0 {
                    1.0
                } else {
                    gcc_math::exp::det_exp(x)
                }
            }
            Self::Lut(lut) => lut.eval(x),
        }
    }

    /// Alpha of a raw exponent `power = lnω − ½·dᵀΣ′⁻¹d` (Eq. 9 with the
    /// unit's clamps): `min(e^power, 0.99)`, and `0.0` below the `1/255`
    /// cutoff. For [`Self::Exact`] this is per element what
    /// [`crate::dispatch::KernelSet::alpha_powers`] computes over a buffer.
    #[inline]
    pub fn alpha(&self, power: f32) -> f32 {
        let a = self.exp(power).min(ALPHA_MAX);
        if a < ALPHA_MIN {
            0.0
        } else {
            a
        }
    }
}

/// The exponent written into row-buffer lanes that lie outside a span:
/// below [`EXP_INPUT_MIN`](gcc_math::exp::EXP_INPUT_MIN), so both
/// exponential datapaths turn it into `α = 0` and the blend kernel masks
/// the lane off, yet small enough in magnitude that the branchless SIMD
/// `det_exp` evaluates it on normal floats like any in-span lane.
pub const PAD_POWER: f32 = -16.0;

/// Computes the alpha contribution of a projected Gaussian at a pixel
/// (Eq. 9), returning `0.0` for contributions below `1/255`.
pub fn gaussian_alpha(p: &ProjectedGaussian, x: i32, y: i32, exp: &ExpMode) -> f32 {
    let d = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - p.mean2d;
    exp.alpha(p.ln_opacity - 0.5 * p.conic.quad_form(d))
}

/// Row-incremental alpha evaluation: walks one pixel row of a projected
/// Gaussian with the conic quadratic form hoisted out of the x-loop.
///
/// The exponent `power(x) = lnω − ½·dᵀΣ′⁻¹d` is a quadratic in `x` along a
/// row (fixed `y`), so second-order forward differences advance it with
/// **two adds per pixel** instead of a full [`SymMat2::quad_form`]
/// (`SymMat2` = the conic): with `d = (dx, dy)` and conic `(a, b, c)`,
///
/// ```text
/// Δpower(x→x+1) = −½·(a·(2·dx + 1) + 2·b·dy),   Δ²power = −a.
/// ```
///
/// The start-of-row value is the exact quadratic form, so the forward
/// differences only accumulate rounding across one row's width (a ≤16 px
/// tile span or an 8 px block span in the renderers) — tests pin the
/// drift against the exact path at well below the `1/255` alpha
/// quantization.
///
/// [`SymMat2::quad_form`]: gcc_math::SymMat2::quad_form
#[derive(Debug, Clone, Copy)]
pub struct RowAlpha {
    /// Current exponent value.
    power: f32,
    /// First-order forward difference.
    step: f32,
    /// Second-order forward difference (constant along a row).
    curve: f32,
}

impl RowAlpha {
    /// Positions the evaluator at pixel `(x0, y)` (center-sampled) for the
    /// projected Gaussian `p`.
    #[inline]
    pub fn new(p: &ProjectedGaussian, x0: i32, y: i32) -> Self {
        let dx = x0 as f32 + 0.5 - p.mean2d.x;
        let dy = y as f32 + 0.5 - p.mean2d.y;
        let conic = p.conic;
        let q = conic.a * dx * dx + 2.0 * conic.b * dx * dy + conic.c * dy * dy;
        Self {
            power: p.ln_opacity - 0.5 * q,
            step: -0.5 * (conic.a * (2.0 * dx + 1.0) + 2.0 * conic.b * dy),
            curve: -conic.a,
        }
    }

    /// Exponent at the current pixel — what the blend path's row buffer
    /// records before one [`ExpMode::alpha`] pass over the whole buffer.
    #[inline]
    pub fn power(&self) -> f32 {
        self.power
    }

    /// Alpha at the current pixel (Eq. 9 with the unit's clamps), `0.0`
    /// below the `1/255` cutoff — same contract as [`gaussian_alpha`].
    #[inline]
    pub fn alpha(&self, exp: &ExpMode) -> f32 {
        exp.alpha(self.power)
    }

    /// Advances one pixel to the right: two adds.
    #[inline]
    pub fn advance(&mut self) {
        self.power += self.step;
        self.step += self.curve;
    }
}

/// Half-open pixel-x interval of row `y`, clipped to `[x0, x1)`, outside
/// which the Gaussian's alpha is guaranteed zero — both exponential modes
/// clamp inputs below [`EXP_INPUT_MIN`](gcc_math::exp::EXP_INPUT_MIN) to
/// `α = 0`, so `power(x) ≥ EXP_INPUT_MIN` is a quadratic inequality in
/// `x` solved once per row (`f64`, padded one pixel per side against
/// rounding). Blend loops walk only this span; pixels inside it still go
/// through the exact incremental evaluation, so the image is unchanged —
/// the span only skips work that provably produces nothing.
pub fn effective_row_span(p: &ProjectedGaussian, y: i32, x0: i32, x1: i32) -> (i32, i32) {
    let a = f64::from(p.conic.a);
    if a <= 0.0 {
        // Degenerate conic: no restriction (projection culls these, but
        // stay conservative).
        return (x0, x1);
    }
    let dy = f64::from(y) + 0.5 - f64::from(p.mean2d.y);
    let b_dy = f64::from(p.conic.b) * dy;
    let c = f64::from(p.conic.c);
    // power = lnω − ½q ≥ m  ⟺  a·dx² + 2·b·dy·dx + c·dy² ≤ 2(lnω − m).
    let rhs = 2.0 * (f64::from(p.ln_opacity) - f64::from(gcc_math::exp::EXP_INPUT_MIN));
    let disc = b_dy * b_dy - a * (c * dy * dy - rhs);
    if disc < 0.0 {
        return (x0, x0); // the whole row is below the cutoff
    }
    let sq = disc.sqrt();
    let mx = f64::from(p.mean2d.x);
    // Pixel x samples at center x + 0.5, i.e. dx = x + 0.5 − mx.
    let lo = ((-b_dy - sq) / a + mx - 0.5 - 1.0)
        .floor()
        .max(f64::from(x0));
    let hi = (((-b_dy + sq) / a + mx - 0.5 + 1.0).ceil() + 1.0).min(f64::from(x1));
    if lo >= hi {
        (x0, x0)
    } else {
        (lo as i32, hi as i32)
    }
}

/// Multi-row effective-span walker: yields [`effective_row_span`] for
/// consecutive rows `y0, y0 + 1, …` with the quadratic solved by
/// second-order forward differences — the discriminant is itself a
/// quadratic in `dy` and the interval center is linear, so a row costs a
/// handful of adds plus one square root (only on non-empty rows), instead
/// of rebuilding the full formula. Stepping runs in `f64`; the drift over
/// a tile's ≤16 rows is orders of magnitude below the one-pixel safety
/// pad, so the conservative-coverage guarantee is preserved.
#[derive(Debug, Clone, Copy)]
pub struct EffectiveSpanWalker {
    // Crate-visible for the vector twins of `dispatch::RowSpansFn`, which
    // step the same state and solve four rows at a time.
    pub(crate) x0: i32,
    pub(crate) x1: i32,
    /// Interval center in `dx`, linear in `dy`.
    pub(crate) center: f64,
    pub(crate) dcenter: f64,
    /// Discriminant `a·rhs − det·dy²`, quadratic in `dy`.
    pub(crate) disc: f64,
    pub(crate) ddisc: f64,
    pub(crate) dddisc: f64,
    pub(crate) inv_a: f64,
    /// `μ′.x − 0.5`: converts `dx` to pixel x.
    pub(crate) mx_off: f64,
    /// Degenerate conic: every row falls back to the full `[x0, x1)`.
    pub(crate) degenerate: bool,
}

impl EffectiveSpanWalker {
    /// Walker over rows `y0, y0 + 1, …` of the projected Gaussian `p`,
    /// spans clipped to `[x0, x1)`.
    pub fn new(p: &ProjectedGaussian, x0: i32, x1: i32, y0: i32) -> Self {
        let a = f64::from(p.conic.a);
        let b = f64::from(p.conic.b);
        let c = f64::from(p.conic.c);
        let dy = f64::from(y0) + 0.5 - f64::from(p.mean2d.y);
        let rhs = 2.0 * (f64::from(p.ln_opacity) - f64::from(gcc_math::exp::EXP_INPUT_MIN));
        let det = a * c - b * b;
        Self {
            x0,
            x1,
            center: -b * dy / a,
            dcenter: -b / a,
            disc: a * rhs - det * dy * dy,
            ddisc: -det * (2.0 * dy + 1.0),
            dddisc: -2.0 * det,
            inv_a: 1.0 / a,
            mx_off: f64::from(p.mean2d.x) - 0.5,
            degenerate: a <= 0.0,
        }
    }

    /// Span of the current row (half-open, clipped to `[x0, x1)`), then
    /// advances to the next row.
    #[inline]
    pub fn next_span(&mut self) -> (i32, i32) {
        if self.degenerate {
            return (self.x0, self.x1);
        }
        let (center, disc) = (self.center, self.disc);
        self.center += self.dcenter;
        self.disc += self.ddisc;
        self.ddisc += self.dddisc;
        if disc < 0.0 {
            return (self.x0, self.x0);
        }
        let half = disc.sqrt() * self.inv_a;
        let lo = (center - half + self.mx_off - 1.0)
            .floor()
            .max(f64::from(self.x0));
        let hi = ((center + half + self.mx_off + 1.0).ceil() + 1.0).min(f64::from(self.x1));
        if lo >= hi {
            (self.x0, self.x0)
        } else {
            (lo as i32, hi as i32)
        }
    }
}

/// Per-pixel compositing state: accumulated color `C` and transmittance `T`
/// (Eq. 4: `Tᵢ = Π (1 − αⱼ)`, `C = Σ Tᵢ αᵢ cᵢ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelState {
    /// Accumulated RGB.
    pub color: Vec3,
    /// Remaining transmittance, starts at 1.
    pub transmittance: f32,
}

impl Default for PixelState {
    fn default() -> Self {
        Self::new()
    }
}

impl PixelState {
    /// Fresh pixel: black, fully transmissive.
    pub fn new() -> Self {
        Self {
            color: Vec3::ZERO,
            transmittance: 1.0,
        }
    }

    /// Front-to-back blend of one contribution. Returns the alpha actually
    /// blended (zero if the pixel had already terminated).
    #[inline]
    pub fn blend(&mut self, alpha: f32, color: Vec3) -> f32 {
        if self.terminated() || alpha <= 0.0 {
            return 0.0;
        }
        self.color += color * (alpha * self.transmittance);
        self.transmittance *= 1.0 - alpha;
        alpha
    }

    /// Early-termination check: `T < 1e-4` (paper §2.1).
    #[inline]
    pub fn terminated(&self) -> bool {
        self.transmittance < TRANSMITTANCE_EPS
    }

    /// Composites over a background color (3DGS uses black or white).
    #[inline]
    pub fn resolve(&self, background: Vec3) -> Vec3 {
        self.color + background * self.transmittance
    }
}

/// Blends an ordered front-to-back sequence of `(alpha, color)` pairs and
/// returns the final state — the per-pixel inner loop of every renderer in
/// this repository.
pub fn composite<I>(contributions: I) -> PixelState
where
    I: IntoIterator<Item = (f32, Vec3)>,
{
    let mut st = PixelState::new();
    for (a, c) in contributions {
        if st.terminated() {
            break;
        }
        st.blend(a, c);
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::{approx_eq, SymMat2};

    fn proj(mean: Vec2, opacity: f32) -> ProjectedGaussian {
        let cov = SymMat2::new(4.0, 0.0, 4.0);
        ProjectedGaussian {
            id: 0,
            mean2d: mean,
            cov2d: cov,
            conic: cov.inverse().unwrap(),
            depth: 1.0,
            opacity,
            ln_opacity: opacity.ln(),
            radius: 6.0,
            color: Vec3::new(1.0, 0.0, 0.0),
        }
    }

    #[test]
    fn alpha_peaks_at_center_and_decays() {
        let p = proj(Vec2::new(10.5, 10.5), 0.9);
        let e = ExpMode::Exact;
        let center = gaussian_alpha(&p, 10, 10, &e);
        let off = gaussian_alpha(&p, 13, 10, &e);
        let far = gaussian_alpha(&p, 30, 10, &e);
        assert!(approx_eq(center, 0.9, 1e-4));
        assert!(off < center && off > 0.0);
        assert_eq!(far, 0.0);
    }

    #[test]
    fn lut_alpha_tracks_exact_within_one_percent() {
        let p = proj(Vec2::new(10.5, 10.5), 0.7);
        let exact = ExpMode::Exact;
        let lut = ExpMode::lut();
        for x in 0..21 {
            for y in 0..21 {
                let a = gaussian_alpha(&p, x, y, &exact);
                let b = gaussian_alpha(&p, x, y, &lut);
                if a > 0.0 {
                    assert!(
                        (a - b).abs() / a < 0.015,
                        "LUT deviates at ({x},{y}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_alpha_matches_quad_form_at_row_start() {
        // At x0 the power is the exact quadratic form — bit-identical to
        // gaussian_alpha.
        let mut p = proj(Vec2::new(17.3, 9.8), 0.83);
        p.conic = SymMat2::new(0.21, -0.07, 0.33).inverse().unwrap();
        let e = ExpMode::Exact;
        for y in 0..24 {
            for x0 in [0, 5, 16] {
                let row = RowAlpha::new(&p, x0, y);
                assert_eq!(
                    row.alpha(&e).to_bits(),
                    gaussian_alpha(&p, x0, y, &e).to_bits()
                );
            }
        }
    }

    #[test]
    fn row_alpha_drift_is_far_below_alpha_quantization() {
        // Forward differences across a 16-px tile row (the widest span the
        // renderers walk) must track the exact path to ≪ 1/255 — the pin
        // that lets both blend loops use the incremental evaluator.
        let exact = ExpMode::Exact;
        for (ca, cb, cc) in [(4.0, 0.0, 4.0), (9.0, 3.5, 2.0), (0.8, -0.3, 1.7)] {
            let cov = SymMat2::new(ca, cb, cc);
            let mut p = proj(Vec2::new(8.1, 7.6), 0.97);
            p.cov2d = cov;
            p.conic = cov.inverse().unwrap();
            p.ln_opacity = 0.97f32.ln();
            for y in 0..16 {
                let mut row = RowAlpha::new(&p, 0, y);
                for x in 0..16 {
                    let incremental = row.alpha(&exact);
                    let reference = gaussian_alpha(&p, x, y, &exact);
                    assert!(
                        (incremental - reference).abs() < 2e-4,
                        "cov ({ca},{cb},{cc}) pixel ({x},{y}): {incremental} vs {reference}"
                    );
                    row.advance();
                }
            }
        }
    }

    #[test]
    fn effective_row_span_covers_every_nonzero_alpha_pixel() {
        // The span is a conservative work restriction: any pixel with
        // alpha > 0 (either exp mode) must fall inside it.
        let exact = ExpMode::Exact;
        let lut = ExpMode::lut();
        for (ca, cb, cc) in [(4.0, 0.0, 4.0), (12.0, 5.0, 3.0), (0.6, -0.25, 2.0)] {
            for opacity in [0.99f32, 0.35, 0.02] {
                let cov = SymMat2::new(ca, cb, cc);
                let mut p = proj(Vec2::new(21.4, 18.7), opacity);
                p.cov2d = cov;
                p.conic = cov.inverse().unwrap();
                p.ln_opacity = opacity.ln();
                for y in 0..40 {
                    let (sx0, sx1) = effective_row_span(&p, y, 0, 48);
                    for x in 0..48 {
                        let a = gaussian_alpha(&p, x, y, &exact);
                        let b = gaussian_alpha(&p, x, y, &lut);
                        if a > 0.0 || b > 0.0 {
                            assert!(
                                (sx0..sx1).contains(&x),
                                "α({x},{y}) = {a}/{b} outside span [{sx0},{sx1}) \
                                 (cov ({ca},{cb},{cc}), ω {opacity})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn effective_span_walker_covers_every_nonzero_alpha_pixel() {
        // The forward-differenced walker must preserve the conservative
        // guarantee of the direct per-row solve.
        let exact = ExpMode::Exact;
        for (ca, cb, cc) in [(4.0, 0.0, 4.0), (12.0, 5.0, 3.0), (0.6, -0.25, 2.0)] {
            for opacity in [0.99f32, 0.35, 0.02] {
                let cov = SymMat2::new(ca, cb, cc);
                let mut p = proj(Vec2::new(21.4, 18.7), opacity);
                p.cov2d = cov;
                p.conic = cov.inverse().unwrap();
                p.ln_opacity = opacity.ln();
                let mut walker = EffectiveSpanWalker::new(&p, 0, 48, 0);
                for y in 0..40 {
                    let (sx0, sx1) = walker.next_span();
                    let (dx0, dx1) = effective_row_span(&p, y, 0, 48);
                    for x in 0..48 {
                        if gaussian_alpha(&p, x, y, &exact) > 0.0 {
                            assert!(
                                (sx0..sx1).contains(&x),
                                "α({x},{y}) outside walker span [{sx0},{sx1})"
                            );
                        }
                    }
                    // Walker and direct solve agree to ≤1 px at the edges
                    // (identical algebra, different rounding paths).
                    assert!(
                        (sx0 - dx0).abs() <= 1 && (sx1 - dx1).abs() <= 1,
                        "walker [{sx0},{sx1}) vs direct [{dx0},{dx1}) at row {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn effective_row_span_skips_far_rows_entirely() {
        let p = proj(Vec2::new(10.0, 10.0), 0.9);
        // A row 40σ away can contribute nothing.
        let (sx0, sx1) = effective_row_span(&p, 90, 0, 64);
        assert_eq!(sx0, sx1);
        // Invisible opacity ⇒ empty everywhere.
        let mut faint = proj(Vec2::new(10.0, 10.0), 0.003);
        faint.ln_opacity = 0.003f32.ln();
        let (fx0, fx1) = effective_row_span(&faint, 10, 0, 64);
        assert_eq!(fx0, fx1);
    }

    #[test]
    fn row_alpha_tracks_lut_mode_too() {
        let lut = ExpMode::lut();
        let p = proj(Vec2::new(10.5, 10.5), 0.7);
        for y in 8..13 {
            let mut row = RowAlpha::new(&p, 6, y);
            for x in 6..15 {
                let a = row.alpha(&lut);
                let b = gaussian_alpha(&p, x, y, &lut);
                assert!((a - b).abs() < 2e-3, "({x},{y}): {a} vs {b}");
                row.advance();
            }
        }
    }

    #[test]
    fn single_opaque_layer_dominates() {
        let mut st = PixelState::new();
        st.blend(0.99, Vec3::new(1.0, 1.0, 1.0));
        assert!(approx_eq(st.color.x, 0.99, 1e-6));
        assert!(approx_eq(st.transmittance, 0.01, 1e-6));
        assert!(!st.terminated());
    }

    #[test]
    fn transmittance_product_rule() {
        // T after blending α₁, α₂ is (1−α₁)(1−α₂).
        let mut st = PixelState::new();
        st.blend(0.5, Vec3::ZERO);
        st.blend(0.25, Vec3::ZERO);
        assert!(approx_eq(st.transmittance, 0.5 * 0.75, 1e-6));
    }

    #[test]
    fn blend_weights_match_equation4() {
        // C = Σ Tᵢ αᵢ cᵢ with T₁ = 1, T₂ = (1 − α₁)…
        let c1 = Vec3::new(1.0, 0.0, 0.0);
        let c2 = Vec3::new(0.0, 1.0, 0.0);
        let st = composite([(0.6, c1), (0.5, c2)]);
        assert!(approx_eq(st.color.x, 0.6, 1e-6));
        assert!(approx_eq(st.color.y, 0.4 * 0.5, 1e-6));
    }

    #[test]
    fn terminated_pixel_rejects_further_blending() {
        let mut st = PixelState::new();
        for _ in 0..10 {
            st.blend(0.9, Vec3::new(0.1, 0.1, 0.1));
        }
        assert!(st.terminated());
        let before = st.color;
        let blended = st.blend(0.5, Vec3::new(5.0, 5.0, 5.0));
        assert_eq!(blended, 0.0);
        assert_eq!(st.color, before);
    }

    #[test]
    fn composite_stops_at_termination() {
        // Infinite iterator: composite must terminate on its own.
        let contributions = std::iter::repeat((0.9f32, Vec3::splat(0.5)));
        let st = composite(contributions.take(10_000));
        assert!(st.terminated());
        // Color converges to 0.5 (weighted average of identical layers).
        assert!(approx_eq(st.color.x, 0.5, 1e-3));
    }

    #[test]
    fn resolve_adds_background_through_remaining_transmittance() {
        let mut st = PixelState::new();
        st.blend(0.5, Vec3::new(1.0, 0.0, 0.0));
        let out = st.resolve(Vec3::new(0.0, 0.0, 1.0));
        assert!(approx_eq(out.x, 0.5, 1e-6));
        assert!(approx_eq(out.z, 0.5, 1e-6));
    }

    #[test]
    fn exact_mode_applies_hardware_clamps() {
        let e = ExpMode::Exact;
        assert_eq!(e.exp(-6.0), 0.0);
        assert_eq!(e.exp(0.1), 1.0);
        assert!(approx_eq(e.exp(-1.0), (-1.0f32).exp(), 1e-6));
    }
}
