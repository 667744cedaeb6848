//! Gaussian footprint bounding: the 3σ rule (paper Eq. 6), GCC's
//! opacity-aware ω-σ law (Eq. 8), AABB/OBB footprints (Fig. 4, Table 1) and
//! the exact alpha ellipse test (Eq. 7).

use crate::{ALPHA_MAX, ALPHA_MIN};
use gcc_math::{SymMat2, Vec2};

/// Which law converts a projected covariance into a bounding radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundingLaw {
    /// The conventional fixed `3σ` envelope: `r = ⌈3·√λmax⌉` (Eq. 6),
    /// used by GPU 3DGS and GSCore regardless of opacity.
    ThreeSigma,
    /// GCC's ω-σ law: `r = ⌈√(2·ln(255ω)·λmax)⌉` (Eq. 8) — the envelope
    /// inside which `α` can still reach `1/255` given the opacity.
    OmegaSigma,
}

/// Squared Mahalanobis extent of the `3σ` envelope (Eq. 5's right side).
pub const THREE_SIGMA_SQ: f32 = 9.0;

/// Squared Mahalanobis extent of the ω-σ envelope for opacity `ω`
/// (Eq. 7's right side): `2·ln(255·ω)`. Non-positive when `ω ≤ 1/255`,
/// meaning the Gaussian can never contribute a visible alpha.
pub fn omega_sigma_extent_sq(opacity: f32) -> f32 {
    2.0 * (255.0 * opacity).ln()
}

/// Bounding radius in pixels for a projected covariance with maximum
/// eigenvalue `lambda_max`, under the chosen law. Returns `0.0` when the
/// envelope is empty (ω-σ with `ω ≤ 1/255`).
pub fn bounding_radius(law: BoundingLaw, lambda_max: f32, opacity: f32) -> f32 {
    let extent_sq = match law {
        BoundingLaw::ThreeSigma => THREE_SIGMA_SQ,
        BoundingLaw::OmegaSigma => omega_sigma_extent_sq(opacity),
    };
    if extent_sq <= 0.0 || lambda_max <= 0.0 {
        return 0.0;
    }
    (extent_sq * lambda_max).sqrt().ceil()
}

/// Integer pixel rectangle, clipped to the screen: the AABB footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelRect {
    /// Inclusive minimum x.
    pub x0: i32,
    /// Inclusive minimum y.
    pub y0: i32,
    /// Exclusive maximum x.
    pub x1: i32,
    /// Exclusive maximum y.
    pub y1: i32,
}

impl PixelRect {
    /// Empty rectangle.
    pub const EMPTY: Self = Self {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Builds the screen-clipped AABB of a circle at `center` with
    /// radius `r` on a `width × height` screen.
    pub fn from_circle(center: Vec2, r: f32, width: u32, height: u32) -> Self {
        if r <= 0.0 {
            return Self::EMPTY;
        }
        let x0 = (center.x - r).floor().max(0.0) as i32;
        let y0 = (center.y - r).floor().max(0.0) as i32;
        let x1 = ((center.x + r).ceil() as i32 + 1).min(width as i32);
        let y1 = ((center.y + r).ceil() as i32 + 1).min(height as i32);
        if x0 >= x1 || y0 >= y1 {
            return Self::EMPTY;
        }
        Self { x0, y0, x1, y1 }
    }

    /// `true` when the rectangle contains no pixels.
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Number of pixels covered.
    pub fn area(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.x1 - self.x0) as u64 * (self.y1 - self.y0) as u64
        }
    }

    /// Iterates over `(x, y)` pixel coordinates in scanline order.
    pub fn pixels(&self) -> impl Iterator<Item = (i32, i32)> + '_ {
        let (x0, x1) = (self.x0, self.x1);
        (self.y0..self.y1).flat_map(move |y| (x0..x1).map(move |x| (x, y)))
    }

    /// Range of 16×16 tiles this rectangle overlaps (used for tile binning
    /// in the standard dataflow). Returns `(tx0, ty0, tx1, ty1)` with
    /// exclusive upper bounds.
    pub fn tile_range(&self, tile: u32) -> (u32, u32, u32, u32) {
        if self.is_empty() {
            return (0, 0, 0, 0);
        }
        let t = tile as i32;
        (
            (self.x0 / t) as u32,
            (self.y0 / t) as u32,
            ((self.x1 - 1) / t + 1) as u32,
            ((self.y1 - 1) / t + 1) as u32,
        )
    }
}

/// Oriented bounding box of a splat ellipse (GSCore's tightened footprint):
/// centered at the projected mean, axes along the covariance eigenvectors,
/// half-lengths set by the bounding law applied per-eigenvalue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obb {
    /// Projected Gaussian center.
    pub center: Vec2,
    /// Unit major-axis direction.
    pub axis_major: Vec2,
    /// Half-length along the major axis.
    pub half_major: f32,
    /// Half-length along the minor axis.
    pub half_minor: f32,
}

impl Obb {
    /// Builds the OBB of the ellipse defined by covariance `cov` (screen
    /// space) at `center`, under `law` with opacity `opacity`.
    /// Returns `None` when the envelope is empty.
    pub fn from_cov(center: Vec2, cov: SymMat2, law: BoundingLaw, opacity: f32) -> Option<Self> {
        let (l1, l2) = cov.eigenvalues();
        let extent_sq = match law {
            BoundingLaw::ThreeSigma => THREE_SIGMA_SQ,
            BoundingLaw::OmegaSigma => omega_sigma_extent_sq(opacity),
        };
        if extent_sq <= 0.0 || l1 <= 0.0 {
            return None;
        }
        Some(Self {
            center,
            axis_major: cov.major_axis(),
            half_major: (extent_sq * l1).sqrt(),
            half_minor: (extent_sq * l2.max(0.0)).sqrt(),
        })
    }

    /// `true` when the pixel center `(x + 0.5, y + 0.5)` lies inside.
    pub fn contains(&self, x: i32, y: i32) -> bool {
        let p = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - self.center;
        let along = p.dot(self.axis_major).abs();
        let across = p.cross(self.axis_major).abs();
        along <= self.half_major && across <= self.half_minor
    }

    /// Half-open pixel-x interval of row `y`, clipped to `[x0, x1)`, whose
    /// pixel centers lie inside the OBB — the analytic counterpart of
    /// testing [`Self::contains`] per pixel. Both OBB coordinates are
    /// linear in `x`, so containment is the intersection of two slabs:
    /// two divisions per row replace two products and two comparisons per
    /// pixel. The span is tight (boundary pixels may differ from the
    /// per-pixel test by at most the last-ulp rounding of the slab edge),
    /// deterministic, and identical across thread counts.
    pub fn row_span(&self, x0: i32, x1: i32, y: i32) -> (i32, i32) {
        // v(x) = s·(x + 0.5 − cx) + t0 with |v| ≤ h, for both coordinates.
        fn slab(s: f64, t0: f64, h: f64, span: (f64, f64)) -> (f64, f64) {
            if s == 0.0 {
                if t0.abs() <= h {
                    span
                } else {
                    // Properly inverted (lo > hi): a failed axis-aligned
                    // gate excludes the whole row, not all-but-one pixel.
                    (f64::INFINITY, f64::NEG_INFINITY)
                }
            } else {
                let (a, b) = ((-h - t0) / s, (h - t0) / s);
                let (lo, hi) = if s > 0.0 { (a, b) } else { (b, a) };
                (span.0.max(lo), span.1.min(hi))
            }
        }
        let dy = f64::from(y) + 0.5 - f64::from(self.center.y);
        let ax = f64::from(self.axis_major.x);
        let ay = f64::from(self.axis_major.y);
        // Solve over u = x + 0.5 − cx: along = ax·u + ay·dy, across = ay·u − ax·dy.
        let u0 = f64::from(x0) + 0.5 - f64::from(self.center.x);
        let u1 = f64::from(x1 - 1) + 0.5 - f64::from(self.center.x);
        let mut span = (u0, u1); // inclusive real interval over u
        span = slab(ax, ay * dy, f64::from(self.half_major), span);
        span = slab(ay, -ax * dy, f64::from(self.half_minor), span);
        if span.0 > span.1 {
            return (x0, x0);
        }
        let cx = f64::from(self.center.x);
        let lo = (span.0 + cx - 0.5).ceil().max(f64::from(x0)) as i32;
        let hi = ((span.1 + cx - 0.5).floor() + 1.0).min(f64::from(x1)) as i32;
        if lo >= hi {
            (x0, x0)
        } else {
            (lo, hi)
        }
    }

    /// Builds a multi-row span walker starting at row `y0`: successive
    /// [`ObbSpanWalker::next_span`] calls return the [`Self::row_span`]
    /// result for `y0`, `y0 + 1`, … with the slab endpoints advanced by
    /// forward differences (they are linear in `y`), replacing the
    /// per-row divisions with adds. Endpoints are stepped in `f64`, so
    /// the drift across a tile's ≤16 rows is far below the half-pixel
    /// granularity of the span rounding.
    pub fn span_walker(&self, x0: i32, x1: i32, y0: i32) -> ObbSpanWalker {
        let dy = f64::from(y0) + 0.5 - f64::from(self.center.y);
        let ax = f64::from(self.axis_major.x);
        let ay = f64::from(self.axis_major.y);
        // Slab i: |sᵢ·u + tᵢ(dy)| ≤ hᵢ over u = x + 0.5 − cx, with
        // t₁ = ay·dy (along) and t₂ = −ax·dy (across). For sᵢ ≠ 0 the
        // interval endpoints (±hᵢ − tᵢ)/sᵢ are linear in dy; an exactly
        // axis-aligned slab (sᵢ = 0) constrains the row as a whole
        // instead, via |tᵢ| ≤ hᵢ.
        let mut slabs = [ObbSlab::default(); 2];
        for (slab, (s, t0, dt, h)) in slabs.iter_mut().zip([
            (ax, ay * dy, ay, f64::from(self.half_major)),
            (ay, -ax * dy, -ax, f64::from(self.half_minor)),
        ]) {
            *slab = if s == 0.0 {
                ObbSlab {
                    lo: f64::NEG_INFINITY,
                    hi: f64::INFINITY,
                    step: 0.0,
                    gate: Some((t0, dt, h)),
                }
            } else {
                let (a, b) = ((-h - t0) / s, (h - t0) / s);
                let (lo, hi) = if s > 0.0 { (a, b) } else { (b, a) };
                ObbSlab {
                    lo,
                    hi,
                    step: -dt / s,
                    gate: None,
                }
            };
        }
        ObbSpanWalker {
            slabs,
            x0,
            x1,
            u_to_x: f64::from(self.center.x) - 0.5,
        }
    }

    /// Enclosing AABB, clipped to the screen.
    pub fn enclosing_rect(&self, width: u32, height: u32) -> PixelRect {
        let a = self.axis_major * self.half_major;
        let b = Vec2::new(-self.axis_major.y, self.axis_major.x) * self.half_minor;
        let ext = Vec2::new(a.x.abs() + b.x.abs(), a.y.abs() + b.y.abs());
        let x0 = (self.center.x - ext.x).floor().max(0.0) as i32;
        let y0 = (self.center.y - ext.y).floor().max(0.0) as i32;
        let x1 = ((self.center.x + ext.x).ceil() as i32 + 1).min(width as i32);
        let y1 = ((self.center.y + ext.y).ceil() as i32 + 1).min(height as i32);
        if x0 >= x1 || y0 >= y1 {
            PixelRect::EMPTY
        } else {
            PixelRect { x0, y0, x1, y1 }
        }
    }

    /// Number of screen pixels inside the OBB (Table 1's "OBB" row).
    pub fn pixel_count(&self, width: u32, height: u32) -> u64 {
        let rect = self.enclosing_rect(width, height);
        rect.pixels().filter(|&(x, y)| self.contains(x, y)).count() as u64
    }
}

/// One slab constraint of an [`ObbSpanWalker`], as a `u`-interval with a
/// per-row forward-difference step. An exactly axis-aligned slab instead
/// gates whole rows through `|t| ≤ h` with `t` stepping per row.
#[derive(Debug, Clone, Copy, Default)]
struct ObbSlab {
    lo: f64,
    hi: f64,
    step: f64,
    gate: Option<(f64, f64, f64)>,
}

/// Multi-row OBB span walker built by [`Obb::span_walker`]: yields the
/// per-row pixel spans of consecutive rows with adds instead of divisions.
#[derive(Debug, Clone, Copy)]
pub struct ObbSpanWalker {
    slabs: [ObbSlab; 2],
    x0: i32,
    x1: i32,
    u_to_x: f64,
}

impl ObbSpanWalker {
    /// Span of the current row (half-open, clipped to `[x0, x1)`), then
    /// advances to the next row.
    #[inline]
    pub fn next_span(&mut self) -> (i32, i32) {
        let mut lo = f64::from(self.x0) - self.u_to_x;
        let mut hi = f64::from(self.x1 - 1) - self.u_to_x;
        let mut gated_out = false;
        for slab in &mut self.slabs {
            if let Some((t, dt, h)) = slab.gate.as_mut() {
                if t.abs() > *h {
                    gated_out = true;
                }
                *t += *dt;
            } else {
                lo = lo.max(slab.lo);
                hi = hi.min(slab.hi);
                slab.lo += slab.step;
                slab.hi += slab.step;
            }
        }
        if gated_out || lo > hi {
            return (self.x0, self.x0);
        }
        let px_lo = ((lo + self.u_to_x).ceil().max(f64::from(self.x0))) as i32;
        let px_hi = (((hi + self.u_to_x).floor() + 1.0).min(f64::from(self.x1))) as i32;
        if px_lo >= px_hi {
            (self.x0, self.x0)
        } else {
            (px_lo, px_hi)
        }
    }
}

/// The exact per-pixel effectiveness test `E(p)` of Eq. 7 / Algorithm 1:
/// `true` when the alpha at pixel `(x, y)` can reach `ALPHA_MIN`, i.e.
/// `(p − μ′)ᵀ Σ′⁻¹ (p − μ′) ≤ 2·ln(255·ω)`.
#[derive(Debug, Clone, Copy)]
pub struct EffectiveTest {
    /// Projected center μ′.
    pub mean: Vec2,
    /// Conic Σ′⁻¹.
    pub conic: SymMat2,
    /// Right-hand side `2·ln(255·ω)`.
    pub extent_sq: f32,
}

impl EffectiveTest {
    /// Builds the test for a projected Gaussian.
    pub fn new(mean: Vec2, conic: SymMat2, opacity: f32) -> Self {
        Self {
            mean,
            conic,
            extent_sq: omega_sigma_extent_sq(opacity),
        }
    }

    /// Evaluates `E` at the pixel center.
    pub fn passes(&self, x: i32, y: i32) -> bool {
        if self.extent_sq <= 0.0 {
            return false;
        }
        let d = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - self.mean;
        self.conic.quad_form(d) <= self.extent_sq
    }

    /// Counts effective pixels by exhaustive scan of `rect`
    /// (Table 1's "Rendered" row at the per-Gaussian level).
    pub fn count_in_rect(&self, rect: PixelRect) -> u64 {
        rect.pixels().filter(|&(x, y)| self.passes(x, y)).count() as u64
    }
}

/// Alpha value at a pixel for a projected Gaussian (deterministic
/// exponential, [`gcc_math::exp::det_exp`]):
/// `α = min(0.99, exp(lnω − ½·dᵀΣ′⁻¹d))` (Eq. 9). Contributions below
/// `1/255` are reported as `0.0` — the rasterizer skips them.
pub fn alpha_at(mean: Vec2, conic: SymMat2, ln_opacity: f32, x: i32, y: i32) -> f32 {
    let d = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - mean;
    let power = ln_opacity - 0.5 * conic.quad_form(d);
    // Same clamp sequence as `ExpMode::Exact` (det_exp needs its input
    // confined to the alpha domain; see its docs).
    let e = if power < gcc_math::exp::EXP_INPUT_MIN {
        0.0
    } else if power >= 0.0 {
        1.0
    } else {
        gcc_math::exp::det_exp(power)
    };
    let a = e.min(ALPHA_MAX);
    if a < ALPHA_MIN {
        0.0
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcc_math::approx_eq;

    #[test]
    fn omega_sigma_crossover_at_omega_0_35() {
        // 2·ln(255ω) = 9 at ω = e^4.5/255 ≈ 0.353: below that the ω-σ
        // envelope is tighter than 3σ (Fig. 4(b)); at ω = 1 it is slightly
        // larger (√(2·ln255) ≈ 3.33σ, Fig. 4(a)).
        for op in [0.3, 0.1, 0.01, 0.005] {
            let r_fixed = bounding_radius(BoundingLaw::ThreeSigma, 4.0, op);
            let r_dyn = bounding_radius(BoundingLaw::OmegaSigma, 4.0, op);
            assert!(
                r_dyn <= r_fixed,
                "ω-σ radius {r_dyn} > 3σ radius {r_fixed} at ω = {op}"
            );
        }
        let r_full = bounding_radius(BoundingLaw::OmegaSigma, 4.0, 1.0);
        let r_3s = bounding_radius(BoundingLaw::ThreeSigma, 4.0, 1.0);
        assert!(r_full >= r_3s, "ω = 1 envelope should reach ≥ 3σ");
    }

    #[test]
    fn omega_sigma_at_full_opacity_is_about_3_3_sigma() {
        // 2·ln(255) ≈ 11.08, √11.08 ≈ 3.33σ — slightly larger than 3σ,
        // exactly as Fig. 4(a) shows for ω = 1.
        let e = omega_sigma_extent_sq(1.0);
        assert!(approx_eq(e.sqrt(), 3.33, 0.01));
    }

    #[test]
    fn invisible_opacity_gives_empty_envelope() {
        assert_eq!(
            bounding_radius(BoundingLaw::OmegaSigma, 10.0, 1.0 / 255.0),
            0.0
        );
        assert_eq!(bounding_radius(BoundingLaw::OmegaSigma, 10.0, 0.001), 0.0);
    }

    #[test]
    fn radius_is_ceiled() {
        let r = bounding_radius(BoundingLaw::ThreeSigma, 1.0, 1.0);
        assert_eq!(r, 3.0);
        let r2 = bounding_radius(BoundingLaw::ThreeSigma, 1.1, 1.0);
        assert_eq!(r2, (3.0f32 * 1.1f32.sqrt()).ceil());
    }

    #[test]
    fn rect_clipping_to_screen() {
        let r = PixelRect::from_circle(Vec2::new(5.0, 5.0), 10.0, 64, 64);
        assert_eq!(r.x0, 0);
        assert_eq!(r.y0, 0);
        assert!(r.x1 <= 64 && r.y1 <= 64);
        let off = PixelRect::from_circle(Vec2::new(-20.0, -20.0), 5.0, 64, 64);
        assert!(off.is_empty());
        assert_eq!(off.area(), 0);
    }

    #[test]
    fn rect_pixels_iterates_area() {
        let r = PixelRect {
            x0: 2,
            y0: 3,
            x1: 5,
            y1: 5,
        };
        let v: Vec<_> = r.pixels().collect();
        assert_eq!(v.len() as u64, r.area());
        assert_eq!(v[0], (2, 3));
        assert_eq!(*v.last().unwrap(), (4, 4));
    }

    #[test]
    fn tile_range_covers_rect() {
        let r = PixelRect {
            x0: 10,
            y0: 16,
            x1: 33,
            y1: 48,
        };
        let (tx0, ty0, tx1, ty1) = r.tile_range(16);
        assert_eq!((tx0, ty0), (0, 1));
        assert_eq!((tx1, ty1), (3, 3));
    }

    #[test]
    fn obb_is_tighter_than_aabb_for_diagonal_ellipse() {
        // Long thin ellipse at 45°: the AABB wastes most of its area.
        let cov = SymMat2::new(50.0, 45.0, 50.0); // eigen ~95, ~5
        let center = Vec2::new(100.0, 100.0);
        let obb = Obb::from_cov(center, cov, BoundingLaw::ThreeSigma, 1.0).unwrap();
        let aabb_r = bounding_radius(BoundingLaw::ThreeSigma, 95.0, 1.0);
        let aabb = PixelRect::from_circle(center, aabb_r, 256, 256);
        let obb_pixels = obb.pixel_count(256, 256);
        assert!(
            obb_pixels < aabb.area() / 2,
            "OBB {obb_pixels} vs AABB {}",
            aabb.area()
        );
    }

    #[test]
    fn obb_contains_its_center() {
        let obb = Obb::from_cov(
            Vec2::new(50.0, 50.0),
            SymMat2::new(9.0, 0.0, 4.0),
            BoundingLaw::ThreeSigma,
            1.0,
        )
        .unwrap();
        assert!(obb.contains(50, 50));
        assert!(!obb.contains(80, 50));
    }

    #[test]
    fn obb_row_span_matches_containment_away_from_edges() {
        // The analytic span and the per-pixel test may disagree only for
        // pixels within float rounding of the OBB edge; everything clearly
        // inside must be in the span and everything clearly outside must
        // not be.
        for (ca, cb, cc) in [(30.0, 18.0, 20.0), (50.0, -35.0, 40.0), (9.0, 0.0, 4.0)] {
            let obb = Obb::from_cov(
                Vec2::new(40.3, 37.8),
                SymMat2::new(ca, cb, cc),
                BoundingLaw::ThreeSigma,
                0.8,
            )
            .unwrap();
            for y in 0..80 {
                let (sx0, sx1) = obb.row_span(0, 80, y);
                for x in 0..80 {
                    let p = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - obb.center;
                    let margin = (p.dot(obb.axis_major).abs() / obb.half_major)
                        .max(p.cross(obb.axis_major).abs() / obb.half_minor);
                    if margin < 1.0 - 1e-4 {
                        assert!(
                            (sx0..sx1).contains(&x),
                            "inside pixel ({x},{y}) not in span [{sx0},{sx1}) for ({ca},{cb},{cc})"
                        );
                    } else if margin > 1.0 + 1e-4 {
                        assert!(
                            !(sx0..sx1).contains(&x),
                            "outside pixel ({x},{y}) in span [{sx0},{sx1}) for ({ca},{cb},{cc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn axis_aligned_obb_rows_outside_are_empty() {
        // Regression: a failed axis-aligned slab gate must exclude the
        // whole row — not collapse to a one-pixel point interval. This
        // vertical-major OBB (half_major 30 along y) has no pixels on
        // row 0, which sits ~49 px above it.
        let obb = Obb::from_cov(
            Vec2::new(8.0, 50.0),
            SymMat2::new(16.0, 0.0, 100.0),
            BoundingLaw::ThreeSigma,
            0.8,
        )
        .unwrap();
        assert!((0..16).all(|x| !obb.contains(x, 0)));
        let (lo, hi) = obb.row_span(0, 16, 0);
        assert_eq!(lo, hi, "row 0 must be empty, got [{lo},{hi})");
        let mut walker = obb.span_walker(0, 16, 0);
        let (wlo, whi) = walker.next_span();
        assert_eq!(wlo, whi);
    }

    #[test]
    fn obb_span_walker_matches_per_row_solve() {
        // Rotated, near-axis-aligned, and exactly axis-aligned ellipses;
        // the forward-differenced walker must reproduce row_span (the two
        // only share algebra, not rounding — but over ≤80 rows the f64
        // drift cannot move a span edge a full pixel).
        for (ca, cb, cc) in [
            (30.0, 18.0, 20.0),
            (50.0, -35.0, 40.0),
            (9.0, 0.0, 4.0),  // axis-aligned: a degenerate slab
            (4.0, 0.0, 25.0), // axis-aligned, major axis vertical
        ] {
            let obb = Obb::from_cov(
                Vec2::new(40.3, 37.8),
                SymMat2::new(ca, cb, cc),
                BoundingLaw::ThreeSigma,
                0.8,
            )
            .unwrap();
            let mut walker = obb.span_walker(0, 80, 0);
            for y in 0..80 {
                let direct = obb.row_span(0, 80, y);
                let walked = walker.next_span();
                assert_eq!(walked, direct, "row {y} for cov ({ca},{cb},{cc})");
            }
        }
    }

    #[test]
    fn obb_empty_for_invisible_opacity() {
        assert!(Obb::from_cov(
            Vec2::ZERO,
            SymMat2::IDENTITY,
            BoundingLaw::OmegaSigma,
            0.003
        )
        .is_none());
    }

    #[test]
    fn effective_test_matches_alpha_threshold() {
        // Pixels passing E(p) are exactly those with alpha ≥ 1/255.
        let mean = Vec2::new(32.0, 32.0);
        let cov = SymMat2::new(6.0, 1.5, 3.0);
        let conic = cov.inverse().unwrap();
        let opacity = 0.42f32;
        let test = EffectiveTest::new(mean, conic, opacity);
        let rect = PixelRect {
            x0: 0,
            y0: 0,
            x1: 64,
            y1: 64,
        };
        for (x, y) in rect.pixels() {
            // Pixels sitting on the threshold itself can flip between the
            // two formulations: E(p) is the exact quadratic against
            // 2·ln(255ω), while alpha_at clamps at the hardware's −5.54
            // input edge (ln(1/255) ≈ −5.5413) and rounds through det_exp.
            // Exclude that sliver (≈0.0025 wide in q) and require exact
            // agreement everywhere else.
            let d = Vec2::new(x as f32 + 0.5, y as f32 + 0.5) - mean;
            let q = conic.quad_form(d);
            if (q - test.extent_sq).abs() < 5e-3 {
                continue;
            }
            let a = alpha_at(mean, conic, opacity.ln(), x, y);
            assert_eq!(
                test.passes(x, y),
                a > 0.0,
                "mismatch at ({x},{y}): alpha {a}"
            );
        }
    }

    #[test]
    fn alpha_is_saturated_at_099() {
        let mean = Vec2::new(10.0, 10.0);
        let conic = SymMat2::new(0.01, 0.0, 0.01);
        // Opacity 1.0 at the exact center would give alpha 1.0 → clamped.
        let a = alpha_at(mean, conic, 0.0, 9, 9); // pixel center (9.5,9.5), tiny offset
        assert!(a <= ALPHA_MAX + 1e-6);
        assert!(a > 0.9);
    }

    #[test]
    fn effective_region_shrinks_with_opacity() {
        // Fig. 4: at ω = 1 the effective region slightly exceeds 3σ; at
        // ω = 0.01 it is far smaller.
        let cov = SymMat2::new(25.0, 0.0, 25.0);
        let conic = cov.inverse().unwrap();
        let mean = Vec2::new(128.0, 128.0);
        let rect = PixelRect {
            x0: 0,
            y0: 0,
            x1: 256,
            y1: 256,
        };
        let high = EffectiveTest::new(mean, conic, 1.0).count_in_rect(rect);
        let low = EffectiveTest::new(mean, conic, 0.01).count_in_rect(rect);
        assert!(
            low * 5 < high,
            "low-opacity region {low} should be ≪ high-opacity {high}"
        );
    }
}
