//! Scalar reference kernels: the bit-exactness anchors every SIMD backend
//! is pinned against. These are *definitions*, not fallbacks — each is the
//! exact arithmetic the renderers used before dispatch existed, expressed
//! over the flat SoA slices the kernel ABI takes.

use crate::alpha::{EffectiveSpanWalker, ExpMode, RowAlpha, PAD_POWER};
use crate::bounds::EffectiveTest;
use crate::sort::depth_key;
use crate::{Gaussian3D, ProjectedGaussian, TRANSMITTANCE_EPS};
use gcc_math::Vec3;

use super::{
    blend_lanes_len, block_pass_groups, block_powers_rows, box_muller_len, box_muller_one,
    span_powers_shape, BlendCounts, PixelLanes, BLEND_LANES,
};

/// Scalar [`crate::dispatch::DepthKeysFn`].
pub fn depth_keys(depths: &[f32], keys: &mut [u32]) {
    assert_eq!(depths.len(), keys.len());
    for (k, d) in keys.iter_mut().zip(depths) {
        *k = depth_key(*d);
    }
}

/// Scalar [`crate::dispatch::BlockPassFn`]: [`EffectiveTest::passes`] on
/// every pixel of the block, one bit per passing lane.
pub fn block_pass(test: &EffectiveTest, (x0, y0): (i32, i32), cols: usize, masks: &mut [u8]) {
    let groups = block_pass_groups(cols, masks);
    masks.fill(0);
    for (y, row) in (y0..).zip(masks.chunks_exact_mut(groups)) {
        for (lane, x) in (x0..).take(cols).enumerate() {
            row[lane / BLEND_LANES] |= u8::from(test.passes(x, y)) << (lane % BLEND_LANES);
        }
    }
}

/// Scalar [`crate::dispatch::BlockPowersFn`]: one [`RowAlpha`] chain per
/// row of the tile, padding after it.
pub fn block_powers(
    p: &ProjectedGaussian,
    (x0, y0): (i32, i32),
    cols: usize,
    row_lanes: usize,
    tile: &mut [f32],
) {
    block_powers_rows(cols, row_lanes, tile);
    for (y, lanes) in (y0..).zip(tile.chunks_exact_mut(row_lanes)) {
        let (span, pad) = lanes.split_at_mut(cols);
        let mut chain = RowAlpha::new(p, x0, y);
        for slot in span {
            *slot = chain.power();
            chain.advance();
        }
        pad.fill(PAD_POWER);
    }
}

/// Scalar [`crate::dispatch::RowSpansFn`]: the
/// [`EffectiveSpanWalker::next_span`] loop.
pub fn row_spans(mut walker: EffectiveSpanWalker, lo: &mut [i32], hi: &mut [i32]) {
    assert_eq!(lo.len(), hi.len());
    for (lo, hi) in lo.iter_mut().zip(hi) {
        (*lo, *hi) = walker.next_span();
    }
}

/// Scalar [`crate::dispatch::SpanPowersFn`]: one [`RowAlpha`] chain per
/// non-empty row, started at the row's own first pixel, padding around it.
pub fn span_powers(
    p: &ProjectedGaussian,
    (x0, y0): (i32, i32),
    lo: &[i32],
    hi: &[i32],
    row_lanes: usize,
    tile: &mut [f32],
) -> std::ops::Range<usize> {
    span_powers_shape(lo, hi, row_lanes, tile);
    let live = |(lo, hi): (&i32, &i32)| lo < hi;
    let Some(first) = lo.iter().zip(hi).position(live) else {
        return 0..0;
    };
    let end = lo.iter().zip(hi).rposition(live).unwrap_or(first) + 1;
    for row in first..end {
        let lanes = &mut tile[row * row_lanes..(row + 1) * row_lanes];
        lanes.fill(PAD_POWER);
        if lo[row] < hi[row] {
            assert!(
                lo[row] >= x0 && i64::from(hi[row]) - i64::from(x0) <= row_lanes as i64,
                "a span of {lo:?}..{hi:?} leaves its row of {row_lanes} lanes at {x0}"
            );
            let mut chain = RowAlpha::new(p, lo[row], y0 + row as i32);
            for slot in &mut lanes[(lo[row] - x0) as usize..(hi[row] - x0) as usize] {
                *slot = chain.power();
                chain.advance();
            }
        }
    }
    first * row_lanes..end * row_lanes
}

/// Scalar [`crate::dispatch::AlphaPowersFn`]: [`ExpMode::alpha`] of the
/// exact datapath applied in place to every slot — the per-pixel
/// `RowAlpha::alpha(&ExpMode::Exact)` the renderers used before dispatch.
pub fn alpha_powers(buf: &mut [f32]) {
    for slot in buf {
        *slot = ExpMode::Exact.alpha(*slot);
    }
}

/// Scalar [`crate::dispatch::BlendSpanFn`]: the per-pixel blend loop both
/// renderers used to carry, over SoA lanes. The arithmetic is
/// [`crate::alpha::PixelState::blend`]'s, spelled out so that the twins
/// agree on every input, not only on alphas in `(0, 1]`.
pub fn blend_span(
    alphas: &[f32],
    color: [f32; 3],
    alpha_min: f32,
    px: PixelLanes<'_>,
) -> BlendCounts {
    let n = blend_lanes_len(alphas, &px);
    let PixelLanes { r, g, b, t } = px;
    let mut counts = BlendCounts::default();
    for i in 0..n {
        let a = alphas[i];
        let terminated = t[i] < TRANSMITTANCE_EPS;
        if !terminated && a > alpha_min {
            let w = a * t[i];
            r[i] += color[0] * w;
            g[i] += color[1] * w;
            b[i] += color[2] * w;
            t[i] *= 1.0 - a;
            counts.blended += 1;
            counts.terminated += u32::from(t[i] < TRANSMITTANCE_EPS);
        }
    }
    counts
}

/// Scalar [`crate::dispatch::ShColorsFn`]: per-survivor
/// [`crate::sh::eval_color_deg`] over the source records' coefficients.
pub fn sh_colors(
    gaussians: &[Gaussian3D],
    dir_x: &[f32],
    dir_y: &[f32],
    dir_z: &[f32],
    degree: u8,
    out: &mut [ProjectedGaussian],
) {
    assert_eq!(dir_x.len(), out.len());
    assert_eq!(dir_y.len(), out.len());
    assert_eq!(dir_z.len(), out.len());
    for (i, p) in out.iter_mut().enumerate() {
        let coeffs = &gaussians[p.id as usize].sh;
        let dir = Vec3::new(dir_x[i], dir_y[i], dir_z[i]);
        p.color = crate::sh::eval_color_deg(coeffs, dir, degree);
    }
}

/// Scalar [`crate::dispatch::BoxMullerFn`]: [`box_muller_one`] per pair.
pub fn box_muller(u1: &[f32], u2: &[f32], out: &mut [f32]) {
    box_muller_len(u1, u2, out);
    for ((n, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *n = box_muller_one(a, b);
    }
}
