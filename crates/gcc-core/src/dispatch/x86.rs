//! x86-64 AVX2 kernels.
//!
//! Every kernel mirrors its scalar twin's IEEE-754 operation sequence per
//! lane — same multiplies, same adds, same comparison-select clamps, no
//! FMA, no re-association — so results are bit-identical to the scalar
//! reference (see the module docs of [`crate::dispatch`] for the
//! contract). The table must only be handed out after
//! [`avx2_available`], which [`crate::dispatch::kernel_set`] enforces; an
//! x86-64 CPU without AVX2 runs the scalar twins.

use core::arch::x86_64::*;

use crate::alpha::{EffectiveSpanWalker, PAD_POWER};
use crate::bounds::EffectiveTest;
use crate::{Gaussian3D, ProjectedGaussian, ALPHA_MAX, ALPHA_MIN, TRANSMITTANCE_EPS};
use gcc_math::det::{
    DET_COS_POLY, DET_FOUR_OVER_PI, DET_LN_POLY, DET_LN_SQRT_HALF, DET_PI_4_SPLIT, DET_SIN_POLY,
};
use gcc_math::exp::{DET_EXP_LN2_HI, DET_EXP_LN2_LO, DET_EXP_LOG2E, DET_EXP_POLY, EXP_INPUT_MIN};
use gcc_math::Vec3;

use super::scalar;
use super::{
    blend_lanes_len, block_pass_groups, block_powers_rows, box_muller_len, span_powers_shape,
    BlendCounts, KernelSet, PixelLanes, BLEND_LANES,
};

/// Whether this CPU runs the AVX2 table: AVX2 for the vector bodies and
/// POPCNT for the lane counts [`blend_span_avx2`] returns (every AVX2 CPU
/// has it; detecting it keeps the `target_feature` list honest).
pub(super) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
}

/// The AVX2 dispatch table. Only reachable through
/// [`crate::dispatch::kernel_set`]'s feature check.
pub(super) static AVX2: KernelSet = KernelSet {
    backend: super::Backend::Avx2,
    depth_keys: depth_keys_avx2,
    block_pass: block_pass_avx2,
    block_powers: block_powers_avx2,
    row_spans: row_spans_avx2,
    span_powers: span_powers_avx2,
    alpha_powers: alpha_powers_avx2,
    blend_span: blend_span_avx2,
    sh_colors: sh_colors_avx2,
    box_muller: box_muller_avx2,
};

fn depth_keys_avx2(depths: &[f32], keys: &mut [u32]) {
    assert_eq!(depths.len(), keys.len());
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { depth_keys_avx2_impl(depths, keys) }
}

#[target_feature(enable = "avx2")]
unsafe fn depth_keys_avx2_impl(depths: &[f32], keys: &mut [u32]) {
    let n = depths.len();
    let mut i = 0;
    unsafe {
        let top = _mm256_set1_epi32(0x8000_0000u32 as i32);
        while i + 8 <= n {
            let v = _mm256_loadu_si256(depths.as_ptr().add(i).cast());
            let sign = _mm256_srai_epi32(v, 31); // all-ones where negative
            let flip = _mm256_or_si256(sign, top); // !bits ⟷ bits | top
            let k = _mm256_xor_si256(v, flip);
            _mm256_storeu_si256(keys.as_mut_ptr().add(i).cast(), k);
            i += 8;
        }
    }
    for j in i..n {
        keys[j] = crate::sort::depth_key(depths[j]);
    }
}

/// The mask-byte bits of lane group `g` that are lanes of a `cols`-wide
/// row: all eight, or the low `cols − 8·g` of the row's last group.
fn group_tail(cols: usize, g: usize) -> u8 {
    let live = (cols - g * BLEND_LANES).min(BLEND_LANES);
    (0xffu16 >> (BLEND_LANES - live)) as u8
}

fn block_pass_avx2(test: &EffectiveTest, origin: (i32, i32), cols: usize, masks: &mut [u8]) {
    let groups = block_pass_groups(cols, masks);
    debug_assert!(avx2_available());
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { block_pass_avx2_impl(test, origin, cols, groups, masks) }
}

/// Columns as lanes, one vector and one `movemask` per mask byte: the
/// terms of `EffectiveTest::passes` that depend only on the column
/// (`a·dx·dx`, `2·b·dx`) are built once per lane group and reused down the
/// block's rows; the per-row terms are the scalar twin's scalars,
/// broadcast.
#[target_feature(enable = "avx2")]
fn block_pass_avx2_impl(
    test: &EffectiveTest,
    (x0, y0): (i32, i32),
    cols: usize,
    groups: usize,
    masks: &mut [u8],
) {
    if test.extent_sq <= 0.0 {
        masks.fill(0);
        return;
    }
    let (a, two_b, c) = (test.conic.a, 2.0 * test.conic.b, test.conic.c);
    let half = _mm256_set1_ps(0.5);
    let mx = _mm256_set1_ps(test.mean.x);
    let extent = _mm256_set1_ps(test.extent_sq);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for g in 0..groups {
        let xi = _mm256_add_epi32(_mm256_set1_epi32(x0 + (g * BLEND_LANES) as i32), iota);
        let dx = _mm256_sub_ps(_mm256_add_ps(_mm256_cvtepi32_ps(xi), half), mx);
        let adxdx = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(a), dx), dx);
        let bdx = _mm256_mul_ps(_mm256_set1_ps(two_b), dx);
        let tail = group_tail(cols, g);
        for (y, row) in (y0..).zip(masks.chunks_exact_mut(groups)) {
            let dy = y as f32 + 0.5 - test.mean.y;
            let q = _mm256_add_ps(
                _mm256_add_ps(adxdx, _mm256_mul_ps(bdx, _mm256_set1_ps(dy))),
                _mm256_set1_ps(c * dy * dy),
            );
            let bits = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(q, extent));
            row[g] = bits as u8 & tail;
        }
    }
}

fn block_powers_avx2(
    p: &ProjectedGaussian,
    origin: (i32, i32),
    cols: usize,
    row_lanes: usize,
    tile: &mut [f32],
) {
    block_powers_rows(cols, row_lanes, tile);
    debug_assert!(avx2_available());
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { block_powers_avx2_impl(p, origin, cols, row_lanes, tile) }
}

/// Rows as lanes, eight at a time: `RowAlpha::new` for eight rows in one
/// vector (the column-only factors are the scalar twin's scalars,
/// broadcast), then eight chain steps give eight column vectors, which
/// one 8×8 transpose turns into eight row-major runs of the tile. Lanes
/// past `cols` are overwritten with the pad power; rows past the tile are
/// not stored.
#[target_feature(enable = "avx2")]
fn block_powers_avx2_impl(
    p: &ProjectedGaussian,
    (x0, y0): (i32, i32),
    cols: usize,
    row_lanes: usize,
    tile: &mut [f32],
) {
    const ROWS: usize = 8;
    let conic = p.conic;
    let dx = x0 as f32 + 0.5 - p.mean2d.x;
    let two_b = 2.0 * conic.b;
    let half = _mm256_set1_ps(0.5);
    let pad = _mm256_set1_ps(PAD_POWER);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let curve = _mm256_set1_ps(-conic.a);
    for (group, rows) in tile.chunks_mut(ROWS * row_lanes).enumerate() {
        let yi = _mm256_add_epi32(_mm256_set1_epi32(y0 + (group * ROWS) as i32), iota);
        let dy = _mm256_sub_ps(
            _mm256_add_ps(_mm256_cvtepi32_ps(yi), half),
            _mm256_set1_ps(p.mean2d.y),
        );
        let q = _mm256_add_ps(
            _mm256_add_ps(
                _mm256_set1_ps(conic.a * dx * dx),
                _mm256_mul_ps(_mm256_set1_ps(two_b * dx), dy),
            ),
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(conic.c), dy), dy),
        );
        let mut power = _mm256_sub_ps(_mm256_set1_ps(p.ln_opacity), _mm256_mul_ps(half, q));
        let mut step = _mm256_mul_ps(
            _mm256_set1_ps(-0.5),
            _mm256_add_ps(
                _mm256_set1_ps(conic.a * (2.0 * dx + 1.0)),
                _mm256_mul_ps(_mm256_set1_ps(two_b), dy),
            ),
        );
        for col0 in (0..row_lanes).step_by(ROWS) {
            let live = cols.saturating_sub(col0).min(ROWS);
            let mut v = [pad; ROWS];
            if live > 0 {
                for column in &mut v {
                    *column = power;
                    power = _mm256_add_ps(power, step);
                    step = _mm256_add_ps(step, curve);
                }
                v = transpose8_avx2(v);
                if live < ROWS {
                    let keep = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                        _mm256_set1_epi32(live as i32),
                        iota,
                    ));
                    for row in &mut v {
                        *row = _mm256_blendv_ps(pad, *row, keep);
                    }
                }
            }
            for (row, lanes) in v.iter().zip(rows.chunks_exact_mut(row_lanes)) {
                let run = &mut lanes[col0..col0 + ROWS];
                // SAFETY: `run` is exactly the eight floats the store writes.
                unsafe { _mm256_storeu_ps(run.as_mut_ptr(), *row) };
            }
        }
    }
}

/// 8×8 `f32` transpose: lane `j` of output `i` is lane `i` of input `j`.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8_avx2([r0, r1, r2, r3, r4, r5, r6, r7]: [__m256; 8]) -> [__m256; 8] {
    // Interleave row pairs, pair the pairs inside each 128-bit half,
    // then swap halves across the middle.
    let (p0, p1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
    let (p2, p3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
    let (p4, p5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
    let (p6, p7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
    let q0 = _mm256_shuffle_ps::<0x44>(p0, p2);
    let q1 = _mm256_shuffle_ps::<0xEE>(p0, p2);
    let q2 = _mm256_shuffle_ps::<0x44>(p1, p3);
    let q3 = _mm256_shuffle_ps::<0xEE>(p1, p3);
    let q4 = _mm256_shuffle_ps::<0x44>(p4, p6);
    let q5 = _mm256_shuffle_ps::<0xEE>(p4, p6);
    let q6 = _mm256_shuffle_ps::<0x44>(p5, p7);
    let q7 = _mm256_shuffle_ps::<0xEE>(p5, p7);
    [
        _mm256_permute2f128_ps::<0x20>(q0, q4),
        _mm256_permute2f128_ps::<0x20>(q1, q5),
        _mm256_permute2f128_ps::<0x20>(q2, q6),
        _mm256_permute2f128_ps::<0x20>(q3, q7),
        _mm256_permute2f128_ps::<0x31>(q0, q4),
        _mm256_permute2f128_ps::<0x31>(q1, q5),
        _mm256_permute2f128_ps::<0x31>(q2, q6),
        _mm256_permute2f128_ps::<0x31>(q3, q7),
    ]
}

fn row_spans_avx2(walker: EffectiveSpanWalker, lo: &mut [i32], hi: &mut [i32]) {
    assert_eq!(lo.len(), hi.len());
    debug_assert!(avx2_available());
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { row_spans_avx2_impl(walker, lo, hi) }
}

/// Rows as lanes, four `f64` at a time. The walker's state is stepped row
/// by row exactly as `next_span` steps it (three scalar adds a row, in row
/// order); what follows the stepping in `next_span` runs once per four
/// rows: `sqrt`, the multiply, the adds and subtractions, `floor` / `ceil`
/// and the conversions are the scalar instructions' packed forms, `max` /
/// `min` keep the scalar operand order (a NaN yields the clip edge in
/// both), and the two early returns become one lane mask.
#[target_feature(enable = "avx2")]
fn row_spans_avx2_impl(mut w: EffectiveSpanWalker, lo: &mut [i32], hi: &mut [i32]) {
    const ROWS: usize = 4;
    if w.degenerate {
        lo.fill(w.x0);
        hi.fill(w.x1);
        return;
    }
    let (x0, x1) = (
        _mm256_set1_pd(f64::from(w.x0)),
        _mm256_set1_pd(f64::from(w.x1)),
    );
    let x0_i = _mm_set1_epi32(w.x0);
    let (inv_a, mx_off) = (_mm256_set1_pd(w.inv_a), _mm256_set1_pd(w.mx_off));
    let one = _mm256_set1_pd(1.0);
    for (lo, hi) in lo.chunks_mut(ROWS).zip(hi.chunks_mut(ROWS)) {
        // Rows past the end of a short last chunk are stepped and solved
        // like the others and not stored.
        let (mut center, mut disc) = ([0.0f64; ROWS], [0.0f64; ROWS]);
        for (center, disc) in center.iter_mut().zip(&mut disc) {
            (*center, *disc) = (w.center, w.disc);
            w.center += w.dcenter;
            w.disc += w.ddisc;
            w.ddisc += w.dddisc;
        }
        let center = _mm256_set_pd(center[3], center[2], center[1], center[0]);
        let disc = _mm256_set_pd(disc[3], disc[2], disc[1], disc[0]);
        // `disc < 0`: the row is below the cutoff (its square root is a
        // NaN nobody reads).
        let below = _mm256_cmp_pd::<_CMP_LT_OQ>(disc, _mm256_setzero_pd());
        let half = _mm256_mul_pd(_mm256_sqrt_pd(disc), inv_a);
        let lo_f = _mm256_max_pd(
            _mm256_floor_pd(_mm256_sub_pd(
                _mm256_add_pd(_mm256_sub_pd(center, half), mx_off),
                one,
            )),
            x0,
        );
        let hi_f = _mm256_min_pd(
            _mm256_add_pd(
                _mm256_ceil_pd(_mm256_add_pd(
                    _mm256_add_pd(_mm256_add_pd(center, half), mx_off),
                    one,
                )),
                one,
            ),
            x1,
        );
        let empty = _mm256_castpd_ps(_mm256_or_pd(below, _mm256_cmp_pd::<_CMP_GE_OQ>(lo_f, hi_f)));
        // The low half of each 64-bit lane mask, as four 32-bit masks.
        let empty = _mm_castps_si128(_mm_shuffle_ps::<0b10_00_10_00>(
            _mm256_castps256_ps128(empty),
            _mm256_extractf128_ps::<1>(empty),
        ));
        // A non-empty span lies inside `[x0, x1)`, so both conversions
        // are exact there; the others are replaced.
        let lo_i = _mm_blendv_epi8(_mm256_cvttpd_epi32(lo_f), x0_i, empty);
        let hi_i = _mm_blendv_epi8(_mm256_cvttpd_epi32(hi_f), x0_i, empty);
        if lo.len() == ROWS {
            // SAFETY: both chunks are exactly the four `i32` a store writes.
            unsafe {
                _mm_storeu_si128(lo.as_mut_ptr().cast(), lo_i);
                _mm_storeu_si128(hi.as_mut_ptr().cast(), hi_i);
            }
        } else {
            let rows = _mm_set1_epi32(lo.len().min(hi.len()) as i32);
            let within = _mm_cmpgt_epi32(rows, _mm_setr_epi32(0, 1, 2, 3));
            // SAFETY: a masked store writes the lanes its mask selects,
            // the elements each short chunk has.
            unsafe {
                _mm_maskstore_epi32(lo.as_mut_ptr(), within, lo_i);
                _mm_maskstore_epi32(hi.as_mut_ptr(), within, hi_i);
            }
        }
    }
}

/// Widest row and most rows the vector `span_powers` takes: its chains
/// run in blocks of eight columns, one monomorphised body per block count,
/// and it keeps which rows are live in one `u32`.
const SPAN_POWERS_MAX_LANES: usize = 4 * BLEND_LANES;

fn span_powers_avx2(
    p: &ProjectedGaussian,
    origin: (i32, i32),
    lo: &[i32],
    hi: &[i32],
    row_lanes: usize,
    tile: &mut [f32],
) -> std::ops::Range<usize> {
    if row_lanes > SPAN_POWERS_MAX_LANES || lo.len() > SPAN_POWERS_MAX_LANES {
        return scalar::span_powers(p, origin, lo, hi, row_lanes, tile);
    }
    span_powers_shape(lo, hi, row_lanes, tile);
    debug_assert!(avx2_available());
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { span_powers_avx2_impl(p, origin, lo, hi, row_lanes, tile) }
}

/// The spans of up to eight rows from row `first` on, as vectors; lanes
/// past the last row read `[0, 0)`, an empty span.
#[inline]
#[target_feature(enable = "avx2")]
fn load_spans_avx2(lo: &[i32], hi: &[i32], first: usize) -> (__m256i, __m256i) {
    let (lo, hi) = (&lo[first..], &hi[first..]);
    let rows = lo.len().min(hi.len()).min(8) as i32;
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let within = _mm256_cmpgt_epi32(_mm256_set1_epi32(rows), iota);
    // SAFETY: a masked load reads the lanes its mask selects, the first
    // `rows` elements of each slice.
    unsafe {
        (
            _mm256_maskload_epi32(lo.as_ptr(), within),
            _mm256_maskload_epi32(hi.as_ptr(), within),
        )
    }
}

/// Rows as lanes, eight at a time, each lane with its own start column:
/// `RowAlpha::new` is evaluated per lane from the lane's `dx` (the scalar
/// expression tree, operation for operation), the eight chains advance
/// together for the longest span of the group, a lane's values past its
/// span's end are replaced by the pad power, and 8×8 transposes turn the
/// column vectors into runs of one row each, stored at the row's own
/// offset. Such a store may run past the row's end into the next row of
/// the tile; rows are written in order, each after the padding of its
/// whole group, so whatever spills is pad power on lanes the next row
/// writes afterwards, or that are padding there too, or that lie after
/// the last non-empty row.
///
/// A group of fewer than eight rows sits in the *last* lanes: the lanes
/// before it hold empty spans and store their (all pad) runs onto the
/// head of the group's first row, which is padding at that point and
/// written after them — no lane needs a branch.
///
/// The caller has checked the shape ([`span_powers_shape`], at most
/// [`SPAN_POWERS_MAX_LANES`] rows of as many lanes); the spans are checked
/// here, in the same vectors that find the live rows.
#[target_feature(enable = "avx2")]
fn span_powers_avx2_impl(
    p: &ProjectedGaussian,
    (x0, y0): (i32, i32),
    lo: &[i32],
    hi: &[i32],
    row_lanes: usize,
    tile: &mut [f32],
) -> std::ops::Range<usize> {
    const ROWS: usize = 8;
    // Which rows are live, and whether a live span leaves its row.
    let x0_v = _mm256_set1_epi32(x0);
    let x1_v = _mm256_set1_epi32(x0.saturating_add(row_lanes as i32));
    let (mut live_rows, mut outside) = (0u32, _mm256_setzero_si256());
    for first in (0..lo.len()).step_by(ROWS) {
        let (lo_v, hi_v) = load_spans_avx2(lo, hi, first);
        let live = _mm256_cmpgt_epi32(hi_v, lo_v);
        let out = _mm256_or_si256(
            _mm256_cmpgt_epi32(x0_v, lo_v),
            _mm256_cmpgt_epi32(hi_v, x1_v),
        );
        outside = _mm256_or_si256(outside, _mm256_and_si256(live, out));
        live_rows |= (_mm256_movemask_ps(_mm256_castsi256_ps(live)) as u32) << first;
    }
    assert!(
        _mm256_testz_si256(outside, outside) != 0,
        "a span of {lo:?}..{hi:?} leaves its row of {row_lanes} lanes at {x0}"
    );
    if live_rows == 0 {
        return 0..0;
    }
    let rows = live_rows.trailing_zeros() as usize..(32 - live_rows.leading_zeros()) as usize;

    let conic = p.conic;
    let (a, two_b, c) = (
        _mm256_set1_ps(conic.a),
        _mm256_set1_ps(2.0 * conic.b),
        _mm256_set1_ps(conic.c),
    );
    let half = _mm256_set1_ps(0.5);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let curve = _mm256_set1_ps(-conic.a);
    for first in rows.clone().step_by(ROWS) {
        let n = ROWS.min(rows.end - first);
        for lanes in tile[first * row_lanes..(first + n) * row_lanes].chunks_exact_mut(ROWS) {
            lanes.fill(PAD_POWER);
        }
        // Lane `l` is row `first + n − 8 + l`: the group's spans rotated
        // into the last `n` lanes, empty spans before them.
        let (lo_v, hi_v) = load_spans_avx2(&lo[..first + n], &hi[..first + n], first);
        let rotate = _mm256_and_si256(
            _mm256_add_epi32(iota, _mm256_set1_epi32(n as i32)),
            _mm256_set1_epi32(7),
        );
        let lo_v = _mm256_permutevar8x32_epi32(lo_v, rotate);
        let hi_v = _mm256_permutevar8x32_epi32(hi_v, rotate);
        let row = _mm256_add_epi32(_mm256_set1_epi32((first + n) as i32 - 8), iota);
        let live = _mm256_cmpgt_epi32(hi_v, lo_v);
        let len = _mm256_and_si256(_mm256_sub_epi32(hi_v, lo_v), live);
        // Where each lane's run goes: the first lane of its span; the
        // head of its row when that is empty; the head of the group's
        // first row when the lane is no row of the group.
        let mut at = [0i32; ROWS];
        let row_lanes_v = _mm256_set1_epi32(row_lanes as i32);
        let at_v = _mm256_add_epi32(
            _mm256_mullo_epi32(
                _mm256_max_epi32(row, _mm256_set1_epi32(first as i32)),
                row_lanes_v,
            ),
            _mm256_and_si256(_mm256_sub_epi32(lo_v, x0_v), live),
        );
        // SAFETY: `at` is exactly the eight `i32` the store writes.
        unsafe { _mm256_storeu_si256(at.as_mut_ptr().cast(), at_v) };
        // `RowAlpha::new(p, lo, y)` in every lane.
        let yi = _mm256_add_epi32(_mm256_set1_epi32(y0), row);
        let dx = _mm256_sub_ps(
            _mm256_add_ps(_mm256_cvtepi32_ps(lo_v), half),
            _mm256_set1_ps(p.mean2d.x),
        );
        let dy = _mm256_sub_ps(
            _mm256_add_ps(_mm256_cvtepi32_ps(yi), half),
            _mm256_set1_ps(p.mean2d.y),
        );
        let q = _mm256_add_ps(
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_mul_ps(a, dx), dx),
                _mm256_mul_ps(_mm256_mul_ps(two_b, dx), dy),
            ),
            _mm256_mul_ps(_mm256_mul_ps(c, dy), dy),
        );
        let power = _mm256_sub_ps(_mm256_set1_ps(p.ln_opacity), _mm256_mul_ps(half, q));
        let step = _mm256_mul_ps(
            _mm256_set1_ps(-0.5),
            _mm256_add_ps(
                _mm256_mul_ps(
                    a,
                    _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(2.0), dx), _mm256_set1_ps(1.0)),
                ),
                _mm256_mul_ps(two_b, dy),
            ),
        );
        let chains = SpanChains {
            power,
            step,
            curve,
            len,
        };
        // As many blocks of eight steps as the longest span of the group.
        let longer_than =
            |steps| _mm256_movemask_epi8(_mm256_cmpgt_epi32(len, _mm256_set1_epi32(steps))) != 0;
        if !longer_than(8) {
            span_chains_avx2::<1>(chains, &at, tile);
        } else if !longer_than(16) {
            span_chains_avx2::<2>(chains, &at, tile);
        } else if !longer_than(24) {
            span_chains_avx2::<3>(chains, &at, tile);
        } else {
            span_chains_avx2::<4>(chains, &at, tile);
        }
    }
    rows.start * row_lanes..rows.end * row_lanes
}

/// Eight [`RowAlpha`](crate::alpha::RowAlpha) chains, one per lane, and
/// how many steps of each are inside its span.
#[derive(Clone, Copy)]
struct SpanChains {
    power: __m256,
    step: __m256,
    curve: __m256,
    len: __m256i,
}

/// Advances eight chains `8 · BLOCKS` steps and stores the run of lane `l`
/// at lane `at[l]` of `tile`, steps past the lane's length as pad power:
/// see [`span_powers_avx2_impl`]. A store the tile ends inside is cut
/// there.
#[inline]
#[target_feature(enable = "avx2")]
fn span_chains_avx2<const BLOCKS: usize>(chains: SpanChains, at: &[i32; 8], tile: &mut [f32]) {
    let SpanChains {
        mut power,
        mut step,
        curve,
        len,
    } = chains;
    let pad = _mm256_set1_ps(PAD_POWER);
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut runs = [[pad; 8]; BLOCKS];
    for (block, runs) in runs.iter_mut().enumerate() {
        for (k, column) in runs.iter_mut().enumerate() {
            let inside = _mm256_cmpgt_epi32(len, _mm256_set1_epi32((block * 8 + k) as i32));
            *column = _mm256_blendv_ps(pad, power, _mm256_castsi256_ps(inside));
            power = _mm256_add_ps(power, step);
            step = _mm256_add_ps(step, curve);
        }
        *runs = transpose8_avx2(*runs);
    }
    // Lane by lane, a lane's blocks together: what a row spills is on the
    // tile before the next row is written.
    for (l, at) in at.iter().enumerate() {
        for (block, runs) in runs.iter().enumerate() {
            let at = *at as usize + block * 8;
            match tile.get_mut(at..at + 8) {
                // SAFETY: `lanes` is exactly the eight floats the store
                // writes.
                Some(lanes) => unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), runs[l]) },
                None => {
                    let rest = tile.get_mut(at..).unwrap_or_default();
                    let within = _mm256_cmpgt_epi32(_mm256_set1_epi32(rest.len() as i32), iota);
                    // SAFETY: a masked store writes the lanes its mask
                    // selects, the `rest.len() < 8` floats of `rest`.
                    unsafe { _mm256_maskstore_ps(rest.as_mut_ptr(), within, runs[l]) };
                }
            }
        }
    }
}

fn alpha_powers_avx2(buf: &mut [f32]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: the AVX2 table is only handed out after feature detection.
    unsafe { alpha_from_powers_avx2(buf) }
}

/// In-place power → clamped-alpha over a buffer, 8 lanes at a time. Per
/// lane this is exactly `ExpMode::Exact.alpha(power)`: the `det_exp`
/// operation sequence plus the `[−5.54, 0)` input clamps and the
/// `min(ALPHA_MAX)` / `< ALPHA_MIN → 0` output clamps, evaluated
/// branchlessly (clamped lanes compute a discarded `det_exp`, which is
/// wasted work but cannot change selected results).
#[target_feature(enable = "avx2")]
unsafe fn alpha_from_powers_avx2(buf: &mut [f32]) {
    let n = buf.len();
    let mut i = 0;
    unsafe {
        let exp_min = _mm256_set1_ps(EXP_INPUT_MIN);
        while i + 8 <= n {
            let x = _mm256_loadu_ps(buf.as_ptr().add(i));
            // Every lane below the input floor (padding, mostly): the
            // clamps would make each `+0.0`, so skip the evaluation. A
            // NaN compares false and takes the full path.
            let a = if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, exp_min)) == 0xFF {
                _mm256_setzero_ps()
            } else {
                alpha8_avx2(x)
            };
            _mm256_storeu_ps(buf.as_mut_ptr().add(i), a);
            i += 8;
        }
        if i < n {
            // Padded tail: the same 8-lane body on a zero-padded stack
            // copy (zeros are benign `det_exp` inputs; pad lanes are
            // discarded). Per lane this is the identical operation
            // sequence, so the tail stays bit-exact — and the hot path
            // never calls the scalar exponential at all.
            let mut pad = [0.0f32; 8];
            pad[..n - i].copy_from_slice(&buf[i..]);
            _mm256_storeu_ps(pad.as_mut_ptr(), alpha8_avx2(_mm256_loadu_ps(pad.as_ptr())));
            buf[i..].copy_from_slice(&pad[..n - i]);
        }
    }
}

/// One 8-lane power → alpha step of [`alpha_from_powers_avx2`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn alpha8_avx2(x: __m256) -> __m256 {
    const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
    {
        let log2e = _mm256_set1_ps(DET_EXP_LOG2E);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let ln2_hi = _mm256_set1_ps(DET_EXP_LN2_HI);
        let ln2_lo = _mm256_set1_ps(DET_EXP_LN2_LO);
        let bias = _mm256_set1_epi32(127);
        let exp_min = _mm256_set1_ps(EXP_INPUT_MIN);
        let zero = _mm256_setzero_ps();
        let alpha_max = _mm256_set1_ps(ALPHA_MAX);
        let alpha_min = _mm256_set1_ps(ALPHA_MIN);
        // k = floor(x·log2e + ½).
        let k = _mm256_round_ps::<FLOOR>(_mm256_add_ps(_mm256_mul_ps(x, log2e), half));
        // r = x − k·ln2_hi − k·ln2_lo, two separate mul+sub (no FMA).
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(k, ln2_hi)),
            _mm256_mul_ps(k, ln2_lo),
        );
        // Horner, same order as det_exp.
        let mut p = _mm256_set1_ps(DET_EXP_POLY[0]);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(DET_EXP_POLY[1]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(DET_EXP_POLY[2]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(DET_EXP_POLY[3]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(DET_EXP_POLY[4]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(DET_EXP_POLY[5]));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), one);
        // 2^k through the exponent bits (k is integer-valued here).
        let ki = _mm256_cvttps_epi32(k);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(ki, bias), 23));
        let e = _mm256_mul_ps(y, scale);
        // Input clamps: x < −5.54 → 0, x ≥ 0 → 1 (mutually exclusive).
        let lo = _mm256_cmp_ps::<_CMP_LT_OQ>(x, exp_min);
        let hi = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
        let mut a = _mm256_andnot_ps(lo, e);
        a = _mm256_or_ps(_mm256_and_ps(hi, one), _mm256_andnot_ps(hi, a));
        // Output clamps, matching scalar `min` NaN/order semantics.
        a = _mm256_min_ps(a, alpha_max);
        _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(a, alpha_min), a)
    }
}

fn blend_span_avx2(
    alphas: &[f32],
    color: [f32; 3],
    alpha_min: f32,
    px: PixelLanes<'_>,
) -> BlendCounts {
    let n = blend_lanes_len(alphas, &px);
    debug_assert!(avx2_available());
    // SAFETY: the AVX2 table is only handed out after feature detection;
    // all five slices hold `n` lanes (checked above).
    unsafe { blend_span_avx2_impl(n, alphas, color, alpha_min, px) }
}

/// One [`super::BLEND_LANES`] group per iteration, the scalar twin's
/// operation sequence per lane: the blend condition becomes a lane mask,
/// masked-off lanes blend `α = 0` (adds `+0.0`, multiplies by `1.0`), a
/// group with no lane on is left untouched. The caller guarantees `n`
/// lanes in every slice.
#[target_feature(enable = "avx2,popcnt")]
unsafe fn blend_span_avx2_impl(
    n: usize,
    alphas: &[f32],
    color: [f32; 3],
    alpha_min: f32,
    px: PixelLanes<'_>,
) -> BlendCounts {
    let PixelLanes { r, g, b, t } = px;
    let mut counts = BlendCounts::default();
    unsafe {
        let eps = _mm256_set1_ps(TRANSMITTANCE_EPS);
        let a_min = _mm256_set1_ps(alpha_min);
        let one = _mm256_set1_ps(1.0);
        let (cr, cg, cb) = (
            _mm256_set1_ps(color[0]),
            _mm256_set1_ps(color[1]),
            _mm256_set1_ps(color[2]),
        );
        let mut i = 0;
        while i < n {
            let a = _mm256_loadu_ps(alphas.as_ptr().add(i));
            let t0 = _mm256_loadu_ps(t.as_ptr().add(i));
            // !(T < ε) ∧ α > alpha_min, as in the scalar twin.
            let on = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_NLT_UQ>(t0, eps),
                _mm256_cmp_ps::<_CMP_GT_OQ>(a, a_min),
            );
            let on_bits = _mm256_movemask_ps(on);
            if on_bits != 0 {
                let a = _mm256_and_ps(a, on);
                let w = _mm256_mul_ps(a, t0);
                let rp = r.as_mut_ptr().add(i);
                let gp = g.as_mut_ptr().add(i);
                let bp = b.as_mut_ptr().add(i);
                _mm256_storeu_ps(rp, _mm256_add_ps(_mm256_loadu_ps(rp), _mm256_mul_ps(cr, w)));
                _mm256_storeu_ps(gp, _mm256_add_ps(_mm256_loadu_ps(gp), _mm256_mul_ps(cg, w)));
                _mm256_storeu_ps(bp, _mm256_add_ps(_mm256_loadu_ps(bp), _mm256_mul_ps(cb, w)));
                let t1 = _mm256_mul_ps(t0, _mm256_sub_ps(one, a));
                _mm256_storeu_ps(t.as_mut_ptr().add(i), t1);
                let done = _mm256_and_ps(on, _mm256_cmp_ps::<_CMP_LT_OQ>(t1, eps));
                counts.blended += on_bits.count_ones();
                counts.terminated += _mm256_movemask_ps(done).count_ones();
            }
            i += 8;
        }
    }
    counts
}

fn sh_colors_avx2(
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
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    let d = degree.min(3) as usize;
    let n_coeffs = ((d + 1) * (d + 1)).min(crate::SH_COEFFS_PER_CHANNEL);
    let n = out.len();
    let mut i = 0;
    while i + 8 <= n {
        // Bounds of every lane's source record, checked before the raw
        // gathers (the scalar twin's `gaussians[p.id]` indexing).
        for p in &out[i..i + 8] {
            assert!((p.id as usize) < gaussians.len(), "survivor id in range");
        }
        // SAFETY: the AVX2 table is only handed out after feature
        // detection; every gathered id was just bounds-checked.
        unsafe {
            sh_colors8_avx2(
                gaussians,
                dir_x.as_ptr().add(i),
                dir_y.as_ptr().add(i),
                dir_z.as_ptr().add(i),
                n_coeffs,
                &mut out[i..i + 8],
            );
        }
        i += 8;
    }
    scalar::sh_colors(
        gaussians,
        &dir_x[i..],
        &dir_y[i..],
        &dir_z[i..],
        degree,
        &mut out[i..],
    );
}

/// One 8-survivor SH batch: lane `l` evaluates survivor `l`. The basis is
/// built with the exact expression tree of [`crate::sh::basis`], and the
/// per-channel accumulation runs coefficient-by-coefficient in
/// [`crate::sh::eval_color_deg`]'s order — the only data-parallel axis is
/// the survivor, so every lane reproduces the scalar arithmetic verbatim.
/// Coefficients come straight from the source records via per-coefficient
/// gathers: lane `l` reads float `id_l·stride + sh_offset + c·16 + j` of
/// the [`Gaussian3D`] array reinterpreted as floats (the struct is all
/// `f32` fields, so stride and field offset are whole floats — asserted
/// below). The caller bounds-checks every lane's id.
#[target_feature(enable = "avx2")]
unsafe fn sh_colors8_avx2(
    gaussians: &[Gaussian3D],
    dx: *const f32,
    dy: *const f32,
    dz: *const f32,
    n_coeffs: usize,
    out: &mut [ProjectedGaussian],
) {
    use crate::sh::{SH_C0, SH_C1, SH_C2, SH_C3};
    let mut rgb = [[0.0f32; 8]; 3];
    unsafe {
        let x = _mm256_loadu_ps(dx);
        let y = _mm256_loadu_ps(dy);
        let z = _mm256_loadu_ps(dz);
        let xx = _mm256_mul_ps(x, x);
        let yy = _mm256_mul_ps(y, y);
        let zz = _mm256_mul_ps(z, z);
        let xy = _mm256_mul_ps(x, y);
        let yz = _mm256_mul_ps(y, z);
        let xz = _mm256_mul_ps(x, z);
        let two = _mm256_set1_ps(2.0);
        let three = _mm256_set1_ps(3.0);
        let four = _mm256_set1_ps(4.0);
        let b: [__m256; 16] = [
            _mm256_set1_ps(SH_C0),
            _mm256_mul_ps(_mm256_set1_ps(-SH_C1), y),
            _mm256_mul_ps(_mm256_set1_ps(SH_C1), z),
            _mm256_mul_ps(_mm256_set1_ps(-SH_C1), x),
            _mm256_mul_ps(_mm256_set1_ps(SH_C2[0]), xy),
            _mm256_mul_ps(_mm256_set1_ps(SH_C2[1]), yz),
            _mm256_mul_ps(
                _mm256_set1_ps(SH_C2[2]),
                _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(two, zz), xx), yy),
            ),
            _mm256_mul_ps(_mm256_set1_ps(SH_C2[3]), xz),
            _mm256_mul_ps(_mm256_set1_ps(SH_C2[4]), _mm256_sub_ps(xx, yy)),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[0]), y),
                _mm256_sub_ps(_mm256_mul_ps(three, xx), yy),
            ),
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(SH_C3[1]), xy), z),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[2]), y),
                _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(four, zz), xx), yy),
            ),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[3]), z),
                _mm256_sub_ps(
                    _mm256_sub_ps(_mm256_mul_ps(two, zz), _mm256_mul_ps(three, xx)),
                    _mm256_mul_ps(three, yy),
                ),
            ),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[4]), x),
                _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(four, zz), xx), yy),
            ),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[5]), z),
                _mm256_sub_ps(xx, yy),
            ),
            _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(SH_C3[6]), x),
                _mm256_sub_ps(xx, _mm256_mul_ps(three, yy)),
            ),
        ];
        // Lane l's coefficient block starts at float
        // `id_l·stride + sh_offset` of the record array viewed as floats.
        const STRIDE: usize = std::mem::size_of::<Gaussian3D>() / 4;
        const SH_OFF: usize = std::mem::offset_of!(Gaussian3D, sh) / 4;
        const _: () = assert!(std::mem::size_of::<Gaussian3D>().is_multiple_of(4));
        const _: () = assert!(std::mem::offset_of!(Gaussian3D, sh).is_multiple_of(4));
        let sh = gaussians.as_ptr().cast::<f32>();
        let ids = [
            out[0].id, out[1].id, out[2].id, out[3].id, out[4].id, out[5].id, out[6].id, out[7].id,
        ];
        let lane_off = _mm256_add_epi32(
            _mm256_mullo_epi32(
                _mm256_loadu_si256(ids.as_ptr().cast()),
                _mm256_set1_epi32(STRIDE as i32),
            ),
            _mm256_set1_epi32(SH_OFF as i32),
        );
        let half = _mm256_set1_ps(0.5);
        let zero = _mm256_setzero_ps();
        for (c, chan) in rgb.iter_mut().enumerate() {
            let mut acc = _mm256_setzero_ps();
            for (j, bf) in b.iter().enumerate().take(n_coeffs) {
                let idx = _mm256_add_epi32(
                    lane_off,
                    _mm256_set1_epi32((c * crate::SH_COEFFS_PER_CHANNEL + j) as i32),
                );
                let cf = _mm256_i32gather_ps::<4>(sh, idx);
                acc = _mm256_add_ps(acc, _mm256_mul_ps(cf, *bf));
            }
            // (acc + 0.5).max(0.0), NaN/zero semantics matching scalar max.
            let v = _mm256_max_ps(_mm256_add_ps(acc, half), zero);
            _mm256_storeu_ps(chan.as_mut_ptr(), v);
        }
    }
    for (l, p) in out.iter_mut().enumerate() {
        p.color = Vec3::new(rgb[0][l], rgb[1][l], rgb[2][l]);
    }
}

fn box_muller_avx2(u1: &[f32], u2: &[f32], out: &mut [f32]) {
    box_muller_len(u1, u2, out);
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: the AVX2 table is only handed out after feature detection,
    // and the lengths are checked.
    unsafe { box_muller_avx2_impl(u1, u2, out) }
}

/// 8-lane [`scalar::box_muller`]: per lane the operation sequence of
/// `gcc_math::det_ln` and of `gcc_math::det_sin_cos`'s cosine, their
/// bit-mask selects as blends, then `sqrt` and one multiply. The caller
/// has checked that the slices share one length.
#[target_feature(enable = "avx2")]
unsafe fn box_muller_avx2_impl(u1: &[f32], u2: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut i = 0;
    unsafe {
        while i + 8 <= n {
            let a = _mm256_loadu_ps(u1.as_ptr().add(i));
            let b = _mm256_loadu_ps(u2.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), box_muller8_avx2(a, b));
            i += 8;
        }
        if i < n {
            // Ragged tail: the same 8-lane body on masked loads (the lanes
            // past the end read `0.0`) and a masked store that writes only
            // the lanes in range — no copy of run-time length.
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - i) as i32), lanes);
            let a = _mm256_maskload_ps(u1.as_ptr().add(i), live);
            let b = _mm256_maskload_ps(u2.as_ptr().add(i), live);
            _mm256_maskstore_ps(out.as_mut_ptr().add(i), live, box_muller8_avx2(a, b));
        }
    }
}

/// `√(−2·ln u1) · cos(2π·u2)` on eight lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn box_muller8_avx2(u1: __m256, u2: __m256) -> __m256 {
    let radius = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln8_avx2(u1)));
    let angle = _mm256_mul_ps(_mm256_set1_ps(std::f32::consts::TAU), u2);
    _mm256_mul_ps(radius, cos8_avx2(angle))
}

/// `gcc_math::det_ln` on eight lanes, operation for operation.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ln8_avx2(x: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let sub = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(f32::MIN_POSITIVE));
    let xs = _mm256_mul_ps(x, _mm256_blendv_ps(one, _mm256_set1_ps(33_554_432.0), sub));
    let bits = _mm256_castps_si256(xs);
    let e = _mm256_sub_epi32(
        _mm256_sub_epi32(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(126)),
        _mm256_and_si256(_mm256_castps_si256(sub), _mm256_set1_epi32(25)),
    );
    let m = _mm256_castsi256_ps(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)),
        _mm256_set1_epi32(0x3f00_0000),
    ));
    let low = _mm256_cmp_ps::<_CMP_LT_OQ>(m, _mm256_set1_ps(DET_LN_SQRT_HALF));
    let e = _mm256_sub_epi32(
        e,
        _mm256_and_si256(_mm256_castps_si256(low), _mm256_set1_epi32(1)),
    );
    let f = _mm256_add_ps(_mm256_sub_ps(m, one), _mm256_and_ps(m, low));
    let z = _mm256_mul_ps(f, f);
    let mut p = _mm256_set1_ps(DET_LN_POLY[0]);
    for &c in &DET_LN_POLY[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, f), _mm256_set1_ps(c));
    }
    let fe = _mm256_cvtepi32_ps(e);
    let mut y = _mm256_mul_ps(_mm256_mul_ps(p, f), z);
    y = _mm256_add_ps(y, _mm256_mul_ps(fe, _mm256_set1_ps(DET_EXP_LN2_LO)));
    y = _mm256_add_ps(y, _mm256_mul_ps(_mm256_set1_ps(-0.5), z));
    let r = _mm256_add_ps(
        _mm256_add_ps(f, y),
        _mm256_mul_ps(fe, _mm256_set1_ps(DET_EXP_LN2_HI)),
    );
    let inf = _mm256_set1_ps(f32::INFINITY);
    let zero = _mm256_setzero_ps();
    let r = _mm256_blendv_ps(r, inf, _mm256_cmp_ps::<_CMP_EQ_OQ>(x, inf));
    let r = _mm256_blendv_ps(
        r,
        _mm256_set1_ps(f32::NEG_INFINITY),
        _mm256_cmp_ps::<_CMP_EQ_OQ>(x, zero),
    );
    let nan = _mm256_or_ps(
        _mm256_cmp_ps::<_CMP_LT_OQ>(x, zero),
        _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x),
    );
    _mm256_blendv_ps(r, _mm256_set1_ps(f32::NAN), nan)
}

/// The cosine of `gcc_math::det_sin_cos` on eight lanes, operation for
/// operation (the sine's polynomial too: odd quadrants take it).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cos8_avx2(x: __m256) -> __m256 {
    let ax = _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)));
    let j = _mm256_cvttps_epi32(_mm256_mul_ps(ax, _mm256_set1_ps(DET_FOUR_OVER_PI)));
    let j = _mm256_and_si256(
        _mm256_add_epi32(j, _mm256_set1_epi32(1)),
        _mm256_set1_epi32(!1),
    );
    let y = _mm256_cvtepi32_ps(j);
    let [dp1, dp2, dp3] = DET_PI_4_SPLIT;
    let r = _mm256_sub_ps(ax, _mm256_mul_ps(y, _mm256_set1_ps(dp1)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(y, _mm256_set1_ps(dp2)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(y, _mm256_set1_ps(dp3)));
    let z = _mm256_mul_ps(r, r);
    let mut c = _mm256_set1_ps(DET_COS_POLY[0]);
    c = _mm256_add_ps(_mm256_mul_ps(c, z), _mm256_set1_ps(DET_COS_POLY[1]));
    c = _mm256_add_ps(_mm256_mul_ps(c, z), _mm256_set1_ps(DET_COS_POLY[2]));
    let c = _mm256_add_ps(
        _mm256_sub_ps(
            _mm256_mul_ps(_mm256_mul_ps(c, z), z),
            _mm256_mul_ps(_mm256_set1_ps(0.5), z),
        ),
        _mm256_set1_ps(1.0),
    );
    let mut s = _mm256_set1_ps(DET_SIN_POLY[0]);
    s = _mm256_add_ps(_mm256_mul_ps(s, z), _mm256_set1_ps(DET_SIN_POLY[1]));
    s = _mm256_add_ps(_mm256_mul_ps(s, z), _mm256_set1_ps(DET_SIN_POLY[2]));
    let s = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(s, z), r), r);
    let two = _mm256_set1_epi32(2);
    let swap = _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(j, two), two));
    let cos = _mm256_blendv_ps(c, s, swap);
    let sign = _mm256_slli_epi32::<29>(_mm256_andnot_si256(
        _mm256_sub_epi32(j, two),
        _mm256_set1_epi32(4),
    ));
    _mm256_xor_ps(cos, _mm256_castsi256_ps(sign))
}
