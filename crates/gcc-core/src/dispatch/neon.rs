//! aarch64 NEON kernels (4-lane f32, baseline on every aarch64 CPU).
//!
//! Same bit-exactness contract as the x86 kernels: per-lane operation
//! sequences mirror the scalar twins exactly, with min/max expressed as
//! compare-and-select (`a < b ? a : b`) so NaN propagation matches the
//! scalar `f32::min`/`f32::max` results on every input the renderers can
//! produce. SH evaluation has no NEON gather, so it routes to the scalar
//! twin; so do the two block kernels (`block_pass`, `block_powers`) and
//! the two span kernels (`row_spans`, `span_powers`), whose intrinsics no
//! one has been able to build on an aarch64 host yet.

use core::arch::aarch64::*;

use crate::{ALPHA_MAX, ALPHA_MIN, TRANSMITTANCE_EPS};
use gcc_math::exp::{DET_EXP_LN2_HI, DET_EXP_LN2_LO, DET_EXP_LOG2E, DET_EXP_POLY, EXP_INPUT_MIN};

use super::scalar;
use super::{blend_lanes_len, BlendCounts, KernelSet, PixelLanes};

/// The NEON dispatch table.
pub(super) static NEON: KernelSet = KernelSet {
    backend: super::Backend::Neon,
    depth_keys: depth_keys_neon,
    block_pass: scalar::block_pass,
    block_powers: scalar::block_powers,
    row_spans: scalar::row_spans,
    span_powers: scalar::span_powers,
    alpha_powers: alpha_powers_neon,
    blend_span: blend_span_neon,
    sh_colors: scalar::sh_colors,
};

fn depth_keys_neon(depths: &[f32], keys: &mut [u32]) {
    assert_eq!(depths.len(), keys.len());
    // SAFETY: NEON is part of the aarch64 baseline.
    unsafe { depth_keys_neon_impl(depths, keys) }
}

#[target_feature(enable = "neon")]
unsafe fn depth_keys_neon_impl(depths: &[f32], keys: &mut [u32]) {
    let n = depths.len();
    let mut i = 0;
    unsafe {
        let top = vdupq_n_u32(0x8000_0000);
        while i + 4 <= n {
            let v = vreinterpretq_u32_f32(vld1q_f32(depths.as_ptr().add(i)));
            // All-ones where the sign bit is set.
            let sign = vreinterpretq_u32_s32(vshrq_n_s32(vreinterpretq_s32_u32(v), 31));
            let flip = vorrq_u32(sign, top);
            vst1q_u32(keys.as_mut_ptr().add(i), veorq_u32(v, flip));
            i += 4;
        }
    }
    for j in i..n {
        keys[j] = crate::sort::depth_key(depths[j]);
    }
}

fn alpha_powers_neon(buf: &mut [f32]) {
    // SAFETY: NEON is part of the aarch64 baseline.
    unsafe { alpha_from_powers_neon(buf) }
}

/// In-place power → clamped-alpha, mirroring the x86 kernels lane for
/// lane: `det_exp` sequence, input clamps, `min(ALPHA_MAX)`, `< ALPHA_MIN
/// → 0`. Selects are `vbslq` on explicit comparisons so clamp semantics
/// (including NaN behavior) match the scalar reference.
#[target_feature(enable = "neon")]
unsafe fn alpha_from_powers_neon(buf: &mut [f32]) {
    let n = buf.len();
    let mut i = 0;
    unsafe {
        let exp_min = vdupq_n_f32(EXP_INPUT_MIN);
        while i + 4 <= n {
            let x = vld1q_f32(buf.as_ptr().add(i));
            // Every lane below the input floor (padding, mostly): the
            // clamps would make each `+0.0`, so skip the evaluation. A
            // NaN compares false and takes the full path.
            let a = if vaddvq_u32(vshrq_n_u32::<31>(vcltq_f32(x, exp_min))) == 4 {
                vdupq_n_f32(0.0)
            } else {
                alpha4_neon(x)
            };
            vst1q_f32(buf.as_mut_ptr().add(i), a);
            i += 4;
        }
        if i < n {
            // Padded tail: the same 4-lane body on a zero-padded stack
            // copy (zeros are benign `det_exp` inputs; pad lanes are
            // discarded). Per lane this is the identical operation
            // sequence, so the tail stays bit-exact — and the hot path
            // never calls the scalar exponential at all.
            let mut pad = [0.0f32; 4];
            pad[..n - i].copy_from_slice(&buf[i..]);
            vst1q_f32(pad.as_mut_ptr(), alpha4_neon(vld1q_f32(pad.as_ptr())));
            buf[i..].copy_from_slice(&pad[..n - i]);
        }
    }
}

/// One 4-lane power → alpha step of [`alpha_from_powers_neon`].
#[inline]
#[target_feature(enable = "neon")]
unsafe fn alpha4_neon(x: float32x4_t) -> float32x4_t {
    {
        let log2e = vdupq_n_f32(DET_EXP_LOG2E);
        let half = vdupq_n_f32(0.5);
        let one = vdupq_n_f32(1.0);
        let ln2_hi = vdupq_n_f32(DET_EXP_LN2_HI);
        let ln2_lo = vdupq_n_f32(DET_EXP_LN2_LO);
        let bias = vdupq_n_s32(127);
        let exp_min = vdupq_n_f32(EXP_INPUT_MIN);
        let zero = vdupq_n_f32(0.0);
        let alpha_max = vdupq_n_f32(ALPHA_MAX);
        let alpha_min = vdupq_n_f32(ALPHA_MIN);
        // k = floor(x·log2e + ½) — vrndmq rounds toward −∞.
        let k = vrndmq_f32(vaddq_f32(vmulq_f32(x, log2e), half));
        // r = x − k·ln2_hi − k·ln2_lo, two separate mul+sub (no FMA).
        let r = vsubq_f32(vsubq_f32(x, vmulq_f32(k, ln2_hi)), vmulq_f32(k, ln2_lo));
        let mut p = vdupq_n_f32(DET_EXP_POLY[0]);
        p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(DET_EXP_POLY[1]));
        p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(DET_EXP_POLY[2]));
        p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(DET_EXP_POLY[3]));
        p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(DET_EXP_POLY[4]));
        p = vaddq_f32(vmulq_f32(p, r), vdupq_n_f32(DET_EXP_POLY[5]));
        let y = vaddq_f32(vaddq_f32(vmulq_f32(p, vmulq_f32(r, r)), r), one);
        // 2^k through the exponent bits (k is integer-valued here).
        let ki = vcvtq_s32_f32(k);
        let scale = vreinterpretq_f32_s32(vshlq_n_s32(vaddq_s32(ki, bias), 23));
        let e = vmulq_f32(y, scale);
        // Input clamps: x < −5.54 → 0, x ≥ 0 → 1.
        let lo = vcltq_f32(x, exp_min);
        let hi = vcgeq_f32(x, zero);
        let mut a = vbslq_f32(lo, zero, e);
        a = vbslq_f32(hi, one, a);
        // a = min(a, ALPHA_MAX) as compare-select (NaN → ALPHA_MAX,
        // matching scalar f32::min with a non-NaN second operand).
        a = vbslq_f32(vcltq_f32(a, alpha_max), a, alpha_max);
        // a < ALPHA_MIN → 0.
        vbslq_f32(vcltq_f32(a, alpha_min), zero, a)
    }
}

fn blend_span_neon(
    alphas: &[f32],
    color: [f32; 3],
    alpha_min: f32,
    px: PixelLanes<'_>,
) -> BlendCounts {
    let n = blend_lanes_len(alphas, &px);
    // SAFETY: NEON is part of the aarch64 baseline; all five slices hold
    // `n` lanes (checked above).
    unsafe { blend_span_neon_impl(n, alphas, color, alpha_min, px) }
}

/// 4 lanes at a time, the scalar twin's operation sequence per lane: the
/// blend condition becomes a lane mask, masked-off lanes blend `α = 0`
/// (adds `+0.0`, multiplies by `1.0`), a group with no lane on is left
/// untouched. Multiplies and adds are separate instructions (no `vfmaq`).
/// The caller guarantees `n` lanes in every slice.
#[target_feature(enable = "neon")]
unsafe fn blend_span_neon_impl(
    n: usize,
    alphas: &[f32],
    color: [f32; 3],
    alpha_min: f32,
    px: PixelLanes<'_>,
) -> BlendCounts {
    let PixelLanes { r, g, b, t } = px;
    let mut counts = BlendCounts::default();
    unsafe {
        let eps = vdupq_n_f32(TRANSMITTANCE_EPS);
        let a_min = vdupq_n_f32(alpha_min);
        let one = vdupq_n_f32(1.0);
        let (cr, cg, cb) = (
            vdupq_n_f32(color[0]),
            vdupq_n_f32(color[1]),
            vdupq_n_f32(color[2]),
        );
        let mut i = 0;
        while i < n {
            let a = vld1q_f32(alphas.as_ptr().add(i));
            let t0 = vld1q_f32(t.as_ptr().add(i));
            // !(T < ε) ∧ α > alpha_min, as in the scalar twin.
            let on = vandq_u32(vmvnq_u32(vcltq_f32(t0, eps)), vcgtq_f32(a, a_min));
            // Lane masks are all-ones: the top bit of each lane, summed.
            let blended = vaddvq_u32(vshrq_n_u32::<31>(on));
            if blended != 0 {
                let a = vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(a), on));
                let w = vmulq_f32(a, t0);
                let rp = r.as_mut_ptr().add(i);
                let gp = g.as_mut_ptr().add(i);
                let bp = b.as_mut_ptr().add(i);
                vst1q_f32(rp, vaddq_f32(vld1q_f32(rp), vmulq_f32(cr, w)));
                vst1q_f32(gp, vaddq_f32(vld1q_f32(gp), vmulq_f32(cg, w)));
                vst1q_f32(bp, vaddq_f32(vld1q_f32(bp), vmulq_f32(cb, w)));
                let t1 = vmulq_f32(t0, vsubq_f32(one, a));
                vst1q_f32(t.as_mut_ptr().add(i), t1);
                let done = vandq_u32(on, vcltq_f32(t1, eps));
                counts.blended += blended;
                counts.terminated += vaddvq_u32(vshrq_n_u32::<31>(done));
            }
            i += 4;
        }
    }
    counts
}
