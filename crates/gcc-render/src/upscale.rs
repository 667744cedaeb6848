//! Filtered upscale pass for the adaptive-quality ladder.
//!
//! The resolution rungs of the quality ladder render at a reduced
//! resolution and reconstruct the requested frame size with this pass —
//! the pure-rust stand-in for the render-low-res-then-reconstruct
//! direction of Gaussian-splat super-resolution (GSASR; SNIPPETS.md
//! 1–2), which uses a network where this uses a separable bilinear tent
//! filter. Pixel-center alignment ("half-pixel" convention) keeps the
//! reconstruction shift-free, and edges clamp rather than wrap.

use crate::image::Image;
use gcc_math::Vec3;

/// Bilinearly upscales (or downscales) `src` to `width × height` with
/// pixel-center alignment and edge clamping. A same-size call returns a
/// bit-identical copy, so a ladder rung whose divisor degenerates to 1
/// cannot perturb the frame.
///
/// # Panics
///
/// Panics for zero target dimensions (same contract as [`Image::new`]).
pub fn upscale_bilinear(src: &Image, width: u32, height: u32) -> Image {
    assert!(width > 0 && height > 0, "degenerate upscale target");
    if src.width() == width && src.height() == height {
        return src.clone();
    }
    let mut out = Image::new(width, height);
    let sx = src.width() as f32 / width as f32;
    let sy = src.height() as f32 / height as f32;
    for y in 0..height {
        // Map the target pixel center into source pixel coordinates.
        let fy = ((y as f32 + 0.5) * sy - 0.5).max(0.0);
        let y0 = (fy as u32).min(src.height() - 1);
        let y1 = (y0 + 1).min(src.height() - 1);
        let ty = fy - y0 as f32;
        for x in 0..width {
            let fx = ((x as f32 + 0.5) * sx - 0.5).max(0.0);
            let x0 = (fx as u32).min(src.width() - 1);
            let x1 = (x0 + 1).min(src.width() - 1);
            let tx = fx - x0 as f32;
            let top = lerp(src.get(x0, y0), src.get(x1, y0), tx);
            let bot = lerp(src.get(x0, y1), src.get(x1, y1), tx);
            out.set(x, y, lerp(top, bot, ty));
        }
    }
    out
}

fn lerp(a: Vec3, b: Vec3, t: f32) -> Vec3 {
    a + (b - a) * t
}

#[cfg(test)]
// Test data: libm `sin` / `cos` paint synthetic images.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    Vec3::new(
                        x as f32 / (w - 1).max(1) as f32,
                        y as f32 / (h - 1).max(1) as f32,
                        0.25,
                    ),
                );
            }
        }
        img
    }

    #[test]
    fn same_size_is_identity() {
        let img = gradient(16, 12);
        let up = upscale_bilinear(&img, 16, 12);
        assert_eq!(img, up);
    }

    #[test]
    fn constant_image_stays_constant() {
        let img = Image::filled(8, 8, Vec3::new(0.3, 0.6, 0.9));
        let up = upscale_bilinear(&img, 32, 24);
        for p in up.pixels() {
            assert!((*p - Vec3::new(0.3, 0.6, 0.9)).norm() < 1e-6);
        }
    }

    #[test]
    fn values_are_bounded_by_source_extrema() {
        // A tent filter cannot overshoot: every output channel lies
        // within the source min/max.
        let img = gradient(9, 7);
        let up = upscale_bilinear(&img, 31, 23);
        for p in up.pixels() {
            for c in [p.x, p.y, p.z] {
                assert!((0.0..=1.0).contains(&c), "overshoot {c}");
            }
        }
    }

    #[test]
    fn linear_gradient_is_reconstructed_closely() {
        // Bilinear is exact on (piecewise) linear signals away from the
        // clamped border half-pixel.
        let img = gradient(16, 16);
        let up = upscale_bilinear(&img, 64, 64);
        let mut max_err = 0.0f32;
        for y in 4..60 {
            for x in 4..60 {
                let want = Vec3::new(
                    ((x as f32 + 0.5) / 64.0 * 16.0 - 0.5) / 15.0,
                    ((y as f32 + 0.5) / 64.0 * 16.0 - 0.5) / 15.0,
                    0.25,
                );
                max_err = max_err.max((up.get(x, y) - want).norm());
            }
        }
        assert!(max_err < 1e-4, "gradient reconstruction error {max_err}");
    }

    #[test]
    fn upscale_beats_nearest_on_downsampled_detail() {
        // Reconstruction quality sanity: bilinear upscale of a 2×
        // downsample should sit closer to the original than nearest-
        // neighbor replication for a smooth signal.
        let mut img = Image::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                let v = ((x as f32 * 0.4).sin() + (y as f32 * 0.3).cos() + 2.0) / 4.0;
                img.set(x, y, Vec3::splat(v));
            }
        }
        let half = img.downsample2();
        let bilinear = upscale_bilinear(&half, 32, 32);
        let mut nearest = Image::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                nearest.set(x, y, half.get(x / 2, y / 2));
            }
        }
        assert!(bilinear.mse(&img) < nearest.mse(&img));
    }
}
