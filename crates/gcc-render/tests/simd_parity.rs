//! Scalar ≡ SIMD parity pins at the full-render level.
//!
//! The dispatch layer's contract is that every SIMD backend is
//! *bit-identical* to the scalar reference (see `gcc_core::dispatch`).
//! These tests pin that contract where it matters — whole frames through
//! both schedules and both exponential datapaths (the LUT computes its
//! alphas per lane but blends through the same dispatched kernel) — by
//! rendering the same scene once per available backend (via the `backend`
//! config override, so no process-global env is touched) and across
//! thread counts, and requiring bitwise-equal images and identical
//! statistics.
//!
//! CI runs this suite twice: once dispatched (default) and once under
//! `GCC_FORCE_SCALAR=1` (the `simd-matrix` job). Because the per-backend
//! pins here compare every supported backend against scalar in-process,
//! both runs prove the same equality from opposite directions.

use gcc_core::alpha::ExpMode;
use gcc_core::dispatch::{self, Backend};
use gcc_core::{Camera, Gaussian3D};
use gcc_math::Vec3;
use gcc_parallel::Parallelism;
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::standard::{Footprint, StandardConfig};
use gcc_render::{GaussianWiseRenderer, Image, Renderer, StandardRenderer};

fn test_cam() -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 0.0, -4.0),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        160,
        120,
    )
}

/// A cloud with full SH bands, mixed opacities (including some beyond the
/// saturation threshold) and depth ties — every clamp branch and the sort
/// stability both get exercised.
// Test data: libm `sin` / `cos` place the cloud.
#[allow(clippy::disallowed_methods)]
fn cloud(n: usize) -> Vec<Gaussian3D> {
    let mut out: Vec<Gaussian3D> = (0..n)
        .map(|i| {
            let t = i as f32 / n as f32;
            let mut g = Gaussian3D::isotropic(
                Vec3::new((t * 13.0).sin() * 0.9, (t * 7.0).cos() * 0.6, t * 2.0 - 0.5),
                0.05 + 0.12 * t,
                0.05f32.max(t),
                Vec3::new(t, 1.0 - t, 0.5 + 0.4 * (t * 31.0).sin()),
            );
            // Populate higher SH bands so the degree-3 evaluation path is
            // fully live.
            for (j, c) in g.sh.iter_mut().enumerate().skip(1) {
                *c = ((i * 48 + j) as f32 * 0.37).sin() * 0.25;
            }
            g
        })
        .collect();
    // Exact depth duplicates: stable-order ties.
    let dup: Vec<Gaussian3D> = out.iter().take(n / 8).cloned().collect();
    out.extend(dup);
    out
}

fn assert_images_bitwise_equal(a: &Image, b: &Image, what: &str) {
    assert_eq!(a.width(), b.width(), "{what}: width");
    assert_eq!(a.height(), b.height(), "{what}: height");
    for (i, (pa, pb)) in a.pixels().iter().zip(b.pixels()).enumerate() {
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "{what}: pixel {i} (r)");
        assert_eq!(pa.y.to_bits(), pb.y.to_bits(), "{what}: pixel {i} (g)");
        assert_eq!(pa.z.to_bits(), pb.z.to_bits(), "{what}: pixel {i} (b)");
    }
}

#[test]
fn standard_render_is_bit_identical_across_backends_and_threads() {
    let cam = test_cam();
    let g = cloud(400);
    // The reference schedule, then GSCore's footprint on the LUT datapath
    // with a raised alpha floor: every branch around the blend kernel.
    for (exp, footprint, alpha_min) in [
        (ExpMode::Exact, Footprint::Aabb, 0.0),
        (ExpMode::lut(), Footprint::Obb, 0.05),
    ] {
        let with_backend = |backend| StandardConfig {
            backend: Some(backend),
            exp: exp.clone(),
            footprint,
            alpha_min,
            ..StandardConfig::default()
        };
        let scalar_cfg = with_backend(Backend::Scalar);
        let reference = StandardRenderer::new(scalar_cfg).render_frame(&g, &cam);
        assert!(reference.stats.rendered > 0, "scene must be non-trivial");
        for backend in dispatch::available() {
            for threads in [1usize, 2, 4] {
                let cfg = with_backend(backend);
                let out = StandardRenderer::new(cfg)
                    .with_parallelism(Parallelism::fixed(threads))
                    .render_frame(&g, &cam);
                let what = format!("standard {exp:?} {backend} threads={threads}");
                assert_images_bitwise_equal(&reference.image, &out.image, &what);
                assert_eq!(reference.stats, out.stats, "{what}: stats");
            }
        }
    }
}

#[test]
fn standard_tile_edges_are_bit_identical_across_backends_and_threads() {
    // The span kernels (`row_spans`, `span_powers`) take their shape from
    // the tile edge: one lane group per row, the paper's two, three
    // (where rows outnumber the lanes of a vector and 120 rows leave a
    // clipped last tile) and four, under both footprints — the OBB clip
    // is what hands `span_powers` an empty row between two live ones.
    let cam = test_cam();
    let g = cloud(400);
    for tile_size in [8u32, 16, 24, 32] {
        for footprint in [Footprint::Aabb, Footprint::Obb] {
            let with_backend = |backend| StandardConfig {
                backend: Some(backend),
                tile_size,
                footprint,
                ..StandardConfig::default()
            };
            let reference =
                StandardRenderer::new(with_backend(Backend::Scalar)).render_frame(&g, &cam);
            assert!(reference.stats.rendered > 0, "scene must be non-trivial");
            for backend in dispatch::available() {
                for threads in [1usize, 2] {
                    let cfg = with_backend(backend);
                    let out = StandardRenderer::new(cfg)
                        .with_parallelism(Parallelism::fixed(threads))
                        .render_frame(&g, &cam);
                    let what = format!(
                        "standard {footprint:?} tile={tile_size} {backend} threads={threads}"
                    );
                    assert_images_bitwise_equal(&reference.image, &out.image, &what);
                    assert_eq!(reference.stats, out.stats, "{what}: stats");
                }
            }
        }
    }
}

#[test]
fn gaussian_wise_render_is_bit_identical_across_backends_and_threads() {
    let cam = test_cam();
    let g = cloud(300);
    for exp in [ExpMode::Exact, ExpMode::lut()] {
        for subview in [None, Some(48)] {
            let with_backend = |backend| GaussianWiseConfig {
                backend: Some(backend),
                exp: exp.clone(),
                subview,
                ..GaussianWiseConfig::default()
            };
            let scalar_cfg = with_backend(Backend::Scalar);
            let reference = GaussianWiseRenderer::new(scalar_cfg).render_frame(&g, &cam);
            assert!(reference.stats.rendered > 0, "scene must be non-trivial");
            for backend in dispatch::available() {
                for threads in [1usize, 2, 4] {
                    let cfg = with_backend(backend);
                    let out = GaussianWiseRenderer::new(cfg)
                        .with_parallelism(Parallelism::fixed(threads))
                        .render_frame(&g, &cam);
                    let what = format!(
                        "gaussian-wise {exp:?} {backend} subview={subview:?} threads={threads}"
                    );
                    assert_images_bitwise_equal(&reference.image, &out.image, &what);
                    assert_eq!(reference.stats, out.stats, "{what}: stats");
                }
            }
        }
    }
}

#[test]
fn dispatched_default_matches_pinned_scalar() {
    // `backend: None` routes through the process-wide selection (whatever
    // CPU this runs on, plus `GCC_FORCE_SCALAR` if the harness set it) —
    // the production path. It must land bit-exactly on the scalar pin.
    let cam = test_cam();
    let g = cloud(250);
    let dispatched = StandardRenderer::default().render_frame(&g, &cam);
    let scalar = StandardRenderer::new(StandardConfig {
        backend: Some(Backend::Scalar),
        ..StandardConfig::default()
    })
    .render_frame(&g, &cam);
    let what = format!("dispatched ({})", dispatch::active_backend());
    assert_images_bitwise_equal(&scalar.image, &dispatched.image, &what);
    assert_eq!(scalar.stats, dispatched.stats, "{what}: stats");

    let gw_dispatched = GaussianWiseRenderer::default().render_frame(&g, &cam);
    let gw_scalar = GaussianWiseRenderer::new(GaussianWiseConfig {
        backend: Some(Backend::Scalar),
        ..GaussianWiseConfig::default()
    })
    .render_frame(&g, &cam);
    assert_images_bitwise_equal(&gw_scalar.image, &gw_dispatched.image, &what);
    assert_eq!(gw_scalar.stats, gw_dispatched.stats, "{what}: gw stats");
}

#[test]
fn gaussian_wise_block_edges_and_cmode_are_bit_identical_across_backends_and_threads() {
    // The block kernels (`block_pass`, `block_powers`) take their shape
    // from the block edge: half a lane group, two groups (whose last
    // block row is clipped at 120 pixels), and the default edge under the
    // paper's 128-pixel Cmode partition.
    let cam = test_cam();
    let g = cloud(300);
    for (block, subview) in [(4u32, None), (16, None), (8, Some(128))] {
        let with_backend = |backend| GaussianWiseConfig {
            backend: Some(backend),
            block,
            subview,
            ..GaussianWiseConfig::default()
        };
        let reference =
            GaussianWiseRenderer::new(with_backend(Backend::Scalar)).render_frame(&g, &cam);
        assert!(reference.stats.rendered > 0, "scene must be non-trivial");
        for backend in dispatch::available() {
            for threads in [1usize, 2, 4] {
                let cfg = with_backend(backend);
                let out = GaussianWiseRenderer::new(cfg)
                    .with_parallelism(Parallelism::fixed(threads))
                    .render_frame(&g, &cam);
                let what = format!(
                    "gaussian-wise {backend} block={block} subview={subview:?} threads={threads}"
                );
                assert_images_bitwise_equal(&reference.image, &out.image, &what);
                assert_eq!(reference.stats, out.stats, "{what}: stats");
            }
        }
    }
}
