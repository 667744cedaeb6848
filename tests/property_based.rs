//! Property-based tests on the core invariants the pipeline rests on:
//! projection validity, bounding-law containment, Algorithm 1 exactness,
//! compositing algebra and grouping order.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties run over a deterministic case generator built on the
//! workspace's own PRNG (`gcc_scene::rng::StdRng`) — 64 seeded cases per
//! property, failures reproducible from the fixed seed.

use gcc_core::alpha::{composite, PixelState};
use gcc_core::boundary::{BlockGrid, BlockTracer, MaskMode, PixelTracer};
use gcc_core::bounds::{bounding_radius, omega_sigma_extent_sq, BoundingLaw, EffectiveTest};
use gcc_core::dispatch;
use gcc_core::grouping::{group_by_depth, GroupingConfig};
use gcc_core::projection::{covariance3d, project_gaussian};
use gcc_core::{Camera, Gaussian3D};
use gcc_math::{det_exp, det_ln, Quat, SymMat2, Vec2, Vec3};
use gcc_scene::rng::StdRng;

const CASES: usize = 64;

/// Runs `body` on `CASES` independently seeded generators.
fn check(test_name: &str, mut body: impl FnMut(&mut StdRng)) {
    // Derive the stream from the test name so properties don't share
    // sequences.
    let seed = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(case as u64));
        body(&mut rng);
    }
}

fn camera() -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 0.0, -5.0),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        160,
        120,
    )
}

fn arb_quat(rng: &mut StdRng) -> Quat {
    loop {
        let (w, x, y, z) = (
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        );
        if w * w + x * x + y * y + z * z > 1e-3 {
            return Quat::new(w, x, y, z);
        }
    }
}

fn arb_gaussian(rng: &mut StdRng) -> Gaussian3D {
    Gaussian3D::new(
        Vec3::new(
            rng.gen_range(-1.5f32..1.5),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..2.0),
        ),
        Vec3::new(
            rng.gen_range(0.01f32..0.4),
            rng.gen_range(0.01f32..0.4),
            rng.gen_range(0.01f32..0.4),
        ),
        arb_quat(rng),
        rng.gen_range(0.005f32..1.0),
        [0.0; 48],
    )
}

#[test]
fn rotation_matrices_are_orthonormal() {
    check("rotation_matrices_are_orthonormal", |rng| {
        let q = arb_quat(rng);
        let r = q.to_mat3();
        let rtr = r * r.transposed();
        assert!((rtr - gcc_math::Mat3::IDENTITY).frob_norm() < 1e-4);
        assert!((r.det() - 1.0).abs() < 1e-4);
    });
}

#[test]
fn covariance3d_is_symmetric_positive_semidefinite() {
    check("covariance3d_is_symmetric_positive_semidefinite", |rng| {
        let g = arb_gaussian(rng);
        let cov = covariance3d(g.scale, g.rot);
        assert!((cov - cov.transposed()).frob_norm() < 1e-4);
        // PSD check via random quadratic forms.
        for v in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.3, -0.8, 0.5),
            Vec3::new(-1.0, 1.0, 1.0),
        ] {
            let q = v.dot(cov.mul_vec(v));
            assert!(q >= -1e-4, "negative quadratic form {q}");
        }
    });
}

#[test]
fn projected_covariance_is_positive_definite() {
    check("projected_covariance_is_positive_definite", |rng| {
        let g = arb_gaussian(rng);
        let cam = camera();
        if let Some(p) = project_gaussian(&g, 0, &cam, BoundingLaw::ThreeSigma) {
            assert!(p.cov2d.is_positive_definite());
            assert!(p.conic.is_positive_definite());
            assert!(p.depth >= gcc_core::NEAR_DEPTH);
            assert!(p.radius > 0.0);
        }
    });
}

#[test]
fn omega_sigma_is_tighter_below_crossover() {
    check("omega_sigma_is_tighter_below_crossover", |rng| {
        let lambda = rng.gen_range(0.1f32..100.0);
        let ln_op = det_ln(rng.gen_range(0.005f32..0.35));
        let dynamic = bounding_radius(BoundingLaw::OmegaSigma, lambda, ln_op);
        let fixed = bounding_radius(BoundingLaw::ThreeSigma, lambda, ln_op);
        assert!(dynamic <= fixed, "ω-σ {dynamic} > 3σ {fixed}");
    });
}

#[test]
fn alpha_at_omega_sigma_boundary_is_at_most_threshold() {
    check(
        "alpha_at_omega_sigma_boundary_is_at_most_threshold",
        |rng| {
            // Eq. 7/8: on the ω-σ boundary, α = 1/255 exactly (up to rounding).
            let ln_op = det_ln(rng.gen_range(0.005f32..1.0));
            let extent = omega_sigma_extent_sq(ln_op);
            if extent <= 0.0 {
                return;
            }
            let alpha = det_exp(ln_op - 0.5 * extent);
            assert!((alpha - 1.0 / 255.0).abs() < 1e-5);
        },
    );
}

#[test]
fn algorithm1_matches_exhaustive_scan() {
    check("algorithm1_matches_exhaustive_scan", |rng| {
        let cx = rng.gen_range(8.0f32..56.0);
        let cy = rng.gen_range(8.0f32..56.0);
        let a = rng.gen_range(2.0f32..40.0);
        let b = rng.gen_range(-8.0f32..8.0);
        let c = rng.gen_range(2.0f32..40.0);
        let ln_op = det_ln(rng.gen_range(0.01f32..1.0));
        let cov = SymMat2::new(a, b, c);
        if !cov.is_positive_definite() {
            return;
        }
        let conic = cov.inverse().unwrap();
        let test = EffectiveTest::new(Vec2::new(cx, cy), conic, ln_op);
        let mut tracer = PixelTracer::new(64, 64);
        let mut out = Vec::new();
        tracer.trace(&test, &mut out);
        let mut expect = Vec::new();
        for y in 0..64 {
            for x in 0..64 {
                if test.passes(x, y) {
                    expect.push((x, y));
                }
            }
        }
        out.sort_unstable();
        expect.sort_unstable();
        assert_eq!(out, expect);
    });
}

#[test]
fn block_trace_covers_every_effective_pixel() {
    check("block_trace_covers_every_effective_pixel", |rng| {
        let cx = rng.gen_range(4.0f32..60.0);
        let cy = rng.gen_range(4.0f32..60.0);
        let a = rng.gen_range(2.0f32..60.0);
        let c = rng.gen_range(2.0f32..60.0);
        let ln_op = det_ln(rng.gen_range(0.02f32..1.0));
        let cov = SymMat2::new(a, a.min(c) * 0.3, c);
        if !cov.is_positive_definite() {
            return;
        }
        let conic = cov.inverse().unwrap();
        let test = EffectiveTest::new(Vec2::new(cx, cy), conic, ln_op);
        // Every block edge the design-space sweep uses, on every kernel
        // table the host can run.
        for block in [4, 8, 12, 16] {
            let grid = BlockGrid::new(block, 64, 64);
            let mut tracer = BlockTracer::new(grid);
            let mut blocks = Vec::new();
            for backend in dispatch::available() {
                let kernels = dispatch::kernel_set(backend).unwrap();
                tracer.trace(&test, None, MaskMode::Traverse, kernels, &mut blocks);
                for y in 0..64 {
                    for x in 0..64 {
                        if test.passes(x, y) {
                            assert!(
                                blocks.contains(&grid.block_of(x, y)),
                                "{backend} edge {block}: effective pixel ({x},{y}) missed"
                            );
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn compositing_color_is_convex_combination() {
    check("compositing_color_is_convex_combination", |rng| {
        let n = rng.gen_range(1usize..30);
        let alphas: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..0.99)).collect();
        // Blending layers of unit-red: final red ∈ [0, 1], T ∈ (0, 1].
        let st = composite(alphas.iter().map(|&a| (a, Vec3::new(1.0, 0.0, 0.0))));
        assert!(st.color.x >= -1e-6 && st.color.x <= 1.0 + 1e-5);
        assert!(st.transmittance > 0.0 && st.transmittance <= 1.0);
        // Conservation: blended mass + remaining T = 1.
        assert!((st.color.x + st.transmittance - 1.0).abs() < 1e-4);
    });
}

#[test]
fn blend_order_within_equal_alpha_layers_is_commutative_in_t() {
    check("blend_order_commutative_in_t", |rng| {
        let a1 = rng.gen_range(0.01f32..0.9);
        let a2 = rng.gen_range(0.01f32..0.9);
        // Transmittance is a product, hence order independent.
        let mut s1 = PixelState::new();
        s1.blend(a1, Vec3::ZERO);
        s1.blend(a2, Vec3::ZERO);
        let mut s2 = PixelState::new();
        s2.blend(a2, Vec3::ZERO);
        s2.blend(a1, Vec3::ZERO);
        assert!((s1.transmittance - s2.transmittance).abs() < 1e-6);
    });
}

#[test]
fn grouping_partitions_and_orders() {
    check("grouping_partitions_and_orders", |rng| {
        let n = rng.gen_range(1usize..3000);
        let depths: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0f32..50.0)).collect();
        let groups = group_by_depth(&depths, &GroupingConfig::for_count(depths.len()));
        let mut seen = vec![false; depths.len()];
        let mut prev_min = f32::NEG_INFINITY;
        for g in groups.iter() {
            assert!(g.members.len() <= gcc_core::MAX_GROUP_SIZE);
            assert!(g.depth_min >= prev_min - 1e-4);
            prev_min = g.depth_min;
            for &id in &g.members {
                assert!(!seen[id as usize], "duplicate member {id}");
                seen[id as usize] = true;
            }
        }
        let grouped = seen.iter().filter(|&&s| s).count();
        let culled = depths.iter().filter(|&&d| d < gcc_core::NEAR_DEPTH).count();
        assert_eq!(grouped + culled, depths.len());
    });
}

#[test]
// Reference value: libm `exp`.
#[allow(clippy::disallowed_methods)]
fn lut_exp_stays_within_one_percent() {
    check("lut_exp_stays_within_one_percent", |rng| {
        let x = rng.gen_range(-5.54f32..-0.001);
        let lut = gcc_math::PwlExp::new();
        let exact = x.exp();
        let approx = lut.eval(x);
        assert!((approx - exact).abs() / exact < 0.01);
    });
}
