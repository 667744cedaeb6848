//! Criterion microbenches of the pipeline's core kernels: SH evaluation,
//! EWA projection, alpha arithmetic (exact vs LUT) and Algorithm 1 block
//! traversal vs a naive footprint scan.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gcc_core::alpha::{gaussian_alpha, ExpMode};
use gcc_core::boundary::{BlockGrid, BlockTracer, MaskMode, PixelTracer};
use gcc_core::bounds::{BoundingLaw, EffectiveTest, PixelRect};
use gcc_core::projection::project_gaussian;
use gcc_core::{sh, Camera, Gaussian3D};
use gcc_math::{PwlExp, SymMat2, Vec2, Vec3};

fn bench_sh(c: &mut Criterion) {
    let mut coeffs = [0.0f32; 48];
    for (i, v) in coeffs.iter_mut().enumerate() {
        *v = (i as f32 * 0.37).sin() * 0.3;
    }
    let dir = Vec3::new(0.3, -0.5, 0.81).normalized();
    c.bench_function("sh_eval_rgb_16coeff", |b| {
        b.iter(|| sh::eval_color(black_box(&coeffs), black_box(dir)))
    });
}

fn bench_projection(c: &mut Criterion) {
    let cam = Camera::look_at(
        Vec3::new(0.0, 0.0, -5.0),
        Vec3::ZERO,
        Vec3::new(0.0, 1.0, 0.0),
        60.0,
        640,
        360,
    );
    let g = Gaussian3D::new(
        Vec3::new(0.4, -0.2, 0.3),
        Vec3::new(0.2, 0.05, 0.01),
        gcc_math::Quat::from_axis_angle(Vec3::new(1.0, 2.0, 0.5), 0.8),
        0.7,
        [0.0; 48],
    );
    c.bench_function("ewa_projection_full", |b| {
        b.iter(|| project_gaussian(black_box(&g), 0, black_box(&cam), BoundingLaw::OmegaSigma))
    });
}

fn bench_exp(c: &mut Criterion) {
    let lut = PwlExp::new();
    c.bench_function("exp_lut_16seg", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..64 {
                acc += lut.eval(black_box(-5.0 + i as f32 * 0.07));
            }
            acc
        })
    });
    c.bench_function("exp_exact_f32", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..64 {
                acc += black_box(-5.0f32 + i as f32 * 0.07).exp();
            }
            acc
        })
    });
}

fn make_projected() -> gcc_core::ProjectedGaussian {
    let cov = SymMat2::new(25.0, 6.0, 12.0);
    gcc_core::ProjectedGaussian {
        id: 0,
        mean2d: Vec2::new(64.0, 64.0),
        cov2d: cov,
        conic: cov.inverse().unwrap(),
        depth: 2.0,
        opacity: 0.6,
        ln_opacity: 0.6f32.ln(),
        radius: 18.0,
        color: Vec3::new(1.0, 0.5, 0.2),
    }
}

fn bench_alpha_modes(c: &mut Criterion) {
    let p = make_projected();
    let exact = ExpMode::Exact;
    let lut = ExpMode::lut();
    c.bench_function("alpha_block_64px_exact", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for y in 56..64 {
                for x in 56..64 {
                    acc += gaussian_alpha(black_box(&p), x, y, &exact);
                }
            }
            acc
        })
    });
    c.bench_function("alpha_block_64px_lut", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for y in 56..64 {
                for x in 56..64 {
                    acc += gaussian_alpha(black_box(&p), x, y, &lut);
                }
            }
            acc
        })
    });
}

fn bench_boundary(c: &mut Criterion) {
    let p = make_projected();
    let test = EffectiveTest::new(p.mean2d, p.conic, p.opacity);

    let mut pixel_tracer = PixelTracer::new(128, 128);
    let mut out_px = Vec::new();
    c.bench_function("boundary_alg1_pixel_bfs", |b| {
        b.iter(|| pixel_tracer.trace(black_box(&test), &mut out_px))
    });

    let grid = BlockGrid::new(8, 128, 128);
    let mut block_tracer = BlockTracer::new(grid);
    let kernels = gcc_core::dispatch::active();
    let mut out_blocks = Vec::new();
    c.bench_function("boundary_alg1_block8_bfs", |b| {
        b.iter(|| {
            block_tracer.trace(
                black_box(&test),
                None,
                MaskMode::SkipAndBlock,
                kernels,
                &mut out_blocks,
            )
        })
    });

    // Baseline: exhaustive AABB scan of the 3σ footprint.
    let rect = PixelRect::from_circle(p.mean2d, 3.0 * 25.0f32.sqrt(), 128, 128);
    c.bench_function("boundary_naive_aabb_scan", |b| {
        b.iter(|| test.count_in_rect(black_box(rect)))
    });
}

criterion_group!(
    kernels,
    bench_sh,
    bench_projection,
    bench_exp,
    bench_alpha_modes,
    bench_boundary
);
criterion_main!(kernels);
