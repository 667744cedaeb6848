//! Regenerates paper Fig. 4: the pixel regions covered by AABB and OBB
//! bounding under the 3σ rule versus the effective (α ≥ 1/255) region, for
//! an anisotropic Gaussian at opacity ω = 1 and ω = 0.01.
//!
//! Paper shape: at ω = 1 the effective ellipse slightly exceeds 3σ; at
//! ω = 0.01 it collapses to a small core while AABB/OBB stay unchanged.
//!
//! Usage: `cargo run --release -p gcc-bench --bin fig04_regions`

use gcc_bench::TablePrinter;
use gcc_core::bounds::{bounding_radius, BoundingLaw, EffectiveTest, Obb, PixelRect};
use gcc_math::{SymMat2, Vec2};

const W: u32 = 96;
const H: u32 = 48;

fn main() {
    // A diagonal anisotropic splat, as drawn in the paper's figure.
    let cov = SymMat2::new(60.0, 35.0, 32.0);
    let conic = cov.inverse().expect("positive definite");
    let center = Vec2::new(W as f32 / 2.0, H as f32 / 2.0);
    let (l1, _) = cov.eigenvalues();

    println!("=== Figure 4: bounding regions vs effective region ===\n");
    let mut t = TablePrinter::new();
    t.row(["Opacity", "AABB(px)", "OBB(px)", "Effective(px)", "OBB/Eff"]);
    for &opacity in &[1.0f32, 0.01] {
        let ln_opacity = gcc_math::det_ln(opacity);
        let r = bounding_radius(BoundingLaw::ThreeSigma, l1, ln_opacity);
        let aabb = PixelRect::from_circle(center, r, W, H);
        let obb =
            Obb::from_cov(center, cov, BoundingLaw::ThreeSigma, ln_opacity).expect("valid obb");
        let eff = EffectiveTest::new(center, conic, ln_opacity);
        let full = PixelRect {
            x0: 0,
            y0: 0,
            x1: W as i32,
            y1: H as i32,
        };
        let aabb_px = aabb.area();
        let obb_px = obb.pixel_count(W, H);
        let eff_px = eff.count_in_rect(full);
        t.row([
            format!("{opacity}"),
            format!("{aabb_px}"),
            format!("{obb_px}"),
            format!("{eff_px}"),
            format!("{:.2}x", obb_px as f64 / eff_px.max(1) as f64),
        ]);
        println!("omega = {opacity}:");
        render_ascii(&aabb, &obb, &eff);
        println!();
    }
    t.print();
    println!("\nLegend: '.' AABB only, 'o' OBB, '#' effective (alpha >= 1/255)");
}

fn render_ascii(aabb: &PixelRect, obb: &Obb, eff: &EffectiveTest) {
    for y in 0..H as i32 {
        let mut line = String::with_capacity(W as usize);
        for x in 0..W as i32 {
            let in_aabb = x >= aabb.x0 && x < aabb.x1 && y >= aabb.y0 && y < aabb.y1;
            let ch = if eff.passes(x, y) {
                '#'
            } else if obb.contains(x, y) {
                'o'
            } else if in_aabb {
                '.'
            } else {
                ' '
            };
            line.push(ch);
        }
        println!("  {line}");
    }
}
