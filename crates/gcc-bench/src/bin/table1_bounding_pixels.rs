//! Regenerates paper Table 1: average number of rendered (alpha-evaluated)
//! pixels per frame under AABB and OBB footprints versus the pixels that
//! actually receive a blend — the motivation for alpha-based boundary
//! identification.
//!
//! Paper shape: AABB ≈ 3× OBB, OBB ≈ 5–10× Rendered.
//!
//! Usage: `cargo run --release -p gcc-bench --bin table1_bounding_pixels`

use gcc_bench::{bench_scene, fmt_count, TablePrinter};
use gcc_render::{Renderer, StandardRenderer};
use gcc_scene::ScenePreset;

fn main() {
    let scenes = [
        ScenePreset::Train,
        ScenePreset::Truck,
        ScenePreset::Playroom,
        ScenePreset::Drjohnson,
    ];

    println!("=== Table 1: rendered pixels per frame by bounding method ===\n");
    let mut t = TablePrinter::new();
    t.row([
        "Scene",
        "AABB(px)",
        "OBB(px)",
        "Blended(px)",
        "AABB/OBB",
        "OBB/Blend",
    ]);
    for preset in scenes {
        let scene = bench_scene(preset);
        let cam = scene.default_camera();
        // The OBB column needs a render that walks OBBs: only the GSCore
        // footprint fills `pixels_tested_obb` (the AABB column is the
        // clipped-rectangle area under either footprint).
        let out = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
        let s = &out.stats;
        t.row([
            scene.name.clone(),
            fmt_count(s.pixels_tested_aabb),
            fmt_count(s.pixels_tested_obb),
            fmt_count(s.pixels_blended),
            format!(
                "{:.2}x",
                s.pixels_tested_aabb as f64 / s.pixels_tested_obb.max(1) as f64
            ),
            format!(
                "{:.2}x",
                s.pixels_tested_obb as f64 / s.pixels_blended.max(1) as f64
            ),
        ]);
    }
    t.print();
    println!("\n(paper, full scale: AABB 1161-1697M, OBB 333-460M, Rendered 31-73M)");
}
