//! Regenerates paper Fig. 2: (a) Gaussian counts per processing phase
//! (Total / In-Frustum / Rendered) with the unused-percentage labels, and
//! (b) average per-Gaussian loadings during GSCore-style tile-wise
//! rendering.
//!
//! Usage: `cargo run --release -p gcc-bench --bin fig02_gaussian_stats`
//! (`GCC_SCENE_SCALE` overrides the scene scale).

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

    println!("=== Figure 2(a): Gaussians per processing phase ===");
    println!("(paper: 64.0%-82.8% of preprocessed Gaussians unused)\n");
    let mut ta = TablePrinter::new();
    ta.row([
        "Scene",
        "Total",
        "InFrustum",
        "Rendered",
        "Unused%",
        "Paper%",
    ]);
    let paper_unused = [67.1, 64.0, 81.4, 82.8];

    let mut tb = TablePrinter::new();
    tb.row(["Scene", "TileLoads", "UniqueLoaded", "AvgLoads", "Paper"]);
    let paper_loads = [3.94, 3.17, 5.63, 6.45];

    for (i, preset) in scenes.iter().enumerate() {
        let scene = bench_scene(*preset);
        let cam = scene.default_camera();
        let out = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
        let s = &out.stats;
        ta.row([
            scene.name.clone(),
            fmt_count(s.total_gaussians),
            fmt_count(s.projected),
            fmt_count(s.rendered),
            format!("{:.1}%", 100.0 * s.unused_fraction()),
            format!("{:.1}%", paper_unused[i]),
        ]);
        tb.row([
            scene.name.clone(),
            fmt_count(s.tile_loads),
            fmt_count(s.unique_loaded),
            format!("{:.2}", s.avg_loads_per_gaussian()),
            format!("{:.2}", paper_loads[i]),
        ]);
    }
    ta.print();
    println!("\n=== Figure 2(b): average per-Gaussian loadings in rendering ===\n");
    tb.print();
}
