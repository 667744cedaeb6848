//! Regenerates paper Fig. 6: the Gaussian-loading overhead of Compatibility
//! Mode as the sub-view size shrinks (1024 → 16): rendering invocations
//! (per-sub-view duplicates counted) versus unique rendered Gaussians.
//!
//! Paper shape: overhead is marginal for sub-views ≥ 128×128 and grows
//! steeply below. At the repro's half resolution the equivalent operating
//! point is 64×64; the sweep prints the full-scale-equivalent size too.
//!
//! Usage: `cargo run --release -p gcc-bench --bin fig06_subview_sweep`

use gcc_bench::{bench_scene, fmt_count, TablePrinter};
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::{GaussianWiseRenderer, Renderer};
use gcc_scene::ScenePreset;

fn main() {
    println!("=== Figure 6: sub-view size vs Gaussian-loading overhead ===\n");
    for preset in [ScenePreset::Lego, ScenePreset::Train] {
        let scene = bench_scene(preset);
        let cam = scene.default_camera();
        println!("--- {} ({}x{}) ---", scene.name, cam.width, cam.height);
        let mut t = TablePrinter::new();
        t.row([
            "SubView",
            "FullScaleEq",
            "Invocations",
            "RenderedUnique",
            "Overhead",
            "GeoLoads",
        ]);
        for &sub in &[512u32, 256, 128, 64, 32, 16, 8] {
            let cfg = GaussianWiseConfig {
                subview: (sub < cam.width.max(cam.height)).then_some(sub),
                ..GaussianWiseConfig::default()
            };
            let out = GaussianWiseRenderer::new(cfg).render_frame(&scene.gaussians, &cam);
            let s = &out.stats;
            t.row([
                format!("{sub}"),
                format!("{}", sub * 2),
                fmt_count(s.render_invocations),
                fmt_count(s.rendered),
                format!(
                    "{:.2}x",
                    s.render_invocations as f64 / s.rendered.max(1) as f64
                ),
                fmt_count(s.geometry_loads),
            ]);
        }
        t.print();
        println!();
    }
    println!("(paper: invocations stay near unique count for sub-views >= 128 full-scale)");
}
