//! Side-by-side comparison of the three dataflows on one scene: the GPU
//! reference, the GSCore-style tile pipeline, and the GCC Gaussian-wise
//! pipeline — verifying they draw the same picture while doing wildly
//! different amounts of work.
//!
//! Run with: `cargo run --release --example dataflow_compare`

use gcc_render::quality::psnr;
use gcc_render::{GaussianWiseRenderer, Renderer, StandardRenderer};
use gcc_scene::{SceneConfig, ScenePreset};

fn main() {
    let scene = ScenePreset::Train.build(&SceneConfig::with_scale(0.5));
    let cam = scene.default_camera();
    println!("scene '{}': {} Gaussians\n", scene.name, scene.len());

    // All three dataflows behind the same `Renderer` interface.
    let gpu = StandardRenderer::default().render_frame(&scene.gaussians, &cam);
    let gscore = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
    let gcc = GaussianWiseRenderer::gcc_hardware().render_frame(&scene.gaussians, &cam);

    println!("image agreement:");
    println!(
        "  GSCore vs GPU: {:.1} dB PSNR",
        psnr(&gscore.image, &gpu.image)
    );
    println!(
        "  GCC    vs GPU: {:.1} dB PSNR",
        psnr(&gcc.image, &gpu.image)
    );

    println!("\nwork done (standard tile-wise pipeline):");
    let s = &gscore.stats;
    println!("  projected Gaussians    : {}", s.projected);
    println!("  KV pairs               : {}", s.kv_pairs);
    println!(
        "  tile loads             : {} ({:.2}x per Gaussian)",
        s.tile_loads,
        s.avg_loads_per_gaussian()
    );
    println!("  alpha evaluations      : {}", s.pixels_tested);

    println!("\nwork done (GCC Gaussian-wise pipeline):");
    let g = &gcc.stats;
    println!("  geometry loads         : {}", g.geometry_loads);
    println!("  SH loads (conditional) : {}", g.sh_loads);
    println!(
        "  groups skipped         : {} of {}",
        g.groups_skipped, g.groups_total
    );
    println!("  blocks dispatched      : {}", g.blocks_dispatched);
    println!("  live alpha evaluations : {}", g.alpha_lane_evals);

    println!(
        "\nSH-load reduction vs standard preprocessing: {:.1}x",
        s.projected as f64 / g.sh_loads.max(1) as f64
    );
}
