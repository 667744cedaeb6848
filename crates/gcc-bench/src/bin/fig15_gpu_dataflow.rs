//! Regenerates paper Fig. 15 (§6 Discussion): per-frame execution-time
//! breakdown of the standard dataflow versus the GCC dataflow on GPUs
//! (RTX 3090, Jetson Xavier) and on the accelerators, normalized to the
//! standard dataflow within each platform.
//!
//! Paper findings encoded/measured here:
//! 1. On GPUs, rendering dominates, so GCC's dataflow gains little —
//!    and its Gaussian-parallel blending (atomics) *increases* render
//!    time.
//! 2. On small-SRAM accelerators, data movement dominates and the GCC
//!    dataflow wins decisively.
//!
//! Usage: `cargo run --release -p gcc-bench --bin fig15_gpu_dataflow`

use gcc_bench::{bench_scene, TablePrinter};
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::{GaussianWiseRenderer, Renderer, StandardRenderer};
use gcc_scene::ScenePreset;
use gcc_sim::gcc::{simulate_gcc, GccSimConfig};
use gcc_sim::gpu::{gcc_dataflow_cost, standard_dataflow_cost, GpuPlatform};
use gcc_sim::gscore::{simulate_gscore, GscoreConfig};

fn main() {
    let scenes = [
        ScenePreset::Palace,
        ScenePreset::Train,
        ScenePreset::Drjohnson,
    ];
    let gpus = [GpuPlatform::rtx3090(), GpuPlatform::jetson_xavier()];

    println!("=== Figure 15: dataflow time breakdown, normalized per platform ===\n");
    let mut t = TablePrinter::new();
    t.row([
        "Platform", "Scene", "Dataflow", "Pre%", "Dup%", "Sort%", "Render%", "Total",
    ]);

    for preset in scenes {
        let scene = bench_scene(preset);
        let cam = scene.default_camera();
        let std_out = StandardRenderer::gscore().render_frame(&scene.gaussians, &cam);
        let gw_cfg = GaussianWiseConfig {
            subview: Some(64),
            ..GaussianWiseConfig::default()
        };
        let gw_out = GaussianWiseRenderer::new(gw_cfg).render_frame(&scene.gaussians, &cam);

        for gpu in &gpus {
            let std_b = standard_dataflow_cost(&std_out.stats, gpu);
            let gcc_b = gcc_dataflow_cost(&gw_out.stats, gpu);
            let base = std_b.total_ms();
            for (name, b) in [("standard", &std_b), ("GCC", &gcc_b)] {
                t.row([
                    gpu.name.clone(),
                    scene.name.clone(),
                    name.to_string(),
                    format!("{:.0}%", 100.0 * b.preprocess_ms / base),
                    format!("{:.0}%", 100.0 * b.duplicate_ms / base),
                    format!("{:.0}%", 100.0 * b.sort_ms / base),
                    format!("{:.0}%", 100.0 * b.render_ms / base),
                    format!("{:.2} ({:.0} FPS)", b.total_ms() / base, b.fps()),
                ]);
            }
        }

        // Accelerator column: GSCore (standard) vs GCC, from the cycle
        // models, sliced into the same categories.
        let (gs, _) = simulate_gscore(
            &scene.gaussians,
            &cam,
            &GscoreConfig::default(),
            &scene.name,
        );
        let (gc, _) = simulate_gcc(
            &scene.gaussians,
            &cam,
            &GccSimConfig::default(),
            &scene.name,
        );
        let base = gs.total_cycles;
        let gs_pre = gs.phases[0].cycles();
        let gs_sort = gs.phases[1].cycles();
        let gs_render = gs.phases[2].cycles();
        t.row([
            "GSCore/GCC".to_string(),
            scene.name.clone(),
            "standard".to_string(),
            format!("{:.0}%", 100.0 * gs_pre / base),
            "0%".to_string(),
            format!("{:.0}%", 100.0 * gs_sort / base),
            format!("{:.0}%", 100.0 * gs_render / base),
            format!("1.00 ({:.0} FPS)", gs.fps()),
        ]);
        let gc_group = gc.phases[0].cycles();
        let gc_render = gc.phases[1].cycles();
        t.row([
            "GSCore/GCC".to_string(),
            scene.name.clone(),
            "GCC".to_string(),
            format!("{:.0}%", 100.0 * gc_group / base),
            "0%".to_string(),
            "0%".to_string(),
            format!("{:.0}%", 100.0 * gc_render / base),
            format!("{:.2} ({:.0} FPS)", gc.total_cycles / base, gc.fps()),
        ]);
    }
    t.print();
    println!("\n(paper: on GPUs the GCC dataflow helps little — atomics inflate rendering —");
    println!(" while on the accelerator it cuts total time by 3-6x)");
}
