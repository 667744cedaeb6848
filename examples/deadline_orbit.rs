//! Deadline-aware adaptive quality: the `gcc-lod` ladder climbing from a
//! cold start, stepping down under a deadline full quality cannot meet,
//! and climbing back in one orbit session.
//!
//! The service runs with `ServeConfig::lod` enabled, so every
//! deadline-carrying frame is dispatched through the quality ladder — and,
//! because it carries a deadline, renders on every core no other worker
//! is using. The rolling per-scene cost model prices a rung only from
//! frames it has *measured* at that thread count: a cold scene starts at
//! the miss-proof floor and probes one rung up per frame while the chosen
//! rung fits, so a relaxed deadline is back at exact rendering within a
//! handful of frames — the climb ends on `full`, which on two quiet cores
//! costs 18–20 ms for this scene and would fit a 33 ms deadline too. The
//! tight orbit therefore takes its deadline from what `full` was just
//! measured to cost (0.85×, which full quality cannot meet): the ladder
//! steps down to the best rung whose measured cost fits with the policy's
//! margin — `half_res` (reduced resolution + filtered upscale) when its
//! cost leaves the margin, `coarse` when it sits on the edge — and stays
//! there; once the deadline relaxes the ladder climbs straight back to
//! exact full-quality rendering, which it has already priced.
//!
//! Run with: `cargo run --release --example deadline_orbit`

use std::time::Duration;

use gcc_repro::lod::QualityLadder;
use gcc_repro::parallel::available_threads;
use gcc_repro::scene::ScenePreset;
use gcc_repro::serve::{
    LodDecision, LodPolicy, RenderService, SceneSource, ServeConfig, StreamConfig, StreamSpec,
};

/// Streams one orbit with the given per-frame deadline, prints every
/// ladder decision — chosen rung, threads, measured price vs actual cost,
/// budget — and returns the decisions.
fn orbit(
    service: &RenderService,
    ladder: &QualityLadder,
    frames: usize,
    deadline: Duration,
) -> Vec<LodDecision> {
    let session = service
        .session("lego", Default::default())
        .expect("lego is registered");
    let stream = session
        .stream_with(
            StreamSpec::orbit(frames),
            StreamConfig::default()
                .with_window(1)
                .with_deadline(deadline),
        )
        .expect("orbit stream opens");
    let seen = service.stats().lod.recent.len();
    for item in stream {
        item.expect("orbit frame");
    }
    // This stream is the service's only traffic: no other worker is
    // busy, so each of its frames is lent the whole host.
    let threads = available_threads();
    let decisions: Vec<LodDecision> = service.stats().lod.recent[seen..].to_vec();
    for (i, d) in decisions.iter().enumerate() {
        let predicted = if d.predicted_us == 0 {
            "  probe".to_string()
        } else {
            format!("{:>5.1} ms", d.predicted_us as f64 / 1e3)
        };
        println!(
            "  frame {i}: rung {:<8} on {threads} threads  predicted {predicted}  \
             actual {:>5.1} ms  budget {:>6.1} ms{}",
            ladder.rungs()[d.rung as usize].name,
            d.actual_us as f64 / 1e3,
            d.budget_us as f64 / 1e3,
            if d.missed { "  MISSED" } else { "" },
        );
    }
    decisions
}

fn main() {
    let policy = LodPolicy::default();
    let ladder = policy.ladder.clone();
    let service = RenderService::new(
        ServeConfig {
            workers: 2,
            lod: Some(policy),
            ..ServeConfig::default()
        },
        [(
            "lego".to_string(),
            SceneSource::Preset {
                preset: ScenePreset::Lego,
                scale: 0.5,
            },
        )],
    );

    // A deadline nothing can miss, on a cold scene: the first decision is
    // always the floor (nothing is priced yet), then one unmeasured rung
    // up per frame until the exact rung is reached and fits.
    println!("relaxed orbit, cold (deadline 10 s):");
    let relaxed = Duration::from_secs(10);
    let climb = orbit(&service, &ladder, 6, relaxed);
    let full = climb
        .iter()
        .filter(|d| d.rung == 0)
        .map(|d| Duration::from_micros(d.actual_us))
        .min()
        .expect("the relaxed orbit reached the exact rung");

    // A deadline full quality cannot meet: the ladder steps down to the
    // best rung whose measured cost fits with the policy's margin, and
    // every frame still arrives full-size, upscaled.
    let tight = full.mul_f64(0.85);
    println!(
        "\ntight orbit (deadline {:.1} ms = 0.85x the {:.1} ms a full frame takes):",
        tight.as_secs_f64() * 1e3,
        full.as_secs_f64() * 1e3,
    );
    orbit(&service, &ladder, 8, tight);

    // Headroom returns: the exact rung is already priced, so the ladder
    // is back on it at once.
    println!("\nrelaxed orbit (deadline 10 s):");
    orbit(&service, &ladder, 4, relaxed);

    let stats = service.shutdown();
    println!(
        "\nladder: {} frames dispatched {:?} across rungs, {} degraded, \
         {} step-downs, {} recoveries, {} deadline misses",
        stats.lod.ladder_frames(),
        stats.lod.frames_by_rung,
        stats.lod.degraded_frames,
        stats.lod.degradations,
        stats.lod.recoveries,
        stats.deadline_misses(),
    );
}
