//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same tables for the driver; `tests/smoke.rs` asserts the
//! two agree. `README.md` defines every metric and says which
//! end-to-end metric each per-layer metric should move.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A workload's name and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name on the command line and in records.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "render_orbit",
        why: "direct single-thread renders, both blend loops: core/parallel/render do all the work, serve/wire/lod none",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "in-process 2-worker service under Interactive + Bulk contention: scheduler, batching and the state mutex, no wire",
    },
    WorkloadSpec {
        name: "wire_loopback",
        why: "the serve_mixed script through a shard proxy over two 1-worker wire servers: codec, transport, proxy hop, affinity",
    },
    WorkloadSpec {
        name: "deadline_lod",
        why: "30 Hz paced stream under a 33 ms deadline: the only workload where the LOD ladder decides quality and misses",
    },
];

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which the metric
    /// may get worse. Per-layer: `None`.
    pub bound: Option<f64>,
    /// Per-layer: a count that must repeat bit-for-bit for one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The bounded end-to-end metrics (`end_to_end` of `BENCHMARK.json`):
/// the ones of the issue's eight whose run-to-run range on this machine
/// class stays within half a bound of at most 0.10 (0.25 for `setup_s`,
/// which the driver requires here) on all four workloads. The other five
/// are [`UNBOUNDED`].
pub const END_TO_END: [MetricSpec; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("verified_share", "share", Higher, 0.01),
    e2e("delivered_ssim_mean", "ssim", Higher, 0.02),
];

/// The five of the issue's eight end-to-end metrics that could not hold
/// a bound of 0.10 on this machine class (README, "Calibration") and so
/// live in the per-layer list under their own names, as the issue
/// prescribes. Every end-to-end run still measures them over the whole
/// measured phase and prints them in its record line; a traced run
/// prints those of the named workload's untraced replay.
pub const UNBOUNDED: [&str; 5] = [
    "frames_per_s",
    "frame_ms_p50",
    "frame_ms_p90",
    "deadline_met_share",
    "peak_rss_mb",
];

/// The per-layer metrics of the traced pass (prefix = crate; the first
/// five are [`UNBOUNDED`]).
pub const PER_LAYER: [MetricSpec; 102] = [
    layer("frames_per_s", "1/s", Higher),
    layer("frame_ms_p50", "ms", Lower),
    layer("frame_ms_p90", "ms", Lower),
    layer("deadline_met_share", "share", Higher),
    layer("peak_rss_mb", "MiB", Lower),
    layer("gcc-math.det_exp_ns", "ns", Lower),
    layer("gcc-core.depth_keys_ns_per_elem", "ns", Lower),
    layer("gcc-core.alpha_powers_ns_per_elem", "ns", Lower),
    layer("gcc-core.sh_colors_ns_per_elem", "ns", Lower),
    layer("gcc-core.simd_speedup_alpha", "ratio", Higher),
    layer("gcc-core.sort_group_ns_per_elem", "ns", Lower),
    layer("gcc-parallel.radix_ns_per_key_t1", "ns", Lower),
    layer("gcc-parallel.radix_speedup_t2", "ratio", Higher),
    layer("gcc-parallel.frame_speedup_t2", "ratio", Higher),
    layer("gcc-render.project_ms", "ms", Lower),
    layer("gcc-render.shade_ms", "ms", Lower),
    layer("gcc-render.depth_order_ms", "ms", Lower),
    layer("gcc-render.footprint_ms", "ms", Lower),
    layer("gcc-render.bin_ms", "ms", Lower),
    layer("gcc-render.blend_resolve_ms", "ms", Lower),
    layer("gcc-render.ns_per_blend", "ns", Lower),
    layer("gcc-render.upscale_ms", "ms", Lower),
    layer("gcc-render.fresh_scratch_penalty_ms", "ms", Lower),
    layer("gcc-render.roi_quarter.frame_ms_p50", "ms", Lower),
    layer("gcc-render.reference.frame_ms_p50", "ms", Lower),
    layer("gcc-render.standard.frame_ms_p50", "ms", Lower),
    layer("gcc-render.gscore.frame_ms_p50", "ms", Lower),
    layer("gcc-render.gaussian_wise.frame_ms_p50", "ms", Lower),
    layer("gcc-render.gcc_hardware.frame_ms_p50", "ms", Lower),
    exact("gcc-render.projected_per_frame", "count", Lower),
    exact("gcc-render.pixels_blended_per_frame", "count", Lower),
    exact("gcc-render.kv_pairs_per_frame", "count", Lower),
    exact("gcc-render.unused_fraction", "share", Lower),
    exact("gcc-render.geometry_load_fraction", "share", Lower),
    exact("gcc-render.groups_skipped_share", "share", Higher),
    exact("gcc-render.blocks_masked_skip_share", "share", Higher),
    layer("gcc-scene.build_preset_ms", "ms", Lower),
    layer("gcc-scene.load_binary_ms", "ms", Lower),
    layer("gcc-scene.load_json_ms", "ms", Lower),
    layer("gcc-scene.write_binary_ms", "ms", Lower),
    layer("gcc-scene.resolve_view_us", "us", Lower),
    exact("gcc-scene.scene_bytes", "bytes", Lower),
    layer("gcc-serve.overhead_ms_p50", "ms", Lower),
    layer("gcc-serve.interactive_ms_p99", "ms", Lower),
    layer("gcc-serve.first_frame_ms_p50", "ms", Lower),
    layer("gcc-serve.bulk_gap_ms_p50", "ms", Lower),
    layer("gcc-serve.bulk_frames_per_s", "1/s", Higher),
    layer("gcc-serve.open_us_p50", "us", Lower),
    layer("gcc-serve.stats_us_p50", "us", Lower),
    layer("gcc-serve.frames_per_batch", "ratio", Higher),
    layer("gcc-serve.max_queue_depth", "count", Lower),
    layer("gcc-serve.server_latency_p50_ms", "ms", Lower),
    layer("gcc-serve.scaling_w2", "ratio", Higher),
    layer("gcc-serve.hit_rate", "share", Higher),
    layer("gcc-serve.cold_first_frame_ms_p50", "ms", Lower),
    layer("gcc-serve.evictions", "count", Lower),
    layer("gcc-serve.cache_insert_us", "us", Lower),
    layer("gcc-serve.rejected", "count", Lower),
    layer("gcc-serve.respawns", "count", Lower),
    layer("gcc-wire.encode_frame_ms", "ms", Lower),
    layer("gcc-wire.decode_frame_ms", "ms", Lower),
    exact("gcc-wire.frame_bytes", "bytes", Lower),
    layer("gcc-wire.encode_request_us", "us", Lower),
    layer("gcc-wire.decode_request_us", "us", Lower),
    layer("gcc-wire.encode_stats_us", "us", Lower),
    layer("gcc-wire.ping_us_p50_direct", "us", Lower),
    layer("gcc-wire.ping_us_p50_proxy", "us", Lower),
    layer("gcc-wire.open_ms_p50", "ms", Lower),
    layer("gcc-wire.stats_rtt_ms_p50", "ms", Lower),
    layer("gcc-wire.direct_overhead_ms_p50", "ms", Lower),
    layer("gcc-wire.proxy_hop_ms_p50", "ms", Lower),
    exact("gcc-wire.ring_max_share", "share", Lower),
    layer("gcc-wire.rejected", "count", Lower),
    layer("gcc-wire.transport_errors", "count", Lower),
    layer("gcc-lod.build_hierarchy_ms", "ms", Lower),
    layer("gcc-lod.select_rung_us", "us", Lower),
    layer("gcc-lod.rung0_ms_p50", "ms", Lower),
    layer("gcc-lod.rung1_ms_p50", "ms", Lower),
    layer("gcc-lod.rung2_ms_p50", "ms", Lower),
    layer("gcc-lod.rung3_ms_p50", "ms", Lower),
    exact("gcc-lod.rung1_ssim", "ssim", Higher),
    exact("gcc-lod.rung2_ssim", "ssim", Higher),
    exact("gcc-lod.rung3_ssim", "ssim", Higher),
    layer("gcc-lod.rung0_share", "share", Higher),
    layer("gcc-lod.rung1_share", "share", Higher),
    layer("gcc-lod.rung2_share", "share", Lower),
    layer("gcc-lod.rung3_share", "share", Lower),
    layer("gcc-lod.predict_abs_err_ms_p50", "ms", Lower),
    layer("gcc-lod.degradations", "count", Lower),
    layer("gcc-lod.recoveries", "count", Higher),
    layer("gcc-lod.oracle_ssim", "ssim", Higher),
    layer("gcc-lod.quality_vs_oracle", "ratio", Higher),
    layer("gcc-sim.report_us_per_frame", "us", Lower),
    layer("gcc-sim.simulate_ms_per_frame", "ms", Lower),
    exact("gcc-sim.speedup_vs_gscore_geomean", "ratio", Higher),
    exact("gcc-sim.energy_ratio_vs_gscore_geomean", "ratio", Higher),
    exact("gcc-sim.gcc_fps_geomean", "1/s", Higher),
    exact("gcc-sim.dram_traffic_ratio_geomean", "ratio", Lower),
    layer("loadgen.late_tick_share", "share", Lower),
    layer("loadgen.cpu_ms_per_frame", "ms", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
];

/// Measured values, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The eight metrics an end-to-end run measures: the bounded ones, then
/// the [`UNBOUNDED`] ones as the per-layer list states them.
pub fn run_metrics() -> Vec<MetricSpec> {
    let unbounded = UNBOUNDED.iter().map(|name| {
        *PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .expect("unbounded metrics are per-layer metrics")
    });
    END_TO_END.iter().copied().chain(unbounded).collect()
}

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `--list` output: every workload and metric name.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    for (title, metrics) in [
        ("end-to-end metrics", &END_TO_END[..]),
        ("per-layer metrics", &PER_LAYER[..]),
    ] {
        out.push_str(&format!("{title}:\n"));
        for m in metrics {
            let tail = match (m.bound, m.exact) {
                (Some(b), _) => format!("  bound {b}"),
                (None, true) => "  exact".to_string(),
                (None, false) => String::new(),
            };
            out.push_str(&format!(
                "  {:<44} {:<6} {} is better{tail}\n",
                m.name,
                m.unit,
                m.better.name()
            ));
        }
    }
    out
}

/// Renders `values` for `metrics` as the JSON object
/// `{"name": {"value": v, "unit": "u"}, …}`.
///
/// # Panics
///
/// Panics when a metric of the table was not measured or is not finite —
/// a harness bug, since every run reports every metric of its pass.
pub fn metrics_json(metrics: &[MetricSpec], values: &Values) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn metrics_json_lists_every_metric_with_all_digits() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.0 / 3.0)).collect();
        let json = metrics_json(&END_TO_END, &values);
        assert!(json.contains("\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"value\"").count(), END_TO_END.len());
    }
}
