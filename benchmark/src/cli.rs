//! The command line: `benchmark [run] --workload <name>|all --seed <u64>
//! --seconds <n> --trace <0|1>`, `--smoke`, `--list`, `--calibrate N`.

use std::process::{Command, ExitCode};
use std::time::Duration;

use gcc_scene::json::{self, Value};

use crate::harness::{run_end_to_end, Record, RunPlan};
use crate::layers::run_traced;
use crate::spec::{self, MetricSpec, Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};

const USAGE: &str = "\
usage: benchmark [run] --workload <name>|all [--seed <u64>] [--seconds <n>]
                 [--trace <0|1>] [--trace-out <file>] [--smoke]
       benchmark --list
       benchmark --calibrate <N>

  --workload   render_orbit | serve_mixed | wire_loopback | deadline_lod | all
               (all re-executes this binary once per workload, in sequence;
               end-to-end pass only)
  --seed       script seed (default 12)
  --seconds    measured-phase length (default 20; 3 s of set-ups and a 3 s
               warm-up come before it)
  --trace      0 = end-to-end pass (default), 1 = traced per-layer pass
  --trace-out  write the traced pass's spans here as JSON lines
  --smoke      2 s phases, 0.5 s of set-ups and warm-up: same schema and
               verification
  --list       print every workload and metric name
  --calibrate  run N (>= 5) full sets back to back, print per workload x
               metric the values, their median and (max - min) / median, and
               fail when that exceeds half the metric's bound

The last line of a run is the result: one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the record:
the same metrics with sample counts, plus the environment of the run.";

/// Default script seed.
const DEFAULT_SEED: u64 = 12;
/// Default measured-phase length, seconds: the longest all four
/// workloads can share under the driver's cap (92 runs and two builds in
/// 3420 s, a run being prepare + 3 s of set-ups + 3 s warm-up + this).
const DEFAULT_SECONDS: f64 = 20.0;
/// Untimed warm-up before the measured phase.
const WARM_UP: Duration = Duration::from_secs(3);
/// How long the timed set-up is repeated for.
const SET_UP: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        trace_out: Option<String>,
        smoke: bool,
    },
    List,
    Calibrate(usize),
    Help,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = args.iter().peekable();
    if it.peek().is_some_and(|a| *a == "run") {
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Mode::Help),
            "--list" => return Ok(Mode::List),
            "--calibrate" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--calibrate: {e}"))?;
                if n < 5 {
                    return Err("--calibrate needs at least 5 sets".into());
                }
                return Ok(Mode::Calibrate(n));
            }
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} outside [0.5, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value("a file")?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload} (see --list)"));
    }
    if workload == "all" && trace {
        // Every traced run prints every per-layer metric; four of them
        // in a row would repeat one pass four times.
        return Err("--trace 1 takes one workload, not all".into());
    }
    let seconds = seconds.unwrap_or(if smoke { 2.0 } else { DEFAULT_SECONDS });
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
        smoke,
    })
}

/// The binary's entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Mode::List) => {
            print!("{}", spec::list());
            ExitCode::SUCCESS
        }
        Ok(Mode::Calibrate(sets)) => calibrate(sets),
        Ok(Mode::Run { workload, .. }) if workload == "all" => run_all(&args),
        Ok(Mode::Run {
            workload,
            seed,
            seconds,
            trace,
            trace_out,
            smoke,
        }) => {
            let plan = RunPlan {
                seed,
                measured: Duration::from_secs_f64(seconds),
                warm_up: if smoke { WARM_UP / 6 } else { WARM_UP },
                set_up: if smoke { SET_UP / 6 } else { SET_UP },
            };
            // The record line of an end-to-end run carries all eight
            // metrics of the pass, the result line the bounded ones.
            let (record, recorded, metrics) = if trace {
                let out = trace_out.as_deref().map(std::path::Path::new);
                let record = run_traced(&workload, plan, out);
                (record, PER_LAYER.to_vec(), &PER_LAYER[..])
            } else {
                let record = run_end_to_end(&workload, plan);
                (record, spec::run_metrics(), &END_TO_END[..])
            };
            println!("{}", record_json(&record, &recorded, seed, trace));
            println!("{}", result_json(&record, metrics));
            if record.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{}: {} of {} frames failed verification",
                    record.workload, record.failed, record.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("benchmark: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The contract line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(record: &Record, metrics: &[MetricSpec]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        record.failed == 0,
        record.attempted.max(1),
        record.failed,
        spec::metrics_json(metrics, &record.values)
    )
}

/// How many samples stand behind a metric's value.
fn sample_count(metric: &str, record: &Record) -> u64 {
    match metric {
        "frame_ms_p50" | "frame_ms_p90" => record.samples as u64,
        "frames_per_s" | "deadline_met_share" | "verified_share" | "delivered_ssim_mean" => {
            record.attempted
        }
        "setup_s" => record.setups as u64,
        _ => 1,
    }
}

/// The record line: every metric with unit and sample count, plus the
/// environment the run was taken in.
fn record_json(record: &Record, metrics: &[MetricSpec], seed: u64, traced: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name,
                record.values[m.name],
                m.unit,
                sample_count(m.name, record)
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"record\": \"gcc-benchmark\", \"workload\": \"{}\", \"pass\": \"{}\", \"seed\": {seed}, \
         \"script_hash\": \"{:016x}\", \"measured_s\": {}, \"nproc\": {nproc}, \"backend\": \"{}\", \
         \"workers\": {}, \"client_threads\": {}, \"wire_version\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}",
        record.workload,
        if traced { "traced" } else { "end_to_end" },
        record.script_hash,
        record.measured_s,
        gcc_core::dispatch::active_backend().name(),
        record.threads.0,
        record.threads.1,
        gcc_wire::WIRE_VERSION,
        record.attempted,
        record.failed,
        fields.join(", ")
    )
}

/// Re-executes this binary with `args`, `--workload` replaced by `name`.
fn spawn_self(args: &[String], name: &str) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("path of this binary"));
    let mut skip = false;
    for arg in args {
        if skip {
            skip = false;
        } else if arg == "--workload" {
            skip = true;
        } else {
            command.arg(arg);
        }
    }
    command.args(["--workload", name]);
    command
}

/// `--workload all`: one child process per workload, in sequence, so
/// each workload's peak RSS is its own.
fn run_all(args: &[String]) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        let status = spawn_self(args, w.name)
            .status()
            .expect("re-execute the benchmark binary");
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// The values of `metrics` in the `"metrics"` table of one output line
/// (the record line and the result line both carry one).
fn parse_metrics(line: &str, metrics: &[MetricSpec]) -> Result<Values, String> {
    let doc = json::parse(line)?;
    let table = doc.get("metrics").ok_or("no metrics in the line")?;
    metrics
        .iter()
        .map(|m| {
            let number = match table.get(m.name).and_then(|v| v.get("value")) {
                Some(Value::Num(token)) => token.parse::<f64>().map_err(|e| e.to_string()),
                _ => Err("missing".to_string()),
            };
            number
                .map(|v| (m.name, v))
                .map_err(|e| format!("metric {}: {e}", m.name))
        })
        .collect()
}

/// Runs one pass of workload `name` in a child process and returns the
/// values of `metrics` from its record line (the last line but one).
fn run_for_values(name: &str, trace: bool, metrics: &[MetricSpec]) -> Result<Values, String> {
    let args = ["--trace".to_string(), u8::from(trace).to_string()];
    let output = spawn_self(&args, name)
        .output()
        .map_err(|e| format!("re-execute the benchmark binary: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or("the run printed no record line")?;
    parse_metrics(record, metrics)
}

/// `--calibrate N`: N full sets back to back; per workload × metric of
/// the end-to-end pass the N values, their median, (max − min) ÷ median
/// and, beside it, the quartile distance ÷ median the driver computes.
/// Fails when the range of a bounded metric exceeds half its bound or an
/// *exact* per-layer count differs between sets.
fn calibrate(sets: usize) -> ExitCode {
    let run_metrics = spec::run_metrics();
    let mut runs: Vec<Vec<Values>> = vec![Vec::new(); WORKLOADS.len()];
    let mut traced: Vec<Values> = Vec::new();
    for set in 0..sets {
        for (w, spec) in WORKLOADS.iter().enumerate() {
            eprintln!("calibrate: set {}/{sets}, {}", set + 1, spec.name);
            match run_for_values(spec.name, false, &run_metrics) {
                Ok(values) => runs[w].push(values),
                Err(e) => {
                    eprintln!("calibrate: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!("calibrate: set {}/{sets}, traced pass", set + 1);
        match run_for_values(WORKLOADS[0].name, true, &PER_LAYER) {
            Ok(values) => traced.push(values),
            Err(e) => {
                eprintln!("calibrate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    println!(
        "| workload | metric | values | median | range/median | quartile spread | bound/2 | |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for m in &run_metrics {
            let values: Vec<f64> = runs[w].iter().map(|r| r[m.name]).collect();
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let range = if mid == 0.0 { 0.0 } else { (hi - lo) / mid };
            let (limit, verdict) = match m.bound {
                Some(bound) if range <= bound / 2.0 => (format!("{:.3}", bound / 2.0), "ok"),
                Some(bound) => {
                    ok = false;
                    (format!("{:.3}", bound / 2.0), "TOO WIDE")
                }
                None => ("-".to_string(), "per-layer, no bound"),
            };
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {} | {} | {} | {mid:.4} | {range:.4} | {:.4} | {limit} | {verdict} |",
                spec.name,
                m.name,
                shown.join(" "),
                quartile_spread(&values),
            );
        }
    }
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let first = traced[0][m.name];
        if traced
            .iter()
            .any(|t| t[m.name].to_bits() != first.to_bits())
        {
            ok = false;
            let shown: Vec<String> = traced.iter().map(|t| t[m.name].to_string()).collect();
            println!(
                "exact count {} differs between sets: {}",
                m.name,
                shown.join(" ")
            );
        }
    }
    if ok {
        println!("calibration passed: every range within half its bound, exact counts identical");
        ExitCode::SUCCESS
    } else {
        println!("calibration FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation_and_the_issue_forms() {
        let driver = parse(&args(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ));
        assert_eq!(
            driver,
            Ok(Mode::Run {
                workload: "serve_mixed".into(),
                seed: 7,
                seconds: 20.0,
                trace: true,
                trace_out: None,
                smoke: false,
            })
        );
        let smoke = parse(&args("run --workload all --smoke")).unwrap();
        assert!(
            matches!(smoke, Mode::Run { seconds, smoke: true, seed: 12, .. } if seconds == 2.0)
        );
        assert_eq!(parse(&args("--list")), Ok(Mode::List));
        assert_eq!(parse(&args("--calibrate 5")), Ok(Mode::Calibrate(5)));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --trace 1")).is_err());
        assert!(parse(&args("--workload all --seconds 0")).is_err());
        assert!(parse(&args("--calibrate 4")).is_err());
        assert!(parse(&args("--workload all --bogus")).is_err());
    }

    #[test]
    fn result_lines_parse_back() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 0.1 + 0.2)).collect();
        let line = format!(
            "noise\n{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}}",
            spec::metrics_json(&END_TO_END, &values)
        );
        let last = line.lines().last().unwrap();
        assert_eq!(parse_metrics(last, &END_TO_END), Ok(values));
        assert!(parse_metrics("{\"metrics\": {}}", &END_TO_END).is_err());
    }
}
