//! `gcc-served` — a standalone wire server in front of one
//! [`RenderService`].
//!
//! ```text
//! gcc-served --addr 127.0.0.1:0 \
//!            --scene palace=preset:palace:0.05 \
//!            --scene lego=/tmp/lego.bin \
//!            --workers 2 --handlers 8 --cache-mb 256
//! ```
//!
//! Prints exactly one line `gcc-served listening on <addr>` once ready
//! (parent processes — the fleet test, scripts — parse it to learn an
//! ephemeral port), serves until some client sends the wire `Shutdown`
//! request, then drains and prints a short stats summary.

use std::process::exit;

use gcc_scene::ALL_PRESETS;
use gcc_serve::{RenderService, SceneSource, ServeConfig};
use gcc_wire::{WireServer, WireServerConfig};

fn usage(err: &str) -> ! {
    eprintln!("gcc-served: {err}");
    eprintln!(
        "usage: gcc-served --addr HOST:PORT --scene ID=SPEC [--scene ID=SPEC ...]\n\
         \x20                 [--workers N] [--handlers N] [--cache-mb N]\n\
         \x20 SPEC is `preset:<name>:<scale>` (name from the paper's six scenes)\n\
         \x20 or a scene file path (binary or JSON)."
    );
    exit(2);
}

/// Parses one `ID=SPEC` registry entry.
fn parse_scene(arg: &str) -> (String, SceneSource) {
    let Some((id, spec)) = arg.split_once('=') else {
        usage(&format!("--scene needs ID=SPEC, got {arg:?}"));
    };
    if let Some(rest) = spec.strip_prefix("preset:") {
        let Some((name, scale)) = rest.split_once(':') else {
            usage(&format!(
                "preset spec needs preset:<name>:<scale>, got {spec:?}"
            ));
        };
        let Some(preset) = ALL_PRESETS
            .into_iter()
            .find(|p| p.params().name.eq_ignore_ascii_case(name))
        else {
            usage(&format!("unknown preset {name:?}"));
        };
        let Some(scale) = scale.parse().ok().filter(|s| *s > 0.0 && *s <= 100.0) else {
            usage(&format!("bad preset scale {scale:?} (0 < scale <= 100)"));
        };
        (id.to_string(), SceneSource::Preset { preset, scale })
    } else {
        (id.to_string(), SceneSource::File(spec.into()))
    }
}

fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(value) = value else {
        usage(&format!("{flag} needs a value"));
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => usage(&format!("bad {flag} value {value:?}")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:0".to_string();
    let mut registry: Vec<(String, SceneSource)> = Vec::new();
    let mut workers = 0usize;
    let mut handlers = WireServerConfig::default().handlers;
    let mut cache_mb = 256usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag("--addr", args.next()),
            "--scene" => {
                let Some(spec) = args.next() else {
                    usage("--scene needs ID=SPEC");
                };
                registry.push(parse_scene(&spec));
            }
            "--workers" => workers = parse_flag("--workers", args.next()),
            "--handlers" => handlers = parse_flag("--handlers", args.next()),
            "--cache-mb" => cache_mb = parse_flag("--cache-mb", args.next()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if registry.is_empty() {
        usage("at least one --scene is required");
    }
    let Some(cache_budget_bytes) = cache_mb.checked_mul(1 << 20) else {
        usage(&format!("--cache-mb {cache_mb} is too large"));
    };

    let service = RenderService::new(
        ServeConfig {
            workers,
            cache_budget_bytes,
            ..ServeConfig::default()
        },
        registry,
    );
    let server = match WireServer::bind(
        addr.as_str(),
        service,
        WireServerConfig {
            handlers,
            ..WireServerConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gcc-served: bind {addr} failed: {e}");
            exit(1);
        }
    };
    // The parent parses this exact line to learn the (possibly
    // ephemeral) port; stdout is line-buffered to a pipe only after a
    // flush.
    println!("gcc-served listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let stats = server.shutdown();
    println!(
        "gcc-served: served {} frames in {} batches ({} streams, {} shed), hit rate {:.2}",
        stats.frames,
        stats.batches,
        stats.streams.opened,
        stats.turned_away(),
        stats.hit_rate(),
    );
}
