//! `gcc-shard` — the consistent-hash sharding proxy.
//!
//! ```text
//! gcc-shard --addr 127.0.0.1:0 \
//!           --backend 127.0.0.1:7401 --backend 127.0.0.1:7402 \
//!           --probe-ms 200
//! ```
//!
//! Prints exactly one line `gcc-shard listening on <addr>` once ready,
//! proxies wire sessions to the backend owning each scene id (see
//! [`gcc_wire::ShardRing`]), and drains on the wire `Shutdown` request.
//! Shutting the proxy down leaves the backends running — they belong to
//! their own operators.

use std::net::SocketAddr;
use std::process::exit;
use std::time::Duration;

use gcc_wire::{ShardProxy, ShardProxyConfig};

fn usage(err: &str) -> ! {
    eprintln!("gcc-shard: {err}");
    eprintln!(
        "usage: gcc-shard --addr HOST:PORT --backend HOST:PORT [--backend HOST:PORT ...]\n\
         \x20                [--handlers N] [--probe-ms N]"
    );
    exit(2);
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
    let mut backends: Vec<SocketAddr> = Vec::new();
    let mut cfg = ShardProxyConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag("--addr", args.next()),
            "--backend" => backends.push(parse_flag("--backend", args.next())),
            "--handlers" => cfg.handlers = parse_flag("--handlers", args.next()),
            "--probe-ms" => {
                let ms = parse_flag("--probe-ms", args.next());
                if ms == 0 {
                    usage("--probe-ms must be at least 1");
                }
                cfg.probe_interval = Duration::from_millis(ms)
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if backends.is_empty() {
        usage("at least one --backend is required");
    }

    let proxy = match ShardProxy::bind(addr.as_str(), backends, cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gcc-shard: bind {addr} failed: {e}");
            exit(1);
        }
    };
    println!("gcc-shard listening on {}", proxy.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !proxy.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    proxy.shutdown();
    println!("gcc-shard: drained");
}
