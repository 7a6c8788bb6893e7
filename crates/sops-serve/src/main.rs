//! `sops-serve` binary — sweep-as-a-service.
//!
//! ```text
//! sops-serve [--addr HOST:PORT] [--threads N] [--cache DIR] [--cache-bytes N]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:7070`, `--threads 4`, no cell cache.
//! With `--cache DIR` every computed cell is persisted content-addressed
//! under `DIR` and reused across requests *and* server restarts;
//! `--cache-bytes` caps the store (default 256 MiB): the server's one
//! cache handle keeps a byte ledger, and a store that takes it past the
//! cap evicts least-recently-used entries. `/stats` reports the ledger as
//! `"bytes"`.
//!
//! Exit codes: 0 on clean shutdown, 1 on bind/cache I/O failure, 2 on a
//! usage error.

use sops_core::{CellCache, SweepBroker};
use sops_serve::Server;
use std::process::ExitCode;
use std::sync::Arc;

struct ServeArgs {
    addr: String,
    threads: usize,
    cache_dir: Option<std::path::PathBuf>,
    cache_bytes: Option<u64>,
}

fn usage_text() -> &'static str {
    "usage: sops-serve [--addr HOST:PORT] [--threads N] [--cache DIR] [--cache-bytes N]\n\
     \x20      --addr         listen address (default 127.0.0.1:7070)\n\
     \x20      --threads      worker pool size (default 4)\n\
     \x20      --cache        content-addressed cell cache directory\n\
     \x20      --cache-bytes  cache size cap in bytes, default 256 MiB; a store past\n\
     \x20                     the cap evicts least-recently-used entries (exact for\n\
     \x20                     one server per directory)\n\
     endpoints: POST /sweep, GET /healthz, GET /stats\n\
     exit codes: 0 ok, 1 bind/cache i/o failure, 2 usage"
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_serve_args(argv: &[String]) -> ServeArgs {
    let mut args = ServeArgs {
        addr: "127.0.0.1:7070".to_string(),
        threads: 4,
        cache_dir: None,
        cache_bytes: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => {
                i += 1;
                args.addr = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--threads" => {
                i += 1;
                args.threads = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--cache" => {
                i += 1;
                args.cache_dir = Some(std::path::PathBuf::from(
                    argv.get(i).unwrap_or_else(|| usage()),
                ));
            }
            "--cache-bytes" => {
                i += 1;
                args.cache_bytes = Some(
                    argv.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    if args.cache_bytes.is_some() && args.cache_dir.is_none() {
        eprintln!("--cache-bytes requires --cache DIR");
        usage();
    }
    args
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_serve_args(&argv);
    let mut broker = SweepBroker::new();
    let cache_desc = match &args.cache_dir {
        Some(dir) => {
            let cache = match CellCache::open(dir) {
                Ok(c) => match args.cache_bytes {
                    Some(n) => c.with_max_bytes(n),
                    None => c,
                },
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let desc = format!("{} (cap {} bytes)", dir.display(), cache.max_bytes());
            broker = broker.with_cache(Arc::new(cache));
            desc
        }
        None => "none".to_string(),
    };
    let server = match Server::bind(args.addr.as_str(), Arc::new(broker), args.threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!(
            "sops-serve listening on http://{addr} ({} worker thread(s), cache: {cache_desc})",
            args.threads
        ),
        Err(e) => {
            eprintln!("failed to read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
