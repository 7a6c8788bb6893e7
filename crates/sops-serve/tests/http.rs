//! End-to-end tests over real sockets: a spawned server, a raw
//! `TcpStream` client, and cache/coalesce behaviour observable through
//! `"cached"` / `"provenance"` fields and `/stats`.

use sops_core::{CellCache, SweepBroker};
use sops_serve::Server;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(name: &str, cached: bool) -> (sops_serve::ServerHandle, SocketAddr) {
    let mut broker = SweepBroker::new();
    if cached {
        let dir = std::env::temp_dir().join(format!("sops_serve_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        broker = broker.with_cache(Arc::new(CellCache::open(dir).unwrap()));
    }
    let server = Server::bind("127.0.0.1:0", Arc::new(broker), 4).unwrap();
    let addr = server.local_addr().unwrap();
    (server.spawn().unwrap(), addr)
}

/// One raw HTTP/1.1 exchange; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: sops\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

const TINY: &str = "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"gaussian\"],\
                    \"samples\":10,\"t_max\":8}";

#[test]
fn healthz_and_stats_respond() {
    let (handle, addr) = start("health", false);
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"requests\":0"), "fresh broker: {body}");
    handle.shutdown();
}

#[test]
fn sweep_round_trip_hits_the_cache_on_the_second_request() {
    let (handle, addr) = start("cache", true);

    let (status, first) = request(addr, "POST", "/sweep", TINY);
    assert_eq!(status, 200, "first sweep failed: {first}");
    assert!(
        first.contains("\"provenance\": \"computed\", \"cached\": false"),
        "cold cells must be computed: {first}"
    );

    let (status, second) = request(addr, "POST", "/sweep", TINY);
    assert_eq!(status, 200);
    assert!(
        second.contains("\"provenance\": \"cached\", \"cached\": true"),
        "warm cells must come from the cache: {second}"
    );
    assert!(
        !second.contains("\"cached\": false"),
        "second identical request must be fully cached: {second}"
    );

    // Identical results modulo the provenance metadata.
    let strip = |s: &str| {
        s.replace(", \"provenance\": \"computed\", \"cached\": false", "")
            .replace(", \"provenance\": \"cached\", \"cached\": true", "")
    };
    assert_eq!(strip(&first), strip(&second), "cache changed the physics");

    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        stats.contains("\"sim_passes\":1"),
        "one pass total: {stats}"
    );
    assert!(stats.contains("\"cells_cached\":1"), "{stats}");
    handle.shutdown();
}

#[test]
fn http_errors_are_typed() {
    let (handle, addr) = start("errors", false);
    let (status, body) = request(addr, "POST", "/sweep", "{\"scenarios\":1}");
    assert_eq!(status, 400);
    assert!(body.starts_with("{\"error\":"), "{body}");
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "DELETE", "/sweep", "");
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_refused_without_reading() {
    let (handle, addr) = start("payload", false);
    let mut stream = TcpStream::connect(addr).unwrap();
    // Claim a huge body but never send it: the server must answer 413
    // from the header alone instead of waiting for the bytes.
    write!(
        stream,
        "POST /sweep HTTP/1.1\r\nHost: sops\r\nContent-Length: {}\r\n\r\n",
        sops_serve::MAX_BODY_BYTES + 1
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    handle.shutdown();
}

#[test]
fn over_cap_request_heads_get_431_and_the_server_keeps_serving() {
    let (handle, addr) = start("head_cap", false);
    let mut stream = TcpStream::connect(addr).unwrap();
    // A request line of exactly the cap with no line end: the server reads
    // every byte sent before it answers, so the close is clean (no unread
    // bytes, no reset) and the client sees the whole response.
    let line = format!("GET /{}", "a".repeat(sops_serve::MAX_HEAD_BYTES - 5));
    assert_eq!(line.len(), sops_serve::MAX_HEAD_BYTES);
    stream.write_all(line.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");
    assert!(raw.contains("{\"error\":"), "{raw}");
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));
    handle.shutdown();
}

/// The server's connection timeout, read from its source as CI reads it
/// (the constant is private).
fn server_io_timeout() -> Duration {
    let secs = include_str!("../src/lib.rs")
        .lines()
        .find_map(|l| l.strip_prefix("const IO_TIMEOUT_SECS: u64 = "))
        .and_then(|rest| rest.strip_suffix(';'))
        .expect("IO_TIMEOUT_SECS declared in src/lib.rs")
        .parse()
        .expect("IO_TIMEOUT_SECS is an integer");
    Duration::from_secs(secs)
}

#[test]
fn idle_connections_do_not_pin_the_workers() {
    let server = Server::bind("127.0.0.1:0", Arc::new(SweepBroker::new()), 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    let deadline = server_io_timeout() + Duration::from_secs(3);
    // One silent connection per worker; both are accepted, in order,
    // before the probe below.
    let idle: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let started = Instant::now();
    let mut probe = TcpStream::connect(addr).unwrap();
    // Without server-side timeouts the probe waits forever: its own
    // timeout turns that into a failure instead of a hang.
    probe.set_read_timeout(Some(deadline)).unwrap();
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: sops\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    probe
        .read_to_string(&mut raw)
        .expect("/healthz must answer while idle sockets hold every worker");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(started.elapsed() <= deadline, "{:?}", started.elapsed());

    // The server has dropped the idle connections: EOF or a reset, not
    // the client's own read timeout.
    for mut socket in idle {
        socket
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        match socket.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Ok(n) => panic!("idle socket received {n} bytes"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "idle socket still open: {e}"
            ),
        }
    }
    handle.shutdown();
}
