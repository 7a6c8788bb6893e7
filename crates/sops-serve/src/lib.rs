//! `sops-serve` — a dependency-free HTTP/1.1 front end for the sweep
//! broker.
//!
//! The server puts [`sops_core::broker::SweepBroker`] behind three
//! endpoints:
//!
//! | endpoint        | method | behaviour                                   |
//! |-----------------|--------|---------------------------------------------|
//! | `/sweep`        | POST   | run a sweep plan, return the report as JSON |
//! | `/healthz`      | GET    | liveness probe (`{"ok": true}`)             |
//! | `/stats`        | GET    | broker + cache counters                     |
//!
//! A `/sweep` request is a JSON object naming registry scenarios and
//! measure selections (the same names `sops-repro sweep` accepts —
//! both front ends delegate to [`MeasureConfig::parse`]):
//!
//! ```json
//! {
//!   "scenarios": ["cell_sorting"],
//!   "measures": ["ksg", "gaussian@2"],
//!   "seeds": [1, 2, 3],
//!   "fast": true,
//!   "samples": 80,
//!   "t_max": 40,
//!   "threads": 0
//! }
//! ```
//!
//! `scenarios` and `measures` are required; everything else is
//! optional (`fast` applies the smoke-scale transform
//! [`ScenarioSpec::with_fast_scale`], like `sops-repro sweep --fast`;
//! `samples` / `t_max` override the ensemble scale exactly, `seeds`
//! defaults to each scenario's own seed, `threads` defaults to 0, auto).
//! `threads` is capped at [`sops_par::default_threads`], so a request
//! cannot make the server start more OS threads than an auto run would;
//! results do not depend on the thread count, so the cap changes no
//! response byte.
//! The response is the sweep report in the `sweep.json` format plus
//! per-cell `"provenance"` / `"cached"` fields, so callers can see which
//! cells were computed, served from the cell cache, or coalesced onto a
//! concurrent request's simulation pass. Stripping those two metadata
//! fields yields byte-identical bodies regardless of cache state —
//! the broker inherits the sweep engine's determinism contract.
//!
//! Transport is plain `std::net`: a bounded worker pool pulls accepted
//! connections from a channel, so at most `threads` requests are served
//! concurrently and the rest queue in the listener backlog. Each
//! response closes its connection (`Connection: close`), and a
//! connection whose peer goes quiet for a few seconds mid-request is
//! closed, so idle sockets cannot hold every worker.

use sops_core::broker::SweepBroker;
use sops_core::report::sweep_json;
use sops_core::scenario::{EnsembleStorage, ScenarioRegistry, ScenarioSpec, SweepPlan};
use sops_core::wire::{self, Value};
use sops_core::SweepError;
use sops_info::MeasureConfig;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Hard cap on request-body size; larger bodies get `413` without
/// being read. Plans are small — a megabyte is already generous.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Hard cap on the request head (request line plus headers). A head
/// still unfinished after this many bytes gets `431` and the connection
/// closes, so no line can grow without bound in memory.
pub const MAX_HEAD_BYTES: usize = 8 << 10;

/// Read and write timeout, in seconds, of every accepted connection. A
/// peer that sends nothing (or reads nothing) for this long loses the
/// connection, so idle sockets cannot hold the worker pool.
const IO_TIMEOUT_SECS: u64 = 5;

/// A response ready to serialize: status, content type and body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 400, 404, 405, 413, 431, 500).
    pub status: u16,
    /// Body bytes (always JSON here).
    pub body: String,
}

impl HttpResponse {
    fn json(status: u16, body: String) -> Self {
        HttpResponse { status, body }
    }

    /// An error response with the message wrapped as `{"error": "…"}`.
    fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":{}}}\n", wire::string(message)))
    }

    /// The reason phrase for [`HttpResponse::status`].
    pub(crate) fn status_line(&self) -> &'static str {
        match self.status {
            200 => "200 OK",
            400 => "400 Bad Request",
            404 => "404 Not Found",
            405 => "405 Method Not Allowed",
            413 => "413 Payload Too Large",
            431 => "431 Request Header Fields Too Large",
            _ => "500 Internal Server Error",
        }
    }

    /// Serializes the response onto `w` (HTTP/1.1, connection-close).
    /// Head and body go out in one `write_all`, so an unbuffered socket
    /// gets one send call instead of one per formatted fragment.
    pub(crate) fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut bytes = format!(
            "HTTP/1.1 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status_line(),
            self.body.len(),
        );
        bytes.push_str(&self.body);
        w.write_all(bytes.as_bytes())
    }
}

fn opt<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn string_array(obj: &[(String, Value)], key: &str) -> Result<Vec<String>, String> {
    let v = opt(obj, key).ok_or_else(|| format!("missing required field '{key}'"))?;
    let arr = v
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array of strings"))?;
    if arr.is_empty() {
        return Err(format!("'{key}' must not be empty"));
    }
    arr.iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' must be an array of strings"))
        })
        .collect()
}

fn usize_field(obj: &[(String, Value)], key: &str) -> Result<Option<usize>, String> {
    match opt(obj, key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
    }
}

/// Parses a `/sweep` request body into a [`SweepPlan`].
///
/// Scenario names resolve against the full
/// [`ScenarioRegistry::gallery`], built once per process on first use
/// (its 10⁵-particle `cell_sorting_xl` entry costs more to build than a
/// whole cache-hit request) and shared by every later call; only the
/// selected scenarios are cloned. Measure selections go through the
/// shared [`MeasureConfig::parse`]. Unknown fields are rejected so
/// typos fail loudly instead of silently running a default sweep.
pub fn parse_plan(body: &str) -> Result<SweepPlan, String> {
    static GALLERY: OnceLock<ScenarioRegistry> = OnceLock::new();

    let parsed = wire::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = parsed
        .as_object()
        .ok_or("request body must be a JSON object")?;
    for (key, _) in obj {
        match key.as_str() {
            "scenarios" | "measures" | "seeds" | "fast" | "samples" | "t_max" | "threads" => {}
            other => return Err(format!("unknown field '{other}'")),
        }
    }

    let names = string_array(obj, "scenarios")?;
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut scenarios = GALLERY
        .get_or_init(ScenarioRegistry::gallery)
        .select(&name_refs)
        .map_err(|e| e.to_string())?;

    let fast = match opt(obj, "fast") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("'fast' must be a boolean".into()),
    };
    if fast {
        scenarios = scenarios
            .into_iter()
            .map(ScenarioSpec::with_fast_scale)
            .collect();
    }
    let samples = usize_field(obj, "samples")?;
    let t_max = usize_field(obj, "t_max")?;
    if samples == Some(0) || t_max == Some(0) {
        return Err("'samples' and 't_max' must be at least 1".into());
    }
    if samples.is_some() || t_max.is_some() {
        scenarios = scenarios
            .into_iter()
            .map(|sc| {
                let s = samples.unwrap_or(sc.ensemble.samples);
                let t = t_max.unwrap_or(sc.ensemble.t_max);
                sc.with_scale(s, t)
            })
            .collect();
    }

    let mut measures = Vec::new();
    for name in string_array(obj, "measures")? {
        measures.push(MeasureConfig::parse(&name).ok_or_else(|| {
            format!(
                "unknown measure '{name}' (known: {}, optionally NAME@EVERY)",
                MeasureConfig::FAMILIES.join(", ")
            )
        })?);
    }

    let seeds = match opt(obj, "seeds") {
        None => Vec::new(),
        Some(v) => {
            let arr = v.as_array().ok_or("'seeds' must be an array of integers")?;
            arr.iter()
                .map(|e| e.as_u64().ok_or("'seeds' must be an array of integers"))
                .collect::<Result<Vec<u64>, _>>()?
        }
    };
    // 0 stays auto; an explicit count never exceeds what auto would use.
    let threads = usize_field(obj, "threads")?
        .unwrap_or(0)
        .min(sops_par::default_threads());

    Ok(SweepPlan {
        scenarios,
        measures,
        seeds,
        threads,
        storage: EnsembleStorage::default(),
    })
}

/// The `/stats` body: broker counters plus cache counters and the cache's
/// byte ledger `"bytes"`, a gauge (or `"cache": null` when the broker runs
/// uncached).
pub(crate) fn stats_json(broker: &SweepBroker) -> String {
    let s = broker.stats();
    let cache = match s.cache {
        Some(c) => format!(
            "{{\"hits\":{},\"misses\":{},\"stores\":{},\"store_errors\":{},\"evictions\":{},\"bytes\":{}}}",
            c.hits, c.misses, c.stores, c.store_errors, c.evictions, c.bytes
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"requests\":{},\"sim_passes\":{},\"cells_computed\":{},\"cells_cached\":{},\"cells_coalesced\":{},\"cache\":{}}}\n",
        s.requests, s.sim_passes, s.cells_computed, s.cells_cached, s.cells_coalesced, cache
    )
}

/// Routes one parsed request to its handler. Pure function of
/// (method, path, body) and the broker — the unit tests exercise it
/// without sockets.
pub fn route(broker: &SweepBroker, method: &str, path: &str, body: &str) -> HttpResponse {
    match (method, path) {
        ("GET", "/healthz") => HttpResponse::json(200, "{\"ok\":true}\n".to_string()),
        ("GET", "/stats") => HttpResponse::json(200, stats_json(broker)),
        ("POST", "/sweep") => {
            let plan = match parse_plan(body) {
                Ok(p) => p,
                Err(msg) => return HttpResponse::error(400, &msg),
            };
            match broker.run(&plan) {
                // Provenance included: callers get to see cache behaviour.
                Ok(report) => HttpResponse::json(200, sweep_json(&report, true)),
                Err(e @ SweepError::Io { .. }) => HttpResponse::error(500, &e.to_string()),
                Err(e) => HttpResponse::error(400, &e.to_string()),
            }
        }
        (_, "/healthz") | (_, "/stats") | (_, "/sweep") => {
            HttpResponse::error(405, &format!("method {method} not allowed for {path}"))
        }
        _ => HttpResponse::error(404, &format!("no such endpoint: {path}")),
    }
}

/// The request head as read so far: the connection behind a reader whose
/// limit is what remains of [`MAX_HEAD_BYTES`].
type Head = io::Take<BufReader<TcpStream>>;

/// Reads one line of the request head. `Ok(None)` means the head ran
/// past [`MAX_HEAD_BYTES`] before the line ended; a line cut short by the
/// peer hanging up is returned as read.
fn read_head_line(head: &mut Head) -> io::Result<Option<String>> {
    let mut line = String::new();
    head.read_line(&mut line)?;
    let over_cap = !line.ends_with('\n') && head.limit() == 0;
    Ok((!over_cap).then_some(line))
}

/// Answers an error status on the connection behind a request head.
fn respond_error(head: Head, status: u16, message: &str) {
    respond(
        head.into_inner().into_inner(),
        &HttpResponse::error(status, message),
    );
}

/// Reads one HTTP/1.1 request from `stream`, routes it, and writes the
/// response. Malformed requests get a `400`; a head over
/// [`MAX_HEAD_BYTES`] gets a `431` after at most that many bytes are
/// read; bodies over [`MAX_BODY_BYTES`] get a `413` without being read.
/// A read or write that waits longer than `IO_TIMEOUT_SECS` fails like
/// any other I/O error and ends the connection.
fn handle_connection(stream: TcpStream, broker: &SweepBroker) {
    let timeout = Some(Duration::from_secs(IO_TIMEOUT_SECS));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let mut head: Head = BufReader::new(stream).take(MAX_HEAD_BYTES as u64);
    let request_line = match read_head_line(&mut head) {
        Ok(Some(line)) => line,
        Ok(None) => return respond_error(head, 431, "request head too large"),
        Err(_) => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return respond_error(head, 400, "malformed request line"),
    };
    let mut content_length = 0usize;
    loop {
        let line = match read_head_line(&mut head) {
            Ok(Some(line)) if !line.is_empty() => line,
            Ok(None) => return respond_error(head, 431, "request head too large"),
            // An empty read: the peer hung up mid-head.
            Ok(Some(_)) | Err(_) => return,
        };
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return respond_error(head, 400, "bad Content-Length"),
                };
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return respond_error(head, 413, "request body too large");
    }
    let mut reader = head.into_inner();
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    let response = route(broker, &method, &path, &body);
    respond(reader.into_inner(), &response);
}

fn respond(mut stream: TcpStream, response: &HttpResponse) {
    // A peer that hung up mid-response is its own problem.
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
}

/// A bound-but-not-yet-serving server: the listener plus the broker it
/// fronts and the worker-pool width.
pub struct Server {
    listener: TcpListener,
    broker: Arc<SweepBroker>,
    threads: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral test port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        broker: Arc<SweepBroker>,
        threads: usize,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            broker,
            threads: threads.max(1),
        })
    }

    /// The bound address (the ephemeral port, after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop body shared by [`Server::run`] and
    /// [`Server::spawn`]: a bounded pool of workers drains a channel of
    /// accepted connections, so at most `threads` requests run
    /// concurrently.
    fn serve(self, shutdown: Arc<AtomicBool>) -> io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.threads);
        for _ in 0..self.threads {
            let rx = Arc::clone(&rx);
            let broker = Arc::clone(&self.broker);
            workers.push(thread::spawn(move || loop {
                // Sender dropped ⇒ the accept loop ended ⇒ drain out.
                let stream = match rx.lock().expect("serve pool poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                handle_connection(stream, &broker);
            }));
        }
        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(s) => {
                    let _ = tx.send(s);
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Serves until the process exits.
    pub fn run(self) -> io::Result<()> {
        self.serve(Arc::new(AtomicBool::new(false)))
    }

    /// Serves on a background thread and returns a handle that can stop
    /// the server — the integration tests' entry point.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = thread::spawn(move || {
            let _ = self.serve(flag);
        });
        Ok(ServerHandle {
            addr,
            shutdown,
            join: Some(join),
        })
    }
}

/// Handle to a background server started by [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop (one wake-up connection) and joins it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parser_caps_the_thread_count() {
        // The plans are only parsed, never run.
        let parse = |threads: u64| {
            parse_plan(&format!(
                "{{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"gaussian\"],\"threads\":{threads}}}"
            ))
            .unwrap()
            .threads
        };
        let capped = parse(1_000_000);
        assert!(
            (1..=sops_par::default_threads()).contains(&capped),
            "{capped} threads"
        );
        assert_eq!(parse(0), 0, "0 stays auto");
        assert_eq!(parse(1), 1);
    }

    #[test]
    fn plan_parser_resolves_names_and_rejects_junk() {
        let plan = parse_plan(
            "{\"scenarios\":[\"cell_sorting\",\"mixing_null\"],\"measures\":[\"gaussian\",\"ksg@4\"],\
             \"seeds\":[1,2],\"fast\":true,\"threads\":2}",
        )
        .unwrap();
        assert_eq!(plan.scenarios.len(), 2);
        assert_eq!(plan.measures.len(), 2);
        assert_eq!(plan.seeds, vec![1, 2]);
        assert_eq!(plan.threads, 2.min(sops_par::default_threads()));
        assert!(
            plan.scenarios[0].ensemble.samples <= 100 && plan.scenarios[0].ensemble.t_max <= 40,
            "fast applies the smoke-scale clamp"
        );

        for (body, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (
                "{\"measures\":[\"ksg\"]}",
                "missing required field 'scenarios'",
            ),
            (
                "{\"scenarios\":[\"cell_sorting\"]}",
                "missing required field 'measures'",
            ),
            (
                "{\"scenarios\":[],\"measures\":[\"ksg\"]}",
                "must not be empty",
            ),
            (
                "{\"scenarios\":[\"bogus\"],\"measures\":[\"ksg\"]}",
                "unknown scenario",
            ),
            (
                "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"bogus\"]}",
                "unknown measure",
            ),
            (
                "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"ksg\"],\"typo\":1}",
                "unknown field",
            ),
            (
                "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"ksg\"],\"samples\":0}",
                "at least 1",
            ),
        ] {
            let err = parse_plan(body).unwrap_err();
            assert!(err.contains(needle), "body {body:?}: got error {err:?}");
        }
        // The unknown-scenario error lists every gallery name.
        let err = parse_plan("{\"scenarios\":[\"bogus\"],\"measures\":[\"ksg\"]}").unwrap_err();
        for name in ScenarioRegistry::gallery().names() {
            assert!(err.contains(name), "missing {name}: {err}");
        }
    }

    /// Cell keys of every (scenario, measure) pair of `plan`'s grid.
    fn plan_keys(plan: &SweepPlan) -> Vec<u64> {
        let mut keys = Vec::new();
        for sc in &plan.scenarios {
            for m in &plan.measures {
                keys.push(
                    sops_core::checkpoint::cell_key(sc, m).expect("gallery scenarios serialize"),
                );
            }
        }
        keys
    }

    /// The gallery `parse_plan` builds once must resolve every name, under
    /// every scale transform, exactly as a freshly built one does.
    #[test]
    fn parse_plan_resolves_every_gallery_name_like_a_fresh_gallery() {
        let gallery = ScenarioRegistry::gallery();
        let names = gallery.names();
        assert_eq!(
            names.len(),
            4,
            "the gallery: three builtins and the XL tier"
        );
        let measures = vec![
            MeasureConfig::Gaussian,
            MeasureConfig::parse("ksg@4").unwrap(),
        ];
        for name in &names {
            for (fast, samples, t_max) in [
                (false, None, None),
                (true, None, None),
                (false, Some(12), None),
                (true, None, Some(9)),
                (true, Some(7), Some(5)),
            ] {
                let mut body = format!(
                    "{{\"scenarios\":[\"{name}\"],\"measures\":[\"gaussian\",\"ksg@4\"],\"fast\":{fast}"
                );
                if let Some(s) = samples {
                    body.push_str(&format!(",\"samples\":{s}"));
                }
                if let Some(t) = t_max {
                    body.push_str(&format!(",\"t_max\":{t}"));
                }
                body.push('}');
                let parsed = parse_plan(&body).unwrap();

                let mut expected = ScenarioRegistry::gallery().select(&[name]).unwrap();
                if fast {
                    expected = expected
                        .into_iter()
                        .map(ScenarioSpec::with_fast_scale)
                        .collect();
                }
                if samples.is_some() || t_max.is_some() {
                    expected = expected
                        .into_iter()
                        .map(|sc| {
                            let s = samples.unwrap_or(sc.ensemble.samples);
                            let t = t_max.unwrap_or(sc.ensemble.t_max);
                            sc.with_scale(s, t)
                        })
                        .collect();
                }
                let expected = SweepPlan::new(expected, measures.clone());
                assert_eq!(plan_keys(&parsed), plan_keys(&expected), "{body}");
            }
        }
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_exact_bytes() {
        for response in [
            HttpResponse::json(200, "{\"ok\":true}\n".to_string()),
            HttpResponse::error(404, "no such endpoint: /nope"),
        ] {
            let mut w = CountingWriter::default();
            response.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1);
            let expected = format!(
                "HTTP/1.1 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{}",
                response.status_line(),
                response.body.len(),
                response.body
            );
            assert_eq!(String::from_utf8(w.bytes).unwrap(), expected);
        }
    }

    #[test]
    fn explicit_scale_overrides_beat_fast() {
        let plan = parse_plan(
            "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"gaussian\"],\
             \"fast\":true,\"samples\":10,\"t_max\":8}",
        )
        .unwrap();
        assert_eq!(plan.scenarios[0].ensemble.samples, 10);
        assert_eq!(plan.scenarios[0].ensemble.t_max, 8);
    }

    #[test]
    fn routing_covers_the_error_statuses() {
        let broker = SweepBroker::new();
        assert_eq!(route(&broker, "GET", "/healthz", "").status, 200);
        assert_eq!(route(&broker, "GET", "/stats", "").status, 200);
        assert_eq!(route(&broker, "POST", "/healthz", "").status, 405);
        assert_eq!(route(&broker, "GET", "/sweep", "").status, 405);
        assert_eq!(route(&broker, "GET", "/nope", "").status, 404);
        assert_eq!(route(&broker, "POST", "/sweep", "nope").status, 400);
        let stats = stats_json(&broker);
        assert!(stats.contains("\"cache\":null"), "uncached broker: {stats}");
    }

    #[test]
    fn stats_report_the_cache_byte_ledger() {
        let dir = std::env::temp_dir().join("sops_serve_stats_bytes");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(sops_core::CellCache::open(&dir).unwrap());
        let broker = SweepBroker::new().with_cache(Arc::clone(&cache));
        let body = "{\"scenarios\":[\"cell_sorting\"],\"measures\":[\"gaussian\"],\
                    \"samples\":10,\"t_max\":8}";
        let response = route(&broker, "POST", "/sweep", body);
        assert_eq!(response.status, 200, "{}", response.body);
        let bytes = cache.total_bytes();
        assert!(bytes > 0, "the computed cell was stored");
        let stats = stats_json(&broker);
        assert!(stats.contains(&format!("\"bytes\":{bytes}}}")), "{stats}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nesting_bomb_is_a_400_not_a_stack_overflow() {
        // 0.5 MB — under MAX_BODY_BYTES, so it reaches the parser.
        let bomb = "[".repeat(500_000);
        assert!(bomb.len() < MAX_BODY_BYTES);
        let err = parse_plan(&bomb).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let response = route(&SweepBroker::new(), "POST", "/sweep", &bomb);
        assert_eq!(response.status, 400);
        assert!(response.body.contains("nesting"), "{}", response.body);
    }
}
