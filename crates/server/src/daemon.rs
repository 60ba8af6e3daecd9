//! The long-lived daemon: TCP accept loop, per-connection protocol
//! handling, and the stdio front-end for hermetic tests.
//!
//! One thread per connection reads newline-delimited requests. Control
//! requests (`health`/`stats`/`shutdown`) are answered inline by the
//! connection thread, so the server stays observable and stoppable
//! while every worker is busy; compute requests go through the bounded
//! queue to the worker pool and the connection thread blocks on the
//! reply channel (one request in flight per connection).
//!
//! Shutdown sequence: a `shutdown` request is acknowledged, the accept
//! loop is unblocked with a loop-back connection and exits, the worker
//! pool drains every queued and in-flight job (their responses still
//! reach their clients), read sides of open connections are shut down
//! so their threads observe EOF, and all threads are joined. The CLI
//! then flushes the final metrics report.

use crate::conns::Connections;
use crate::engine::ServerEngine;
use crate::protocol::{self, Envelope, Request, DEFAULT_MAX_LINE};
use crate::trace::{PhaseTrace, SlowLog};
use crate::worker::{self, Job, PoolHandle, WorkerPool};
use soi_util::{ProtoErrorKind, SoiError};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Version tag of the extended `stats` payload: the flat fields are
/// frozen v1 shape, the structured `counters`/`gauges`/`histograms`/
/// `timing_hists`/`threads`/`pool` sections arrived in v2.
pub const STATS_VERSION: u64 = 2;

/// Daemon options fixed at startup.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; the bound address
    /// is announced on stdout as `listening on HOST:PORT`).
    pub port: u16,
    /// Worker threads (0 = pool default).
    pub workers: usize,
    /// Bounded queue capacity; a full queue rejects with `queue-full`.
    pub queue_cap: usize,
    /// Request-line length cap in bytes.
    pub max_line: usize,
    /// Slow-query threshold in deterministic ticks (0 = disabled).
    pub slow_query_ticks: u64,
    /// Where the slow-query JSONL log appends; both this and a nonzero
    /// threshold are required to activate the log.
    pub slow_query_log: Option<std::path::PathBuf>,
    /// Size cap for the slow-query log in bytes (0 = unbounded). When a
    /// line would push the live file past the cap it rotates to
    /// `<path>.old`, keeping one old generation.
    pub slow_query_log_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 0,
            queue_cap: 64,
            max_line: DEFAULT_MAX_LINE,
            slow_query_ticks: 0,
            slow_query_log: None,
            slow_query_log_max_bytes: 0,
        }
    }
}

/// One read from the capped line reader.
pub(crate) enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// The line exceeded the cap; its remainder was discarded.
    Oversized,
    /// The line was not valid UTF-8; it was discarded whole rather
    /// than lossily decoded (replacement characters would let a
    /// corrupted request masquerade as a different well-formed one).
    NotUtf8,
    /// End of stream; `mid_line` when data arrived without a final
    /// newline (a client that died mid-request).
    Eof {
        /// Whether the stream ended inside an unterminated line.
        mid_line: bool,
    },
}

/// Reads one newline-terminated line of at most `max_line` bytes.
pub(crate) fn read_line_capped<R: BufRead>(r: &mut R, max_line: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() && !oversized {
                LineRead::Eof { mid_line: false }
            } else {
                LineRead::Eof { mid_line: true }
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |at| at + 1);
        if !oversized {
            buf.extend_from_slice(&chunk[..take]);
            if buf.len() > max_line + 1 {
                oversized = true;
                buf.clear();
            }
        }
        r.consume(take);
        if newline.is_some() {
            if oversized {
                return Ok(LineRead::Oversized);
            }
            while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(match String::from_utf8(buf) {
                Ok(line) => LineRead::Line(line),
                Err(_) => LineRead::NotUtf8,
            });
        }
    }
}

/// Builds the inline response for a control request.
fn control_response(
    engine: &ServerEngine,
    id: u64,
    req: &Request,
    pool: Option<&PoolHandle>,
) -> String {
    match req {
        Request::Health => protocol::encode_ok(
            id,
            &format!("\"ok\":true,\"graphs\":{}", engine.graph_names().len()),
            0,
        ),
        Request::Stats => protocol::encode_ok(id, &stats_payload(engine, pool), 0),
        Request::Shutdown => protocol::encode_ok(id, "\"draining\":true", 0),
        Request::Rebalance { .. } => protocol::encode_error(
            Some(id),
            &SoiError::protocol(
                ProtoErrorKind::BadField,
                "rebalance is a router control; this daemon holds no shard map",
            ),
        ),
        _ => protocol::encode_error(
            Some(id),
            &SoiError::protocol(ProtoErrorKind::BadField, "not a control request"),
        ),
    }
}

/// Builds the full `stats` payload fragment: the original flat fields
/// (frozen for v1 clients) followed by the v2 structured sections — a
/// complete snapshot of every registered counter, gauge, histogram, and
/// wall-timing histogram, plus the per-thread timing plane. Wall-clock
/// values appear only in scalar fields whose names start with `wall_`,
/// so [`soi_obs::report::mask_wall_clock`] keeps masking mechanically;
/// section keys deliberately avoid the prefix (`timing_hists`).
fn stats_payload(engine: &ServerEngine, pool: Option<&PoolHandle>) -> String {
    let (depth, in_flight) = pool.map_or((0, 0), |p| (p.queue_depth(), p.in_flight()));
    let generations = pool.map_or(0, PoolHandle::generations);
    let flat = format!(
        "\"graphs\":{},\"queue_depth\":{depth},\"in_flight\":{in_flight},\
         \"requests_total\":{},\"rejected_queue_full\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"worker_generations\":{generations},\"worker_panics\":{},\"worker_respawns\":{},\
         \"requests_shed\":{},\"requests_degraded\":{}",
        engine.graph_names().len(),
        soi_obs::counter("server.requests_total").get(),
        soi_obs::counter("server.rejected_queue_full").get(),
        soi_obs::counter("server.cache_hits").get(),
        soi_obs::counter("server.cache_misses").get(),
        soi_obs::counter("server.worker_panics").get(),
        soi_obs::counter("server.worker_respawns").get(),
        soi_obs::counter("server.requests_shed").get(),
        soi_obs::counter("server.requests_degraded").get(),
    );
    format!("{flat},{}", v2_sections())
}

/// The v2 structured sections of a `stats` payload — a snapshot of this
/// process's metric registry and per-thread timing plane, shared by the
/// single daemon and the shard router (which appends its own
/// shard-health sections on top).
pub(crate) fn v2_sections() -> String {
    let registry = soi_obs::metrics::registry();
    let join = |items: Vec<String>| items.join(",");
    let counters = join(
        registry
            .counter_values()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect(),
    );
    let gauges = join(
        registry
            .gauge_values()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{}", crate::json::fmt_num(*v)))
            .collect(),
    );
    let num_list = |vals: &[f64]| join(vals.iter().map(|v| crate::json::fmt_num(*v)).collect());
    let histograms = join(
        registry
            .histogram_values()
            .iter()
            .map(|(name, (bounds, counts))| {
                let counts = join(counts.iter().map(u64::to_string).collect());
                format!(
                    "\"{name}\":{{\"bounds\":[{}],\"counts\":[{counts}]}}",
                    num_list(bounds)
                )
            })
            .collect(),
    );
    let timing_hists = join(
        registry
            .wall_hist_values()
            .iter()
            .map(|(name, stat)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"wall_p50_ns\":{},\"wall_p90_ns\":{},\
                     \"wall_max_ns\":{}}}",
                    stat.count, stat.p50_ns, stat.p90_ns, stat.max_ns
                )
            })
            .collect(),
    );
    let (threads, pool_snap) = soi_obs::perthread::snapshot();
    let threads = join(
        threads
            .iter()
            .map(|t| {
                let name = if t.slot >= soi_obs::perthread::MAX_SLOTS {
                    "thread.coordinator".to_string()
                } else {
                    format!("thread.{}", t.slot)
                };
                format!(
                    "{{\"name\":\"{name}\",\"wall_busy_ns\":{},\"wall_idle_ns\":{},\
                     \"wall_merge_ns\":{},\"wall_lock_wait_ns\":{},\"wall_lifetime_ns\":{},\
                     \"wall_items\":{}}}",
                    t.busy_ns, t.idle_ns, t.merge_ns, t.lock_wait_ns, t.lifetime_ns, t.items
                )
            })
            .collect(),
    );
    format!(
        "\"stats_version\":{STATS_VERSION},\"counters\":{{{counters}}},\
         \"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}},\
         \"timing_hists\":{{{timing_hists}}},\"threads\":[{threads}],\
         \"pool\":{{\"dispatches\":{},\"items\":{},\"workers_max\":{},\
         \"wall_capacity_ns\":{},\"wall_lifetime_ns\":{},\"wall_imbalance_ns\":{}}}",
        pool_snap.dispatches,
        pool_snap.items,
        pool_snap.workers_max,
        pool_snap.capacity_ns,
        pool_snap.lifetime_ns,
        pool_snap.imbalance_ns,
    )
}

/// What the connection loop should do after handling one line.
enum Step {
    Continue,
    Shutdown,
    Disconnect,
}

/// Handles one raw request line end-to-end: parse, dispatch, respond.
/// `submit` runs a compute envelope to its encoded response line,
/// carrying the phase timeline started here (the `parse` phase: one
/// tick per request-line byte).
fn handle_line<W: Write>(
    engine: &ServerEngine,
    pool: Option<&PoolHandle>,
    line: &str,
    submit: &dyn Fn(Envelope, PhaseTrace) -> String,
    writer: &mut W,
) -> Step {
    if line.trim().is_empty() {
        return Step::Continue;
    }
    soi_obs::counter_add!("server.requests_total", 1);
    let started = Instant::now();
    let (response, shutdown) = match protocol::parse_request(line) {
        Err(err) => (protocol::encode_error(None, &err), false),
        Ok(envelope) if envelope.req.is_control() => {
            let is_shutdown = envelope.req == Request::Shutdown;
            let mut resp = control_response(engine, envelope.id, &envelope.req, pool);
            // Control responses are cheap; stamp the measured wall time
            // over the placeholder so every response carries one.
            let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(stripped) = resp.strip_suffix("\"wall_ns\":0}") {
                resp = format!("{stripped}\"wall_ns\":{wall_ns}}}");
            }
            (resp, is_shutdown)
        }
        Ok(envelope) => {
            let mut trace = PhaseTrace::new();
            trace.record(
                "parse",
                line.len() as u64,
                crate::trace::elapsed_ns(started),
            );
            (submit(envelope, trace), false)
        }
    };
    soi_util::failpoint_crash!("server.response.write");
    if protocol::write_line(writer, &response).is_err() {
        soi_obs::counter_add!("server.client_disconnects", 1);
        return Step::Disconnect;
    }
    if shutdown {
        Step::Shutdown
    } else {
        Step::Continue
    }
}

fn handle_conn(
    stream: TcpStream,
    engine: Arc<ServerEngine>,
    pool: PoolHandle,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    max_line: usize,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let submit = |envelope: Envelope, trace: PhaseTrace| -> String {
        let id = envelope.id;
        let (tx, rx) = mpsc::channel();
        pool.submit(Job::with_trace(envelope, tx, trace));
        rx.recv().unwrap_or_else(|_| {
            protocol::encode_error(
                Some(id),
                &SoiError::protocol(ProtoErrorKind::QueueFull, "worker pool unavailable"),
            )
        })
    };
    loop {
        let read = match read_line_capped(&mut reader, max_line) {
            Ok(read) => read,
            Err(_) => {
                soi_obs::counter_add!("server.client_disconnects", 1);
                return;
            }
        };
        let line = match read {
            LineRead::Eof { mid_line } => {
                if mid_line {
                    soi_obs::counter_add!("server.client_disconnects", 1);
                    soi_obs::event!(soi_obs::Level::Debug, "client disconnected mid-request");
                }
                return;
            }
            LineRead::Oversized | LineRead::NotUtf8 => {
                let err = match read {
                    LineRead::Oversized => SoiError::protocol(
                        ProtoErrorKind::OversizedLine,
                        format!("request line exceeds {max_line} bytes"),
                    ),
                    _ => SoiError::protocol(
                        ProtoErrorKind::MalformedJson,
                        "request line is not valid UTF-8",
                    ),
                };
                let resp = protocol::encode_error(None, &err);
                if protocol::write_line(&mut writer, &resp).is_err() {
                    soi_obs::counter_add!("server.client_disconnects", 1);
                    return;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        match handle_line(&engine, Some(&pool), &line, &submit, &mut writer) {
            Step::Continue => {}
            Step::Disconnect => return,
            Step::Shutdown => {
                // ordering: SeqCst on a once-per-process control flag —
                // the flag is the whole payload and the path is cold,
                // so clarity wins over saved cycles.
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
                // Keep reading: the client closes when satisfied.
            }
        }
    }
}

/// Runs the daemon until a `shutdown` request arrives. Announces the
/// bound address on `out` as `listening on HOST:PORT`, then serves.
pub fn run_tcp<W: Write>(
    engine: Arc<ServerEngine>,
    config: &ServeConfig,
    out: &mut W,
) -> Result<(), SoiError> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| SoiError::io("bind 127.0.0.1", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SoiError::io("local_addr", e))?;
    // Touch the self-healing counters so they appear in the metrics
    // report even when nothing failed (0 is an answer, not an absence).
    soi_obs::counter_add!("server.worker_panics", 0);
    soi_obs::counter_add!("server.worker_respawns", 0);
    soi_obs::counter_add!("server.requests_shed", 0);
    soi_obs::counter_add!("server.requests_degraded", 0);
    let built = engine.warm();
    soi_obs::event!(soi_obs::Level::Info, "serving {built} graph(s) on {addr}");
    writeln!(out, "listening on {addr}").map_err(|e| SoiError::io("stdout", e))?;
    out.flush().map_err(|e| SoiError::io("stdout", e))?;

    let workers = soi_util::pool::effective_threads(config.workers, usize::MAX);
    let slow = match (&config.slow_query_log, config.slow_query_ticks) {
        (Some(path), ticks) if ticks > 0 => Some(Arc::new(
            SlowLog::to_file(ticks, path, config.slow_query_log_max_bytes)
                .map_err(|e| SoiError::io("slow-query log", e))?,
        )),
        _ => None,
    };
    let pool = WorkerPool::start_with(Arc::clone(&engine), workers, config.queue_cap, slow);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conns = Connections::new(soi_obs::gauge("server.connections_live"));

    for stream in listener.incoming() {
        // ordering: SeqCst pairs with the store in the shutdown step;
        // one load per accepted connection is not a hot path.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let engine = Arc::clone(&engine);
        let handle = pool.handle();
        let shutdown = Arc::clone(&shutdown);
        let max_line = config.max_line;
        conns.spawn(stream, move |stream| {
            handle_conn(stream, engine, handle, shutdown, addr, max_line);
        });
    }
    drop(listener);

    // Graceful drain: finish queued + in-flight jobs (responses still
    // flow to their connections), then unblock idle readers and join.
    pool.shutdown();
    conns.drain();
    soi_obs::event!(soi_obs::Level::Info, "drained; shutting down");
    Ok(())
}

/// Serves the protocol over an arbitrary reader/writer pair, executing
/// compute requests synchronously (no worker pool). This is the
/// hermetic front-end used by `soi serve --stdio` and the protocol
/// tests; semantics match the TCP daemon except for admission control
/// (a single sequential lane cannot overflow).
pub fn run_stdio<R: BufRead, W: Write>(
    engine: &ServerEngine,
    max_line: usize,
    input: &mut R,
    out: &mut W,
) -> Result<(), SoiError> {
    engine.warm();
    loop {
        let read = read_line_capped(input, max_line).map_err(|e| SoiError::io("stdin", e))?;
        let line = match read {
            LineRead::Eof { mid_line } => {
                if mid_line {
                    soi_obs::counter_add!("server.client_disconnects", 1);
                }
                return Ok(());
            }
            LineRead::Oversized | LineRead::NotUtf8 => {
                let err = match read {
                    LineRead::Oversized => SoiError::protocol(
                        ProtoErrorKind::OversizedLine,
                        format!("request line exceeds {max_line} bytes"),
                    ),
                    _ => SoiError::protocol(
                        ProtoErrorKind::MalformedJson,
                        "request line is not valid UTF-8",
                    ),
                };
                protocol::write_line(out, &protocol::encode_error(None, &err))
                    .map_err(|e| SoiError::io("stdout", e))?;
                continue;
            }
            LineRead::Line(line) => line,
        };
        let submit = |envelope: Envelope, mut trace: PhaseTrace| {
            // No queue on the synchronous lane; the phase is recorded at
            // zero so stdio timelines share the TCP schema.
            trace.record("queue_wait", 0, 0);
            worker::execute_job_traced(engine, &envelope, &mut trace, None)
        };
        match handle_line(engine, None, &line, &submit, out) {
            Step::Continue => {}
            Step::Disconnect => return Ok(()),
            Step::Shutdown => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use soi_graph::{gen, ProbGraph};

    fn engine() -> ServerEngine {
        let pg = ProbGraph::fixed(gen::path(6), 1.0).expect("graph");
        let mut engine = ServerEngine::new(EngineConfig {
            num_worlds: 4,
            ..EngineConfig::default()
        });
        engine.add_graph("g", pg);
        engine
    }

    fn serve_lines(input: &str, max_line: usize) -> Vec<String> {
        // Serialized with the tests that arm server.* failpoints: the
        // registry is process-global and warm() hits the build site.
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let mut reader = BufReader::new(input.as_bytes());
        let mut out = Vec::new();
        run_stdio(&engine, max_line, &mut reader, &mut out).expect("run_stdio");
        String::from_utf8_lossy(&out)
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn stdio_serves_health_and_compute() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":1,\"type\":\"health\"}\n\
             {\"v\":1,\"id\":2,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"sphere\":[0,1,2,3,4,5]"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn stats_payload_has_versioned_sections_and_masks_clean() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":2,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0}\n\
             {\"v\":1,\"id\":1,\"type\":\"stats\"}\n",
            DEFAULT_MAX_LINE,
        );
        let stats = &lines[1];
        for section in [
            "\"stats_version\":2",
            "\"counters\":{",
            "\"gauges\":{",
            "\"histograms\":{",
            "\"timing_hists\":{",
            "\"threads\":[",
            "\"pool\":{\"dispatches\":",
            "\"server.requests_total\":",
            "\"server.request_ns\":{\"count\":",
        ] {
            assert!(stats.contains(section), "missing {section} in {stats}");
        }
        // The snapshot parses as JSON both raw and wall-masked — the
        // wall_ prefix only ever names scalar fields.
        crate::json::parse(stats).expect("raw stats parse");
        let masked = soi_obs::report::mask_wall_clock(stats);
        crate::json::parse(&masked).expect("masked stats parse");
        assert!(masked.contains("\"wall_p50_ns\":0"), "{masked}");
    }

    #[test]
    fn stdio_traced_compute_returns_timeline() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":7,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0,\"trace\":true}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        for phase in ["parse", "queue_wait", "cache", "compute", "serialize"] {
            assert!(
                line.contains(&format!("{{\"phase\":\"{phase}\",\"ticks\":")),
                "missing {phase} in {line}"
            );
        }
        // The parse phase bills one tick per request-line byte.
        assert!(
            line.contains("{\"phase\":\"parse\",\"ticks\":75,"),
            "{line}"
        );
    }

    #[test]
    fn stdio_shutdown_stops_the_loop() {
        let lines = serve_lines(
            "{\"v\":1,\"id\":1,\"type\":\"shutdown\"}\n\
             {\"v\":1,\"id\":2,\"type\":\"health\"}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 1, "requests after shutdown are not served");
        assert!(lines[0].contains("\"draining\":true"));
    }

    #[test]
    fn oversized_line_is_rejected_and_skipped() {
        let big = format!("{{\"v\":1,\"id\":1,\"pad\":\"{}\"}}", "x".repeat(300));
        let input = format!("{big}\n{{\"v\":1,\"id\":2,\"type\":\"health\"}}\n");
        let lines = serve_lines(&input, 128);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"kind\":\"oversized-line\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"id\":null"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    }

    /// Counts `write` calls: each is one segment handed to a socket.
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
    fn handle_line_sends_each_answer_in_one_write() {
        // The write passes the `server.response.write` failpoint site.
        let _g = soi_util::failpoint::test_guard();
        let engine = engine();
        let submit = |envelope: Envelope, _trace: PhaseTrace| {
            protocol::encode_ok(envelope.id, "\"sphere\":[0]", 0)
        };
        let mut writer = CountingWriter::default();
        for (n, line) in [
            "{\"v\":1,\"id\":1,\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":0}",
            "{\"v\":1,\"id\":2,\"type\":\"health\"}",
            "not json at all",
        ]
        .into_iter()
        .enumerate()
        {
            assert!(matches!(
                handle_line(&engine, None, line, &submit, &mut writer),
                Step::Continue
            ));
            assert_eq!(
                writer.writes,
                n + 1,
                "one write per answer, line and newline"
            );
            assert_eq!(writer.bytes.last(), Some(&b'\n'));
        }
        assert_eq!(String::from_utf8_lossy(&writer.bytes).lines().count(), 3);
    }

    #[test]
    fn capped_reader_classifies_eof() {
        let mut r = BufReader::new(&b"whole line\npartial"[..]);
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Line(l) if l == "whole line"
        ));
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Eof { mid_line: true }
        ));
        assert!(matches!(
            read_line_capped(&mut r, 64).expect("read"),
            LineRead::Eof { mid_line: false }
        ));
    }

    #[test]
    fn malformed_and_unknown_types_answered_inline() {
        let lines = serve_lines(
            "not json at all\n\
             {\"v\":9,\"id\":3,\"type\":\"health\"}\n\
             {\"v\":1,\"id\":4,\"type\":\"frobnicate\"}\n\
             {\"v\":1,\"id\":5,\"type\":\"health\"}\n",
            DEFAULT_MAX_LINE,
        );
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"kind\":\"malformed-json\""));
        assert!(lines[1].contains("\"kind\":\"version-mismatch\""));
        assert!(lines[2].contains("\"kind\":\"unknown-type\""));
        assert!(lines[3].contains("\"ok\":true"), "loop survives bad input");
    }
}
