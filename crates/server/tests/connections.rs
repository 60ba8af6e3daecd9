//! Connection lifecycle of the two TCP front-ends, in-process: answers
//! on a reused connection are not stalled by Nagle's algorithm, and a
//! closed connection leaves no socket, descriptor or registry entry
//! behind in the daemon or the router.
//!
//! Descriptor counts and the `*.connections_live` gauges are
//! process-wide, so every test here holds [`serial`].

use soi_graph::{gen, ProbGraph};
use soi_server::{run_router, run_tcp, EngineConfig, QueryConfig, RouterConfig, ServeConfig};
use soi_server::{send_one, ServerEngine};
use std::io::Write;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One-shot requests per front-end in the reaping tests.
const ONE_SHOT: usize = 300;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `out` writer that sends the port of the `listening on HOST:PORT`
/// announcement through a channel, once the line is complete.
struct Announce {
    buf: String,
    tx: mpsc::Sender<u16>,
}

impl Write for Announce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.push_str(&String::from_utf8_lossy(buf));
        if self.buf.contains('\n') {
            if let Some(port) = self
                .buf
                .trim()
                .rsplit(':')
                .next()
                .and_then(|p| p.parse().ok())
            {
                let _ = self.tx.send(port);
            }
            self.buf.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `serve` on a thread, handing it an [`Announce`]; returns the
/// announced port and the thread.
fn start(serve: impl FnOnce(&mut Announce) + Send + 'static) -> (u16, JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let mut announce = Announce {
            buf: String::new(),
            tx,
        };
        serve(&mut announce);
    });
    let port = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("port announcement");
    (port, thread)
}

fn start_daemon() -> (u16, JoinHandle<()>) {
    let pg = ProbGraph::fixed(gen::path(30), 1.0).expect("graph");
    let mut engine = ServerEngine::new(EngineConfig {
        num_worlds: 8,
        seed: 5,
        ..EngineConfig::default()
    });
    engine.add_graph("g", pg);
    let engine = Arc::new(engine);
    start(move |out| {
        let config = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        run_tcp(engine, &config, out).expect("daemon run");
    })
}

fn stop(port: u16, thread: JoinHandle<()>) {
    let ack = send_one("127.0.0.1", port, r#"{"v":1,"id":999,"type":"shutdown"}"#)
        .expect("shutdown round trip");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    thread.join().expect("front-end thread");
}

fn tc_request(id: usize) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"type\":\"typical-cascade\",\"graph\":\"g\",\"source\":{}}}",
        id % 30
    )
}

/// Open descriptors of this process (Linux only).
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// Waits until the gauge `name` reads zero (its connection threads all
/// saw their client close).
fn await_no_live_connections(name: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while soi_obs::gauge(name).get() != 0.0 {
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {}",
            soi_obs::gauge(name).get()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends [`ONE_SHOT`] requests to `port`, each on a fresh connection,
/// and checks that no descriptor outlives its connection.
fn one_shot_requests_leave_nothing_behind(port: u16, gauges: &[&str]) {
    let before = open_fds();
    for id in 0..ONE_SHOT {
        let answer = send_one("127.0.0.1", port, &tc_request(id)).expect("round trip");
        assert!(answer.contains("\"status\":\"ok\""), "{answer}");
    }
    for gauge in gauges {
        await_no_live_connections(gauge);
    }
    if let (Some(before), Some(after)) = (before, open_fds()) {
        assert!(
            after < before + 16,
            "{ONE_SHOT} closed connections left {} descriptors open",
            after.saturating_sub(before)
        );
    }
}

#[test]
fn sequential_requests_on_one_connection_are_not_stalled() {
    let _g = serial();
    let (port, thread) = start_daemon();
    // Compute answers go through the worker pool, control answers are
    // written inline: both paths share one connection here.
    let requests: Vec<String> = (0..20)
        .map(|id| {
            if id % 4 == 3 {
                format!("{{\"v\":1,\"id\":{id},\"type\":\"health\"}}")
            } else {
                tc_request(id)
            }
        })
        .collect();
    let config = QueryConfig {
        port,
        concurrency: 1,
        ..QueryConfig::default()
    };
    let mut out = Vec::new();
    let started = Instant::now();
    let report = soi_server::run_queries(&requests, &config, &mut out).expect("batch");
    let elapsed = started.elapsed();
    assert_eq!(report.errors, 0, "{}", String::from_utf8_lossy(&out));
    // A line sent in two writes stalls each answer ~40 ms on the peer's
    // delayed ACK: at least 800 ms for 20 requests.
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential requests took {elapsed:?}"
    );
    stop(port, thread);
}

#[test]
fn daemon_reaps_closed_connections() {
    let _g = serial();
    let (port, thread) = start_daemon();
    one_shot_requests_leave_nothing_behind(port, &["server.connections_live"]);
    stop(port, thread);
}

#[test]
fn router_reaps_closed_connections() {
    let _g = serial();
    let (shard_port, shard) = start_daemon();
    let config = RouterConfig {
        shards: vec![vec![format!("127.0.0.1:{shard_port}")]],
        ..RouterConfig::default()
    };
    let (port, router) = start(move |out| run_router(&config, out).expect("router run"));
    // The router's own relay connection to the shard closes with each
    // client connection, so the shard must be left clean too.
    one_shot_requests_leave_nothing_behind(
        port,
        &["router.connections_live", "server.connections_live"],
    );
    stop(port, router);
    stop(shard_port, shard);
}
