//! The shard router: a front-end daemon that fans queries out over a
//! fleet of `soi serve` worker daemons.
//!
//! `soi route` binds a TCP port speaking the exact same versioned
//! line-delimited JSON protocol as a single daemon — clients cannot
//! tell the difference, and `soi query`/`soi stats` work unchanged.
//! Behind the front door, graph names are consistent-hashed onto shards
//! ([`shard::ShardMap`]) and each compute request is relayed verbatim
//! to one replica of the owning shard, so the shard's answer bytes are
//! the answer bytes (byte-identical convergence is inherited, not
//! reimplemented).
//!
//! The robustness surface:
//!
//! * **Replica failover** — a connect failure, mid-request EOF, or
//!   version-skewed answer marks the replica unhealthy and the request
//!   is retried on the next replica (capped deterministic backoff,
//!   [`soi_util::backoff::delay_with_hint`]). Health is advisory:
//!   dark replicas are probed last, never abandoned, so a respawned
//!   daemon heals the fabric.
//! * **Typed `shard-unavailable`** — when the retry budget is spent
//!   with every replica of the owning shard down, the client gets a
//!   typed error naming the shard, never a hang or a dropped line.
//! * **Load shedding** — a shard's structured `queue-full` rejection is
//!   relayed verbatim (the `retry_after_ticks` hint re-emitted by
//!   construction) and additionally arms a deterministic shed window:
//!   the next `hint/16` requests for that shard are answered
//!   `queue-full` at the router without touching the overloaded shard.
//! * **Drain and rebalance** — `shutdown` stops the accept loop and
//!   drains open connections exactly like the single daemon; the
//!   `rebalance` control re-homes one graph without touching in-flight
//!   requests (they complete on the shard they already resolved to).
//!   With `--overrides-file` the override table is persisted through
//!   [`soi_util::ckpt`] (checksummed, atomic rename) after every
//!   accepted rebalance and reloaded at startup, pinned to the shard
//!   layout — a restarted router re-homes every graph identically.
//! * **Aggregated stats** — `stats` answers the v2 payload with the
//!   router's own registry merged with the summed counters of one live
//!   replica per shard, plus a `shards` health array.

pub mod shard;

use crate::client;
use crate::conns::Connections;
use crate::daemon::{self, read_line_capped, LineRead};
use crate::json::{self, Value};
use crate::protocol::{self, Request, DEFAULT_MAX_LINE};
use shard::ShardMap;
use soi_util::ckpt::{self, ByteReader, Checkpoint, KIND_ROUTER_OVERRIDES};
use soi_util::hash::Mix64Hasher;
use soi_util::{ProtoErrorKind, SoiError};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest single backoff sleep between replica attempts (ticks ≈ ms).
const BACKOFF_CAP_TICKS: u64 = 1024;

/// Router options fixed at startup.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; announced on
    /// stdout as `listening on HOST:PORT`, same as `soi serve`).
    pub port: u16,
    /// Replica address sets, one per shard (`host:port` each).
    pub shards: Vec<Vec<String>>,
    /// Retry attempts per request across a shard's replicas (the first
    /// attempt is free; `retries` more are allowed).
    pub replica_retries: u32,
    /// Base backoff delay in ticks (1 tick = 1 ms) between replica
    /// attempts; doubles per attempt, capped. 0 disables sleeping.
    pub backoff_ticks: u64,
    /// Request-line length cap in bytes.
    pub max_line: usize,
    /// When set, the rebalance-override table is persisted to this
    /// checkpoint file after every accepted `rebalance` and reloaded at
    /// startup (missing file = empty table; corrupt or layout-mismatched
    /// file = typed startup error).
    pub overrides_path: Option<PathBuf>,
    /// Background liveness-probe period in milliseconds (0 = disabled).
    /// When on, a probe thread sends a `health` request to every
    /// replica each period, so a healed replica is marked healthy
    /// *before* the next client request needs a failover — without it,
    /// recovery is only discovered by spending a retry on the replica.
    pub probe_interval_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            port: 0,
            shards: Vec::new(),
            replica_retries: 2,
            backoff_ticks: 1,
            max_line: DEFAULT_MAX_LINE,
            overrides_path: None,
            probe_interval_ms: 0,
        }
    }
}

/// One background probe sweep: a `health` round-trip to every replica.
/// A replica that answers a version-correct line is marked healthy (a
/// previously-dark one counts as a recovery); one that does not is
/// marked unhealthy, so probing also *detects* silent death instead of
/// leaving it to the next client request.
fn probe_sweep(state: &RouterState) {
    for (shard_idx, replicas) in state.map.health_snapshot().iter().enumerate() {
        for (replica_idx, replica) in replicas.iter().enumerate() {
            soi_obs::counter_add!("router.probe_attempts", 1);
            let alive = split_addr(&replica.addr)
                .and_then(|(host, port)| {
                    client::send_one(host, port, "{\"v\":1,\"id\":0,\"type\":\"health\"}").ok()
                })
                .is_some_and(|line| protocol::check_response_version(&line).is_ok());
            if alive && !replica.healthy {
                soi_obs::counter_add!("router.probe_recoveries", 1);
                soi_obs::event!(
                    soi_obs::Level::Info,
                    "probe re-adopted replica {} of shard {shard_idx}",
                    replica.addr
                );
            }
            state.map.mark(shard_idx, replica_idx, alive);
        }
    }
}

/// Shared router state: the shard map plus the retry policy.
struct RouterState {
    map: ShardMap,
    replica_retries: u32,
    backoff_ticks: u64,
    /// Persistence target for the override table, when configured:
    /// `(path, layout fingerprint)`.
    persist: Option<(PathBuf, u64)>,
}

/// Fingerprint of the shard layout (count and every replica address, in
/// order). Pins a persisted override file to the fleet that wrote it:
/// shard *indices* only mean something relative to a concrete layout.
fn layout_fingerprint(shards: &[Vec<String>]) -> u64 {
    let mut h = Mix64Hasher::new();
    h.update_u64(shards.len() as u64);
    for replicas in shards {
        h.update_u64(replicas.len() as u64);
        for addr in replicas {
            h.update_u64(addr.len() as u64);
            h.update(addr.as_bytes());
        }
    }
    h.finish()
}

/// Serializes the override table: entry count, then per entry the
/// graph-name length (u32), name bytes, and shard index (u32). BTreeMap
/// iteration order makes the bytes canonical for a given table.
fn encode_overrides(overrides: &BTreeMap<String, usize>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(overrides.len() as u64).to_le_bytes());
    for (graph, &shard) in overrides {
        out.extend_from_slice(&(graph.len() as u32).to_le_bytes());
        out.extend_from_slice(graph.as_bytes());
        out.extend_from_slice(&(shard as u32).to_le_bytes());
    }
    out
}

/// Decodes an override payload written by [`encode_overrides`].
fn decode_overrides(payload: &[u8]) -> Result<BTreeMap<String, usize>, SoiError> {
    let mut r = ByteReader::new(payload);
    let count = r.u64("override count")?;
    let mut overrides = BTreeMap::new();
    for _ in 0..count {
        let name_len = r.u32("override name length")? as usize;
        let name = std::str::from_utf8(r.take(name_len, "override name")?)
            .map_err(|_| SoiError::invalid("override name is not UTF-8"))?
            .to_string();
        let shard = r.u32("override shard")? as usize;
        overrides.insert(name, shard);
    }
    r.expect_end("override table")?;
    Ok(overrides)
}

/// Writes the override table to `path` as a [`KIND_ROUTER_OVERRIDES`]
/// checkpoint (atomic tmp-file + rename, trailing checksum).
fn save_overrides(
    path: &std::path::Path,
    layout_fp: u64,
    overrides: &BTreeMap<String, usize>,
) -> Result<(), SoiError> {
    soi_util::failpoint!("router.overrides.persist");
    let payload = encode_overrides(overrides);
    ckpt::write_checkpoint(
        path,
        &Checkpoint {
            kind: KIND_ROUTER_OVERRIDES,
            graph_fingerprint: layout_fp,
            // The layout fingerprint already covers everything placement
            // depends on; there is no separate run configuration.
            config_fingerprint: layout_fp,
            total_units: overrides.len() as u64,
            done_units: overrides.len() as u64,
            payload,
        },
    )
}

/// Loads a persisted override table. A missing file is an empty table
/// (first boot); a corrupt or layout-mismatched file is a typed error —
/// silently dropping overrides would re-home graphs behind the
/// operator's back.
fn load_overrides_file(
    path: &std::path::Path,
    layout_fp: u64,
) -> Result<BTreeMap<String, usize>, SoiError> {
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let loaded = ckpt::read_checkpoint(path, KIND_ROUTER_OVERRIDES)?;
    loaded.validate(KIND_ROUTER_OVERRIDES, layout_fp, layout_fp)?;
    decode_overrides(&loaded.payload)
}

/// `host:port` split for `TcpStream::connect` / `send_one`.
fn split_addr(addr: &str) -> Option<(&str, u16)> {
    let (host, port) = addr.rsplit_once(':')?;
    Some((host, port.parse().ok()?))
}

/// How one forwarded request came back.
enum Forwarded {
    /// The shard's raw response line, relayed verbatim.
    Relay(String),
    /// A router-synthesized error line (shard dark, or skewed).
    Synthesized(String),
}

/// Relays one raw request line to a replica of `shard_idx`, failing
/// over across replicas. `conn` caches this connection's open stream to
/// the shard between requests (one request in flight per client
/// connection, matching the daemon's own discipline).
#[allow(clippy::type_complexity)]
fn forward(
    state: &RouterState,
    conn: &mut Option<(usize, TcpStream, BufReader<TcpStream>)>,
    shard_idx: usize,
    id: u64,
    line: &str,
) -> Forwarded {
    // Shed window armed by a recent queue-full rejection: answer at the
    // router, re-emitting the shard's own depth and hint.
    if let Some((depth, hint)) = state.map.take_shed(shard_idx) {
        soi_obs::counter_add!("router.requests_shed", 1);
        return Forwarded::Synthesized(protocol::encode_queue_full(id, depth as usize, hint));
    }
    let mut last_skew: Option<String> = None;
    let mut attempt: u32 = 0;
    while attempt <= state.replica_retries {
        let (replica_idx, mut stream, mut reader) = match conn.take() {
            Some(live) => live,
            None => {
                let order = state.map.replica_order(shard_idx);
                let (ridx, addr) = &order[attempt as usize % order.len()];
                match split_addr(addr).map(|(host, port)| TcpStream::connect((host, port))) {
                    Some(Ok(stream)) => match stream.try_clone() {
                        Ok(clone) => (*ridx, stream, BufReader::new(clone)),
                        Err(_) => {
                            retry(state, &mut attempt, shard_idx, *ridx);
                            continue;
                        }
                    },
                    _ => {
                        retry(state, &mut attempt, shard_idx, *ridx);
                        continue;
                    }
                }
            }
        };
        soi_util::failpoint_crash!("router.forward.write");
        if protocol::write_line(&mut stream, line).is_err() {
            retry(state, &mut attempt, shard_idx, replica_idx);
            continue;
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(n) if n > 0 => {
                let response = response.trim_end().to_string();
                if let Err(skew) = protocol::check_response_version(&response) {
                    soi_obs::counter_add!("router.protocol_mismatches", 1);
                    last_skew = Some(skew.to_string());
                    retry(state, &mut attempt, shard_idx, replica_idx);
                    continue;
                }
                state.map.mark(shard_idx, replica_idx, true);
                if attempt > 0 {
                    soi_obs::counter_add!("router.failovers", 1);
                }
                soi_obs::counter_add!("router.forwarded", 1);
                if let Some((depth, hint)) = queue_full_detail(&response) {
                    state.map.arm_shed(shard_idx, depth, hint);
                }
                *conn = Some((replica_idx, stream, reader));
                return Forwarded::Relay(response);
            }
            _ => {
                retry(state, &mut attempt, shard_idx, replica_idx);
                continue;
            }
        }
    }
    // Budget spent. A consistently version-skewed shard is diagnosed as
    // skew; a dark one as shard-unavailable. Either way the client gets
    // a typed line, never a hang.
    if let Some(skew) = last_skew {
        return Forwarded::Synthesized(protocol::encode_error(
            Some(id),
            &SoiError::protocol(ProtoErrorKind::ProtocolMismatch, skew),
        ));
    }
    soi_obs::counter_add!("router.shard_unavailable", 1);
    Forwarded::Synthesized(protocol::encode_error(
        Some(id),
        &SoiError::protocol(
            ProtoErrorKind::ShardUnavailable,
            format!("all replicas of shard {shard_idx} are unreachable"),
        ),
    ))
}

/// Books one failed attempt: marks the replica unhealthy, sleeps the
/// backoff schedule, and advances the attempt counter.
fn retry(state: &RouterState, attempt: &mut u32, shard_idx: usize, replica_idx: usize) {
    state.map.mark(shard_idx, replica_idx, false);
    soi_obs::counter_add!("router.forward_retries", 1);
    let ticks =
        soi_util::backoff::delay_with_hint(state.backoff_ticks, *attempt, BACKOFF_CAP_TICKS, 0);
    if ticks > 0 {
        std::thread::sleep(Duration::from_millis(ticks));
    }
    *attempt += 1;
}

/// The `(queue_depth, retry_after_ticks)` of a structured `queue-full`
/// rejection, when `line` is one.
fn queue_full_detail(line: &str) -> Option<(u64, u64)> {
    if !line.contains("\"kind\":\"queue-full\"") {
        return None;
    }
    let err = json::parse(line).ok()?.get("error")?.clone();
    Some((
        err.get("queue_depth").and_then(Value::as_u64)?,
        err.get("retry_after_ticks").and_then(Value::as_u64)?,
    ))
}

/// Builds the router's aggregated `stats` payload: summed flat `graphs`
/// and counters over one reachable replica per shard, a `shards` health
/// array, and the router process's own v2 sections with the shard
/// counter sums merged in.
fn stats_payload(state: &RouterState) -> String {
    let snapshot = state.map.health_snapshot();
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    let mut graphs_total: u64 = 0;
    let mut shards_json: Vec<String> = Vec::with_capacity(snapshot.len());
    for (shard_idx, replicas) in snapshot.iter().enumerate() {
        let mut polled = false;
        for replica in replicas {
            if polled {
                break;
            }
            let Some((host, port)) = split_addr(&replica.addr) else {
                continue;
            };
            let Ok(line) = client::send_one(host, port, "{\"v\":1,\"id\":0,\"type\":\"stats\"}")
            else {
                continue;
            };
            let Ok(doc) = json::parse(&line) else {
                continue;
            };
            polled = true;
            graphs_total += doc.get("graphs").and_then(Value::as_u64).unwrap_or(0);
            if let Some(counters) = doc.get("counters").and_then(Value::as_obj) {
                for (name, v) in counters {
                    if let Some(v) = v.as_u64() {
                        *agg.entry(name.clone()).or_default() += v;
                    }
                }
            }
        }
        let replicas_json: Vec<String> = replicas
            .iter()
            .map(|r| {
                format!(
                    "{{\"addr\":\"{}\",\"healthy\":{},\"forwarded\":{},\"failures\":{}}}",
                    json::escape(&r.addr),
                    r.healthy,
                    r.forwarded,
                    r.failures
                )
            })
            .collect();
        shards_json.push(format!(
            "{{\"shard\":{shard_idx},\"replicas\":[{}]}}",
            replicas_json.join(",")
        ));
    }
    // Merge the router's own registry counters into the shard sums; the
    // name spaces are disjoint (router.* vs server.*) so `soi stats`
    // against the router sees the whole fabric in one counters map.
    for (name, v) in soi_obs::metrics::registry().counter_values() {
        *agg.entry(name).or_default() += v;
    }
    let counters: Vec<String> = agg
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!(
        "\"graphs\":{graphs_total},\"shards\":[{}],\"counters\":{{{}}},{}",
        shards_json.join(","),
        counters.join(","),
        v2_sections_without_counters()
    )
}

/// The daemon's v2 sections minus its registry-only `counters` object
/// (the router substitutes the merged fabric-wide map).
fn v2_sections_without_counters() -> String {
    let sections = daemon::v2_sections();
    // v2_sections emits `"stats_version":N,"counters":{...},"gauges":…`;
    // cut the counters object out by matching its brace span.
    let Some(start) = sections.find("\"counters\":{") else {
        return sections;
    };
    let tail = &sections[start..];
    let mut depth = 0usize;
    let mut end = None;
    for (at, c) in tail.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(at);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(end) = end else {
        return sections;
    };
    // Also consume the trailing comma separating it from the next key.
    let mut rest = start + end + 1;
    if sections[rest..].starts_with(',') {
        rest += 1;
    }
    format!("{}{}", &sections[..start], &sections[rest..])
}

/// Builds the inline response for a control request at the router.
fn control_response(state: &RouterState, id: u64, req: &Request) -> String {
    match req {
        Request::Health => protocol::encode_ok(
            id,
            &format!("\"ok\":true,\"shards\":{}", state.map.len()),
            0,
        ),
        Request::Stats => protocol::encode_ok(id, &stats_payload(state), 0),
        Request::Shutdown => protocol::encode_ok(id, "\"draining\":true", 0),
        Request::Rebalance { graph, shard } => match state.map.rebalance(graph, *shard) {
            Ok(()) => {
                soi_obs::counter_add!("router.rebalances", 1);
                // Persist best-effort: the in-memory override is already
                // live, and failing the rebalance over a disk hiccup
                // would leave the operator unsure which state won. The
                // counter and event make the divergence visible.
                if let Some((path, layout_fp)) = &state.persist {
                    if let Err(err) =
                        save_overrides(path, *layout_fp, &state.map.overrides_snapshot())
                    {
                        soi_obs::counter_add!("router.override_persist_errors", 1);
                        soi_obs::event!(
                            soi_obs::Level::Warn,
                            "override persist to {} failed: {err}",
                            path.display()
                        );
                    }
                }
                protocol::encode_ok(
                    id,
                    &format!(
                        "\"rebalanced\":\"{}\",\"shard\":{shard}",
                        json::escape(graph)
                    ),
                    0,
                )
            }
            Err(message) => protocol::encode_error(
                Some(id),
                &SoiError::protocol(ProtoErrorKind::BadField, message),
            ),
        },
        _ => protocol::encode_error(
            Some(id),
            &SoiError::protocol(ProtoErrorKind::BadField, "not a control request"),
        ),
    }
}

/// Serves one client connection: reads request lines, answers controls
/// inline, relays compute requests to the owning shard.
fn handle_conn(
    stream: TcpStream,
    state: Arc<RouterState>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    max_line: usize,
) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // Per-shard cached connections for this client connection.
    let mut conns: Vec<Option<(usize, TcpStream, BufReader<TcpStream>)>> =
        (0..state.map.len()).map(|_| None).collect();
    loop {
        let read = match read_line_capped(&mut reader, max_line) {
            Ok(read) => read,
            Err(_) => return,
        };
        let line = match read {
            LineRead::Eof { .. } => return,
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
                    return;
                }
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        soi_obs::counter_add!("router.requests_total", 1);
        let started = Instant::now();
        let (response, is_shutdown) = match protocol::parse_request(&line) {
            Err(err) => (protocol::encode_error(None, &err), false),
            Ok(envelope) if envelope.req.is_control() => {
                let is_shutdown = envelope.req == Request::Shutdown;
                let mut resp = control_response(&state, envelope.id, &envelope.req);
                let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if let Some(stripped) = resp.strip_suffix("\"wall_ns\":0}") {
                    resp = format!("{stripped}\"wall_ns\":{wall_ns}}}");
                }
                (resp, is_shutdown)
            }
            Ok(envelope) => {
                // Compute requests always name a graph (the parser
                // enforced it); resolve and relay the raw line so the
                // shard's bytes are the client's bytes.
                let graph = envelope.req.graph().unwrap_or_default();
                let shard_idx = state.map.shard_for(graph);
                let answer = forward(&state, &mut conns[shard_idx], shard_idx, envelope.id, &line);
                match answer {
                    Forwarded::Relay(line) | Forwarded::Synthesized(line) => (line, false),
                }
            }
        };
        soi_util::failpoint_crash!("router.response.write");
        if protocol::write_line(&mut writer, &response).is_err() {
            return;
        }
        if is_shutdown {
            // ordering: SeqCst on a once-per-process control flag; the
            // cold path favors clarity (same as the daemon).
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Runs the router until a `shutdown` request arrives. Announces the
/// bound address on `out` as `listening on HOST:PORT`, then routes.
pub fn run_router<W: Write>(config: &RouterConfig, out: &mut W) -> Result<(), SoiError> {
    if config.shards.is_empty() {
        return Err(SoiError::invalid("router needs at least one shard"));
    }
    for replicas in &config.shards {
        for addr in replicas {
            if split_addr(addr).is_none() {
                return Err(SoiError::invalid(format!(
                    "bad replica address {addr:?} (want host:port)"
                )));
            }
        }
    }
    let listener = TcpListener::bind(("127.0.0.1", config.port))
        .map_err(|e| SoiError::io("bind 127.0.0.1", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SoiError::io("local_addr", e))?;
    // Touch every router counter so 0 is reported, not absent.
    soi_obs::counter_add!("router.requests_total", 0);
    soi_obs::counter_add!("router.forwarded", 0);
    soi_obs::counter_add!("router.forward_retries", 0);
    soi_obs::counter_add!("router.failovers", 0);
    soi_obs::counter_add!("router.shard_unavailable", 0);
    soi_obs::counter_add!("router.requests_shed", 0);
    soi_obs::counter_add!("router.rebalances", 0);
    soi_obs::counter_add!("router.protocol_mismatches", 0);
    soi_obs::counter_add!("router.override_persist_errors", 0);
    soi_obs::counter_add!("router.probe_attempts", 0);
    soi_obs::counter_add!("router.probe_recoveries", 0);
    soi_obs::gauge("router.replicas_unhealthy").set(0.0);
    let layout_fp = layout_fingerprint(&config.shards);
    let map = ShardMap::new(config.shards.clone());
    if let Some(path) = &config.overrides_path {
        let overrides = load_overrides_file(path, layout_fp)?;
        if !overrides.is_empty() {
            soi_obs::event!(
                soi_obs::Level::Info,
                "restored {} rebalance override(s) from {}",
                overrides.len(),
                path.display()
            );
        }
        map.load_overrides(overrides).map_err(SoiError::invalid)?;
    }
    let state = Arc::new(RouterState {
        map,
        replica_retries: config.replica_retries,
        backoff_ticks: config.backoff_ticks,
        persist: config.overrides_path.clone().map(|path| (path, layout_fp)),
    });
    soi_obs::event!(
        soi_obs::Level::Info,
        "routing {} shard(s) on {addr}",
        state.map.len()
    );
    writeln!(out, "listening on {addr}").map_err(|e| SoiError::io("stdout", e))?;
    out.flush().map_err(|e| SoiError::io("stdout", e))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let probe_thread = (config.probe_interval_ms > 0).then(|| {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let interval = Duration::from_millis(config.probe_interval_ms);
        std::thread::spawn(move || {
            // ordering: SeqCst pairs with the shutdown store; one load
            // per probe period is not a hot path.
            while !shutdown.load(Ordering::SeqCst) {
                probe_sweep(&state);
                // Sleep in small slices so shutdown is not delayed by
                // up to a whole probe period.
                let mut slept = Duration::ZERO;
                // ordering: SeqCst pairs with the shutdown store, as above.
                while slept < interval && !shutdown.load(Ordering::SeqCst) {
                    let step = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    slept += step;
                }
            }
        })
    });
    let mut conns = Connections::new(soi_obs::gauge("router.connections_live"));
    for stream in listener.incoming() {
        // ordering: SeqCst pairs with the store in the shutdown step.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let max_line = config.max_line;
        conns.spawn(stream, move |stream| {
            handle_conn(stream, state, shutdown, addr, max_line);
        });
    }
    drop(listener);

    // Graceful drain: stop reading new requests; in-flight relays have
    // already resolved their shard and complete normally.
    conns.drain();
    if let Some(thread) = probe_thread {
        let _ = thread.join();
    }
    soi_obs::event!(soi_obs::Level::Info, "router drained; shutting down");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_split_round_trips() {
        assert_eq!(split_addr("127.0.0.1:8080"), Some(("127.0.0.1", 8080)));
        assert_eq!(split_addr("localhost:1"), Some(("localhost", 1)));
        assert_eq!(split_addr("no-port"), None);
        assert_eq!(split_addr("bad:port"), None);
    }

    #[test]
    fn queue_full_detail_reads_the_structured_fields() {
        let line = protocol::encode_queue_full(4, 8, 32);
        assert_eq!(queue_full_detail(&line), Some((8, 32)));
        assert_eq!(queue_full_detail("{\"v\":1,\"status\":\"ok\"}"), None);
    }

    #[test]
    fn v2_sections_surgery_removes_exactly_the_counters_object() {
        let cut = v2_sections_without_counters();
        assert!(!cut.contains("\"counters\":{"), "{cut}");
        for kept in ["\"stats_version\":", "\"gauges\":{", "\"timing_hists\":{"] {
            assert!(cut.contains(kept), "missing {kept} in {cut}");
        }
        // The spliced fragment still parses when wrapped as an object.
        crate::json::parse(&format!("{{{cut}}}")).expect("spliced sections parse");
    }

    #[test]
    fn overrides_round_trip_through_the_checkpoint_file() {
        let dir = std::env::temp_dir().join(format!("soi-router-ovr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overrides.ckpt");
        let layout = vec![
            vec!["127.0.0.1:9000".to_string()],
            vec!["127.0.0.1:9010".to_string(), "127.0.0.1:9011".to_string()],
        ];
        let fp = layout_fingerprint(&layout);
        // Missing file reads back as an empty table (first boot).
        assert!(load_overrides_file(&path, fp).unwrap().is_empty());
        let mut table = BTreeMap::new();
        table.insert("net".to_string(), 1usize);
        table.insert("soc-epinions".to_string(), 0usize);
        save_overrides(&path, fp, &table).unwrap();
        assert_eq!(load_overrides_file(&path, fp).unwrap(), table);
        // A different shard layout refuses the file outright.
        let other = layout_fingerprint(&[vec!["127.0.0.1:9000".to_string()]]);
        assert_ne!(fp, other);
        let err = load_overrides_file(&path, other).unwrap_err();
        assert!(matches!(err, SoiError::CkptMismatch { .. }), "{err:?}");
        // Corruption is caught by the checkpoint checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        assert!(load_overrides_file(&path, fp).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn override_decode_rejects_trailing_bytes() {
        let mut table = BTreeMap::new();
        table.insert("g".to_string(), 0usize);
        let mut payload = encode_overrides(&table);
        assert_eq!(decode_overrides(&payload).unwrap(), table);
        payload.push(0);
        assert!(decode_overrides(&payload).is_err(), "trailing byte");
    }

    #[test]
    fn layout_fingerprint_separates_address_boundaries() {
        // Same concatenated bytes, different replica split — must differ.
        let a = layout_fingerprint(&[vec!["ab:1".to_string(), "c:2".to_string()]]);
        let b = layout_fingerprint(&[vec!["ab:1c".to_string(), ":2".to_string()]]);
        assert_ne!(a, b);
    }

    #[test]
    fn bad_configs_are_rejected_before_binding() {
        let mut out = Vec::new();
        let err = run_router(&RouterConfig::default(), &mut out).expect_err("no shards");
        assert!(err.to_string().contains("at least one shard"));
        let config = RouterConfig {
            shards: vec![vec!["nonsense".into()]],
            ..RouterConfig::default()
        };
        let err = run_router(&config, &mut out).expect_err("bad addr");
        assert!(err.to_string().contains("nonsense"), "{err}");
    }
}
