//! The TCP front door: accept loop, per-connection deadlines, bounded
//! per-worker queues with admission control, a degradation ladder, an idle
//! reaper and graceful drain.
//!
//! # Architecture
//!
//! ```text
//!                 ┌──────────────────┐  bounded sync queues (depth = queue_depth)
//!   accept loop ─▶│ conn thread      │──▶ worker 0 ─┐ KnowledgeServer clone
//!   (1 thread)    │ (1 / socket)     │──▶ worker 1 ─┤ + per-worker QueryScratch:
//!                 │ read frame       │──▶ …         ┘ top-k misses and ranks
//!                 │ answer inline:   │◀── rendezvous reply channel
//!                 │  ping, stats,    │
//!                 │  reload, score,  │
//!                 │  cached top-k    │
//!                 │ write frame      │
//!                 └──────────────────┘
//!                    ▲ idle reaper (1 thread) tears down silent sockets
//! ```
//!
//! Connection threads do the I/O, admission, and every answer that needs no
//! full-vocabulary scan: a top-k request is looked up in the result cache
//! ([`KnowledgeServer::top_k_cached`]) and a live hit is written back at
//! once, a `Score` scores its one triple (O(d) to O(d²) work, far below the
//! two thread wake-ups of a hand-off), and ping, stats and reload are
//! answered there too. Only the scans — top-k misses
//! ([`KnowledgeServer::top_k_miss`], which caches its answer without a
//! second lookup) and `Rank` — go to the fixed worker pool, each worker
//! reusing one [`QueryScratch`]. A scan that cannot be queued is **shed
//! immediately** with a typed [`ErrorCode::Overloaded`] — the queues are
//! the only buffer, and they are bounded, so overload turns into fast
//! rejections instead of an unbounded backlog and latency collapse. A panic
//! while answering, inline or on a worker, becomes a typed
//! [`ErrorCode::Internal`] response.
//!
//! # Degradation ladder
//!
//! Queue occupancy (`in-flight / (workers × queue_depth)`) drives three
//! service levels, reported in every response header. Inline answers never
//! enter a queue, so only scans count towards occupancy:
//!
//! | level | trigger | behaviour | where answers are produced |
//! |-------|---------|-----------|----------------------------|
//! | 0     | occupancy < `clamp_threshold` | full service | connection thread: cached top-k, score; worker: top-k misses, rank |
//! | 1     | occupancy ≥ `clamp_threshold` | top-k `k` clamped to `degraded_k_clamp` | as level 0, with the clamped key looked up and computed |
//! | 2     | occupancy ≥ `cache_only_threshold` | top-k served **only** from the result cache (an `Arc` clone, no model work), full key first, then the clamped key; cold top-k and all score/rank queries shed as `Overloaded` | connection thread only |
//!
//! The ladder degrades *before* it sheds: clamping bounds per-request work,
//! cache-only keeps absorbing the hot head of a skewed stream at near-zero
//! cost, and only what is left over is rejected. The result cache behind
//! `top_k_cached` is the serving engine's one segmented-LRU cache (sized by
//! `nscaching_serve::CacheConfig`): its eviction order shapes *which* hot
//! head survives to be servable at level 2, and version-stamp invalidation
//! means a stale entry is dropped — never served — even mid-incident.
//!
//! # Deadlines
//!
//! * **read**: once the first byte of a frame arrives the whole frame must
//!   complete within `read_timeout`, or the connection is answered with
//!   [`ErrorCode::DeadlineExceeded`] and closed (a slow-loris client cannot
//!   pin a connection thread).
//! * **write**: `write_timeout` on the socket; a blocked writer fails the
//!   write and the connection is closed.
//! * **queue**: a job older than `queue_deadline` when a worker picks it up
//!   is answered `DeadlineExceeded` *without being executed* (it is
//!   retryable precisely because it never ran).
//! * **idle**: the reaper closes sockets silent for `idle_timeout`.
//!
//! # Graceful drain
//!
//! [`NetServer::shutdown`] stops the accept loop, lets every connection
//! finish the requests it has already received (including frames buffered in
//! the socket when the drain began), waits for the workers to empty their
//! queues, and only then tears the threads down. Every request the server
//! decoded receives exactly one response — the chaos suite asserts the
//! ledger: `decoded + protocol_errors == written + write_failures`, drain
//! included. Connections that keep streaming during a drain are cut off
//! after `drain_grace` with [`ErrorCode::ShuttingDown`].

use crate::fault::{FaultPlan, FaultyStream, Transport};
use crate::metrics::{op_index, NetMetrics};
use crate::wire::{
    code_of_query_error, Answer, ErrorCode, Request, Response, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_obs::{Counter, MetricsRegistry};
use nscaching_serve::{KnowledgeServer, QueryError, QueryScratch, TopKQuery};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every knob of the front door. See the module docs for how they interact;
/// the defaults are production-shaped (seconds-scale deadlines), tests dial
/// them down to milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Worker threads executing queries (each owns a [`QueryScratch`]).
    pub workers: usize,
    /// Bounded queue depth per worker — the only buffering in the server.
    pub queue_depth: usize,
    /// Frame-completion deadline once a frame's first byte arrived.
    pub read_timeout: Duration,
    /// Socket write deadline per response frame.
    pub write_timeout: Duration,
    /// Idle sockets are reaped after this long without a frame.
    pub idle_timeout: Duration,
    /// Poll tick bounding drain/idle reaction latency.
    pub poll_interval: Duration,
    /// A job older than this when a worker picks it up is dropped with
    /// `DeadlineExceeded` instead of executed.
    pub queue_deadline: Duration,
    /// How long a connection thread waits for its worker reply before
    /// answering `DeadlineExceeded` itself.
    pub reply_deadline: Duration,
    /// During a drain, connections that keep sending are cut off with
    /// `ShuttingDown` after this grace period.
    pub drain_grace: Duration,
    /// Frames declaring a longer body are rejected before allocation.
    pub max_frame_len: u32,
    /// Concurrent connection cap; excess accepts are closed immediately.
    pub max_connections: usize,
    /// Level-1 degradation clamps top-k `k` to this.
    pub degraded_k_clamp: u32,
    /// Queue occupancy at which level 1 (k-clamp) engages.
    pub clamp_threshold: f64,
    /// Queue occupancy at which level 2 (cache-only) engages.
    pub cache_only_threshold: f64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(20),
            queue_deadline: Duration::from_secs(1),
            reply_deadline: Duration::from_secs(5),
            drain_grace: Duration::from_secs(1),
            max_frame_len: MAX_FRAME_LEN,
            max_connections: 1024,
            degraded_k_clamp: 16,
            clamp_threshold: 0.5,
            cache_only_threshold: 0.8,
        }
    }
}

/// Monotonic counters of everything the server did. All counters are
/// cumulative since bind and live on the server's [`MetricsRegistry`] —
/// [`NetStatsSnapshot`] and the `STATS` wire exposition read the *same*
/// atomics, so the two views can never disagree.
#[derive(Debug)]
struct NetStats {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    reaped: Arc<Counter>,
    decoded: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    written: Arc<Counter>,
    ok: Arc<Counter>,
    typed_errors: Arc<Counter>,
    shed: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    degraded_l1: Arc<Counter>,
    degraded_l2: Arc<Counter>,
    write_failures: Arc<Counter>,
    read_failures: Arc<Counter>,
    reload_ok: Arc<Counter>,
    reload_failed: Arc<Counter>,
}

impl NetStats {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            accepted: registry.counter("nsc_net_connections_accepted_total"),
            rejected: registry.counter("nsc_net_connections_rejected_total"),
            reaped: registry.counter("nsc_net_connections_reaped_total"),
            decoded: registry.counter("nsc_net_requests_decoded_total"),
            protocol_errors: registry.counter("nsc_net_protocol_errors_total"),
            written: registry.counter("nsc_net_responses_written_total"),
            ok: registry.counter("nsc_net_responses_ok_total"),
            typed_errors: registry.counter("nsc_net_responses_error_total"),
            shed: registry.counter("nsc_net_requests_shed_total"),
            deadline_exceeded: registry.counter("nsc_net_deadline_exceeded_total"),
            degraded_l1: registry
                .counter_with("nsc_net_responses_degraded_total", &[("level", "1")]),
            degraded_l2: registry
                .counter_with("nsc_net_responses_degraded_total", &[("level", "2")]),
            write_failures: registry.counter("nsc_net_write_failures_total"),
            read_failures: registry.counter("nsc_net_read_failures_total"),
            reload_ok: registry.counter_with("nsc_net_reloads_total", &[("outcome", "ok")]),
            reload_failed: registry.counter_with("nsc_net_reloads_total", &[("outcome", "failed")]),
        }
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed immediately (over `max_connections`).
    pub rejected: u64,
    /// Connections torn down by the idle reaper.
    pub reaped: u64,
    /// Requests fully received and decoded.
    pub decoded: u64,
    /// Frames that failed to decode (malformed / unsupported opcode).
    pub protocol_errors: u64,
    /// Response frames fully written.
    pub written: u64,
    /// …of which successes.
    pub ok: u64,
    /// …of which typed errors.
    pub typed_errors: u64,
    /// Requests shed by admission control (`Overloaded` responses).
    pub shed: u64,
    /// Requests dropped on a deadline (`DeadlineExceeded` responses).
    pub deadline_exceeded: u64,
    /// Responses served at degradation level 1 (k-clamp).
    pub degraded_l1: u64,
    /// Responses served at degradation level 2 (cache-only).
    pub degraded_l2: u64,
    /// Response writes that failed (connection died mid-write).
    pub write_failures: u64,
    /// Connections that died mid-read (torn frames, resets).
    pub read_failures: u64,
    /// Hot reloads that swapped the served model.
    pub reload_ok: u64,
    /// Hot reloads rejected with a typed error (model kept serving).
    pub reload_failed: u64,
    /// Jobs admitted but not yet executed at snapshot time (instantaneous,
    /// not cumulative).
    pub in_flight: u64,
    /// Open connections at snapshot time (instantaneous, not cumulative).
    pub active_connections: u64,
}

impl NetStatsSnapshot {
    /// Responses the server attempted (every decoded or undecodable frame
    /// produces exactly one).
    pub fn attempted(&self) -> u64 {
        self.written + self.write_failures
    }

    /// Shed responses as a fraction of decoded requests.
    pub fn shed_rate(&self) -> f64 {
        if self.decoded == 0 {
            0.0
        } else {
            self.shed as f64 / self.decoded as f64
        }
    }

    /// Fraction of written responses served degraded (level ≥ 1).
    pub fn degraded_fraction(&self) -> f64 {
        if self.written == 0 {
            0.0
        } else {
            (self.degraded_l1 + self.degraded_l2) as f64 / self.written as f64
        }
    }

    /// The response ledger: every frame the server decoded — plus every
    /// frame it could not decode — produced exactly one response attempt.
    /// Holds at every quiescent point (no request mid-flight), drain
    /// included; the chaos suite asserts it after every scenario.
    pub fn ledger_balanced(&self) -> bool {
        self.decoded + self.protocol_errors == self.written + self.write_failures
    }
}

/// The requests a worker runs: the two that scan the whole vocabulary.
/// Everything else is answered on the connection thread.
enum Scan {
    /// A top-k query that missed the result cache.
    TopKMiss(TopKQuery),
    /// The rank of a triple among the corruptions of one side.
    Rank(Triple, CorruptionSide),
}

/// One queued unit of work.
struct Job {
    scan: Scan,
    degradation: u8,
    enqueued: Instant,
    reply: SyncSender<Response>,
}

/// State shared by every thread of one server.
struct Shared {
    engine: KnowledgeServer,
    config: NetServerConfig,
    stats: NetStats,
    metrics: NetMetrics,
    draining: AtomicBool,
    /// Millis since `epoch` at which the drain started (0 = not draining).
    drain_since_ms: AtomicU64,
    epoch: Instant,
    in_flight: AtomicUsize,
    active_connections: AtomicUsize,
    /// Reaper registry: conn id → (socket handle, last-active millis).
    registry: Mutex<HashMap<u64, (TcpStream, Arc<AtomicU64>)>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn drain_expired(&self) -> bool {
        let since = self.drain_since_ms.load(Ordering::Acquire);
        since != 0
            && self.now_ms().saturating_sub(since) > self.config.drain_grace.as_millis() as u64
    }

    /// The in-process counter view, including the instantaneous
    /// in-flight/connection levels.
    fn stats_snapshot(&self) -> NetStatsSnapshot {
        let stats = &self.stats;
        NetStatsSnapshot {
            accepted: stats.accepted.get(),
            rejected: stats.rejected.get(),
            reaped: stats.reaped.get(),
            decoded: stats.decoded.get(),
            protocol_errors: stats.protocol_errors.get(),
            written: stats.written.get(),
            ok: stats.ok.get(),
            typed_errors: stats.typed_errors.get(),
            shed: stats.shed.get(),
            deadline_exceeded: stats.deadline_exceeded.get(),
            degraded_l1: stats.degraded_l1.get(),
            degraded_l2: stats.degraded_l2.get(),
            write_failures: stats.write_failures.get(),
            read_failures: stats.read_failures.get(),
            reload_ok: stats.reload_ok.get(),
            reload_failed: stats.reload_failed.get(),
            in_flight: self.in_flight.load(Ordering::Relaxed) as u64,
            active_connections: self.active_connections.load(Ordering::Relaxed) as u64,
        }
    }

    /// Refresh the scrape-time gauges and bridged counters, then render the
    /// registry. This is the `STATS` answer; it runs on a connection thread
    /// and touches no lock the query path contends on (the registry mutex
    /// guards only the entry list, and the engine bridge reads cache stats
    /// the same way [`KnowledgeServer::cache_stats`] does).
    fn render_stats(&self) -> String {
        self.metrics
            .in_flight
            .set(self.in_flight.load(Ordering::Relaxed) as f64);
        self.metrics
            .active_connections
            .set(self.active_connections.load(Ordering::Relaxed) as f64);
        self.engine.publish_metrics();
        self.metrics.registry.render()
    }

    /// Current degradation level from queue occupancy.
    fn degradation_level(&self) -> u8 {
        let capacity = (self.config.workers * self.config.queue_depth).max(1);
        let occupancy = self.in_flight.load(Ordering::Relaxed) as f64 / capacity as f64;
        if occupancy >= self.config.cache_only_threshold {
            2
        } else if occupancy >= self.config.clamp_threshold {
            1
        } else {
            0
        }
    }
}

/// A running front door. Bind with [`NetServer::bind`]; stop with
/// [`NetServer::shutdown`] (graceful drain). Dropping the server without
/// calling `shutdown` drains it too.
pub struct NetServer {
    shared: Arc<Shared>,
    queues: Vec<SyncSender<Job>>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind on `addr` (use port 0 for an ephemeral port) and start serving
    /// `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: KnowledgeServer,
        config: NetServerConfig,
    ) -> io::Result<Self> {
        Self::bind_with_faults(addr, engine, config, None)
    }

    /// [`bind`](Self::bind), with a [`FaultPlan`] layered between the server
    /// and every accepted stream (the chaos harness entry point).
    pub fn bind_with_faults(
        addr: impl ToSocketAddrs,
        engine: KnowledgeServer,
        config: NetServerConfig,
        faults: Option<FaultPlan>,
    ) -> io::Result<Self> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.queue_depth >= 1, "queues must hold at least one job");
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = NetMetrics::register(&registry);
        metrics
            .queue_capacity
            .set((config.workers * config.queue_depth) as f64);
        engine.attach_metrics(Arc::clone(&metrics.serve));
        let shared = Arc::new(Shared {
            engine,
            config,
            stats: NetStats::register(&registry),
            metrics,
            draining: AtomicBool::new(false),
            drain_since_ms: AtomicU64::new(0),
            epoch: Instant::now(),
            in_flight: AtomicUsize::new(0),
            active_connections: AtomicUsize::new(0),
            registry: Mutex::new(HashMap::new()),
        });

        let mut queues = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            queues.push(tx);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nsc-net-worker-{w}"))
                    .spawn(move || worker_loop(&shared, rx))
                    .expect("spawn worker"),
            );
        }

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let queues = queues.clone();
            std::thread::Builder::new()
                .name("nsc-net-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &queues, &conns, faults))
                .expect("spawn accept loop")
        };

        let reaper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nsc-net-reaper".into())
                .spawn(move || reaper_loop(&shared))
                .expect("spawn reaper")
        };

        Ok(Self {
            shared,
            queues,
            addr: local,
            accept: Some(accept),
            workers,
            reaper: Some(reaper),
            conns,
        })
    }

    /// The bound address (resolved port for `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// The metrics registry every layer of this server (net, serve) records
    /// on. Registering further metrics on it is allowed; they will appear in
    /// the `STATS` exposition.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics.registry
    }

    /// The current metrics exposition — exactly the text a `STATS` request
    /// receives over the wire (gauges refreshed, cache counters bridged).
    pub fn exposition(&self) -> String {
        self.shared.render_stats()
    }

    /// The current degradation level (diagnostics; responses carry it too).
    pub fn degradation_level(&self) -> u8 {
        self.shared.degradation_level()
    }

    /// Graceful drain: stop accepting, finish every request already
    /// received, flush the queues, then stop all threads. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> NetStatsSnapshot {
        self.shutdown_inner();
        self.shared.stats_snapshot()
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shared
            .drain_since_ms
            .store(self.shared.now_ms().max(1), Ordering::Release);
        self.shared.draining.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connections drain themselves once they see the flag; join them all
        // (no new ones can appear — the accept loop is gone).
        loop {
            let handle = self.conns.lock().expect("conn registry").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // With every producer gone, closing the queues stops the workers
        // after they finish what was enqueued.
        self.queues.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accept connections until the drain flag rises.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    queues: &[SyncSender<Job>],
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    faults: Option<FaultPlan>,
) {
    let mut next_conn_id: u64 = 0;
    loop {
        let socket = match listener.accept() {
            Ok((socket, _)) => socket,
            Err(_) => {
                if shared.draining() {
                    break;
                }
                continue;
            }
        };
        if shared.draining() {
            // The wake-up connection (or a late client); refuse silently.
            drop(socket);
            break;
        }
        if shared.active_connections.load(Ordering::Relaxed) >= shared.config.max_connections {
            shared.stats.rejected.inc();
            drop(socket);
            continue;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared.stats.accepted.inc();
        shared.active_connections.fetch_add(1, Ordering::Relaxed);

        let last_active = Arc::new(AtomicU64::new(shared.now_ms()));
        if let Ok(clone) = socket.try_clone() {
            shared
                .registry
                .lock()
                .expect("reaper registry")
                .insert(conn_id, (clone, Arc::clone(&last_active)));
        }
        let transport: Box<dyn Transport> = match &faults {
            Some(plan) if plan.is_armed() => {
                Box::new(FaultyStream::new(socket, plan.script_for(conn_id)))
            }
            _ => Box::new(socket),
        };
        let shared = Arc::clone(shared);
        let queues = queues.to_vec();
        let handle = std::thread::Builder::new()
            .name(format!("nsc-net-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(&shared, &queues, transport, &last_active);
                shared
                    .registry
                    .lock()
                    .expect("reaper registry")
                    .remove(&conn_id);
                shared.active_connections.fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        conns.lock().expect("conn registry").push(handle);
    }
}

/// Tear down sockets that have been silent past the idle deadline.
fn reaper_loop(shared: &Arc<Shared>) {
    let tick = shared
        .config
        .poll_interval
        .max(Duration::from_millis(5))
        .min(shared.config.idle_timeout / 2 + Duration::from_millis(1));
    let budget = shared.config.idle_timeout.as_millis() as u64;
    let mut level_since = Instant::now();
    while !shared.draining() {
        std::thread::sleep(tick);
        // Attribute the elapsed tick to the level observed now — resolution
        // is the poll interval, same as every other reaction latency here.
        let level = shared.degradation_level() as usize;
        let elapsed = level_since.elapsed().as_millis() as u64;
        level_since = Instant::now();
        shared.metrics.degradation_ms[level].add(elapsed);
        let now = shared.now_ms();
        let mut registry = shared.registry.lock().expect("reaper registry");
        registry.retain(|_, (socket, last_active)| {
            if now.saturating_sub(last_active.load(Ordering::Relaxed)) > budget {
                let _ = TcpStream::shutdown(socket, std::net::Shutdown::Both);
                shared.stats.reaped.inc();
                false
            } else {
                true
            }
        });
    }
}

/// Outcome of one frame-read attempt.
enum FrameOutcome {
    /// A complete body is in the buffer.
    Frame,
    /// Clean EOF at a frame boundary.
    Closed,
    /// The connection died (reset, injected fault, EOF mid-frame).
    Dead,
    /// The frame started but missed the read deadline.
    Deadline,
    /// The declared body length exceeds the configured bound.
    TooLarge(u32),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame. Between frames this returns to the caller every
/// `poll_interval` via the transport's read timeout so drain and idle checks
/// stay responsive; once a frame begins it must finish within `read_timeout`.
fn read_frame(
    transport: &mut dyn Transport,
    shared: &Shared,
    body: &mut Vec<u8>,
    last_active: &AtomicU64,
) -> FrameOutcome {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0usize;
    let mut frame_deadline: Option<Instant> = None;
    while got < FRAME_HEADER_LEN {
        match transport.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    FrameOutcome::Closed
                } else {
                    FrameOutcome::Dead
                };
            }
            Ok(n) => {
                if frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + shared.config.read_timeout);
                }
                got += n;
            }
            Err(e) if is_timeout(&e) => match frame_deadline {
                // Idle tick: nothing started. Drain and idle policy live in
                // the caller; just report the boundary.
                None => {
                    if shared.draining() {
                        return FrameOutcome::Closed;
                    }
                    continue;
                }
                Some(d) if Instant::now() >= d => return FrameOutcome::Deadline,
                Some(_) => continue,
            },
            Err(_) => return FrameOutcome::Dead,
        }
    }
    let len = u32::from_le_bytes(header);
    if len > shared.config.max_frame_len {
        return FrameOutcome::TooLarge(len);
    }
    let deadline = frame_deadline.unwrap_or_else(|| Instant::now() + shared.config.read_timeout);
    body.clear();
    body.resize(len as usize, 0);
    let mut got = 0usize;
    while got < body.len() {
        match transport.read(&mut body[got..]) {
            Ok(0) => return FrameOutcome::Dead,
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return FrameOutcome::Deadline;
                }
            }
            Err(_) => return FrameOutcome::Dead,
        }
    }
    last_active.store(shared.now_ms(), Ordering::Relaxed);
    FrameOutcome::Frame
}

/// Encode `response` and write it as one frame, maintaining the response
/// ledger (`written`/`write_failures` and the per-class counters).
fn write_response(
    transport: &mut dyn Transport,
    shared: &Shared,
    response: &Response,
    scratch: &mut Vec<u8>,
    frame: &mut Vec<u8>,
) -> bool {
    response.encode(scratch);
    frame.clear();
    frame.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
    frame.extend_from_slice(scratch);
    let stats = &shared.stats;
    match transport.write_all(frame) {
        Ok(()) => {
            stats.written.inc();
            match &response.result {
                Ok(_) => {
                    stats.ok.inc();
                }
                Err((code, _)) => {
                    stats.typed_errors.inc();
                    match code {
                        ErrorCode::Overloaded => {
                            stats.shed.inc();
                        }
                        ErrorCode::DeadlineExceeded => {
                            stats.deadline_exceeded.inc();
                        }
                        _ => {}
                    }
                }
            }
            match response.degradation {
                0 => {}
                1 => {
                    stats.degraded_l1.inc();
                }
                _ => {
                    stats.degraded_l2.inc();
                }
            }
            true
        }
        Err(_) => {
            stats.write_failures.inc();
            false
        }
    }
}

/// One connection's life: read frames, admit, dispatch, respond — until the
/// socket dies, the client leaves, the reaper strikes, or a drain finishes.
fn serve_connection(
    shared: &Arc<Shared>,
    queues: &[SyncSender<Job>],
    mut transport: Box<dyn Transport>,
    last_active: &AtomicU64,
) {
    let _ = transport.set_read_timeout(Some(shared.config.poll_interval));
    let _ = transport.set_write_timeout(Some(shared.config.write_timeout));
    let mut body = Vec::new();
    let mut scratch = Vec::new();
    let mut frame = Vec::new();
    let mut next_worker = 0usize;
    loop {
        match read_frame(transport.as_mut(), shared, &mut body, last_active) {
            FrameOutcome::Frame => {}
            FrameOutcome::Closed => break,
            FrameOutcome::Dead => {
                shared.stats.read_failures.inc();
                break;
            }
            FrameOutcome::Deadline => {
                // The slow client gets a typed, retryable goodbye (ledger:
                // no decoded request, so this write is not counted against
                // the request ledger — it is a connection-level notice).
                let notice = Response::error(
                    shared.degradation_level(),
                    ErrorCode::DeadlineExceeded,
                    "frame read deadline exceeded",
                );
                response_bytes(&notice, &mut scratch, &mut frame);
                let _ = transport.write_all(&frame);
                shared.stats.read_failures.inc();
                break;
            }
            FrameOutcome::TooLarge(len) => {
                shared.stats.protocol_errors.inc();
                let response = Response::error(
                    shared.degradation_level(),
                    ErrorCode::Malformed,
                    format!("frame length {len} exceeds limit"),
                );
                write_response(
                    transport.as_mut(),
                    shared,
                    &response,
                    &mut scratch,
                    &mut frame,
                );
                break; // framing cannot be trusted any more
            }
        }

        if shared.draining() && shared.drain_expired() {
            let response = Response::error(
                0,
                ErrorCode::ShuttingDown,
                "server draining; connection grace expired",
            );
            shared.stats.protocol_errors.inc();
            write_response(
                transport.as_mut(),
                shared,
                &response,
                &mut scratch,
                &mut frame,
            );
            break;
        }

        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(code) => {
                shared.stats.protocol_errors.inc();
                let response =
                    Response::error(shared.degradation_level(), code, "undecodable request");
                let written = write_response(
                    transport.as_mut(),
                    shared,
                    &response,
                    &mut scratch,
                    &mut frame,
                );
                if !written || code == ErrorCode::Malformed {
                    // Malformed framing: resynchronisation is impossible.
                    break;
                }
                continue;
            }
        };
        shared.stats.decoded.inc();

        // The latency window a client experiences minus socket transit:
        // admission, queue wait (scans only), execution and the response
        // write.
        let op = op_index(&request);
        let started = Instant::now();
        let response = handle_request(shared, queues, &mut next_worker, request);
        let written = write_response(
            transport.as_mut(),
            shared,
            &response,
            &mut scratch,
            &mut frame,
        );
        shared.metrics.request_latency[op].observe(started.elapsed());
        if !written {
            break;
        }
    }
    transport.shutdown();
}

/// Encode a response frame without touching the ledger (connection-level
/// notices).
fn response_bytes(response: &Response, scratch: &mut Vec<u8>, frame: &mut Vec<u8>) {
    response.encode(scratch);
    frame.clear();
    frame.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
    frame.extend_from_slice(scratch);
}

/// Admission control + degradation ladder + dispatch. Always produces
/// exactly one response. Every request that needs no full-vocabulary scan
/// is answered here on the connection thread; only the scans are queued.
fn handle_request(
    shared: &Arc<Shared>,
    queues: &[SyncSender<Job>],
    next_worker: &mut usize,
    request: Request,
) -> Response {
    let level = shared.degradation_level();
    let shed = || {
        Response::error(
            2,
            ErrorCode::Overloaded,
            "cache-only degradation: cold query shed",
        )
    };
    let scan = match request {
        // Pings answer inline: the liveness probe must work precisely when
        // the queues are in trouble.
        Request::Ping => return Response::ok(level, Answer::Pong),
        // Stats answer inline at every level, cache-only included: the
        // telemetry you need during an incident must not be shed by the
        // incident. Rendering touches no model state and no worker queue.
        Request::Stats => return Response::ok(level, Answer::Stats(shared.render_stats())),
        // Reloads run here too, off the worker queues: the load + validation
        // happens on a snapshot nobody is serving yet, so query workers keep
        // draining at full speed and the swap itself is one write lock
        // acquisition inside the engine. Any typed failure leaves the
        // serving model untouched (the engine validates *before* swapping).
        Request::Reload { path } => {
            return match shared.engine.reload(Path::new(&path)) {
                Ok(()) => {
                    shared.stats.reload_ok.inc();
                    Response::ok(level, Answer::Reloaded)
                }
                Err(e) => {
                    shared.stats.reload_failed.inc();
                    Response::error(
                        level,
                        ErrorCode::Internal,
                        format!("reload of {path:?} rejected ({e}); serving model unchanged"),
                    )
                }
            };
        }
        Request::TopK(query) => {
            let clamped = TopKQuery {
                k: query.k.min(shared.config.degraded_k_clamp),
                ..query
            };
            // Level 0 looks the key up as asked and level 1 its clamped
            // form. Level 2 tries the full key, then the clamped one (traffic
            // clamped at level 1 warmed it), and sheds what neither holds.
            let (key, fallback) = match level {
                0 => (query, None),
                1 => (clamped, None),
                _ => (query, (clamped != query).then_some(clamped)),
            };
            for candidate in std::iter::once(key).chain(fallback) {
                match guarded(level, || shared.engine.top_k_cached(&candidate)) {
                    Ok(Some(answer)) => return Response::ok(level, Answer::TopK(answer.to_vec())),
                    Ok(None) => {}
                    Err(response) => return response,
                }
            }
            if level >= 2 {
                return shed();
            }
            Scan::TopKMiss(key)
        }
        // Cache-only mode serves no model work at all.
        _ if level >= 2 => return shed(),
        // One triple's score is O(d) to O(d²) work, far below the two thread
        // wake-ups of a hand-off to a worker and back.
        Request::Score {
            head,
            relation,
            tail,
        } => {
            return respond(level, || {
                shared
                    .engine
                    .score(&Triple::new(head, relation, tail))
                    .map(Answer::Score)
            });
        }
        Request::Rank {
            head,
            relation,
            tail,
            side,
        } => Scan::Rank(Triple::new(head, relation, tail), side),
    };

    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let mut job = Job {
        scan,
        degradation: level,
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    let workers = queues.len();
    let start = *next_worker;
    *next_worker = (*next_worker + 1) % workers;
    for probe in 0..workers {
        let target = &queues[(start + probe) % workers];
        // Count the job in-flight *before* it can reach a worker: the worker
        // decrements after executing, and with the opposite order a fast
        // worker could decrement first, wrapping the unsigned counter and
        // spuriously engaging cache-only degradation for everyone.
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        match target.try_send(job) {
            Ok(()) => {
                return match reply_rx.recv_timeout(shared.config.reply_deadline) {
                    Ok(response) => response,
                    Err(mpsc::RecvTimeoutError::Timeout) => Response::error(
                        level,
                        ErrorCode::DeadlineExceeded,
                        "reply deadline exceeded",
                    ),
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        Response::error(level, ErrorCode::Internal, "worker vanished")
                    }
                };
            }
            Err(TrySendError::Full(j)) => {
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                job = j;
            }
            Err(TrySendError::Disconnected(_)) => {
                shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                return Response::error(level, ErrorCode::ShuttingDown, "worker queues closed");
            }
        }
    }
    Response::error(level, ErrorCode::Overloaded, "all worker queues full")
}

/// Worker thread: execute jobs, enforcing the queue deadline.
fn worker_loop(shared: &Arc<Shared>, queue: mpsc::Receiver<Job>) {
    let mut scratch = QueryScratch::default();
    while let Ok(job) = queue.recv() {
        let response = if job.enqueued.elapsed() > shared.config.queue_deadline {
            Response::error(
                job.degradation,
                ErrorCode::DeadlineExceeded,
                "queue wait exceeded deadline",
            )
        } else {
            let engine = &shared.engine;
            respond(job.degradation, || match job.scan {
                Scan::TopKMiss(query) => engine
                    .top_k_miss(&query, &mut scratch)
                    .map(|answer| Answer::TopK(answer.to_vec())),
                Scan::Rank(triple, side) => {
                    engine.rank(&triple, side, &mut scratch).map(Answer::Rank)
                }
            })
        };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The connection may have died while we worked; that is its problem.
        let _ = job.reply.send(response);
    }
}

/// Run one engine call, mapping a typed [`QueryError`] onto its wire error
/// and a panic onto a typed `Internal` one — untrusted traffic must never
/// take a worker or a connection thread down.
fn guarded<T>(
    degradation: u8,
    call: impl FnOnce() -> Result<T, QueryError>,
) -> Result<T, Response> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(Response::error(
            degradation,
            code_of_query_error(&e),
            e.to_string(),
        )),
        Err(_) => Err(Response::error(
            degradation,
            ErrorCode::Internal,
            "query execution panicked",
        )),
    }
}

/// The response to one [`guarded`] engine call that produces an answer.
fn respond(degradation: u8, call: impl FnOnce() -> Result<Answer, QueryError>) -> Response {
    match guarded(degradation, call) {
        Ok(answer) => Response::ok(degradation, answer),
        Err(response) => response,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_models::{build_model, ModelConfig, ModelKind};
    use std::io::Read;

    fn engine() -> KnowledgeServer {
        let model = build_model(
            &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(5),
            40,
            6,
        );
        KnowledgeServer::new(model, 64)
    }

    fn test_config() -> NetServerConfig {
        NetServerConfig {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(5),
            queue_deadline: Duration::from_millis(500),
            reply_deadline: Duration::from_secs(2),
            drain_grace: Duration::from_millis(500),
            ..NetServerConfig::default()
        }
    }

    fn send_raw(stream: &mut TcpStream, body: &[u8]) {
        io::Write::write_all(stream, &(body.len() as u32).to_le_bytes()).unwrap();
        io::Write::write_all(stream, body).unwrap();
    }

    fn recv_raw(stream: &mut TcpStream) -> Vec<u8> {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
        stream.read_exact(&mut body).unwrap();
        body
    }

    fn call(stream: &mut TcpStream, request: &Request) -> Response {
        let mut buf = Vec::new();
        request.encode(&mut buf);
        send_raw(stream, &buf);
        Response::decode(&recv_raw(stream), request).expect("decodable response")
    }

    #[test]
    fn ping_and_queries_round_trip_over_tcp() {
        let engine = engine();
        let server = NetServer::bind("127.0.0.1:0", engine.clone(), test_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();

        let pong = call(&mut stream, &Request::Ping);
        assert_eq!(pong.result, Ok(Answer::Pong));
        assert_eq!(pong.degradation, 0);

        let query = TopKQuery::tails(3, 1, 5);
        let response = call(&mut stream, &Request::TopK(query));
        let mut scratch = QueryScratch::default();
        let expected = engine.top_k(&query, &mut scratch).unwrap();
        match response.result {
            Ok(Answer::TopK(got)) => assert_eq!(got.as_slice(), &*expected),
            other => panic!("unexpected response: {other:?}"),
        }

        let score = call(
            &mut stream,
            &Request::Score {
                head: 1,
                relation: 2,
                tail: 3,
            },
        );
        let expected = engine.score(&Triple::new(1, 2, 3)).unwrap();
        assert_eq!(score.result, Ok(Answer::Score(expected)));

        let stats = server.shutdown();
        assert_eq!(stats.decoded, 3);
        assert_eq!(stats.written, 3);
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.write_failures, 0);
    }

    #[test]
    fn out_of_range_ids_come_back_as_typed_wire_errors() {
        let server = NetServer::bind("127.0.0.1:0", engine(), test_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let response = call(&mut stream, &Request::TopK(TopKQuery::tails(9999, 0, 3)));
        match response.result {
            Err((ErrorCode::EntityOutOfRange, detail)) => {
                assert!(detail.contains("out of range"), "{detail}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The connection survives a typed rejection.
        assert_eq!(call(&mut stream, &Request::Ping).result, Ok(Answer::Pong));
        server.shutdown();
    }

    #[test]
    fn a_top_k_frame_with_a_huge_k_is_answered_and_the_server_lives_on() {
        let engine = engine();
        let server = NetServer::bind("127.0.0.1:0", engine.clone(), test_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let query = TopKQuery::tails(3, 1, u32::MAX);
        let response = call(&mut stream, &Request::TopK(query));
        match response.result {
            Ok(Answer::TopK(got)) => {
                assert_eq!(got.len(), engine.num_entities());
                let expected = engine.top_k(&query, &mut QueryScratch::default()).unwrap();
                assert_eq!(got.as_slice(), &*expected);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(call(&mut stream, &Request::Ping).result, Ok(Answer::Pong));
        let stats = server.shutdown();
        assert_eq!(stats.decoded, 2, "{stats:?}");
        assert!(stats.ledger_balanced(), "{stats:?}");
    }

    #[test]
    fn malformed_and_oversized_frames_are_rejected() {
        let server = NetServer::bind("127.0.0.1:0", engine(), test_config()).unwrap();

        // Unknown opcode: typed error, connection survives.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        send_raw(&mut stream, &[200]);
        let response = Response::decode(&recv_raw(&mut stream), &Request::Ping).unwrap();
        assert!(matches!(
            response.result,
            Err((ErrorCode::UnsupportedOp, _))
        ));
        assert_eq!(call(&mut stream, &Request::Ping).result, Ok(Answer::Pong));

        // Truncated body: malformed, connection closed after the response.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        send_raw(&mut stream, &[crate::wire::opcode::TOP_K, 1, 2]);
        let response = Response::decode(&recv_raw(&mut stream), &Request::Ping).unwrap();
        assert!(matches!(response.result, Err((ErrorCode::Malformed, _))));

        // Oversized length prefix: malformed before any allocation.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        io::Write::write_all(&mut stream, &(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        let response = Response::decode(&recv_raw(&mut stream), &Request::Ping).unwrap();
        assert!(matches!(response.result, Err((ErrorCode::Malformed, _))));

        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let config = NetServerConfig {
            idle_timeout: Duration::from_millis(60),
            ..test_config()
        };
        let server = NetServer::bind("127.0.0.1:0", engine(), config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(call(&mut stream, &Request::Ping).result, Ok(Answer::Pong));
        // Go silent; the reaper must cut us off.
        let mut buf = [0u8; 4];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let outcome = io::Read::read(&mut stream, &mut buf);
        assert!(
            matches!(outcome, Ok(0)) || outcome.is_err(),
            "socket should be closed by the reaper, got {outcome:?}"
        );
        let stats = server.shutdown();
        assert!(stats.reaped >= 1, "reaper recorded the kill: {stats:?}");
    }

    #[test]
    fn slow_loris_hits_the_read_deadline() {
        let server = NetServer::bind("127.0.0.1:0", engine(), test_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // First half of a frame header, then silence.
        io::Write::write_all(&mut stream, &[5, 0]).unwrap();
        let mut header = [0u8; 4];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.read_exact(&mut header).unwrap();
        let mut body = vec![0u8; u32::from_le_bytes(header) as usize];
        stream.read_exact(&mut body).unwrap();
        let response = Response::decode(&body, &Request::Ping).unwrap();
        assert!(matches!(
            response.result,
            Err((ErrorCode::DeadlineExceeded, _))
        ));
        server.shutdown();
    }

    #[test]
    fn drain_without_traffic_shuts_down_cleanly() {
        let server = NetServer::bind("127.0.0.1:0", engine(), test_config()).unwrap();
        let addr = server.addr();
        let _idle = TcpStream::connect(addr).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.write_failures, 0);
        // The port is released: a fresh bind on the same address works.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "{rebind:?}");
    }
}
