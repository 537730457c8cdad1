//! The fault-tolerant network front door for the NSCaching serving engine:
//! a TCP server over a length-prefixed binary protocol, a retrying client,
//! and a deterministic fault-injection harness for proving the whole stack
//! survives a hostile network.
//!
//! The serving engine ([`nscaching_serve::KnowledgeServer`]) answers top-k /
//! score / rank queries in-process; this crate puts it behind a socket
//! without giving up its typed error surface — every
//! [`nscaching_serve::QueryError`] maps onto a stable wire code
//! ([`wire::ErrorCode`]), so remote callers dispatch on errors exactly as
//! in-process callers match on enums.
//!
//! # Operator's guide
//!
//! ## Deadline knobs ([`NetServerConfig`])
//!
//! | knob | guards against | default |
//! |------|----------------|---------|
//! | `read_timeout` | slow-loris frames: once a frame starts it must finish | 2 s |
//! | `write_timeout` | clients that stop draining their socket | 2 s |
//! | `idle_timeout` | silent connections pinning threads (idle reaper) | 30 s |
//! | `queue_deadline` | executing work nobody is waiting for any more | 1 s |
//! | `reply_deadline` | a connection waiting forever on a wedged worker | 5 s |
//! | `drain_grace` | a drain held hostage by chatty connections | 1 s |
//!
//! ## Queueing and load shedding
//!
//! Only requests that scan the whole vocabulary — top-k misses and ranks —
//! are queued; the connection thread answers everything else itself (ping,
//! stats, reload, score, and top-k hits from the result cache), so those
//! never wait behind a scan. `workers × queue_depth` bounds everything the
//! server will hold. Admission is `try_send` across the per-worker queues —
//! when all are full the scan is **shed** with
//! [`wire::ErrorCode::Overloaded`] in microseconds.
//! There is no unbounded backlog anywhere: under overload, clients see fast
//! typed rejections (which their retry layer spreads with jittered backoff)
//! instead of collapsing tail latency for everyone. Size `queue_depth` so
//! that `queue_depth × typical_service_time ≲ queue_deadline`, otherwise
//! admitted requests can expire in the queue.
//!
//! ## The degradation ladder
//!
//! Queue occupancy (queued scans only) drives service levels, reported in
//! every response header (so clients and load balancers can see pressure
//! *before* the shedding starts):
//!
//! | level | meaning | operator signal |
//! |-------|---------|-----------------|
//! | 0 | full service | — |
//! | 1 | top-k `k` clamped to `degraded_k_clamp` | sustained l1 → add workers |
//! | 2 | cache-only: live result-cache hits served, everything else shed | capacity incident |
//!
//! ### Watching the ladder from the outside
//!
//! Send the `Stats` opcode ([`wire::opcode::STATS`]) — answered inline on
//! the connection thread at **every** level, drain included, so telemetry
//! survives the incident it is describing. The exposition maps onto the
//! ladder like this:
//!
//! | question | metric |
//! |----------|--------|
//! | how close to the cliff? | `nsc_net_in_flight` vs `nsc_net_queue_capacity` (occupancy = the ladder's input) |
//! | how long at each level? | `nsc_net_degradation_ms_total{level="0"/"1"/"2"}` (reaper-tick resolution) |
//! | how much work degraded? | `nsc_net_responses_degraded_total{level=…}` |
//! | is shedding happening? | `nsc_net_requests_shed_total`, `nsc_net_deadline_exceeded_total` |
//! | is cache-only viable? | `nsc_serve_cache_hits_total{cache="topk"}` rate vs `nsc_net_requests_shed_total` rate at level 2 |
//! | client latency? | `nsc_net_request_latency_us{op=…,q="p50"/"p90"/"p99"/"max"}` (decode→write, per opcode) |
//!
//! Rules of thumb: occupancy pinned above `clamp_threshold` with a flat
//! cache hit rate → add workers; occupancy spiking to `cache_only_threshold`
//! with a *healthy* hit rate → the ladder is doing its job, ride it out;
//! `nsc_net_deadline_exceeded_total` climbing while occupancy is low →
//! deadlines are mis-sized, not capacity. Counters named `nsc_net_*_total`
//! are the same atomics behind [`NetStatsSnapshot`] — the wire view and the
//! in-process view cannot disagree.
//!
//! ## Wire error codes
//!
//! See [`wire`] for the full table; the short version: codes 5–7
//! (`Overloaded`, `ShuttingDown`, `DeadlineExceeded`) mean "not executed,
//! retry elsewhere/later" and everything else means "the request itself is
//! wrong — do not retry". The numbering is pinned by a golden-bytes test;
//! treat it as a deployment contract.
//!
//! ## Hot reload & recovery runbook
//!
//! The `Reload` opcode ([`wire::opcode::RELOAD`]) swaps the serving model to
//! a snapshot file **without a restart**: send `Reload { path }` on any
//! connection and the server loads + validates the snapshot *off* the worker
//! queues, then swaps it in under one write-lock acquisition (the result
//! cache self-invalidates through its version stamps). The operational
//! contract, proven by `tests/reload.rs` under live traffic:
//!
//! * a **valid** snapshot answers `Reloaded` and bumps `reload_ok`;
//! * a **corrupt / truncated / missing** snapshot answers a typed
//!   `Internal` error whose detail ends in *"serving model unchanged"*,
//!   bumps `reload_failed`, and the previous model keeps serving
//!   bit-identically — a bad push can never take the server down;
//! * concurrent queries never fail because of a reload, good or bad.
//!
//! Recovery after a crash takes three calls:
//!
//! 1. [`nscaching_serve::CheckpointManager::recover`] walks the checkpoint
//!    directory newest → oldest, quarantines corrupt files aside with a
//!    typed reason suffix (`*.bad-checksum`, …) and returns the last-good
//!    checkpoint and its path;
//! 2. [`nscaching_serve::KnowledgeServer::load_with_cache`] builds the
//!    serving engine from that path with a cache of the chosen
//!    [`nscaching_serve::CacheConfig`] capacity;
//! 3. [`NetServer::bind`] puts the engine behind the socket.
//!
//! Quarantined files are evidence: inspect, then delete by hand. See the
//! `nscaching_serve::manager` docs for the full directory protocol and the
//! kill-anywhere guarantees behind it.
//!
//! ## Drain semantics
//!
//! [`NetServer::shutdown`] = stop accepting → finish every request already
//! received (socket-buffered frames included) → flush worker queues → stop.
//! Zero accepted requests are dropped: the counters satisfy
//! `decoded + protocol_errors == written + write_failures` across a drain,
//! and the chaos suite enforces it. Budget
//! `drain_grace + queue_deadline + reply_deadline` as the worst-case drain
//! time when orchestrating rolling restarts.
//!
//! # Fault injection
//!
//! [`fault::FaultPlan`] sits between the server and its sockets and injects
//! short reads, torn writes, stalls, mid-frame disconnects and I/O errors —
//! deterministically from a seed, per connection. `tests/chaos.rs` drives
//! thousands of requests through a faulty transport and asserts the
//! accounting above; `benches/net_load.rs` (in `nscaching-bench`) measures
//! p50/p99, saturation QPS and shed behaviour.

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, ClientStats, NetClient, Reply};
pub use fault::{FaultPlan, FaultyStream, Transport};
pub use metrics::{op_index, NetMetrics, OP_NAMES};
pub use server::{NetServer, NetServerConfig, NetStatsSnapshot};
pub use wire::{code_of_query_error, Answer, ErrorCode, Request, Response};
