//! Front-door telemetry: per-opcode request latency, queue-pressure gauges,
//! time-at-degradation-level counters — all on one [`MetricsRegistry`]
//! shared with the serving engine, rendered by the `STATS` wire opcode.
//!
//! # What records where
//!
//! * **Per-opcode latency** (`nsc_net_request_latency_us{op=…}`) is timed on
//!   the connection thread from the moment a request decodes to the moment
//!   its response write returns — queue wait and worker execution (for the
//!   scans a worker runs) or inline execution, and the response write, are
//!   all inside the window, which is what a client experiences minus socket
//!   transit. Two `Instant` reads per request are
//!   noise next to a socket round-trip.
//! * **Queue pressure** (`nsc_net_in_flight`, `nsc_net_active_connections`,
//!   `nsc_net_queue_capacity`) are gauges refreshed at scrape time from the
//!   server's own admission counters — the hot path maintains those anyway.
//! * **Time at degradation level** (`nsc_net_degradation_ms_total{level=…}`)
//!   is accumulated by the idle reaper's poll tick: each tick attributes its
//!   elapsed wall time to the level observed at the tick. Resolution is the
//!   poll interval, which already bounds every other reaction latency in the
//!   server.
//! * The request/response **ledger counters** (`nsc_net_*_total`) live on
//!   the registry too — the server's [`NetStatsSnapshot`] is read back from
//!   the same counters, so the wire exposition and the in-process API can
//!   never disagree.
//!
//! [`NetStatsSnapshot`]: crate::NetStatsSnapshot

use crate::wire::Request;
use nscaching_obs::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
use nscaching_serve::ServeMetrics;
use std::sync::Arc;

/// Opcode label values, indexed by [`op_index`]. Order matches the wire
/// opcode numbering (`ping` = opcode 1 at index 0, … `stats` = opcode 6 at
/// index 5).
pub const OP_NAMES: [&str; 6] = ["ping", "top_k", "score", "rank", "reload", "stats"];

/// Histogram slot for a request's opcode (see [`OP_NAMES`]).
pub fn op_index(request: &Request) -> usize {
    match request {
        Request::Ping => 0,
        Request::TopK(_) => 1,
        Request::Score { .. } => 2,
        Request::Rank { .. } => 3,
        Request::Reload { .. } => 4,
        Request::Stats => 5,
    }
}

/// Registered handles for the front door's non-ledger metrics, plus the
/// registry itself and the serving engine's handle set (one registry serves
/// all layers).
pub struct NetMetrics {
    /// The registry every layer of this server registers on; rendering it
    /// is the `STATS` answer.
    pub registry: Arc<MetricsRegistry>,
    /// Decode→write latency per opcode, microseconds.
    pub request_latency: [Arc<LatencyHistogram>; 6],
    /// Wall-clock milliseconds spent at each degradation level.
    pub degradation_ms: [Arc<Counter>; 3],
    /// Jobs admitted but not yet executed (scrape-time gauge).
    pub in_flight: Arc<Gauge>,
    /// Open connections (scrape-time gauge).
    pub active_connections: Arc<Gauge>,
    /// Total queue slots (`workers × queue_depth`), set once at bind.
    pub queue_capacity: Arc<Gauge>,
    /// The serving engine's metrics, attached to the engine at bind so
    /// cache and checkpoint telemetry land on the same registry.
    pub serve: Arc<ServeMetrics>,
}

impl NetMetrics {
    /// Register every front-door metric on `registry`.
    pub fn register(registry: &Arc<MetricsRegistry>) -> Self {
        let latency =
            |op: &str| registry.histogram_with("nsc_net_request_latency_us", &[("op", op)]);
        let degraded = |level: &str| {
            registry.counter_with("nsc_net_degradation_ms_total", &[("level", level)])
        };
        Self {
            registry: Arc::clone(registry),
            request_latency: [
                latency(OP_NAMES[0]),
                latency(OP_NAMES[1]),
                latency(OP_NAMES[2]),
                latency(OP_NAMES[3]),
                latency(OP_NAMES[4]),
                latency(OP_NAMES[5]),
            ],
            degradation_ms: [degraded("0"), degraded("1"), degraded("2")],
            in_flight: registry.gauge("nsc_net_in_flight"),
            active_connections: registry.gauge("nsc_net_active_connections"),
            queue_capacity: registry.gauge("nsc_net_queue_capacity"),
            serve: ServeMetrics::register(registry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::opcode;

    #[test]
    fn op_index_matches_the_wire_opcode_numbering() {
        let requests = [
            (Request::Ping, opcode::PING),
            (
                Request::TopK(nscaching_serve::TopKQuery::tails(0, 0, 1)),
                opcode::TOP_K,
            ),
            (
                Request::Score {
                    head: 0,
                    relation: 0,
                    tail: 0,
                },
                opcode::SCORE,
            ),
            (
                Request::Rank {
                    head: 0,
                    relation: 0,
                    tail: 0,
                    side: nscaching_kg::CorruptionSide::Head,
                },
                opcode::RANK,
            ),
            (
                Request::Reload {
                    path: String::new(),
                },
                opcode::RELOAD,
            ),
            (Request::Stats, opcode::STATS),
        ];
        for (request, op) in requests {
            assert_eq!(op_index(&request) as u8, op - 1, "{request:?}");
        }
        assert_eq!(OP_NAMES.len(), 6);
    }

    #[test]
    fn register_lands_every_metric_family_on_the_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = NetMetrics::register(&registry);
        metrics.request_latency[0].record(10);
        metrics.degradation_ms[2].add(5);
        metrics.queue_capacity.set(128.0);
        let text = registry.render();
        assert!(text.contains("nsc_net_request_latency_us{op=\"ping\",q=\"p50\"}"));
        assert!(text.contains("nsc_net_degradation_ms_total{level=\"2\"} 5"));
        assert!(text.contains("nsc_net_queue_capacity 128"));
        assert!(text.contains("nsc_serve_cache_hits_total{cache=\"topk\"}"));
    }
}
