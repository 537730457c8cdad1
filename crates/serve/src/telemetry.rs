//! Serving-layer telemetry: top-k cache counters bridged onto the metrics
//! registry, miss-path compute latency, and checkpoint lifecycle timings.
//!
//! # Overhead contract
//!
//! The serve **hit path** — a warm [`KnowledgeServer::top_k`] or
//! [`KnowledgeServer::top_k_cached`] returning an `Arc` clone — is
//! deliberately *not* timed per call: two clock reads cost
//! a meaningful fraction of the ~hundreds-of-nanoseconds hit itself and
//! would blow the `NSC_OBS_OVERHEAD_MAX` gate. Instead:
//!
//! * hit/miss/eviction **counts** come from the top-k cache's own
//!   [`CacheStats`] (which the hot path already maintains) and are bridged
//!   onto the `nsc_serve_cache_*_total{cache="topk"}` counters at scrape
//!   time by [`ServeMetrics::bridge`];
//! * the compute histogram (`nsc_serve_topk_compute_us`) times only the
//!   **miss path**, where a model scan dwarfs the clock reads, and the
//!   scan mirror's rescored rows (`nsc_serve_scan_rescored_rows_total`) are
//!   added once per scan;
//! * stale-entry invalidations are counted at the drop site (a cache-miss
//!   shaped path) via [`ServeMetrics::stale_invalidations`];
//! * checkpoint save/recover timings wrap whole filesystem operations.
//!
//! Attach with [`KnowledgeServer::attach_metrics`] /
//! [`CheckpointManager::attach_metrics`]; both are attach-once
//! (`OnceLock`), and an unattached engine pays one relaxed atomic load on
//! the miss path and nothing on the hit path.
//!
//! [`KnowledgeServer::top_k`]: crate::KnowledgeServer::top_k
//! [`KnowledgeServer::top_k_cached`]: crate::KnowledgeServer::top_k_cached
//! [`KnowledgeServer::attach_metrics`]: crate::KnowledgeServer::attach_metrics
//! [`CheckpointManager::attach_metrics`]: crate::CheckpointManager::attach_metrics
//! [`CacheStats`]: crate::CacheStats

use crate::cache::CacheStats;
use nscaching_obs::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
use std::sync::Arc;

/// Registered handles for every serve-layer metric. Cheap to clone the
/// `Arc`; see the module docs for which paths record what.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Top-k result-cache counters, bridged from [`CacheStats`] at scrape.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    /// Version-invalidated entries dropped at lookup (never served stale).
    pub(crate) stale_invalidations: Arc<Counter>,
    /// Resident bytes of the served model's grid scan mirror (0 without
    /// one), bridged at scrape.
    scan_mirror_bytes: Arc<Gauge>,
    /// Rows the scan mirror's exact pass rescored, over every two-pass
    /// top-k and rank: how much the grid's bound leaves to the exact
    /// kernel. Counted once per scan, on the scan path.
    pub(crate) scan_rescored_rows: Arc<Counter>,
    /// Miss-path top-k compute time (model scan + selection), microseconds.
    pub(crate) topk_compute_us: Arc<LatencyHistogram>,
    /// Whole [`CheckpointManager::save`](crate::CheckpointManager::save)
    /// calls (write + fsync + rename + rotation), microseconds.
    pub(crate) checkpoint_save_us: Arc<LatencyHistogram>,
    /// Whole [`CheckpointManager::recover`](crate::CheckpointManager::recover)
    /// calls, microseconds.
    pub(crate) checkpoint_recover_us: Arc<LatencyHistogram>,
    /// Checkpoints saved through an instrumented manager.
    pub(crate) checkpoints_saved: Arc<Counter>,
    /// Corrupt checkpoints quarantined during recovery.
    pub(crate) checkpoints_quarantined: Arc<Counter>,
}

impl ServeMetrics {
    /// Register every serve-layer metric on `registry` and return the shared
    /// handle set. Idempotent per registry (re-registering returns the same
    /// underlying metrics).
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        let cache = |name: &str, which: &str| registry.counter_with(name, &[("cache", which)]);
        Arc::new(Self {
            cache_hits: cache("nsc_serve_cache_hits_total", "topk"),
            cache_misses: cache("nsc_serve_cache_misses_total", "topk"),
            cache_evictions: cache("nsc_serve_cache_evictions_total", "topk"),
            stale_invalidations: registry.counter("nsc_serve_stale_invalidations_total"),
            scan_mirror_bytes: registry.gauge("nsc_serve_scan_mirror_bytes"),
            scan_rescored_rows: registry.counter("nsc_serve_scan_rescored_rows_total"),
            topk_compute_us: registry.histogram("nsc_serve_topk_compute_us"),
            checkpoint_save_us: registry.histogram("nsc_serve_checkpoint_save_us"),
            checkpoint_recover_us: registry.histogram("nsc_serve_checkpoint_recover_us"),
            checkpoints_saved: registry.counter("nsc_serve_checkpoints_saved_total"),
            checkpoints_quarantined: registry.counter("nsc_serve_checkpoints_quarantined_total"),
        })
    }

    /// Bridge the engine's cumulative cache counters and its scan-mirror
    /// size onto the registry (scrape-time only — the hot path never calls
    /// this). The mirror is bridged rather than set where it is built
    /// because an engine's metrics attach after its first mirror exists.
    pub fn bridge(&self, topk: &CacheStats, scan_mirror_bytes: u64) {
        self.cache_hits.store(topk.hits);
        self.cache_misses.store(topk.misses);
        self.cache_evictions.store(topk.evictions);
        self.scan_mirror_bytes.set(scan_mirror_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_bridge_lands_on_the_registry() {
        let registry = MetricsRegistry::new();
        let a = ServeMetrics::register(&registry);
        let b = ServeMetrics::register(&registry);
        a.stale_invalidations.inc();
        assert_eq!(b.stale_invalidations.get(), 1, "same underlying counters");

        a.bridge(
            &CacheStats {
                hits: 10,
                misses: 4,
                evictions: 2,
            },
            4096,
        );
        assert_eq!(
            registry.counter_value("nsc_serve_cache_hits_total", &[("cache", "topk")]),
            Some(10)
        );
        assert_eq!(
            registry.gauge_value("nsc_serve_scan_mirror_bytes", &[]),
            Some(4096.0)
        );
    }
}
