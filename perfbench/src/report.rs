//! Metric names, units and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one, untraced.
///
/// Train and serve share one name where the quantity has a counterpart on
/// both surfaces (see `perfbench/README.md` for each definition).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ok_frac", "fraction"),
    ("mrr_final", "MRR"),
];

/// Per-layer metrics of the traced run. A workload that does not exercise a
/// layer reports 0 for it and says so on standard output.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kg.train_data_s", "s"),
    ("models.init_s", "s"),
    ("core.sampler_build_s", "s"),
    ("train.epoch_s", "s"),
    ("train.epoch_growth", "ratio"),
    ("train.sample_score_s", "s"),
    ("train.shard_s", "s"),
    ("train.merge_s", "s"),
    ("train.apply_s", "s"),
    ("train.shard_imbalance", "ratio"),
    ("core.sample_us", "us"),
    ("core.update_us", "us"),
    ("core.refreshes", "count"),
    ("core.changed_elements", "count"),
    ("core.nonzero_loss_ratio", "ratio"),
    ("core.cache_mb", "MB"),
    ("eval.snapshot_s", "s"),
    ("eval.final_s", "s"),
    ("serve.load_ms", "ms"),
    ("net.server_p50_us", "us"),
    ("net.server_p90_us", "us"),
    ("net.transport_us", "us"),
    ("net.client_p99_ms", "ms"),
    ("net.client_p999_ms", "ms"),
    ("net.client_samples", "count"),
    ("net.shed", "count"),
    ("net.deadline_exceeded", "count"),
    ("net.degraded_frac", "ratio"),
    ("serve.hit_rate", "ratio"),
    ("serve.hit_us", "us"),
    ("serve.miss_us", "us"),
    ("models.score_all_us", "us"),
    ("math.topk_us", "us"),
    ("serve.rank_us", "us"),
    ("serve.reload_ms", "ms"),
    ("serve.stale_invalidations", "count"),
    ("serve.evictions", "count"),
    ("trace.spans", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or positives trained).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a metric by its name in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Fail the run with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fill in 0 for every per-layer metric this workload does not reach,
    /// and list their names.
    pub fn fill_unreached_layers(&mut self) -> Vec<&'static str> {
        let missing: Vec<&'static str> = PER_LAYER
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| self.get(name).is_none())
            .collect();
        for &name in &missing {
            self.metric(name, 0.0);
        }
        missing
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Non-finite values make the run incorrect and print as
    /// `null`.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty() && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).expect("checked in metric()");
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// Restart the peak-resident-set count from the current resident set, so
/// `peak_rss_mb` leaves out input generation.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak resident set: {e}");
    }
}

/// Peak resident set of this process (`VmHWM`) since start or the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_metrics_with_units_and_flags_failures() {
        let mut outcome = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        outcome.metric("run_s", 1.5);
        outcome.metric("ok_frac", 0.9);
        outcome.metric("run_s", 2.5);
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"ok_frac\": {\"value\": 0.9, \"unit\": \"fraction\"}, \
             \"run_s\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        outcome.check(false, || "stale answer".into());
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.metric("mrr_final", f64::NAN);
        assert!(outcome.to_json().contains("\"correct\": false"));
        assert!(outcome.to_json().contains("\"value\": null"));
    }

    #[test]
    fn unreached_layers_are_zero_filled() {
        let mut outcome = Outcome::default();
        outcome.metric("train.epoch_s", 0.4);
        let missing = outcome.fill_unreached_layers();
        assert_eq!(missing.len(), PER_LAYER.len() - 1);
        assert_eq!(outcome.get("serve.hit_us"), Some(0.0));
        assert_eq!(outcome.get("train.epoch_s"), Some(0.4));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
