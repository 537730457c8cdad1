//! Figure 9 — sensitivity to the cache size N1 and the random-subset size N2.
//!
//! Sweeps N1 with N2 fixed, and N2 with N1 fixed, training TransD on the
//! WN18 analogue, reporting test MRR per epoch. The paper sweeps
//! {10, 30, 50, 70, 90} at full scale; the sweep here is expressed as
//! fractions of the full-scale values so it remains meaningful on the scaled
//! synthetic benchmarks.
//!
//! Expected shape: performance is insensitive to N1/N2 once both are large
//! enough; a very small N1 hurts (more false negatives sampled), and a very
//! small N2 hurts (the cache cannot refresh).

use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_bench::runner::{scaled_cache_size, train_with_sampler, BenchDataset};
use nscaching_bench::{ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    settings.note_ignored("--models", "TransD only");
    let dataset: BenchDataset = settings
        .fixed_family(BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds")
        .into();
    println!("dataset: {}", dataset.summary());

    // The paper's sweep {10, 30, 50, 70, 90} corresponds to 0.2×..1.8× of the
    // default 50; apply the same multipliers to the scaled default.
    let base = scaled_cache_size(dataset.num_entities());
    let sweep: Vec<usize> = [0.2, 0.6, 1.0, 1.4, 1.8]
        .iter()
        .map(|m| ((base as f64) * m).round().max(2.0) as usize)
        .collect();
    let eval_every = (settings.epochs / 10).max(1);

    let mut report = TsvReport::new(
        "fig9_cache_size_sensitivity",
        &["panel", "n1", "n2", "epoch", "mrr"],
    );

    // Panel (a): vary N1, fix N2 = base.
    for &n1 in &sweep {
        run_point(
            &mut report,
            "a_vary_n1",
            n1,
            base,
            &dataset,
            &settings,
            eval_every,
        );
    }
    // Panel (b): vary N2, fix N1 = base.
    for &n2 in &sweep {
        run_point(
            &mut report,
            "b_vary_n2",
            base,
            n2,
            &dataset,
            &settings,
            eval_every,
        );
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Fig. 9): curves overlap for all but the smallest sizes; \
         N1 too small admits false negatives, N2 too small starves the cache refresh."
    );
}

fn run_point(
    report: &mut TsvReport,
    panel: &str,
    n1: usize,
    n2: usize,
    dataset: &BenchDataset,
    settings: &ExperimentSettings,
    eval_every: usize,
) {
    let label = format!("N1={n1},N2={n2}");
    let sampler = SamplerConfig::NsCaching(NsCachingConfig::new(n1, n2));
    let outcome = train_with_sampler(
        dataset,
        ModelKind::TransD,
        sampler,
        label.clone(),
        0,
        settings,
        eval_every,
    );
    for snapshot in &outcome.history.snapshots {
        report.push_row(&[
            panel.to_string(),
            n1.to_string(),
            n2.to_string(),
            snapshot.epoch.to_string(),
            format!("{:.4}", snapshot.mrr),
        ]);
    }
    println!(
        "  {:14} final MRR = {:.4}",
        label, outcome.report.combined.mrr
    );
}
