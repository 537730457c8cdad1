//! Table II — statistics of the (synthetic) benchmark datasets.
//!
//! Prints entity/relation/split counts for the four generated benchmark
//! analogues at the configured scale, plus the relation-category breakdown
//! and the paper's full-scale reference numbers for comparison.

use nscaching_bench::{runner::benchmark_datasets, ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_kg::{BernoulliStats, DatasetStats};

fn paper_row(family: BenchmarkFamily) -> (usize, usize, usize, usize, usize) {
    match family {
        BenchmarkFamily::Wn18 => (40_943, 18, 141_442, 5_000, 5_000),
        BenchmarkFamily::Wn18rr => (40_943, 11, 86_835, 3_034, 3_134),
        BenchmarkFamily::Fb15k => (14_951, 1_345, 484_142, 50_000, 59_071),
        BenchmarkFamily::Fb15k237 => (14_541, 237, 272_115, 17_535, 20_466),
    }
}

fn main() {
    let settings = ExperimentSettings::from_env();
    settings.note_ignored("--models", "no model");
    let mut report = TsvReport::new(
        "table2_datasets",
        &[
            "dataset",
            "entities",
            "relations",
            "train",
            "valid",
            "test",
            "rel_1-1",
            "rel_1-N",
            "rel_N-1",
            "rel_N-N",
            "paper_entities",
            "paper_train",
        ],
    );

    for (family, dataset) in benchmark_datasets(&settings) {
        let stats = DatasetStats::of(&dataset);
        let bernoulli = BernoulliStats::from_train(&dataset.train, dataset.num_relations());
        let categories = bernoulli.category_counts();
        let (paper_entities, _, paper_train, _, _) = paper_row(family);
        report.push_row(&[
            stats.name,
            stats.entities.to_string(),
            stats.relations.to_string(),
            stats.train.to_string(),
            stats.valid.to_string(),
            stats.test.to_string(),
            categories[0].to_string(),
            categories[1].to_string(),
            categories[2].to_string(),
            categories[3].to_string(),
            paper_entities.to_string(),
            paper_train.to_string(),
        ]);
    }

    report.write(&settings).expect("write results");
    println!(
        "\nscale = {}: the synthetic analogues keep the relative proportions of the real \
         benchmarks (Table II of the paper); pass --scale 1.0 for full-size generation.",
        settings.scale
    );
}
