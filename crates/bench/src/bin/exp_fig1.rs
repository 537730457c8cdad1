//! Figure 1 — distribution of negative-triple score distances.
//!
//! Trains Bernoulli-TransD on the WN18 analogue (as in the paper) and
//! records, for a fixed positive triple, the CCDF of
//! `D(h,r,t̄) = f(h,r,t̄) − f(h,r,t)` at several training epochs
//! (Figure 1(a)), and, at the end of training, the CCDF for five different
//! positive triples (Figure 1(b)). The margin −γ is included as a column so
//! the plots can draw the paper's red dashed line.
//!
//! Expected shape: the distributions are highly skewed — only a small
//! fraction of negatives stays above the margin, and that fraction shrinks as
//! training proceeds.

use nscaching::SamplerConfig;
use nscaching_bench::{standard_train_config, ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_eval::negative_distance_ccdf;
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_train::Trainer;

fn main() {
    let settings = ExperimentSettings::from_env();
    let kind = settings.fixed_model(ModelKind::TransD);
    let dataset = settings
        .fixed_family(BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds");
    println!("dataset: {}", dataset.summary());
    let filter = dataset.filter_index();

    let model = build_model(
        &ModelConfig::new(kind)
            .with_dim(settings.dim)
            .with_seed(settings.seed),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, &dataset, settings.seed);
    let train_config = standard_train_config(kind, &settings);
    let margin = train_config.margin;
    let mut trainer = Trainer::new(model, sampler, &dataset, train_config);

    let probe = dataset.train[0];
    let grid_points = 40;

    // Figure 1(a): one triple, several epochs.
    let mut fig_a = TsvReport::new(
        "fig1a_ccdf_over_epochs",
        &["epoch", "distance", "ccdf", "neg_margin"],
    );
    let checkpoints: Vec<usize> = checkpoint_epochs(settings.epochs);
    record_ccdf(
        &mut fig_a,
        "0",
        trainer.model(),
        &probe,
        &filter,
        margin,
        grid_points,
    );
    for epoch in 0..settings.epochs {
        trainer.train_epoch();
        if checkpoints.contains(&(epoch + 1)) {
            record_ccdf(
                &mut fig_a,
                &(epoch + 1).to_string(),
                trainer.model(),
                &probe,
                &filter,
                margin,
                grid_points,
            );
        }
    }
    fig_a.write(&settings).expect("write results");

    // Figure 1(b): five triples after training.
    let mut fig_b = TsvReport::new(
        "fig1b_ccdf_over_triples",
        &["triple", "distance", "ccdf", "neg_margin"],
    );
    for (i, positive) in dataset
        .train
        .iter()
        .step_by(dataset.train.len() / 5)
        .take(5)
        .enumerate()
    {
        record_ccdf(
            &mut fig_b,
            &format!("triple{i}"),
            trainer.model(),
            positive,
            &filter,
            margin,
            grid_points,
        );
    }
    fig_b.write(&settings).expect("write results");

    println!(
        "\nExpected shape (paper Fig. 1): the CCDF collapses quickly — only a few negatives keep \
         D above −γ — and the collapse deepens with training."
    );
}

fn checkpoint_epochs(total: usize) -> Vec<usize> {
    let mut points = vec![1, total / 4, total / 2, 3 * total / 4, total];
    points.retain(|&e| e >= 1);
    points.dedup();
    points
}

fn record_ccdf(
    report: &mut TsvReport,
    label: &str,
    model: &dyn nscaching_models::KgeModel,
    positive: &Triple,
    filter: &nscaching_kg::FilterIndex,
    margin: f64,
    grid_points: usize,
) {
    let ccdf = negative_distance_ccdf(model, positive, CorruptionSide::Tail, Some(filter));
    for (x, p) in ccdf.evaluate(&ccdf.default_grid(grid_points)) {
        report.push_row(&[
            label.to_string(),
            format!("{x:.4}"),
            format!("{p:.5}"),
            format!("{:.2}", -margin),
        ]);
    }
}
