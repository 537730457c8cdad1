//! The training-telemetry contract: attaching a [`TrainMetrics`] handle
//! must observe the run, never perturb it. For every engine the
//! instrumented trainer's trajectory (epoch losses + final parameter
//! tables, raw bits) must equal the uninstrumented one's, while the phase
//! histograms and the shard-imbalance gauge land the expected per-batch
//! counts.

use nscaching::{build_sampler, NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_obs::MetricsRegistry;
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, TrainMetrics, TrainRuntime, Trainer};
use std::sync::Arc;

const DIM: usize = 8;
const BATCH: usize = 128;
const EPOCHS: usize = 2;
const NUM_TRAIN: usize = 600;

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("telemetry-equivalence");
    c.num_entities = 100;
    c.num_train = NUM_TRAIN;
    c.num_valid = 40;
    c.num_test = 40;
    c.seed = 23;
    nscaching_datagen::generate(&c).unwrap()
}

fn build_trainer(ds: &Dataset, shards: usize, runtime: TrainRuntime) -> Trainer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(7),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(8, 8)),
        ds,
        11,
    );
    let config = TrainConfig::new(EPOCHS)
        .with_batch_size(BATCH)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(2.0)
        .with_seed(5)
        .with_shards(shards)
        .with_runtime(runtime);
    Trainer::new(model, sampler, ds, config)
}

/// Epoch losses plus the final parameter tables, raw bits and all.
fn run(trainer: &mut Trainer) -> (Vec<f64>, Vec<Vec<u64>>) {
    let losses = (0..EPOCHS)
        .map(|_| trainer.train_epoch().mean_loss)
        .collect();
    let tables = trainer
        .model()
        .tables()
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    (losses, tables)
}

fn phase_count(registry: &MetricsRegistry, phase: &str) -> u64 {
    registry
        .histogram_with("nsc_train_phase_us", &[("phase", phase)])
        .count()
}

#[test]
fn attaching_metrics_never_perturbs_the_trajectory() {
    let ds = dataset();
    let batches = NUM_TRAIN.div_ceil(BATCH);
    for (shards, runtime, label) in [
        (1usize, TrainRuntime::Auto, "sequential"),
        (4, TrainRuntime::Pool, "pooled"),
    ] {
        let plain = run(&mut build_trainer(&ds, shards, runtime));

        let registry = Arc::new(MetricsRegistry::new());
        let metrics = TrainMetrics::register(&registry);
        let mut instrumented = build_trainer(&ds, shards, runtime);
        instrumented.attach_metrics(Arc::clone(&metrics));
        let timed = run(&mut instrumented);

        assert_eq!(plain.0, timed.0, "{label}: losses diverged under telemetry");
        assert_eq!(
            plain.1, timed.1,
            "{label}: parameter tables diverged bit-wise under telemetry"
        );

        // Both engines time the fused sample/score stage and the apply
        // stage once per mini-batch; only the pool engine partitions and
        // merges.
        let expected = (EPOCHS * batches) as u64;
        assert_eq!(phase_count(&registry, "sample_score"), expected, "{label}");
        assert_eq!(phase_count(&registry, "apply"), expected, "{label}");
        let expected_pooled = if shards == 1 { 0 } else { expected };
        assert_eq!(phase_count(&registry, "shard"), expected_pooled, "{label}");
        assert_eq!(phase_count(&registry, "merge"), expected_pooled, "{label}");

        // Epoch bridge + shard-imbalance gauge.
        assert_eq!(
            registry.counter_value("nsc_train_epochs_total", &[]),
            Some(EPOCHS as u64)
        );
        assert_eq!(
            registry.counter_value("nsc_train_examples_total", &[]),
            Some((EPOCHS * NUM_TRAIN) as u64)
        );
        let imbalance = registry
            .gauge_value("nsc_train_shard_imbalance", &[])
            .unwrap();
        assert!(imbalance >= 1.0, "{label}: imbalance {imbalance}");
    }
}
