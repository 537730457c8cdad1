//! The training workload: a fixed epoch budget of TransE training, timed
//! around the public `Trainer` calls, plus the pool probe of its traced run.

use crate::cpu;
use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::stats::{epoch_growth, median, per_second, percentile, sorted, success_fraction};
use crate::trace::Tracer;
use crate::RunArgs;
use nscaching_suite::datagen::{generate, BenchmarkFamily};
use nscaching_suite::eval::EvalProtocol;
use nscaching_suite::kg::Dataset;
use nscaching_suite::math::{seeded_rng, split_seed};
use nscaching_suite::models::{build_model, ModelConfig, ModelKind};
use nscaching_suite::obs::MetricsRegistry;
use nscaching_suite::optim::OptimizerConfig;
use nscaching_suite::sampling::{
    build_sampler, CorruptionPolicy, NegativeSampler, NsCachingConfig, NsCachingSampler,
    SamplerConfig,
};
use nscaching_suite::train::{TrainConfig, TrainData, TrainMetrics, TrainRuntime, Trainer};
use std::time::Instant;

/// Evaluation threads, pinned so the host's core count does not pick them.
const EVAL_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// The dataset does not depend on `--seed`: across seeds its MRR estimate
/// would move by about a tenth, which would swamp the bound on `mrr_final`.
/// The model, sampler and training seeds do depend on it.
const DATASET_SEED: u64 = 0xda7a;
/// Test triples of each periodic snapshot evaluation (as in `exp_fig2_3`).
const SNAPSHOT_TRIPLES: usize = 200;
/// Epochs in each window of `train.epoch_growth`.
const GROWTH_WINDOW: usize = 5;
/// `mrr_final` must beat the untrained model's MRR by at least this factor.
const MIN_MRR_LIFT: f64 = 3.0;
/// Epochs of the pool probe: past the 20-epoch `RepeatTracker` window, so
/// `train.epoch_growth` covers the whole ramp.
const POOL_PROBE_EPOCHS: usize = 30;

/// One training workload.
pub struct TrainWorkload {
    family: BenchmarkFamily,
    scale: f64,
    min_test: usize,
    sampler: SamplerConfig,
    shards: usize,
    /// Epoch budget per requested second, calibrated so a run measures about
    /// `--seconds` on a 2-vCPU host. The budget is fixed per `--seconds`, so
    /// `mrr_final` repeats bit for bit per seed.
    epochs_per_second: f64,
    min_epochs: usize,
    eval_every: usize,
}

/// NSCaching on the WN18RR analogue: the cache sample and the Algorithm 3
/// refresh are nearly all of the epoch.
pub fn nscaching() -> TrainWorkload {
    TrainWorkload {
        family: BenchmarkFamily::Wn18rr,
        scale: 0.1,
        // On 1,000 test triples the final MRR spread by 12% across training
        // seeds; 4,000 average out most of the per-triple luck.
        min_test: 4_000,
        sampler: SamplerConfig::NsCaching(NsCachingConfig::new(50, 50)),
        shards: 1,
        epochs_per_second: 2.2,
        min_epochs: 2 * GROWTH_WINDOW,
        eval_every: 5,
    }
}

impl TrainWorkload {
    fn train_config(&self, epochs: usize, seed: u64) -> TrainConfig {
        let mut config = TrainConfig::new(epochs)
            .with_batch_size(256)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_margin(3.0)
            .with_seed(seed)
            .with_shards(self.shards)
            .with_runtime(TrainRuntime::Auto);
        config.snapshot_protocol = EvalProtocol::filtered()
            .with_max_triples(SNAPSHOT_TRIPLES)
            .with_threads(EVAL_THREADS);
        config.final_protocol = EvalProtocol::filtered().with_threads(EVAL_THREADS);
        config
    }

    /// Generate the inputs, set up, train the epoch budget, check and
    /// report.
    pub fn run(&self, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
        let mut outcome = Outcome::default();
        let mut generator = self.family.config(self.scale, DATASET_SEED);
        generator.num_test = generator.num_test.max(self.min_test);
        let dataset = generate(&generator).expect("the preset generates");
        let (entities, relations) = (dataset.num_entities(), dataset.num_relations());
        println!(
            "dataset: {} entities, {} relations, {} train, {} test",
            entities,
            relations,
            dataset.train.len(),
            dataset.test.len()
        );
        let epochs =
            ((self.epochs_per_second * args.seconds).round() as usize).max(self.min_epochs);
        let model_config = ModelConfig::new(ModelKind::TransE)
            .with_dim(32)
            .with_seed(split_seed(args.seed, 2));
        let sampler_seed = split_seed(args.seed, 3);
        let config = self.train_config(epochs, split_seed(args.seed, 4));
        reset_peak_rss();

        // Set-up, repeated; the last trainer is the one that trains. Set-up
        // and epochs run on one CPU, evaluations on all (see `cpu`).
        let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
        let mut trainer = cpu::on_one_cpu(|| {
            let mut trainer = None;
            for round in 0..SETUP_ROUNDS as u64 {
                drop(trainer.take());
                let started = Instant::now();
                let setup = tracer.begin("setup", round);
                let data =
                    tracer.time("kg.train_data", round, || TrainData::from_dataset(&dataset));
                let model = tracer.time("models.init", round, || {
                    build_model(&model_config, entities, relations)
                });
                let sampler = tracer.time("core.sampler_build", round, || {
                    build_sampler(&self.sampler, &dataset, sampler_seed)
                });
                let built = tracer.time("train.trainer_new", round, || {
                    Trainer::new(model, sampler, &data, config.clone())
                });
                tracer.end(setup);
                setup_s.push(started.elapsed().as_secs_f64());
                trainer = Some(built);
            }
            trainer.expect("at least one set-up round")
        });
        let untrained_mrr = trainer.evaluate(&config.final_protocol).combined.mrr;

        let registry = MetricsRegistry::new();
        if tracer.enabled() {
            trainer.attach_metrics(TrainMetrics::register(&registry));
        }

        // The measured section: every epoch, every snapshot, the final
        // evaluation.
        let mut epoch_s = Vec::with_capacity(epochs);
        let mut positives = 0u64;
        let started = Instant::now();
        for epoch in 0..epochs {
            let span = tracer.begin("train.epoch", epoch as u64);
            let (stats, seconds) = cpu::on_one_cpu(|| {
                let epoch_started = Instant::now();
                let stats = trainer.train_epoch();
                (stats, epoch_started.elapsed().as_secs_f64())
            });
            epoch_s.push(seconds);
            tracer.end(span);
            outcome.attempted += stats.examples as u64;
            if stats.mean_loss.is_finite() {
                positives += stats.examples as u64;
            } else {
                outcome.failed += stats.examples as u64;
            }
            outcome.check(stats.mean_loss.is_finite(), || {
                format!("epoch {epoch}: loss {} is not finite", stats.mean_loss)
            });
            if (epoch + 1) % self.eval_every == 0 {
                tracer.time("eval.snapshot", epoch as u64, || trainer.snapshot());
            }
        }
        let report = tracer.time("eval.final", epochs as u64, || {
            trainer.evaluate(&config.final_protocol)
        });
        let run_s = started.elapsed().as_secs_f64();
        let peak_rss = peak_rss_mb();
        let mrr_final = report.combined.mrr;

        outcome.check(mrr_final >= MIN_MRR_LIFT * untrained_mrr, || {
            format!(
                "mrr_final {mrr_final:.4} is not {MIN_MRR_LIFT}x the untrained {untrained_mrr:.4}"
            )
        });
        println!(
            "epochs: {epochs}, positives: {positives}, untrained MRR {untrained_mrr:.4}, final MRR {mrr_final:.4}"
        );

        let epoch_ms = sorted(epoch_s.iter().map(|s| s * 1e3).collect());
        outcome.metric("setup_s", median(&setup_s));
        outcome.metric("run_s", run_s);
        outcome.metric("ops_per_s", per_second(positives, epoch_s.iter().sum()));
        outcome.metric("p50_ms", percentile(&epoch_ms, 0.5).value);
        outcome.metric("p90_ms", percentile(&epoch_ms, 0.9).value);
        outcome.metric("ok_frac", success_fraction(positives, outcome.attempted));
        outcome.metric("mrr_final", mrr_final);
        outcome.metric("peak_rss_mb", peak_rss);

        if tracer.enabled() {
            layer_metrics(&mut outcome, tracer, &registry, &trainer, &epoch_s);
            self.table1(&mut outcome, tracer, &trainer, &dataset, args.seed);
            pool_probe(&mut outcome, tracer, args.seed);
        }
        outcome
    }

    /// Table I: sample and update cost per positive on an NSCaching sampler
    /// built the same way, over the whole training split against the trained
    /// model. The first pass fills the caches; the second is timed.
    fn table1(
        &self,
        outcome: &mut Outcome,
        tracer: &mut Tracer,
        trainer: &Trainer,
        dataset: &Dataset,
        seed: u64,
    ) {
        let SamplerConfig::NsCaching(config) = self.sampler else {
            return;
        };
        let model = trainer.model();
        let mut rng = seeded_rng(split_seed(seed, 5));
        let mut sampler = NsCachingSampler::new(
            config,
            dataset.num_entities(),
            CorruptionPolicy::bernoulli_from_train(&dataset.train, dataset.num_relations()),
        )
        .with_observed_keys(&dataset.train);
        for positive in &dataset.train {
            let _ = sampler.sample(positive, model, &mut rng);
            sampler.update(positive, model, &mut rng);
        }
        let (mut sample_ns, mut update_ns) = (0u128, 0u128);
        let pass = tracer.begin("core.table1_pass", 0);
        for positive in &dataset.train {
            let t0 = Instant::now();
            let negative = sampler.sample(positive, model, &mut rng);
            let t1 = Instant::now();
            sampler.update(positive, model, &mut rng);
            sample_ns += (t1 - t0).as_nanos();
            update_ns += t1.elapsed().as_nanos();
            std::hint::black_box(negative);
        }
        tracer.end(pass);
        let n = dataset.train.len() as f64;
        outcome.metric("core.sample_us", sample_ns as f64 / n / 1e3);
        outcome.metric("core.update_us", update_ns as f64 / n / 1e3);
        outcome.metric("core.refreshes", sampler.refresh_count() as f64);
        outcome.metric("core.cache_mb", sampler.cache_memory_bytes() as f64 / 1e6);
    }
}

/// Per-layer metrics of the traced run, from its spans, the attached
/// `TrainMetrics` and the epoch history.
fn layer_metrics(
    outcome: &mut Outcome,
    tracer: &Tracer,
    registry: &MetricsRegistry,
    trainer: &Trainer,
    epoch_s: &[f64],
) {
    let median_of = |name: &str| {
        let values = tracer.durations_s(name);
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    outcome.metric("kg.train_data_s", median_of("kg.train_data"));
    outcome.metric("models.init_s", median_of("models.init"));
    outcome.metric("core.sampler_build_s", median_of("core.sampler_build"));
    outcome.metric("train.epoch_s", median(epoch_s));
    outcome.metric("eval.snapshot_s", median_of("eval.snapshot"));
    outcome.metric("eval.final_s", median_of("eval.final"));

    let epochs = &trainer.history().epochs;
    let examples: usize = epochs.iter().map(|e| e.examples).sum();
    let changed: u64 = epochs.iter().map(|e| e.changed_cache_elements).sum();
    let nonzero: f64 = epochs
        .iter()
        .map(|e| e.nonzero_loss_ratio * e.examples as f64)
        .sum();
    outcome.metric("core.changed_elements", changed as f64);
    outcome.metric("core.nonzero_loss_ratio", nonzero / examples.max(1) as f64);

    outcome.metric("train.sample_score_s", phase_s(registry, "sample_score"));
}

/// The pool layers of the traced run (`train.shard_s`, `train.merge_s`,
/// `train.apply_s`, `train.shard_imbalance`, `train.epoch_growth`), which the
/// sequential engine of the workload does not have: Bernoulli TransE with two
/// pool shards on the FB15K237 analogue at scale 0.2 (2,908 entities, 54,423
/// train triples), trained on one CPU like the workload.
fn pool_probe(outcome: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    let dataset = generate(&BenchmarkFamily::Fb15k237.config(0.2, DATASET_SEED))
        .expect("the preset generates");
    let registry = MetricsRegistry::new();
    let epoch_s = cpu::on_one_cpu(|| {
        let data = TrainData::from_dataset(&dataset);
        let model = build_model(
            &ModelConfig::new(ModelKind::TransE)
                .with_dim(32)
                .with_seed(split_seed(seed, 6)),
            dataset.num_entities(),
            dataset.num_relations(),
        );
        let sampler = build_sampler(&SamplerConfig::Bernoulli, &dataset, split_seed(seed, 7));
        let config = TrainConfig::new(POOL_PROBE_EPOCHS)
            .with_batch_size(256)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_margin(3.0)
            .with_seed(split_seed(seed, 8))
            .with_shards(2)
            .with_runtime(TrainRuntime::Auto);
        let mut trainer = Trainer::new(model, sampler, &data, config);
        trainer.attach_metrics(TrainMetrics::register(&registry));
        (0..POOL_PROBE_EPOCHS)
            .map(|epoch| {
                let started = Instant::now();
                tracer.time("train.pool_probe_epoch", epoch as u64, || {
                    trainer.train_epoch()
                });
                started.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    outcome.metric("train.shard_s", phase_s(&registry, "shard"));
    outcome.metric("train.merge_s", phase_s(&registry, "merge"));
    outcome.metric("train.apply_s", phase_s(&registry, "apply"));
    if let Some(imbalance) = registry.gauge_value("nsc_train_shard_imbalance", &[]) {
        outcome.metric("train.shard_imbalance", imbalance);
    }
    if let Some(growth) = epoch_growth(&epoch_s, GROWTH_WINDOW) {
        outcome.metric("train.epoch_growth", growth);
    }
}

/// Seconds summed over one phase histogram of the attached `TrainMetrics`.
fn phase_s(registry: &MetricsRegistry, phase: &str) -> f64 {
    registry
        .histogram_with("nsc_train_phase_us", &[("phase", phase)])
        .snapshot()
        .sum as f64
        * 1e-6
}
