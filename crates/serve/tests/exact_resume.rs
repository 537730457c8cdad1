//! The exact-resume proof: a run checkpointed mid-training and resumed from
//! disk produces **bit-for-bit** the same embeddings and evaluation metrics
//! as the uninterrupted run — for all 5 scoring functions under Adam at
//! shards ∈ {1, 4} (the sequential paper-exact engine and the pooled
//! parallel engine), and for every *stateful* sampler (NSCaching, KBGAN,
//! IGAN), whose evolving state rides in the checkpoint's sampler section.
//!
//! Why this is provable rather than approximate: the trajectory is a pure
//! function of (tables, optimizer slabs, master-RNG state, batch
//! permutation, epoch counter, sampler state, config). The checkpoint
//! carries all but the config; the parallel engine's per-shard streams are
//! re-derived from `(seed, epoch, shard)` via SplitMix64, so the restored
//! epoch counter reproduces them exactly. The Bernoulli sampler is a pure
//! function of `(dataset, sampler seed)`, so rebuilding it restores the
//! sampler side for free; the stateful samplers restore theirs through
//! `NegativeSampler::import_state` (NSCaching's per-shard `H`/`T` caches,
//! a GAN sampler's generator tables, optimizer slabs and baseline).

use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_eval::EvalProtocol;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::{load_checkpoint, resume_trainer, save_checkpoint};
use nscaching_train::{TrainConfig, Trainer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TOTAL_EPOCHS: usize = 3;
const INTERRUPT_AFTER: usize = 1;

fn tempfile(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("nscaching-exact-resume");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{name}-{}-{}.ckpt",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("exact-resume");
    c.num_entities = 80;
    c.num_train = 400;
    c.num_valid = 40;
    c.num_test = 40;
    c.seed = 5;
    nscaching_datagen::generate(&c).unwrap()
}

fn trainer_config(shards: usize) -> TrainConfig {
    TrainConfig::new(TOTAL_EPOCHS)
        .with_batch_size(64)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_seed(9)
        .with_shards(shards)
}

fn build_trainer(ds: &Dataset, kind: ModelKind, sampler: &SamplerConfig, shards: usize) -> Trainer {
    let model = build_model(
        &ModelConfig::new(kind).with_dim(6).with_seed(2),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(sampler, ds, 4);
    Trainer::new(model, sampler, ds, trainer_config(shards))
}

fn eval_fingerprint(trainer: &Trainer) -> (u64, u64, u64) {
    let report = trainer.evaluate(&EvalProtocol::filtered().with_max_triples(25));
    (
        report.combined.mrr.to_bits(),
        report.combined.hits_at_10.to_bits(),
        report.combined.mean_rank.to_bits(),
    )
}

fn assert_models_bitwise_equal(a: &dyn KgeModel, b: &dyn KgeModel, context: &str) {
    for (x, y) in a.tables().iter().zip(b.tables()) {
        assert_eq!(x.name(), y.name(), "{context}");
        let diverged = x
            .data()
            .iter()
            .zip(y.data())
            .filter(|(p, q)| p.to_bits() != q.to_bits())
            .count();
        assert_eq!(
            diverged,
            0,
            "{context}: table {} diverged in {diverged}/{} entries",
            x.name(),
            x.data().len()
        );
    }
}

/// One cell of the matrix: train uninterrupted; train → checkpoint → load →
/// resume → finish; compare bits. The resume side gets a **freshly built**
/// sampler — for stateful samplers its evolving state must come back from the
/// checkpoint's sampler section, or the comparison fails.
fn assert_exact_resume_with(ds: &Dataset, kind: ModelKind, sampler: &SamplerConfig, shards: usize) {
    // Uninterrupted reference.
    let mut reference = build_trainer(ds, kind, sampler, shards);
    for _ in 0..TOTAL_EPOCHS {
        reference.train_epoch();
    }

    // Interrupted run, checkpointed to disk at the interrupt point.
    let mut interrupted = build_trainer(ds, kind, sampler, shards);
    for _ in 0..INTERRUPT_AFTER {
        interrupted.train_epoch();
    }
    let path = tempfile(&format!("{kind:?}-{}-{shards}", sampler.display_name()));
    save_checkpoint(&path, &interrupted).unwrap();
    drop(interrupted); // the process "dies" here

    // A fresh process resumes from the file alone (plus dataset + config).
    let checkpoint = load_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let fresh = nscaching::build_sampler(sampler, ds, 4);
    let mut resumed = resume_trainer(checkpoint, fresh, ds, trainer_config(shards)).unwrap();
    assert_eq!(resumed.epochs_done(), INTERRUPT_AFTER);
    while resumed.epochs_done() < TOTAL_EPOCHS {
        resumed.train_epoch();
    }

    let context = format!("{kind:?} / {} / {shards} shard(s)", sampler.display_name());
    assert_models_bitwise_equal(reference.model(), resumed.model(), &context);
    assert_eq!(
        resumed.checkpoint().sampler,
        reference.checkpoint().sampler,
        "{context}: sampler state diverged"
    );
    assert_eq!(
        eval_fingerprint(&reference),
        eval_fingerprint(&resumed),
        "{context}: evaluation metrics diverged"
    );
}

fn assert_exact_resume(ds: &Dataset, kind: ModelKind, shards: usize) {
    assert_exact_resume_with(ds, kind, &SamplerConfig::Bernoulli, shards);
}

/// The stateful samplers whose state rides in the checkpoint's sampler
/// section, with small generators to keep the matrix fast.
fn stateful_samplers() -> Vec<SamplerConfig> {
    vec![
        SamplerConfig::NsCaching(NsCachingConfig::default()),
        SamplerConfig::KbGan {
            generator: ModelKind::TransE,
            generator_dim: 6,
            candidate_size: 10,
            generator_lr: 0.01,
        },
        SamplerConfig::Igan {
            generator: ModelKind::TransE,
            generator_dim: 6,
            generator_lr: 0.01,
        },
    ]
}

#[test]
fn exact_resume_all_models_all_optimizers_sequential() {
    let ds = dataset();
    for kind in ModelKind::ALL {
        assert_exact_resume(&ds, kind, 1);
    }
}

#[test]
fn exact_resume_all_models_all_optimizers_four_shards() {
    let ds = dataset();
    for kind in ModelKind::ALL {
        assert_exact_resume(&ds, kind, 4);
    }
}

/// Satellite of the crash-recovery PR: the same bit-for-bit guarantee for
/// the *stateful* samplers, at both engine shapes. A freshly built sampler
/// plus the checkpoint's sampler section must equal the sampler that never
/// died.
#[test]
fn exact_resume_stateful_samplers_sequential() {
    let ds = dataset();
    for sampler in stateful_samplers() {
        assert_exact_resume_with(&ds, ModelKind::TransE, &sampler, 1);
    }
}

#[test]
fn exact_resume_stateful_samplers_four_shards() {
    let ds = dataset();
    for sampler in stateful_samplers() {
        assert_exact_resume_with(&ds, ModelKind::TransE, &sampler, 4);
    }
}

/// `Trainer::run` semantics after a resume: only the remaining epoch budget
/// runs, and the final report matches the uninterrupted run's bits.
#[test]
fn resumed_run_consumes_only_the_remaining_budget() {
    let ds = dataset();
    let mut reference = build_trainer(&ds, ModelKind::TransE, &SamplerConfig::Bernoulli, 1);
    let reference_history = reference.run();
    assert_eq!(reference_history.epochs.len(), TOTAL_EPOCHS);
    let reference_mrr = reference_history.final_mrr().unwrap();

    let mut interrupted = build_trainer(&ds, ModelKind::TransE, &SamplerConfig::Bernoulli, 1);
    interrupted.train_epoch();
    let path = tempfile("run-budget");
    save_checkpoint(&path, &interrupted).unwrap();

    let checkpoint = load_checkpoint(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 4);
    let mut resumed = resume_trainer(checkpoint, sampler, &ds, trainer_config(1)).unwrap();
    let resumed_history = resumed.run();
    assert_eq!(
        resumed_history.epochs.len(),
        TOTAL_EPOCHS - INTERRUPT_AFTER,
        "run() must only consume the remaining budget"
    );
    assert_eq!(
        resumed_history.final_mrr().unwrap().to_bits(),
        reference_mrr.to_bits()
    );
}
