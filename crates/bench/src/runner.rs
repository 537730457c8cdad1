//! Canonical experiment runs: the method grid of Table IV and a single-call
//! training helper shared by every experiment binary.

use crate::settings::ExperimentSettings;
use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_datagen::BenchmarkFamily;
use nscaching_eval::{EvalProtocol, LinkPredictionReport};
use nscaching_kg::Dataset;
use nscaching_models::{KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{pretrain_model, TrainConfig, TrainData, Trainer, TrainingHistory};

/// A dataset bundled with its shared [`TrainData`] view, built once so every
/// run of a (model, sampler) grid reuses the same `Arc`'d splits and filter
/// index instead of copying FB15K-sized vectors per run.
///
/// Dereferences to the wrapped [`Dataset`], so existing read-only call sites
/// (`summary()`, `num_entities()`, split access) are unaffected.
pub struct BenchDataset {
    dataset: Dataset,
    data: TrainData,
}

impl BenchDataset {
    /// Wrap a dataset, snapshotting its splits into shared storage once.
    pub fn new(dataset: Dataset) -> Self {
        let data = TrainData::from_dataset(&dataset);
        Self { dataset, data }
    }

    /// The wrapped dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The shared split view handed to every trainer.
    pub fn data(&self) -> &TrainData {
        &self.data
    }
}

impl From<Dataset> for BenchDataset {
    fn from(dataset: Dataset) -> Self {
        Self::new(dataset)
    }
}

impl std::ops::Deref for BenchDataset {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        &self.dataset
    }
}

/// The negative-sampling methods compared in Table IV (IGAN rows are copied
/// from its paper there; the IGAN-style sampler is exercised separately by
/// the Table I complexity experiment and the `compare_samplers` example).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Bernoulli baseline (also the "pretrained" reference model).
    Bernoulli,
    /// KBGAN trained from scratch.
    KbGanScratch,
    /// KBGAN warm-started from a Bernoulli-pretrained model.
    KbGanPretrain,
    /// NSCaching trained from scratch.
    NsCachingScratch,
    /// NSCaching warm-started from a Bernoulli-pretrained model.
    NsCachingPretrain,
}

impl Method {
    /// The five rows of Table IV, in the paper's order.
    pub const TABLE4: [Method; 5] = [
        Method::Bernoulli,
        Method::KbGanPretrain,
        Method::KbGanScratch,
        Method::NsCachingPretrain,
        Method::NsCachingScratch,
    ];

    /// Label used in the result tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Bernoulli => "Bernoulli",
            Method::KbGanScratch => "KBGAN+scratch",
            Method::KbGanPretrain => "KBGAN+pretrain",
            Method::NsCachingScratch => "NSCaching+scratch",
            Method::NsCachingPretrain => "NSCaching+pretrain",
        }
    }

    /// Whether this method warm-starts from a Bernoulli-pretrained model.
    pub fn pretrained(&self) -> bool {
        matches!(self, Method::KbGanPretrain | Method::NsCachingPretrain)
    }

    /// The sampler configuration for this method, with the cache / candidate
    /// size scaled to the dataset (the paper uses `N1 = N2 = 50` at full
    /// scale; tiny synthetic graphs use a proportionally smaller cache).
    pub fn sampler(&self, cache_size: usize) -> SamplerConfig {
        match self {
            Method::Bernoulli => SamplerConfig::Bernoulli,
            Method::KbGanScratch | Method::KbGanPretrain => SamplerConfig::KbGan {
                generator: ModelKind::TransE,
                generator_dim: 16,
                candidate_size: cache_size,
                generator_lr: 0.01,
            },
            Method::NsCachingScratch | Method::NsCachingPretrain => {
                SamplerConfig::NsCaching(NsCachingConfig::new(cache_size, cache_size))
            }
        }
    }
}

/// The cache / candidate-set size used at a given dataset scale: the paper's
/// 50 at full scale, shrunk (but never below 10) for the scaled-down
/// synthetic benchmarks so the cache stays a small fraction of the entity set.
pub fn scaled_cache_size(num_entities: usize) -> usize {
    (num_entities / 20).clamp(10, 50)
}

/// The canonical training configuration for a scoring function, following
/// Section IV-A2: Adam, margin γ for the translational models, penalty λ for
/// the semantic-matching models. `--threads` (when given) sets both the
/// trainer's shard count and the evaluation protocols' worker threads,
/// overriding the `NSC_SHARDS` / available-parallelism defaults.
pub fn standard_train_config(kind: ModelKind, settings: &ExperimentSettings) -> TrainConfig {
    let learning_rate = match kind {
        ModelKind::TransE | ModelKind::TransH | ModelKind::TransD => 0.02,
        ModelKind::DistMult | ModelKind::ComplEx => 0.05,
    };
    let mut config = TrainConfig::new(settings.epochs)
        .with_batch_size(256)
        .with_optimizer(OptimizerConfig::adam(learning_rate))
        .with_margin(3.0)
        .with_lambda(0.001)
        .with_seed(settings.seed);
    config.snapshot_protocol =
        EvalProtocol::filtered().with_max_triples(settings.eval_max.unwrap_or(200).min(200));
    config.final_protocol = match settings.eval_max {
        Some(max) => EvalProtocol::filtered().with_max_triples(max),
        None => EvalProtocol::filtered(),
    };
    match settings.threads {
        Some(threads) => {
            config = config.with_shards(threads);
            config.snapshot_protocol = config.snapshot_protocol.with_threads(threads);
            config.final_protocol = config.final_protocol.with_threads(threads);
        }
        // Without an explicit --threads the experiment binaries always run
        // the sequential paper-exact trainer, even when the test-matrix
        // variable NSC_SHARDS is exported in the environment: the paper's
        // tables and figures must not change because of ambient env.
        None => config = config.with_shards(1),
    }
    config
}

/// Everything a single training run produces.
pub struct RunOutcome {
    /// Which method produced it.
    pub label: String,
    /// Full training history (epoch stats + snapshots).
    pub history: TrainingHistory,
    /// Final filtered link-prediction report.
    pub report: LinkPredictionReport,
    /// Seconds spent pretraining (0 for scratch methods).
    pub pretrain_seconds: f64,
    /// The trained model, for downstream evaluations (classification, CCDFs).
    pub model: Box<dyn KgeModel>,
}

/// Train `kind` on `dataset` with `method`, following the paper's protocol.
///
/// * `pretrain_epochs` — epochs of Bernoulli warm-up used by the `+pretrain`
///   methods (the paper pretrains "several epochs"; the experiment binaries
///   use `epochs / 2`).
/// * `eval_every` — snapshot period in epochs (0 disables snapshots).
pub fn train_once(
    dataset: &BenchDataset,
    kind: ModelKind,
    method: Method,
    settings: &ExperimentSettings,
    pretrain_epochs: usize,
    eval_every: usize,
) -> RunOutcome {
    let cache_size = scaled_cache_size(dataset.num_entities());
    train_with_sampler(
        dataset,
        kind,
        method.sampler(cache_size),
        method.label().to_owned(),
        if method.pretrained() {
            pretrain_epochs
        } else {
            0
        },
        settings,
        eval_every,
    )
}

/// The per-run checkpoint file name under a checkpoint directory: label,
/// scoring function and dataset shape, so grid runs (same binary, several
/// datasets × models) never collide.
fn checkpoint_file_name(label: &str, kind: ModelKind, dataset: &BenchDataset) -> String {
    let slug: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!(
        "{slug}-{}-e{}-t{}.ckpt",
        kind.name().to_lowercase(),
        dataset.num_entities(),
        dataset.train.len()
    )
}

/// The per-run *managed* checkpoint directory (a
/// [`CheckpointManager`](nscaching_serve::CheckpointManager) home): the same
/// naming scheme as the legacy flat file, with a `.ckpts` directory suffix.
fn run_dir_name(label: &str, kind: ModelKind, dataset: &BenchDataset) -> String {
    format!("{}s", checkpoint_file_name(label, kind, dataset))
}

/// Checkpoints a managed run keeps around: the newest plus one fallback, so
/// a save torn by a crash (or bit rot on the newest file) still leaves a
/// valid last-good checkpoint to resume from.
const CHECKPOINT_KEEP: usize = 2;

/// Resolve where this run's checkpoint lives for `--resume`: a directory
/// resolves through the per-run naming scheme, a file is taken verbatim.
fn resume_path(
    resume: &std::path::Path,
    label: &str,
    kind: ModelKind,
    dataset: &BenchDataset,
) -> std::path::PathBuf {
    if resume.is_dir() {
        resume.join(checkpoint_file_name(label, kind, dataset))
    } else {
        resume.to_path_buf()
    }
}

/// What a resume attempt concluded — separated from its stderr reporting so
/// the fallback policy is directly testable. The crucial distinction is
/// [`ResumeOutcome::NoCheckpoint`] (the expected cold-start case: nothing to
/// resume, nothing to warn about) versus [`ResumeOutcome::Unusable`] (a file
/// *was* there but could not be used — corruption, truncation, schema drift —
/// which an operator monitoring a long grid run wants to hear about loudly,
/// with the typed [`nscaching_serve::SnapshotError`] saying exactly why).
enum ResumeOutcome {
    /// `--resume` was not given.
    Disabled,
    /// No checkpoint file exists at the resolved path (normal cold start).
    NoCheckpoint(std::path::PathBuf),
    /// A matching checkpoint resumed the run. `fallbacks` lists newer files
    /// that failed validation and were quarantined on the way to it —
    /// non-empty means the newest checkpoint was corrupt and the manager
    /// fell back to the next-newest valid one.
    Resumed {
        trainer: Box<Trainer>,
        path: std::path::PathBuf,
        fallbacks: Vec<(
            std::path::PathBuf,
            std::path::PathBuf,
            nscaching_serve::SnapshotError,
        )>,
    },
    /// A checkpoint file exists but is unusable (and no valid fallback
    /// remains); the typed error says why.
    Unusable {
        path: std::path::PathBuf,
        error: nscaching_serve::SnapshotError,
    },
}

/// Validate a decoded checkpoint against the run's shape and resume it.
fn resume_attempt(
    checkpoint: nscaching_serve::Checkpoint,
    dataset: &BenchDataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    settings: &ExperimentSettings,
    train_config: &TrainConfig,
) -> Result<Trainer, nscaching_serve::SnapshotError> {
    if checkpoint.model.kind != kind
        || checkpoint.model.dim != settings.dim
        || checkpoint.model.num_entities != dataset.num_entities()
        || checkpoint.model.num_relations != dataset.num_relations()
    {
        return Err(nscaching_serve::SnapshotError::SchemaMismatch(format!(
            "checkpoint holds {:?} d={} |E|={} |R|={}, run wants {:?} d={} |E|={} |R|={}",
            checkpoint.model.kind,
            checkpoint.model.dim,
            checkpoint.model.num_entities,
            checkpoint.model.num_relations,
            kind,
            settings.dim,
            dataset.num_entities(),
            dataset.num_relations()
        )));
    }
    let sampler =
        nscaching::build_sampler(sampler, dataset.dataset(), settings.seed.wrapping_add(2));
    nscaching_serve::resume_trainer(checkpoint, sampler, dataset.data(), train_config.clone())
}

/// Attempt to resume this run from `--resume` (no I/O to stderr — see
/// [`try_resume`] for the reporting policy; quarantine renames inside a
/// managed directory are the one filesystem mutation).
///
/// A managed per-run directory (written by `--checkpoint-every`) resolves
/// through [`nscaching_serve::CheckpointManager::recover`]: a corrupt newest
/// checkpoint is quarantined and the next-newest valid one resumes the run.
/// A bare file path, or a legacy flat checkpoint file, is loaded verbatim.
fn resume_outcome(
    dataset: &BenchDataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    label: &str,
    settings: &ExperimentSettings,
    train_config: &TrainConfig,
) -> ResumeOutcome {
    let Some(resume) = settings.resume.as_deref() else {
        return ResumeOutcome::Disabled;
    };

    // Managed layout first: <resume>/<run>.ckpts/ckpt-<seq>.ckpt.
    let managed = resume.join(run_dir_name(label, kind, dataset));
    if resume.is_dir() && managed.is_dir() {
        return resume_from_managed(&managed, dataset, kind, sampler, settings, train_config);
    }

    // Legacy flat file (or an explicit --resume <file>).
    let path = resume_path(resume, label, kind, dataset);
    if !path.exists() {
        return ResumeOutcome::NoCheckpoint(path);
    }
    let attempt = nscaching_serve::load_checkpoint(&path).and_then(|checkpoint| {
        resume_attempt(checkpoint, dataset, kind, sampler, settings, train_config)
    });
    match attempt {
        Ok(trainer) => ResumeOutcome::Resumed {
            trainer: Box::new(trainer),
            path,
            fallbacks: Vec::new(),
        },
        Err(error) => ResumeOutcome::Unusable { path, error },
    }
}

/// Resume from a managed checkpoint directory via last-good recovery.
fn resume_from_managed(
    managed: &std::path::Path,
    dataset: &BenchDataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    settings: &ExperimentSettings,
    train_config: &TrainConfig,
) -> ResumeOutcome {
    let manager = match nscaching_serve::CheckpointManager::new(managed, CHECKPOINT_KEEP) {
        Ok(manager) => manager,
        Err(error) => {
            return ResumeOutcome::Unusable {
                path: managed.to_path_buf(),
                error,
            }
        }
    };
    // Read-only verdicts first, so an all-corrupt directory can still report
    // the newest file's typed error after recovery quarantines everything.
    let verified = match manager.list_verified() {
        Ok(verified) => verified,
        Err(error) => {
            return ResumeOutcome::Unusable {
                path: managed.to_path_buf(),
                error,
            }
        }
    };
    if verified.is_empty() {
        return ResumeOutcome::NoCheckpoint(managed.to_path_buf());
    }
    match manager.recover() {
        Err(error) => ResumeOutcome::Unusable {
            path: managed.to_path_buf(),
            error,
        },
        Ok(None) => {
            // Everything failed validation. Report the newest file's verdict
            // (frame-valid files that fail the section decode fall back to a
            // generic corruption error).
            let (entry, verdict) = verified.into_iter().next().expect("non-empty");
            ResumeOutcome::Unusable {
                path: entry.path,
                error: verdict.err().unwrap_or_else(|| {
                    nscaching_serve::SnapshotError::Corrupt(
                        "frame verifies but the section decode fails".into(),
                    )
                }),
            }
        }
        Ok(Some(recovery)) => {
            let path = recovery.path;
            match resume_attempt(
                recovery.checkpoint,
                dataset,
                kind,
                sampler,
                settings,
                train_config,
            ) {
                Ok(trainer) => ResumeOutcome::Resumed {
                    trainer: Box::new(trainer),
                    path,
                    fallbacks: recovery.quarantined,
                },
                Err(error) => ResumeOutcome::Unusable { path, error },
            }
        }
    }
}

/// Try to resume this run from `--resume`. Any failure falls back to a fresh
/// run — resumption is an optimisation, never a correctness requirement —
/// but the failure modes report differently on stderr: a missing checkpoint
/// is a routine cold start (one informational line); a corrupt newest
/// checkpoint in a managed directory WARNs with both paths (the quarantined
/// file and the next-newest valid one that actually resumed the run); an
/// unusable checkpoint with no fallback left is surfaced as a warning
/// carrying the typed [`nscaching_serve::SnapshotError`]. A *matching*
/// checkpoint continues the interrupted trajectory bit-for-bit (see
/// `nscaching_serve`).
fn try_resume(
    dataset: &BenchDataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    label: &str,
    settings: &ExperimentSettings,
    train_config: &TrainConfig,
) -> Option<Trainer> {
    match resume_outcome(dataset, kind, sampler, label, settings, train_config) {
        ResumeOutcome::Disabled => None,
        ResumeOutcome::NoCheckpoint(path) => {
            eprintln!("[{label}] no checkpoint at {path:?}; starting fresh");
            None
        }
        ResumeOutcome::Resumed {
            trainer,
            path,
            fallbacks,
        } => {
            for (from, to, error) in &fallbacks {
                eprintln!(
                    "[{label}] WARNING: checkpoint {from:?} failed validation ({error}); \
                     quarantined to {to:?}, falling back to {path:?}"
                );
            }
            eprintln!(
                "[{label}] resumed from checkpoint {path:?} at epoch {}",
                trainer.epochs_done()
            );
            Some(*trainer)
        }
        ResumeOutcome::Unusable { path, error } => {
            eprintln!(
                "[{label}] WARNING: checkpoint at {path:?} is unusable ({error}); starting fresh"
            );
            None
        }
    }
}

/// Train with an explicit sampler configuration (used by the ablation
/// figures, which need non-default strategies and cache sizes).
///
/// Honours the checkpoint flags: with `--resume` the run continues from its
/// per-run checkpoint when one matches (skipping pretraining — the
/// checkpointed tables already embody it), and with `--checkpoint-every N`
/// the trainer saves a resumable checkpoint to `--checkpoint-dir` every `N`
/// finished epochs through [`Trainer::run_with`]'s epoch hook.
///
/// With `--metrics-out FILE` the trainer runs instrumented (a fresh
/// [`nscaching_obs::MetricsRegistry`] per run, attached through
/// [`Trainer::attach_metrics`]) and the registry's exposition is appended to
/// `FILE` under a `# run <label>` header when the run finishes. Attaching
/// telemetry never perturbs the trajectory (asserted in
/// `nscaching_train`'s `telemetry_equivalence` suite), and the TSV outputs
/// are bit-unchanged either way.
pub fn train_with_sampler(
    dataset: &BenchDataset,
    kind: ModelKind,
    sampler: SamplerConfig,
    label: String,
    pretrain_epochs: usize,
    settings: &ExperimentSettings,
    eval_every: usize,
) -> RunOutcome {
    let model_config = ModelConfig::new(kind)
        .with_dim(settings.dim)
        .with_seed(settings.seed ^ 0x5eed);
    let mut train_config = standard_train_config(kind, settings).with_eval_every(eval_every);
    // The paper evaluates KBGAN/NSCaching within a fixed epoch budget whether
    // or not they were pretrained; the pretraining epochs are charged to the
    // reported wall-clock time in the convergence figures.
    train_config.seed = settings.seed.wrapping_add(1);

    let (mut trainer, pretrain_seconds) =
        match try_resume(dataset, kind, &sampler, &label, settings, &train_config) {
            Some(trainer) => (trainer, 0.0),
            None => {
                let (model, pretrain_seconds) = if pretrain_epochs > 0 {
                    pretrain_model(
                        &model_config,
                        dataset.dataset(),
                        dataset.data(),
                        &train_config,
                        pretrain_epochs,
                    )
                } else {
                    (
                        nscaching_models::build_model(
                            &model_config,
                            dataset.num_entities(),
                            dataset.num_relations(),
                        ),
                        0.0,
                    )
                };
                let sampler = nscaching::build_sampler(
                    &sampler,
                    dataset.dataset(),
                    settings.seed.wrapping_add(2),
                );
                (
                    Trainer::new(model, sampler, dataset.data(), train_config),
                    pretrain_seconds,
                )
            }
        };

    let telemetry = settings.metrics_out.as_ref().map(|path| {
        let registry = std::sync::Arc::new(nscaching_obs::MetricsRegistry::new());
        trainer.attach_metrics(nscaching_train::TrainMetrics::register(&registry));
        (registry, path.clone())
    });

    if settings.checkpoint_every > 0 {
        let run_dir = settings
            .checkpoint_dir()
            .join(run_dir_name(&label, kind, dataset));
        let every = settings.checkpoint_every;
        match nscaching_serve::CheckpointManager::new(&run_dir, CHECKPOINT_KEEP) {
            Ok(manager) => {
                trainer.run_with(&mut |t| {
                    if t.epochs_done() % every == 0 {
                        if let Err(e) = manager.save(t) {
                            eprintln!("[{label}] checkpoint to {run_dir:?} failed: {e}");
                        }
                    }
                });
            }
            Err(e) => {
                eprintln!(
                    "[{label}] cannot open checkpoint dir {run_dir:?}: {e}; \
                     running without checkpoints"
                );
                trainer.run();
            }
        }
    } else {
        trainer.run();
    }
    if let Some((registry, path)) = telemetry {
        if let Err(e) = append_metrics(&path, &label, &registry.render()) {
            eprintln!("[{label}] cannot append --metrics-out {path:?}: {e}");
        }
    }
    let history = trainer.history().clone();
    let report = history
        .final_report
        .expect("Trainer::run always records a final report");
    let model = trainer.into_model();
    RunOutcome {
        label,
        history,
        report,
        pretrain_seconds,
        model,
    }
}

/// Append one run's metrics exposition to the `--metrics-out` file under a
/// `# run <label>` header, creating the file (and its parent directory) on
/// first use so a grid binary accumulates one section per run.
fn append_metrics(path: &std::path::Path, label: &str, exposition: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    write!(file, "# run {label}\n{exposition}")
}

/// Generate the benchmark datasets `--datasets` names (all four by default)
/// at the configured scale, each wrapped with its shared split view.
pub fn benchmark_datasets(settings: &ExperimentSettings) -> Vec<(BenchmarkFamily, BenchDataset)> {
    settings
        .select_families(BenchmarkFamily::ALL.to_vec())
        .iter()
        .map(|family| {
            let ds = family
                .generate(settings.scale, settings.seed)
                .expect("benchmark generation succeeds");
            (*family, BenchDataset::new(ds))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_settings() -> ExperimentSettings {
        ExperimentSettings::parse(["--smoke"]).unwrap()
    }

    #[test]
    fn method_grid_matches_table_iv() {
        assert_eq!(Method::TABLE4.len(), 5);
        assert!(Method::KbGanPretrain.pretrained());
        assert!(!Method::NsCachingScratch.pretrained());
        assert_eq!(Method::NsCachingScratch.label(), "NSCaching+scratch");
        assert_eq!(Method::Bernoulli.sampler(30).display_name(), "Bernoulli");
        assert_eq!(
            Method::NsCachingPretrain.sampler(30).display_name(),
            "NSCaching"
        );
        assert_eq!(Method::KbGanScratch.sampler(30).display_name(), "KBGAN");
    }

    #[test]
    fn cache_size_scales_with_the_entity_count() {
        assert_eq!(scaled_cache_size(100), 10);
        assert_eq!(scaled_cache_size(600), 30);
        assert_eq!(scaled_cache_size(5_000), 50);
        assert_eq!(scaled_cache_size(100_000), 50);
    }

    #[test]
    fn standard_configs_follow_the_loss_family() {
        let settings = smoke_settings();
        let trans = standard_train_config(ModelKind::TransD, &settings);
        let semantic = standard_train_config(ModelKind::ComplEx, &settings);
        assert!(trans.optimizer.learning_rate < semantic.optimizer.learning_rate);
        assert_eq!(trans.epochs, settings.epochs);
        assert!(semantic.final_protocol.max_triples.is_some());
    }

    #[test]
    fn train_once_runs_every_method_in_smoke_mode() {
        let settings = smoke_settings();
        let dataset = BenchDataset::new(
            BenchmarkFamily::Wn18rr
                .generate(settings.scale, settings.seed)
                .unwrap(),
        );
        for method in [
            Method::Bernoulli,
            Method::NsCachingScratch,
            Method::KbGanPretrain,
        ] {
            let outcome = train_once(&dataset, ModelKind::TransE, method, &settings, 1, 0);
            assert_eq!(outcome.label, method.label());
            assert!(outcome.report.combined.mrr >= 0.0);
            assert_eq!(outcome.history.epochs.len(), settings.epochs);
            if method.pretrained() {
                assert!(outcome.pretrain_seconds > 0.0);
            } else {
                assert_eq!(outcome.pretrain_seconds, 0.0);
            }
        }
    }

    #[test]
    fn checkpoint_every_writes_files_and_resume_continues_bit_for_bit() {
        let dir =
            std::env::temp_dir().join(format!("nscaching-runner-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut settings = smoke_settings();
        settings.epochs = 3;
        let dataset = BenchDataset::new(
            BenchmarkFamily::Wn18rr
                .generate(settings.scale, settings.seed)
                .unwrap(),
        );

        // Reference: straight through, no checkpointing.
        let reference = train_with_sampler(
            &dataset,
            ModelKind::TransE,
            SamplerConfig::Bernoulli,
            "ckpt-test".into(),
            0,
            &settings,
            0,
        );

        // Same run with per-epoch checkpoints: the final checkpoint is from
        // epoch 3, so re-checkpoint at epoch 2 by interrupting the budget.
        settings.checkpoint_every = 1;
        settings.checkpoint_dir = Some(dir.clone());
        let mut short = settings.clone();
        short.epochs = 2;
        let _ = train_with_sampler(
            &dataset,
            ModelKind::TransE,
            SamplerConfig::Bernoulli,
            "ckpt-test".into(),
            0,
            &short,
            0,
        );
        // Per-epoch saves land in a managed per-run directory; with
        // CHECKPOINT_KEEP = 2 both epoch checkpoints are retained.
        let run_dir = dir.join(run_dir_name("ckpt-test", ModelKind::TransE, &dataset));
        let manager = nscaching_serve::CheckpointManager::new(&run_dir, CHECKPOINT_KEEP).unwrap();
        let entries = manager.entries().unwrap();
        assert_eq!(entries.len(), 2, "both epoch checkpoints retained");

        // Resume the interrupted run to the full budget.
        settings.resume = Some(dir.clone());
        settings.checkpoint_every = 0;
        let resumed = train_with_sampler(
            &dataset,
            ModelKind::TransE,
            SamplerConfig::Bernoulli,
            "ckpt-test".into(),
            0,
            &settings,
            0,
        );
        assert_eq!(
            resumed.history.epochs.len(),
            1,
            "only the remaining epoch runs"
        );
        assert_eq!(
            resumed.report.combined.mrr.to_bits(),
            reference.report.combined.mrr.to_bits(),
            "resumed grid run must land on the uninterrupted metrics"
        );

        // Corrupt the *newest* checkpoint: resume must quarantine it, fall
        // back to the next-newest valid one (epoch 1), rerun the remaining
        // two epochs and still land on the uninterrupted metrics.
        let newest = &entries[0].path;
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(newest, &bytes).unwrap();
        let fallback = train_with_sampler(
            &dataset,
            ModelKind::TransE,
            SamplerConfig::Bernoulli,
            "ckpt-test".into(),
            0,
            &settings,
            0,
        );
        assert_eq!(
            fallback.history.epochs.len(),
            2,
            "fallback resumes the epoch-1 checkpoint, so two epochs remain"
        );
        assert_eq!(
            fallback.report.combined.mrr.to_bits(),
            reference.report.combined.mrr.to_bits(),
            "fallback resume must land on the uninterrupted metrics"
        );
        assert_eq!(
            manager.quarantined().unwrap().len(),
            1,
            "the corrupt newest checkpoint was quarantined, not deleted"
        );

        // A non-matching run ignores the checkpoint and starts fresh.
        let fresh = train_with_sampler(
            &dataset,
            ModelKind::DistMult,
            SamplerConfig::Bernoulli,
            "ckpt-test".into(),
            0,
            &settings,
            0,
        );
        assert_eq!(fresh.history.epochs.len(), settings.epochs);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_distinguishes_missing_from_corrupt_checkpoints() {
        let dir =
            std::env::temp_dir().join(format!("nscaching-runner-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut settings = smoke_settings();
        settings.epochs = 1;
        settings.resume = Some(dir.clone());
        let dataset = BenchDataset::new(
            BenchmarkFamily::Wn18rr
                .generate(settings.scale, settings.seed)
                .unwrap(),
        );
        let mut train_config = standard_train_config(ModelKind::TransE, &settings);
        // Match train_with_sampler's seed derivation so a good checkpoint
        // written by it is resumable through this config.
        train_config.seed = settings.seed.wrapping_add(1);
        let outcome = |settings: &ExperimentSettings| {
            resume_outcome(
                &dataset,
                ModelKind::TransE,
                &SamplerConfig::Bernoulli,
                "resume-test",
                settings,
                &train_config,
            )
        };

        // Disabled: no --resume flag at all.
        let mut disabled = settings.clone();
        disabled.resume = None;
        assert!(matches!(outcome(&disabled), ResumeOutcome::Disabled));

        // Missing: the directory exists but holds no checkpoint — a routine
        // cold start, reported as NoCheckpoint with the path it looked at.
        match outcome(&settings) {
            ResumeOutcome::NoCheckpoint(path) => {
                assert_eq!(path.parent(), Some(dir.as_path()));
                assert!(!path.exists());
            }
            _ => panic!("expected NoCheckpoint for an empty resume dir"),
        }

        // Corrupt legacy flat file: a file *is* there but is garbage — the
        // typed SnapshotError must surface so the operator learns the
        // difference. (No managed directory exists yet, so this exercises
        // the legacy single-file path.)
        let path = dir.join(checkpoint_file_name(
            "resume-test",
            ModelKind::TransE,
            &dataset,
        ));
        std::fs::write(&path, b"this is not a checkpoint").unwrap();
        match outcome(&settings) {
            ResumeOutcome::Unusable { path: p, error } => {
                assert_eq!(p, path);
                assert!(
                    matches!(error, nscaching_serve::SnapshotError::BadMagic { .. }),
                    "garbage bytes should fail the magic check, got: {error}"
                );
            }
            _ => panic!("expected Unusable for a corrupt checkpoint"),
        }
        std::fs::remove_file(&path).unwrap();

        // Write a good managed checkpoint through the real save path.
        let run_dir = dir.join(run_dir_name("resume-test", ModelKind::TransE, &dataset));
        let good = {
            settings.checkpoint_every = 1;
            settings.checkpoint_dir = Some(dir.clone());
            settings.resume = None;
            let _ = train_with_sampler(
                &dataset,
                ModelKind::TransE,
                SamplerConfig::Bernoulli,
                "resume-test".into(),
                0,
                &settings,
                0,
            );
            settings.resume = Some(dir.clone());
            settings.checkpoint_every = 0;
            let manager =
                nscaching_serve::CheckpointManager::new(&run_dir, CHECKPOINT_KEEP).unwrap();
            std::fs::read(&manager.entries().unwrap()[0].path).unwrap()
        };

        // Corrupt newest falls back to next-newest valid: plant a truncated
        // copy as a *newer* sequence number. Resume must quarantine it with
        // a typed truncation/checksum error and resume the good one.
        let torn = run_dir.join("ckpt-0000000007.ckpt");
        std::fs::write(&torn, &good[..good.len() - 7]).unwrap();
        match outcome(&settings) {
            ResumeOutcome::Resumed {
                trainer,
                path: resumed_from,
                fallbacks,
            } => {
                assert_eq!(trainer.epochs_done(), 1);
                assert_eq!(fallbacks.len(), 1, "the torn newest was quarantined");
                let (from, to, error) = &fallbacks[0];
                assert_eq!(from, &torn);
                assert!(to.exists(), "quarantined bytes are preserved");
                assert!(
                    matches!(
                        error,
                        nscaching_serve::SnapshotError::Truncated { .. }
                            | nscaching_serve::SnapshotError::ChecksumMismatch { .. }
                    ),
                    "torn checkpoint should be typed truncation/checksum, got: {error}"
                );
                assert_ne!(&resumed_from, &torn, "must fall back to the valid file");
            }
            _ => panic!("expected a fallback resume past the torn newest checkpoint"),
        }

        // All managed checkpoints corrupt: recovery has nothing valid left
        // and the newest typed error surfaces as Unusable.
        let manager = nscaching_serve::CheckpointManager::new(&run_dir, CHECKPOINT_KEEP).unwrap();
        for entry in manager.entries().unwrap() {
            std::fs::write(&entry.path, b"rotted").unwrap();
        }
        match outcome(&settings) {
            ResumeOutcome::Unusable { error, .. } => {
                assert!(
                    matches!(error, nscaching_serve::SnapshotError::BadMagic { .. }),
                    "rotted managed checkpoints should fail the magic check, got: {error}"
                );
            }
            _ => panic!("expected Unusable when every managed checkpoint is corrupt"),
        }

        // A fresh good save must resume again — and its sequence number must
        // be past every quarantined file, so "newest" stays unambiguous.
        let reborn = run_dir.join("ckpt-0000000023.ckpt");
        std::fs::write(&reborn, &good).unwrap();
        match outcome(&settings) {
            ResumeOutcome::Resumed { fallbacks, .. } => assert!(fallbacks.is_empty()),
            _ => panic!("expected a clean resume from the restored checkpoint"),
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_out_appends_one_exposition_section_per_run() {
        let dir =
            std::env::temp_dir().join(format!("nscaching-runner-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.txt");

        let mut settings = smoke_settings();
        settings.epochs = 2;
        settings.metrics_out = Some(path.clone());
        let dataset = BenchDataset::new(
            BenchmarkFamily::Wn18rr
                .generate(settings.scale, settings.seed)
                .unwrap(),
        );
        for _ in 0..2 {
            let _ = train_with_sampler(
                &dataset,
                ModelKind::TransE,
                SamplerConfig::Bernoulli,
                "metrics-test".into(),
                0,
                &settings,
                0,
            );
        }

        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("# run metrics-test\n").count(),
            2,
            "one header per run:\n{text}"
        );
        // Each run's section carries the per-phase timers and the epoch
        // bridge (2 epochs of the sequential smoke engine).
        assert_eq!(text.matches("nsc_train_epochs_total 2\n").count(), 2);
        assert!(text.contains("nsc_train_phase_us_count{phase=\"sample_score\"}"));
        assert!(text.contains("nsc_train_mean_loss "));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn benchmark_datasets_generates_all_four_families() {
        let settings = smoke_settings();
        let datasets = benchmark_datasets(&settings);
        assert_eq!(datasets.len(), 4);
        assert!(datasets.iter().all(|(_, ds)| !ds.train.is_empty()));
    }
}
