#![recursion_limit = "512"] // the vendored proptest! macro is expansion-heavy
//! Property tests for [`CheckpointManager`]'s retention and quarantine
//! invariants under random save/corrupt churn:
//!
//! * **retention** — after any sequence of saves, exactly the newest `keep`
//!   live checkpoints remain, with consecutive, monotonically increasing
//!   sequence numbers (nothing is ever overwritten in place);
//! * **quarantine** — randomly corrupting any subset of live files never
//!   makes recovery fail while at least one valid file survives: recovery
//!   returns the newest *valid* checkpoint, quarantines every corrupt newer
//!   one with its bytes preserved byte-for-byte, and the next save never
//!   reuses a quarantined sequence number.

use nscaching::SamplerConfig;
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::{CheckpointManager, SnapshotError};
use nscaching_train::{TrainConfig, Trainer};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("nscaching-manager-invariants")
        .join(format!(
            "{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The smallest trainer that can be checkpointed (never trained — the
/// manager only cares that `save` produces a valid frame).
fn tiny_trainer() -> Trainer {
    let mut c = GeneratorConfig::small("manager-invariants");
    c.num_entities = 20;
    c.num_train = 40;
    c.num_valid = 5;
    c.num_test = 5;
    c.seed = 3;
    let ds: Dataset = nscaching_datagen::generate(&c).unwrap();
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE).with_dim(2).with_seed(1),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 2);
    let config = TrainConfig::new(1)
        .with_batch_size(16)
        .with_optimizer(OptimizerConfig::adam(0.01))
        .with_seed(2);
    Trainer::new(model, sampler, &ds, config)
}

/// One way to break a checkpoint file on disk.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Replace the file with bytes that are not a frame at all.
    Garbage,
    /// Cut the frame in half (payload truncation).
    Truncate,
    /// Flip one bit in the middle (checksum mismatch).
    BitFlip,
}

fn corrupt(path: &std::path::Path, how: Corruption) -> Vec<u8> {
    let mut bytes = std::fs::read(path).unwrap();
    match how {
        Corruption::Garbage => bytes = b"not a snapshot frame at all".to_vec(),
        Corruption::Truncate => bytes.truncate(bytes.len() / 2),
        Corruption::BitFlip => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
    }
    std::fs::write(path, &bytes).unwrap();
    bytes
}

const CORRUPTIONS: [Corruption; 3] = [
    Corruption::Garbage,
    Corruption::Truncate,
    Corruption::BitFlip,
];

fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    (0usize..CORRUPTIONS.len()).prop_map(|i| CORRUPTIONS[i])
}

/// Body of `retention_keeps_exactly_the_newest` (a plain function keeps the
/// proptest! macro expansion shallow).
fn check_retention(saves: usize, keep: usize) -> Result<(), TestCaseError> {
    let dir = fresh_dir();
    let trainer = tiny_trainer();
    let manager = CheckpointManager::new(&dir, keep).unwrap();
    let keep = keep.max(1); // the manager clamps keep to at least 1
    for _ in 0..saves {
        manager.save(&trainer).unwrap();
    }

    let entries = manager.entries().unwrap();
    prop_assert_eq!(entries.len(), saves.min(keep));
    let expected: Vec<u64> = (0..saves as u64).rev().take(keep).collect();
    let got: Vec<u64> = entries.iter().map(|e| e.seq).collect();
    prop_assert_eq!(got, expected);
    for (entry, verdict) in manager.list_verified().unwrap() {
        prop_assert!(
            verdict.is_ok(),
            "retained {:?} failed verification",
            entry.path
        );
    }
    prop_assert!(manager.quarantined().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Body of `corruption_falls_back_to_newest_valid`.
fn check_quarantine(saves: usize, broken: usize, how: &[Corruption]) -> Result<(), TestCaseError> {
    let dir = fresh_dir();
    let trainer = tiny_trainer();
    // Keep them all so there is always a valid file to fall back to.
    let manager = CheckpointManager::new(&dir, 16).unwrap();
    for _ in 0..saves {
        manager.save(&trainer).unwrap();
    }
    let entries = manager.entries().unwrap();
    let broken = broken.min(saves - 1); // leave at least one file valid
    let mut broken_bytes = Vec::new();
    for (entry, how) in entries.iter().zip(how).take(broken) {
        broken_bytes.push((entry.clone(), corrupt(&entry.path, *how)));
    }

    let recovery = manager.recover().unwrap().expect("a valid file survives");
    // Newest valid wins: everything newer was corrupted.
    prop_assert_eq!(recovery.path, entries[broken].path.clone());
    prop_assert_eq!(recovery.quarantined.len(), broken);
    for ((entry, bytes), (from, to, error)) in broken_bytes.iter().zip(&recovery.quarantined) {
        prop_assert_eq!(from, &entry.path);
        prop_assert!(
            !matches!(error, SnapshotError::Io(_)),
            "typed reason, not I/O"
        );
        // Quarantine preserves the corrupt bytes for inspection.
        prop_assert_eq!(&std::fs::read(to).unwrap(), bytes);
    }
    // The corrupt files are out of the live set but still on disk.
    prop_assert_eq!(manager.entries().unwrap().len(), saves - broken);
    prop_assert_eq!(manager.quarantined().unwrap().len(), broken);

    // A quarantined newest must never get its sequence number reused.
    let next = manager.save(&trainer).unwrap();
    let newest = manager.entries().unwrap()[0].clone();
    prop_assert_eq!(&newest.path, &next);
    prop_assert_eq!(newest.seq, saves as u64);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn retention_keeps_exactly_the_newest(saves in 1usize..10, keep in 0usize..5) {
        check_retention(saves, keep)?;
    }

    #[test]
    fn corruption_falls_back_to_newest_valid(
        saves in 2usize..7,
        broken in 1usize..6,
        how in prop::collection::vec(corruption_strategy(), 6),
    ) {
        check_quarantine(saves, broken, &how)?;
    }
}

/// Recovery on a directory that never saw a save is a clean first boot.
#[test]
fn empty_directory_recovers_to_none() {
    let dir = fresh_dir();
    let manager = CheckpointManager::new(&dir, 3).unwrap();
    assert!(manager.recover().unwrap().is_none());
    assert!(manager.entries().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
