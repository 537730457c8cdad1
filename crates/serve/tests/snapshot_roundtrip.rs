//! Snapshot-format integrity: bitwise round-trips for every model, and typed
//! (never panicking) failures for every corruption class — truncation, bad
//! magic, hostile length fields, bit flips, future versions, schema drift,
//! optimizer state that does not fit the model — and for paths that are not
//! regular files.

use nscaching::{SamplerConfig, SamplerState};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::format::{fnv1a64, read_frame, write_frame, Writer, FORMAT_VERSION, MAGIC};
use nscaching_serve::{
    load_checkpoint, load_model, resume_trainer, save_checkpoint, save_model, KnowledgeServer,
    ModelSnapshot, QueryScratch, SnapshotError, TopKQuery,
};
use nscaching_train::{TrainConfig, Trainer};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tempfile(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("nscaching-snapshot-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{name}-{}-{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dataset(seed: u64) -> Dataset {
    let mut c = GeneratorConfig::small("roundtrip");
    c.num_entities = 60;
    c.num_train = 300;
    c.num_valid = 30;
    c.num_test = 30;
    c.seed = seed;
    nscaching_datagen::generate(&c).unwrap()
}

fn trained_trainer(ds: &Dataset, kind: ModelKind, epochs: usize) -> Trainer {
    let model = build_model(
        &ModelConfig::new(kind).with_dim(6).with_seed(3),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, ds, 7);
    let config = TrainConfig::new(epochs)
        .with_batch_size(64)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_seed(11)
        .with_shards(1);
    let mut trainer = Trainer::new(model, sampler, ds, config);
    for _ in 0..epochs {
        trainer.train_epoch();
    }
    trainer
}

fn assert_tables_bitwise_equal(a: &dyn KgeModel, b: &ModelSnapshot) {
    let tables = a.tables();
    assert_eq!(tables.len(), b.tables.len());
    for (live, snap) in tables.iter().zip(&b.tables) {
        assert_eq!(live.name(), snap.name);
        assert_eq!(live.rows(), snap.rows);
        assert_eq!(live.dim(), snap.dim);
        assert!(
            live.data()
                .iter()
                .zip(&snap.data)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "table {} changed across the round-trip",
            live.name()
        );
    }
}

/// Every model, deterministically: save → load → bitwise-equal tables,
/// optimizer slabs and trainer state.
#[test]
fn checkpoint_round_trip_is_bitwise_exact_for_all_models_and_optimizers() {
    let ds = dataset(1);
    for kind in ModelKind::ALL {
        let trainer = trained_trainer(&ds, kind, 2);
        let path = tempfile(&format!("matrix-{kind:?}"));
        save_checkpoint(&path, &trainer).unwrap();

        let checkpoint = load_checkpoint(&path).unwrap();
        assert_eq!(checkpoint.model.kind, kind);
        assert_eq!(checkpoint.model.dim, 6);
        assert_tables_bitwise_equal(trainer.model(), &checkpoint.model);

        let state = trainer.checkpoint();
        assert_eq!(checkpoint.state.epochs_done, state.epochs_done);
        assert_eq!(
            checkpoint.state.train_seconds.to_bits(),
            state.train_seconds.to_bits()
        );
        assert_eq!(checkpoint.state.rng, state.rng);
        assert_eq!(checkpoint.state.batch_order, state.batch_order);
        assert_eq!(
            checkpoint.state.optimizer, state.optimizer,
            "{kind:?} optimizer slabs drifted"
        );
        assert_eq!(checkpoint.meta.seed, 11);
        assert_eq!(checkpoint.meta.shards, 1);
        assert_eq!(checkpoint.meta.optimizer, OptimizerConfig::adam(0.02));

        // The rebuilt model scores identically to the live one.
        let rebuilt = checkpoint.model.into_model().unwrap();
        let probe = ds.train[0];
        assert_eq!(
            rebuilt.score(&probe).to_bits(),
            trainer.model().score(&probe).to_bits()
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A serving process reads the model section straight out of a *training*
/// checkpoint.
#[test]
fn load_model_reads_the_model_section_of_a_full_checkpoint() {
    let ds = dataset(2);
    let trainer = trained_trainer(&ds, ModelKind::DistMult, 1);
    let path = tempfile("model-from-checkpoint");
    save_checkpoint(&path, &trainer).unwrap();
    let snapshot = load_model(&path).unwrap();
    assert_tables_bitwise_equal(trainer.model(), &snapshot);
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_only_snapshots_round_trip() {
    for kind in ModelKind::ALL {
        let model = build_model(&ModelConfig::new(kind).with_dim(5).with_seed(9), 30, 4);
        let path = tempfile(&format!("model-{kind:?}"));
        save_model(&path, model.as_ref()).unwrap();
        let snapshot = load_model(&path).unwrap();
        assert_tables_bitwise_equal(model.as_ref(), &snapshot);
        let rebuilt = snapshot.into_model().unwrap();
        assert_eq!(rebuilt.kind(), kind);
        assert_eq!(rebuilt.num_entities(), 30);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn truncated_files_fail_with_typed_errors_at_every_cut() {
    let ds = dataset(3);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1);
    let path = tempfile("truncate");
    save_checkpoint(&path, &trainer).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Cut everywhere interesting: inside the magic, the header, the payload
    // and the trailing checksum.
    for cut in [
        0,
        4,
        11,
        19,
        20,
        full.len() / 2,
        full.len() - 9,
        full.len() - 1,
    ] {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_magic_and_future_versions_are_rejected() {
    let ds = dataset(4);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1);
    let path = tempfile("magic");
    save_checkpoint(&path, &trainer).unwrap();
    let good = std::fs::read(&path).unwrap();

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).unwrap();
    assert!(matches!(
        load_checkpoint(&path),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = good.clone();
    future[8] = 0x2A;
    std::fs::write(&path, &future).unwrap();
    assert!(matches!(
        load_checkpoint(&path),
        Err(SnapshotError::UnsupportedVersion { found: 0x2A })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_payload_lengths_fail_typed_without_overflow() {
    // From 2^64 − 28 up, `frame bytes + payload length` overflows a u64.
    let path = tempfile("hostile-length");
    for payload_len in [u64::MAX - 27, u64::MAX - 8, u64::MAX] {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &frame).unwrap();
        let err = read_frame(&path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated {
                    context: "payload",
                    ..
                }
            ),
            "length {payload_len}: unexpected error {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn hostile_table_counts_fail_typed_before_allocating() {
    // Each payload is checksum-valid and declares u32::MAX tables in one
    // count field. Sizing a Vec by such a count asks for hundreds of GiB and
    // aborts the process, so every count is checked against the bytes left.
    fn section(tag: u8, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut inner = Writer::new();
        body(&mut inner);
        let inner = inner.into_payload();
        let mut w = Writer::new();
        w.u8(tag);
        w.u64(inner.len() as u64);
        w.raw(&inner);
        w.into_payload()
    }
    let model = section(1, |w| {
        w.u8(0); // TransE
        w.u64(4);
        w.u64(10);
        w.u64(2);
        w.u32(u32::MAX);
    });
    let generator = section(4, |w| {
        w.u8(2); // generator sampler state
        w.u8(1); // KBGAN
        w.f64(0.0);
        w.u64(0);
        w.u32(u32::MAX);
    });
    let adam = section(3, |w| {
        w.u8(2);
        w.u32(u32::MAX);
    });
    let path = tempfile("hostile-table-count");
    for (payload, expected) in [
        (&model, "model tables"),
        (&generator, "generator tables"),
        (&adam, "adam tables"),
    ] {
        write_frame(&path, payload).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { context, .. } if context == expected),
            "{expected}: unexpected error {err}"
        );
    }
    // The model-only loader (the wire `Reload` path) refuses it the same way.
    write_frame(&path, &model).unwrap();
    assert!(matches!(
        load_model(&path),
        Err(SnapshotError::Truncated {
            context: "model tables",
            ..
        })
    ));
    std::fs::remove_file(&path).ok();
}

/// Whether `err` is the refusal `read_frame` gives a non-regular file.
fn is_not_a_regular_file(err: &SnapshotError) -> bool {
    matches!(err, SnapshotError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput)
}

#[cfg(unix)]
#[test]
fn paths_that_are_not_regular_files_are_refused() {
    // A character device. `/dev/zero` is the dangerous one (reading it never
    // ends); `/dev/null` is the same kind of file, so a regression shows
    // here as a wrong error instead of an exhausted host.
    let err = read_frame(std::path::Path::new("/dev/null")).unwrap_err();
    assert!(is_not_a_regular_file(&err), "character device: {err}");

    // A directory.
    let err = read_frame(&std::env::temp_dir()).unwrap_err();
    assert!(is_not_a_regular_file(&err), "directory: {err}");

    // A FIFO, whose open blocks until a writer appears: read on a helper
    // thread so a regression fails the test instead of hanging it.
    let fifo = tempfile("fifo");
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(status.success(), "mkfifo failed");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader_path = fifo.clone();
    let reader = std::thread::spawn(move || {
        let _ = tx.send(read_frame(&reader_path).map(|_| ()));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("reading a FIFO must not block");
    reader.join().expect("reader thread");
    std::fs::remove_file(&fifo).ok();
    let err = result.unwrap_err();
    assert!(is_not_a_regular_file(&err), "FIFO: {err}");
}

// Linux filesystems keep a file extended by `set_len` sparse; on others the
// 64 GiB below could be written out in full.
#[cfg(target_os = "linux")]
#[test]
fn the_header_is_checked_before_the_payload_is_read() {
    // A 64 GiB sparse file of zeros: read whole, it would exhaust the host,
    // so it must be refused from its first 20 bytes.
    const HUGE: u64 = 64 << 30;
    let path = tempfile("sparse");
    std::fs::File::create(&path).unwrap().set_len(HUGE).unwrap();
    for err in [
        read_frame(&path).unwrap_err(),
        load_model(&path).unwrap_err(),
        load_checkpoint(&path).unwrap_err(),
    ] {
        assert!(
            matches!(err, SnapshotError::BadMagic { found } if found == [0; 8]),
            "{err}"
        );
    }

    let header = |payload_len: u64| {
        let mut header = MAGIC.to_vec();
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&payload_len.to_le_bytes());
        header
    };
    // A valid header that declares fewer bytes than the sparse file holds.
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all(&header(16)).unwrap();
    }
    let err = read_frame(&path).unwrap_err();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");

    // A valid header that declares more bytes than the file holds, small
    // file and sparse file alike.
    let mut small = header(HUGE);
    small.extend_from_slice(&[0; 16]);
    std::fs::write(&path, &small).unwrap();
    let err = read_frame(&path).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::Truncated { context: "payload", needed, available: 36 }
                if needed as u64 == HUGE + 28
        ),
        "{err}"
    );
    std::fs::File::create(&path).unwrap().set_len(HUGE).unwrap();
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all(&header(2 * HUGE)).unwrap();
    }
    let err = load_model(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Truncated { context: "payload", available, .. }
            if available as u64 == HUGE),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Rewrite the version-2 frame at `path` as a version-1 frame of the same
/// payload: the frame the previous format revision wrote.
fn reframe_as_version_1(path: &std::path::Path) {
    let payload = read_frame(path).unwrap();
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    std::fs::write(path, frame).unwrap();
}

#[test]
fn version_1_files_load_resume_and_serve_bit_identically() {
    // The payload format did not change with version 2, so a version-1 frame
    // of a payload is what the previous revision wrote for the same state.
    let ds = dataset(9);
    let config = || {
        TrainConfig::new(2)
            .with_batch_size(64)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_seed(11)
            .with_shards(1)
    };
    for kind in ModelKind::ALL {
        let trainer = trained_trainer(&ds, kind, 1);
        let (v1, v2) = (tempfile("v1"), tempfile("v2"));
        save_checkpoint(&v1, &trainer).unwrap();
        save_checkpoint(&v2, &trainer).unwrap();
        reframe_as_version_1(&v1);

        let checkpoint = load_checkpoint(&v1).unwrap();
        assert_tables_bitwise_equal(trainer.model(), &checkpoint.model);
        assert_tables_bitwise_equal(trainer.model(), &load_model(&v1).unwrap());
        let state = trainer.checkpoint();
        assert_eq!(checkpoint.state.optimizer, state.optimizer);
        assert_eq!(checkpoint.state.rng, state.rng);
        assert_eq!(checkpoint.state.batch_order, state.batch_order);

        let sampler = || nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 7);
        let mut resumed = [&v1, &v2].map(|path| {
            let checkpoint = load_checkpoint(path).unwrap();
            resume_trainer(checkpoint, sampler(), &ds, config()).unwrap()
        });
        for trainer in &mut resumed {
            trainer.train_epoch();
        }
        let after_v2 = ModelSnapshot::capture(resumed[1].model());
        assert_tables_bitwise_equal(resumed[0].model(), &after_v2);

        let servers = [&v1, &v2].map(|path| KnowledgeServer::load(path, 0).unwrap());
        let mut scratch = QueryScratch::default();
        for entity in 0..4 {
            let query = TopKQuery::tails(entity, 0, 5);
            let [a, b] = [&servers[0], &servers[1]].map(|server| {
                let answer = server.top_k(&query, &mut scratch).unwrap();
                answer
                    .iter()
                    .map(|r| (r.entity, r.score.to_bits()))
                    .collect::<Vec<_>>()
            });
            assert_eq!(a, b, "{kind:?} tails of {entity}");
        }
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }
}

#[test]
fn every_single_bit_flip_in_the_payload_is_caught() {
    let ds = dataset(5);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1);
    let path = tempfile("bitflip");
    save_checkpoint(&path, &trainer).unwrap();
    let good = std::fs::read(&path).unwrap();
    // Flip one bit in a stride of payload positions (covering section tags,
    // lengths, slab data) — the checksum must catch every one of them.
    let payload_start = 20;
    let payload_end = good.len() - 8;
    let mut probe = good.clone();
    for pos in (payload_start..payload_end).step_by(97) {
        probe[pos] ^= 1 << (pos % 8);
        std::fs::write(&path, &probe).unwrap();
        assert!(
            matches!(
                load_checkpoint(&path),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at {pos} slipped through"
        );
        probe[pos] = good[pos];
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_validates_the_configuration_fingerprint() {
    let ds = dataset(6);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1);
    let path = tempfile("fingerprint");
    save_checkpoint(&path, &trainer).unwrap();

    let base_config = || {
        TrainConfig::new(2)
            .with_batch_size(64)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_seed(11)
            .with_shards(1)
    };
    let sampler = || nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 7);

    // Wrong seed, wrong shard count, wrong learning rate: all refused.
    for bad in [
        base_config().with_seed(12),
        base_config().with_shards(2),
        base_config().with_optimizer(OptimizerConfig::adam(0.05)),
    ] {
        let checkpoint = load_checkpoint(&path).unwrap();
        match resume_trainer(checkpoint, sampler(), &ds, bad) {
            Err(SnapshotError::SchemaMismatch(_)) => {}
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("configuration drift must not resume"),
        }
    }
    // The matching configuration resumes.
    let checkpoint = load_checkpoint(&path).unwrap();
    let resumed = resume_trainer(checkpoint, sampler(), &ds, base_config()).unwrap();
    assert_eq!(resumed.epochs_done(), 1);
    std::fs::remove_file(&path).ok();
}

/// Adam state edited to disagree with the model's entity table (dim 0 over
/// the table's step counters with empty moment slabs, or 4-wide moments
/// for 6-wide rows), in the trainer's optimizer or in a GAN generator's, is
/// refused at resume: a step over the first indexes past its slabs, and
/// one over the second updates rows with moments of another width.
#[test]
fn adam_state_that_does_not_fit_the_model_is_refused_at_resume() {
    let ds = dataset(8);
    let config = || {
        TrainConfig::new(2)
            .with_batch_size(64)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_seed(11)
            .with_shards(1)
    };
    let samplers = [
        SamplerConfig::Bernoulli,
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
    ];
    let path = tempfile("misshaped-adam");
    for sampler in samplers {
        let fresh_sampler = || nscaching::build_sampler(&sampler, &ds, 7);
        let model = build_model(
            &ModelConfig::new(ModelKind::TransE).with_dim(6).with_seed(3),
            ds.num_entities(),
            ds.num_relations(),
        );
        let mut trainer = Trainer::new(model, fresh_sampler(), &ds, config());
        trainer.train_epoch();
        save_checkpoint(&path, &trainer).unwrap();
        for in_generator in [false, true] {
            for dim in [0, 4] {
                let mut checkpoint = load_checkpoint(&path).unwrap();
                let optimizer = match (&mut checkpoint.state.sampler, in_generator) {
                    (_, false) => &mut checkpoint.state.optimizer,
                    (SamplerState::Generator(generator), true) => &mut generator.optimizer,
                    (_, true) => continue,
                };
                let entity = &mut optimizer.tables[0];
                let rows = entity.t.len();
                assert!(rows > 0, "the entity table was trained");
                entity.dim = dim;
                entity.m = vec![0.0; rows * dim];
                entity.v = vec![0.0; rows * dim];
                let context = format!(
                    "{}, dim {dim}, generator {in_generator}",
                    sampler.display_name()
                );
                match resume_trainer(checkpoint, fresh_sampler(), &ds, config()) {
                    Err(SnapshotError::SchemaMismatch(what)) => {
                        assert!(what.contains("Adam table 0"), "{context}: {what}")
                    }
                    Err(other) => panic!("{context}: wrong error kind: {other}"),
                    Ok(_) => panic!("{context}: mis-shaped Adam state must not resume"),
                }
            }
        }
        // Unedited, the same checkpoint resumes.
        let checkpoint = load_checkpoint(&path).unwrap();
        resume_trainer(checkpoint, fresh_sampler(), &ds, config()).unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn zeroed_rng_state_with_valid_checksum_fails_typed_not_panicking() {
    // An adversarial (or externally written) file can be checksum-consistent
    // and still carry the one invalid RNG state — the all-zero xoshiro
    // fixed point. Loading must reject it as Corrupt, not panic in the RNG
    // constructor during resume.
    let ds = dataset(7);
    let trainer = trained_trainer(&ds, ModelKind::TransE, 1);
    let path = tempfile("zero-rng");
    save_checkpoint(&path, &trainer).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // Walk the section table to the trainer section's RNG words:
    // payload starts at 20; each section is tag(u8) + len(u64 LE) + body.
    let mut pos = 20;
    loop {
        let tag = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        if tag == 2 {
            // trainer section: epochs_done u64 + train_seconds f64, then rng.
            let rng_at = pos + 9 + 16;
            bytes[rng_at..rng_at + 32].fill(0);
            break;
        }
        pos += 9 + len;
    }
    // Recompute the checksum so only the RNG validation can catch this.
    let payload_end = bytes.len() - 8;
    let checksum = nscaching_serve::format::xxh64(&bytes[20..payload_end]);
    bytes[payload_end..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    match load_checkpoint(&path) {
        Err(SnapshotError::Corrupt(what)) => assert!(what.contains("RNG"), "{what}"),
        other => panic!(
            "expected Corrupt, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_vocabulary_fails_the_schema_check() {
    let model = build_model(&ModelConfig::new(ModelKind::TransE).with_dim(4), 20, 3);
    let path = tempfile("schema");
    save_model(&path, model.as_ref()).unwrap();
    let mut snapshot = load_model(&path).unwrap();
    // Tamper with the decoded metadata so the rebuilt architecture disagrees
    // with the stored tables.
    snapshot.num_entities = 21;
    assert!(matches!(
        snapshot.into_model(),
        Err(SnapshotError::SchemaMismatch(_))
    ));
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomised round-trip across the matrix: arbitrary model, seeds and
    // training lengths — tables and optimizer slabs must
    // come back bit-for-bit.
    #[test]
    fn random_checkpoints_round_trip_bitwise(
        kind_idx in 0..ModelKind::ALL.len(),
        data_seed in 0u64..50,
        epochs in 1usize..3,
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let ds = dataset(100 + data_seed);
        let trainer = trained_trainer(&ds, kind, epochs);
        let path = tempfile("prop");
        save_checkpoint(&path, &trainer).unwrap();
        let checkpoint = load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let live = trainer.model().tables();
        prop_assert_eq!(live.len(), checkpoint.model.tables.len());
        for (a, b) in live.iter().zip(&checkpoint.model.tables) {
            prop_assert_eq!(a.data().len(), b.data.len());
            for (x, y) in a.data().iter().zip(&b.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let state = trainer.checkpoint();
        prop_assert_eq!(checkpoint.state.optimizer, state.optimizer);
        prop_assert_eq!(checkpoint.state.rng, state.rng);
        prop_assert_eq!(checkpoint.state.batch_order, state.batch_order);
        prop_assert_eq!(checkpoint.state.epochs_done, state.epochs_done);
    }
}
