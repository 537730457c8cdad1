//! Decoding hostile snapshot payloads.
//!
//! The bit-flip sweeps in `snapshot_roundtrip.rs` are caught by the frame
//! checksum before a section parser runs. Here every mutated payload is
//! re-framed with a valid checksum, so the section parsers themselves meet
//! it: byte flips, truncated sections, and length and count fields set to
//! hostile values. Whatever the bytes, `load_model` (followed, when it
//! decodes, by `into_model`, the serving reload path) and `load_checkpoint`
//! must return a typed `SnapshotError` or a valid result — never panic and
//! never abort on an allocation sized by a corrupt count.

use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::format::{fnv1a64, read_frame, xxh64, Reader, FORMAT_VERSION, MAGIC};
use nscaching_serve::{load_checkpoint, load_model, save_checkpoint, save_model, SnapshotError};
use nscaching_train::{TrainConfig, Trainer};
use proptest::prelude::*;
use proptest::TestRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nscaching-snapshot-decode");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.snap", std::process::id()))
}

/// Frame `payload` as the current version with a valid checksum (no fsync:
/// nothing here needs durability).
fn write_valid_frame(path: &Path, payload: &[u8]) {
    write_valid_frame_of(path, FORMAT_VERSION, payload);
}

/// Frame `payload` as `version`, 1 (FNV-1a 64) or 2 (XXH64), with that
/// version's valid checksum.
fn write_valid_frame_of(path: &Path, version: u32, payload: &[u8]) {
    let checksum = match version {
        1 => fnv1a64(payload),
        2 => xxh64(payload),
        other => panic!("no checksum for version {other}"),
    };
    let mut frame = Vec::with_capacity(payload.len() + 28);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&checksum.to_le_bytes());
    std::fs::write(path, frame).unwrap();
}

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("decode");
    c.num_entities = 16;
    c.num_train = 40;
    c.num_valid = 4;
    c.num_test = 4;
    c.seed = 2;
    nscaching_datagen::generate(&c).unwrap()
}

/// Valid payloads to mutate: a model-only snapshot of every model kind, and
/// checkpoints with each sampler-state variant (NSCaching, stateless,
/// KBGAN).
struct Seeds {
    models: Vec<Vec<u8>>,
    checkpoints: Vec<Vec<u8>>,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let path = scratch_path("seed");
        let models = ModelKind::ALL
            .iter()
            .map(|&kind| {
                let model = build_model(&ModelConfig::new(kind).with_dim(2).with_seed(1), 5, 2);
                save_model(&path, model.as_ref()).unwrap();
                read_frame(&path).unwrap()
            })
            .collect();
        let ds = dataset();
        let samplers = [
            SamplerConfig::NsCaching(NsCachingConfig::new(2, 2)),
            SamplerConfig::Bernoulli,
            SamplerConfig::KbGan {
                generator: ModelKind::TransE,
                generator_dim: 2,
                candidate_size: 2,
                generator_lr: 0.01,
            },
        ];
        let checkpoints = samplers
            .into_iter()
            .map(|sampler| {
                let model = build_model(
                    &ModelConfig::new(ModelKind::TransE).with_dim(2).with_seed(3),
                    ds.num_entities(),
                    ds.num_relations(),
                );
                let sampler = nscaching::build_sampler(&sampler, &ds, 5);
                let config = TrainConfig::new(1)
                    .with_batch_size(16)
                    .with_optimizer(OptimizerConfig::adam(0.01))
                    .with_seed(7)
                    .with_shards(1);
                let mut trainer = Trainer::new(model, sampler, &ds, config);
                trainer.train_epoch();
                save_checkpoint(&path, &trainer).unwrap();
                read_frame(&path).unwrap()
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        Seeds {
            models,
            checkpoints,
        }
    })
}

/// Values that hostile length and count fields take: zero, just past the
/// data, powers of two around the 32-bit boundary, and the extremes.
const HOSTILE: [u64; 9] = [
    0,
    1,
    255,
    1 << 31,
    u32::MAX as u64,
    1 << 32,
    1 << 40,
    1 << 62,
    u64::MAX,
];

/// Offsets of every section header (tag byte) in a payload.
fn section_offsets(payload: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0;
    while at + 9 <= payload.len() {
        offsets.push(at);
        let len = u64::from_le_bytes(payload[at + 1..at + 9].try_into().unwrap());
        at = match usize::try_from(len)
            .ok()
            .and_then(|l| (at + 9).checked_add(l))
        {
            Some(next) => next,
            None => break,
        };
    }
    offsets
}

/// Apply one to three random mutations to `payload`.
fn mutate(rng: &mut TestRng, payload: &[u8]) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    let sections = section_offsets(payload);
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(5) {
            // Flip one bit anywhere.
            0 => bytes[at] ^= 1 << rng.below(8),
            // Overwrite a u64 field with a hostile value. Section bodies
            // start with their counts and dimensions, so aim near a
            // section start half the time.
            1 | 2 => {
                let base = if rng.below(2) == 0 && !sections.is_empty() {
                    let s = sections[rng.below(sections.len() as u64) as usize];
                    (s + 9 + rng.below(48) as usize).min(bytes.len())
                } else {
                    at
                };
                let value = HOSTILE[rng.below(HOSTILE.len() as u64) as usize];
                let width = if rng.below(2) == 0 { 8 } else { 4 };
                let end = (base + width).min(bytes.len());
                let le = value.to_le_bytes();
                bytes[base..end].copy_from_slice(&le[..end - base]);
            }
            // Truncate the payload.
            3 => bytes.truncate(at),
            // Cut a section body short while keeping its declared length
            // consistent, so the section parser runs out of bytes.
            _ => {
                if let Some(&s) = sections.get(rng.below(sections.len().max(1) as u64) as usize) {
                    if s + 9 <= bytes.len() {
                        let len = u64::from_le_bytes(bytes[s + 1..s + 9].try_into().unwrap());
                        let cut = rng.below(len.max(1)) as usize;
                        let start = s + 9 + cut;
                        let end = (s + 9).saturating_add(len as usize).min(bytes.len());
                        if start < end {
                            bytes.drain(start..end);
                            bytes[s + 1..s + 9].copy_from_slice(&(cut as u64).to_le_bytes());
                        }
                    }
                }
            }
        }
    }
    bytes
}

/// Feed one payload to every loader; a panic fails the test.
fn decode_everything(path: &Path, payload: &[u8]) {
    write_valid_frame(path, payload);
    if let Ok(snapshot) = load_model(path) {
        if let Ok(model) = snapshot.into_model() {
            assert!(
                model.num_entities() <= 1 << 20,
                "a model larger than its file"
            );
        }
    }
    let _ = load_checkpoint(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_payloads_decode_to_typed_errors_or_valid_values(
        seed in any::<u64>(),
        pick in any::<u32>(),
    ) {
        let seeds = seeds();
        let all: Vec<&Vec<u8>> = seeds.models.iter().chain(&seeds.checkpoints).collect();
        let payload = all[pick as usize % all.len()];
        let mut rng = TestRng::new(seed);
        let mutated = mutate(&mut rng, payload);
        decode_everything(&scratch_path("fuzz"), &mutated);
    }
}

#[test]
fn every_hostile_value_in_every_header_word_is_refused_or_decoded() {
    // Deterministic sweep: each hostile value at each of the first 96
    // byte offsets of every section body, in both widths.
    let path = scratch_path("sweep");
    let seeds = seeds();
    for payload in seeds.models.iter().chain(&seeds.checkpoints) {
        for s in section_offsets(payload) {
            for offset in 0..96 {
                let base = s + 9 + offset;
                for value in HOSTILE {
                    for width in [4, 8] {
                        if base + width > payload.len() {
                            continue;
                        }
                        let mut bytes = payload.clone();
                        bytes[base..base + width].copy_from_slice(&value.to_le_bytes()[..width]);
                        decode_everything(&path, &bytes);
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn removed_model_tags_are_a_schema_mismatch() {
    // Kind tags 3 and 6 were TransR and RESCAL. A saved snapshot or
    // checkpoint of either is refused as a schema mismatch that names the
    // model; any other unknown tag is still corruption.
    let path = scratch_path("removed");
    let seeds = seeds();
    for payload in [&seeds.models[0], &seeds.checkpoints[0]] {
        let model_section = section_offsets(payload)
            .into_iter()
            .find(|&s| payload[s] == 1)
            .expect("a model section");
        for (tag, name) in [(3, Some("TransR")), (6, Some("RESCAL")), (7, None)] {
            let mut bytes = payload.clone();
            // The model section's body opens with the kind tag.
            bytes[model_section + 9] = tag;
            write_valid_frame(&path, &bytes);
            let errors = [
                load_model(&path).unwrap_err(),
                load_checkpoint(&path).unwrap_err(),
            ];
            for err in errors {
                match (name, &err) {
                    (Some(name), SnapshotError::SchemaMismatch(what)) => {
                        assert!(what.contains(name), "tag {tag}: {what}")
                    }
                    (None, SnapshotError::Corrupt(_)) => {}
                    _ => panic!("tag {tag}: {err:?}"),
                }
            }
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn removed_optimizer_tags_are_a_schema_mismatch() {
    // Optimizer kind tags 0 and 1 were SGD and AdaGrad. The tag is written
    // before the learning rate in the trainer section and before every
    // optimizer state: the optimizer section's and a GAN generator's. A
    // checkpoint naming either at any of the three is refused as a schema
    // mismatch that names the optimizer; any other unknown tag is still
    // corruption. The model section stays readable for serving.
    let path = scratch_path("removed-optimizer");
    let payload = &seeds().checkpoints[2]; // KBGAN: all three sites
    let body = |tag: u8| {
        let s = section_offsets(payload)
            .into_iter()
            .find(|&s| payload[s] == tag)
            .expect("the section");
        let len = u64::from_le_bytes(payload[s + 1..s + 9].try_into().unwrap()) as usize;
        (s + 9, len)
    };
    // Trainer section: epoch counter, seconds, four RNG words, seed and
    // shard count (8 bytes each) precede the tag.
    let trainer_tag = body(2).0 + 64;
    let optimizer_tag = body(3).0;
    let generator_tag = {
        let (start, len) = body(4);
        let mut r = Reader::new(&payload[start..start + len]);
        r.u8("state kind").unwrap();
        r.u8("generator kind").unwrap();
        r.f64("baseline").unwrap();
        r.u64("feedback steps").unwrap();
        for _ in 0..r.u32("tables").unwrap() {
            r.str("name").unwrap();
            r.u64("rows").unwrap();
            r.u64("dim").unwrap();
            r.f64_slice("slab").unwrap();
        }
        start + len - r.remaining()
    };
    for at in [trainer_tag, optimizer_tag, generator_tag] {
        assert_eq!(payload[at], 2, "Adam's tag sits at byte {at}");
        for (tag, name) in [(0, Some("SGD")), (1, Some("AdaGrad")), (3, None)] {
            let mut bytes = payload.clone();
            bytes[at] = tag;
            write_valid_frame(&path, &bytes);
            match (name, load_checkpoint(&path).unwrap_err()) {
                (Some(name), SnapshotError::SchemaMismatch(what)) => {
                    assert!(what.contains(name), "tag {tag} at {at}: {what}")
                }
                (None, SnapshotError::Corrupt(_)) => {}
                (_, err) => panic!("tag {tag} at {at}: {err:?}"),
            }
            load_model(&path).unwrap();
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn unmutated_seeds_decode() {
    let path = scratch_path("clean");
    let seeds = seeds();
    for payload in &seeds.models {
        write_valid_frame(&path, payload);
        load_model(&path).unwrap().into_model().unwrap();
    }
    for payload in &seeds.checkpoints {
        write_valid_frame(&path, payload);
        load_checkpoint(&path).unwrap();
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn unmutated_seeds_decode_identically_from_a_version_1_frame() {
    // The two versions differ only in the checksum: every seed framed as
    // version 1 (FNV-1a 64) decodes to what its version-2 frame decodes to.
    let path = scratch_path("clean-v1");
    let seeds = seeds();
    let decoded = |version: u32, payload: &[u8]| {
        write_valid_frame_of(&path, version, payload);
        let model = load_model(&path).unwrap();
        model.clone().into_model().unwrap();
        let checkpoint = load_checkpoint(&path).ok();
        // `Debug` prints every f64 so that it parses back to the same bits.
        (model, format!("{checkpoint:?}"))
    };
    for payload in seeds.models.iter().chain(&seeds.checkpoints) {
        assert_eq!(decoded(1, payload), decoded(FORMAT_VERSION, payload));
    }
    let _ = std::fs::remove_file(path);
}
