//! Golden trajectory of a short NSCaching TransE run.
//!
//! Performance work on the sampler and the trainer's instrumentation must
//! leave every training trajectory bit-identical. This test pins, for one
//! sequential run (`shards = 1`) and one pooled run (`shards = 2`), the raw
//! bits of each epoch's `mean_loss` and `repeat_ratio`, each epoch's
//! `changed_cache_elements`, and FNV-1a digests of the final sampler state
//! (`NegativeSampler::export_state`), the master-RNG state and the model
//! tables. The shard count is set explicitly, so the `NSC_SHARDS` test
//! matrix checks the same two runs on every leg.
//!
//! The repeat window (2 epochs) is shorter than the run (5 epochs), so the
//! pinned repeat ratios also cover the tracker's window eviction.

use nscaching::{build_sampler, NsCachingConfig, SamplerConfig, SamplerState};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, Trainer};

const EPOCHS: usize = 5;

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("trajectory-golden");
    c.num_entities = 300;
    c.num_train = 1_500;
    c.num_valid = 50;
    c.num_test = 50;
    c.seed = 2019;
    nscaching_datagen::generate(&c).unwrap()
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the run leaves behind, raw bits throughout.
#[derive(Debug, PartialEq)]
struct Trajectory {
    mean_loss: Vec<u64>,
    repeat_ratio: Vec<u64>,
    changed_cache_elements: Vec<u64>,
    sampler_digest: u64,
    rng_digest: u64,
    tables_digest: u64,
}

fn sampler_digest(state: &SamplerState) -> u64 {
    let SamplerState::NsCaching(state) = state else {
        panic!("expected NSCaching state, got {}", state.kind_name());
    };
    let mut h = Fnv::new();
    h.word(u64::from(state.updates_enabled));
    h.word(state.shards.len() as u64);
    for shard in &state.shards {
        h.word(shard.refresh_count);
        for cache in [&shard.head, &shard.tail] {
            h.word(cache.changed_elements);
            h.word(cache.entries.len() as u64);
            for entry in &cache.entries {
                h.word(u64::from(entry.key.0));
                h.word(u64::from(entry.key.1));
                h.word(entry.entities.len() as u64);
                for &e in &entry.entities {
                    h.word(u64::from(e));
                }
            }
        }
    }
    h.0
}

fn run(ds: &Dataset, shards: usize) -> Trajectory {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(16)
            .with_seed(3),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(10, 10)),
        ds,
        17,
    );
    let mut config = TrainConfig::new(EPOCHS)
        .with_batch_size(100)
        .with_optimizer(OptimizerConfig::adam(0.01))
        .with_margin(2.0)
        .with_seed(29)
        .with_shards(shards);
    config.repeat_window = 2;
    let mut trainer = Trainer::new(model, sampler, ds, config);

    let mut t = Trajectory {
        mean_loss: Vec::new(),
        repeat_ratio: Vec::new(),
        changed_cache_elements: Vec::new(),
        sampler_digest: 0,
        rng_digest: 0,
        tables_digest: 0,
    };
    for _ in 0..EPOCHS {
        let stats = trainer.train_epoch();
        t.mean_loss.push(stats.mean_loss.to_bits());
        t.repeat_ratio.push(stats.repeat_ratio.to_bits());
        t.changed_cache_elements.push(stats.changed_cache_elements);
    }
    let checkpoint = trainer.checkpoint();
    t.sampler_digest = sampler_digest(&checkpoint.sampler);
    let mut h = Fnv::new();
    checkpoint.rng.iter().for_each(|&w| h.word(w));
    t.rng_digest = h.0;
    let mut h = Fnv::new();
    for table in trainer.model().tables() {
        h.word(table.data().len() as u64);
        table.data().iter().for_each(|v| h.word(v.to_bits()));
    }
    t.tables_digest = h.0;
    t
}

#[test]
fn sequential_nscaching_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_8955_8a61_8794,
            0x3ff5_98d1_1f60_2a99,
            0x3ff2_d2d5_6fbe_cf15,
            0x3ff1_bb1f_4492_bbde,
            0x3ff1_4a6d_951a_42a7,
        ],
        repeat_ratio: vec![
            0x3f93_cc1e_098e_ad66,
            0x3fa4_d242_e6bd_c805,
            0x3fab_6ba2_3f42_ac7d,
            0x3fb4_fdf3_b645_a1cb,
            0x3fbd_695b_b473_9925,
        ],
        changed_cache_elements: vec![14_196, 13_768, 13_354, 13_116, 12_858],
        sampler_digest: 0xef5b_bd80_edc7_7c09,
        rng_digest: 0xe23d_891e_b4e2_85f5,
        tables_digest: 0x1d9a_45be_8e14_9931,
    };
    assert_eq!(run(&dataset(), 1), expected);
}

#[test]
fn pooled_nscaching_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_7bf4_4904_7b9a,
            0x3ff5_f65f_97ff_0505,
            0x3ff3_0ab5_893d_accb,
            0x3ff2_1429_dfd1_17e9,
            0x3ff1_34ec_2237_b405,
        ],
        repeat_ratio: vec![
            0x3f8e_098e_ad65_b7a3,
            0x3fa0_369d_0369_d037,
            0x3fa7_8d4f_df3b_645a,
            0x3fb2_08a5_a912_e31a,
            0x3fb9_f0fb_38a9_4d24,
        ],
        changed_cache_elements: vec![14_183, 13_851, 13_644, 13_272, 12_944],
        sampler_digest: 0x8bb4_3348_8f25_2cb6,
        rng_digest: 0x3a13_2d65_5fed_8611,
        tables_digest: 0xd230_f283_8a5b_05d8,
    };
    assert_eq!(run(&dataset(), 2), expected);
}
