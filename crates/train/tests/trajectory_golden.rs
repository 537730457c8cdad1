//! Golden trajectories of short training runs.
//!
//! Performance work on the sampler, the trainer's instrumentation and the
//! models' batched scoring must leave every training trajectory
//! bit-identical. These tests pin, for sequential runs (`shards = 1`) and
//! pooled runs (`shards = 2`), the raw bits of each epoch's `mean_loss` and
//! `repeat_ratio`, each epoch's `changed_cache_elements`, and FNV-1a digests
//! of the final sampler state (`NegativeSampler::export_state`), the
//! master-RNG state and the model tables. The shard count is set
//! explicitly, so the `NSC_SHARDS` test matrix checks the same runs on every
//! leg.
//!
//! TransE runs under NSCaching, and under the two GAN baselines (KBGAN and
//! IGAN), whose digest covers the generator's tables, its Adam slabs and the
//! REINFORCE baseline and step count. TransD, whose batched scoring projects
//! every candidate, runs under NSCaching and under Bernoulli, and its
//! sequential NSCaching run also pins the filtered MRR, MR and Hits@10 on
//! the test split, which ranks through `score_all_into`, and a digest of the
//! trained model's batched score bits: a score that moves by one ulp rarely
//! moves a trajectory or a rank, but it moves that digest.
//!
//! The repeat window (2 epochs) is shorter than the run (5 epochs), so the
//! pinned repeat ratios also cover the tracker's window eviction.

use nscaching::{build_sampler, GeneratorKind, NsCachingConfig, SamplerConfig, SamplerState};
use nscaching_datagen::GeneratorConfig;
use nscaching_eval::EvalProtocol;
use nscaching_kg::{CorruptionSide, Dataset};
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

/// Digest of a sampler's evolving state: NSCaching's caches, or a GAN
/// sampler's generator tables, Adam slabs, baseline and step count; 0 for a
/// stateless sampler (Bernoulli), which has nothing to digest.
fn sampler_digest(state: &SamplerState) -> u64 {
    let mut h = Fnv::new();
    match state {
        SamplerState::Stateless => return 0,
        SamplerState::NsCaching(state) => {
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
        }
        SamplerState::Generator(state) => {
            h.word(match state.kind {
                GeneratorKind::KbGan => 1,
                GeneratorKind::Igan => 2,
            });
            h.word(state.baseline.to_bits());
            h.word(state.feedback_steps);
            for table in &state.tables {
                h.word(table.data.len() as u64);
                table.data.iter().for_each(|v| h.word(v.to_bits()));
            }
            for slab in &state.optimizer.tables {
                h.word(slab.dim as u64);
                for moments in [&slab.m, &slab.v] {
                    h.word(moments.len() as u64);
                    moments.iter().for_each(|v| h.word(v.to_bits()));
                }
                h.word(slab.t.len() as u64);
                slab.t.iter().for_each(|&t| h.word(t));
            }
        }
    }
    h.0
}

fn nscaching() -> SamplerConfig {
    SamplerConfig::NsCaching(NsCachingConfig::new(10, 10))
}

/// Train `kind` (d = 16) with `sampler` for [`EPOCHS`] epochs; returns the
/// trajectory and the trainer, for evaluating the trained model.
fn run(
    ds: &Dataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    shards: usize,
) -> (Trajectory, Trainer) {
    let model = build_model(
        &ModelConfig::new(kind).with_dim(16).with_seed(3),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = build_sampler(sampler, ds, 17);
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
    (t, trainer)
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
    assert_eq!(
        run(&dataset(), ModelKind::TransE, &nscaching(), 1).0,
        expected
    );
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
    assert_eq!(
        run(&dataset(), ModelKind::TransE, &nscaching(), 2).0,
        expected
    );
}

#[test]
fn transd_sequential_nscaching_trajectory_and_eval_are_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_79f2_4f5b_5d6a,
            0x3ff5_1e1b_7e57_66af,
            0x3ff1_c473_9ae6_bfcf,
            0x3ff0_85d9_7f40_41f9,
            0x3ff0_de2f_2d12_0fda,
        ],
        repeat_ratio: vec![
            0x3f93_1d5a_cb6f_4651,
            0x3fa3_f7ce_d916_872b,
            0x3fa8_3c13_1d5a_cb6f,
            0x3fb3_74bc_6a7e_f9db,
            0x3fbb_88c2_c99d_3dab,
        ],
        changed_cache_elements: vec![14_148, 13_721, 13_315, 12_917, 12_592],
        sampler_digest: 0x0294_6400_276e_eac4,
        rng_digest: 0xe23d_891e_b4e2_85f5,
        tables_digest: 0xbf5f_5c5e_58a9_ccac,
    };
    let ds = dataset();
    let (trajectory, trainer) = run(&ds, ModelKind::TransD, &nscaching(), 1);
    assert_eq!(trajectory, expected);
    let report = trainer.evaluate(&EvalProtocol::filtered()).combined;
    assert_eq!(
        [
            report.mrr.to_bits(),
            report.mean_rank.to_bits(),
            report.hits_at_10.to_bits()
        ],
        [
            0x3fc2_1a16_445e_471e,
            0x4056_dc28_f5c2_8f5c,
            0x3fd7_0a3d_70a3_d70a
        ]
    );
    let model = trainer.model();
    let candidates: Vec<u32> = ds.test.iter().map(|t| t.tail).collect();
    let mut scores = Vec::new();
    let mut h = Fnv::new();
    for t in &ds.test {
        for side in CorruptionSide::BOTH {
            model.score_all_into(t, side, &mut scores);
            scores.iter().for_each(|v| h.word(v.to_bits()));
            model.score_candidates(t, side, &candidates, &mut scores);
            scores.iter().for_each(|v| h.word(v.to_bits()));
        }
    }
    assert_eq!(h.0, 0x69dd_2955_7bca_5d38);
}

#[test]
fn transd_pooled_nscaching_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_44f5_3dfe_c874,
            0x3ff4_d5f4_a34a_c08b,
            0x3ff1_9797_d170_2735,
            0x3ff0_b763_8924_ce74,
            0x3ff0_a8dd_2415_ea38,
        ],
        repeat_ratio: vec![
            0x3f8c_ac08_3126_e979,
            0x3fa3_cc1e_098e_ad66,
            0x3fa9_07f6_e5d4_c3b3,
            0x3fb3_662c_2551_b144,
            0x3fbc_0bd5_3834_cafb,
        ],
        changed_cache_elements: vec![14_201, 13_797, 13_494, 12_953, 12_547],
        sampler_digest: 0xceab_2936_eaf3_7fcd,
        rng_digest: 0x3a13_2d65_5fed_8611,
        tables_digest: 0xb7b4_0e60_0253_29bd,
    };
    assert_eq!(
        run(&dataset(), ModelKind::TransD, &nscaching(), 2).0,
        expected
    );
}

#[test]
fn transd_sequential_bernoulli_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffb_8609_fa47_5a8a,
            0x3ff3_1b4d_66c5_a68d,
            0x3fee_2d3e_c806_9b7e,
            0x3fe9_b2a9_f800_b06c,
            0x3fe6_e43a_bfaa_7e10,
        ],
        repeat_ratio: vec![
            0x3f65_d867_c3ec_e2a5,
            0x3f7b_4e81_b4e8_1b4f,
            0x3f83_91dc_f4d9_8b09,
            0x3f8c_3786_07bc_a4c0,
            0x3f92_6e97_8d4f_df3b,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0,
        rng_digest: 0xd0f8_90c6_3f31_cb4f,
        tables_digest: 0x1de4_03b7_8eae_db40,
    };
    let bernoulli = SamplerConfig::Bernoulli;
    assert_eq!(
        run(&dataset(), ModelKind::TransD, &bernoulli, 1).0,
        expected
    );
}

#[test]
fn transd_pooled_bernoulli_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffb_b5be_7100_81ee,
            0x3ff2_f040_2817_23e5,
            0x3fec_c83e_f9d8_2ea1,
            0x3fe9_7a12_2b8b_3886,
            0x3fe7_7b06_bdd1_377e,
        ],
        repeat_ratio: vec![
            0x3f55_d867_c3ec_e2a5,
            0x3f73_1d5a_cb6f_4651,
            0x3f80_d6cf_fc5b_eeb5,
            0x3f89_7c79_0f3f_086b,
            0x3f90_624d_d2f1_a9fc,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0,
        rng_digest: 0x3a13_2d65_5fed_8611,
        tables_digest: 0x45ed_3d75_0982_2d31,
    };
    let bernoulli = SamplerConfig::Bernoulli;
    assert_eq!(
        run(&dataset(), ModelKind::TransD, &bernoulli, 2).0,
        expected
    );
}

#[test]
fn sequential_kbgan_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_c9b5_8e5c_db2a,
            0x3ff5_b841_6d4a_719a,
            0x3ff3_623e_dcb8_6b40,
            0x3ff2_8501_9efc_f451,
            0x3ff1_5fb4_8f12_caf9,
        ],
        repeat_ratio: vec![
            0x3f6b_4e81_b4e8_1b4f,
            0x3f87_e4b1_7e4b_17e5,
            0x3f90_9c8e_e7a6_cc58,
            0x3fa0_7f6e_5d4c_3b2a,
            0x3fa7_c790_f3f0_86b6,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0x5712_8cf8_5b5a_dae6,
        rng_digest: 0x8eaa_e75c_95f0_88fd,
        tables_digest: 0x869a_50a9_db47_1b5e,
    };
    let kbgan = SamplerConfig::kbgan_default();
    assert_eq!(run(&dataset(), ModelKind::TransE, &kbgan, 1).0, expected);
}

#[test]
fn pooled_kbgan_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_0f93_2abf_bc73,
            0x3ff4_6a3e_6b79_0e47,
            0x3ff1_41cc_a669_74db,
            0x3fee_e24e_f4ac_00f7,
            0x3fee_4df3_886a_173a,
        ],
        repeat_ratio: vec![
            0x3f6b_4e81_b4e8_1b4f,
            0x3f83_1d5a_cb6f_4651,
            0x3f89_07f6_e5d4_c3b3,
            0x3f95_29a4_85cd_7b90,
            0x3fa0_280c_be3c_87a0,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0xc2ad_b173_48b7_f91a,
        rng_digest: 0x3a13_2d65_5fed_8611,
        tables_digest: 0x1818_3cff_0bce_5c82,
    };
    let kbgan = SamplerConfig::kbgan_default();
    assert_eq!(run(&dataset(), ModelKind::TransE, &kbgan, 2).0, expected);
}

#[test]
fn sequential_igan_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffc_93a6_6192_64f3,
            0x3ff5_384b_71a7_1c2e,
            0x3ff2_4c2b_9385_8fbd,
            0x3ff2_df53_9435_0e9c,
            0x3ff2_cbd3_c651_d59b,
        ],
        repeat_ratio: vec![
            0x3f80_624d_d2f1_a9fc,
            0x3f88_9374_bc6a_7efa,
            0x3f8e_f293_003a_4115,
            0x3f9b_88c2_c99d_3dab,
            0x3fa6_fbad_2b76_8e73,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0xba08_c530_ab0c_6dbb,
        rng_digest: 0xc244_1345_c310_ad7c,
        tables_digest: 0xbb7c_5a73_6af0_7162,
    };
    let igan = SamplerConfig::igan_default();
    assert_eq!(run(&dataset(), ModelKind::TransE, &igan, 1).0, expected);
}

#[test]
fn pooled_igan_trajectory_is_pinned() {
    let expected = Trajectory {
        mean_loss: vec![
            0x3ffb_e219_7aba_82f6,
            0x3ff4_86aa_2b79_79ea,
            0x3ff1_0e69_4189_d744,
            0x3fee_f694_4073_16fb,
            0x3fec_cb70_a5d1_e742,
        ],
        repeat_ratio: vec![
            0x3f45_d867_c3ec_e2a5,
            0x3f74_7ae1_47ae_147b,
            0x3f83_1d5a_cb6f_4651,
            0x3f91_bfd4_4f30_7826,
            0x3f9c_e649_45dc_0bd5,
        ],
        changed_cache_elements: vec![0, 0, 0, 0, 0],
        sampler_digest: 0x0617_b374_f50b_d3c5,
        rng_digest: 0x3a13_2d65_5fed_8611,
        tables_digest: 0x8462_a3dc_859b_31f1,
    };
    let igan = SamplerConfig::igan_default();
    assert_eq!(run(&dataset(), ModelKind::TransE, &igan, 2).0, expected);
}
