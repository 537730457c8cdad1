//! The two GAN baselines: KBGAN (Cai & Wang, NAACL 2018) and an IGAN-style
//! sampler (Wang et al., AAAI 2018).
//!
//! Both let a jointly trained *generator* embedding model put a softmax
//! distribution over a candidate set and draw the negative from it. The
//! discriminator (the target KG embedding model) scores the chosen negative;
//! that score is the generator's reward, and the generator is updated with
//! the REINFORCE estimator against a moving-average baseline for variance
//! reduction. The paper's Table I separates the two by their candidate set
//! alone:
//!
//! * **KBGAN** scores a small uniform draw `Neg` of `candidate_size`
//!   entities, `O(N1·d)` per sample;
//! * **IGAN** scores every entity, `O(|E|·d)` per sample. The original code
//!   was never released; this re-implementation follows the description in
//!   the NSCaching and IGAN papers (two-layer generator replaced by an
//!   embedding generator, which preserves the complexity and training
//!   behaviour that the comparison relies on).
//!
//! Neither set ever holds the positive's own entity, matching the negative
//! set of Eq. (5).
//!
//! Driven through the per-triple hooks (one shard), the generator takes one
//! REINFORCE step per positive, the original schedule. Under sharded
//! training the generator is shared read-only across the shard workers
//! (scoring is `&self`); each worker buffers its REINFORCE gradient
//! contributions and rewards in its own shard slot against the batch-start
//! baseline, and [`NegativeSampler::merge_batch`] folds them back in
//! ascending shard order with one generator optimizer step per mini-batch.

use crate::corruption::CorruptionPolicy;
use crate::partition::ObservedPartition;
use crate::sampler::{NegativeSampler, SampledNegative, ShardSampler};
use crate::state::{
    capture_generator_tables, restore_generator_tables, GeneratorKind, GeneratorState, SamplerState,
};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::{sample_distinct_uniform_into, sample_one_weighted, softmax_in_place};
use nscaching_models::{GradientArena, KgeModel};
use nscaching_optim::Adam;
use rand::rngs::StdRng;

/// Which entities the generator scores for one draw.
#[derive(Debug, Clone, Copy)]
enum Candidates {
    /// KBGAN: this many distinct entities drawn uniformly from those other
    /// than the positive's own.
    Drawn(usize),
    /// IGAN: every entity, in id order, with the positive's own masked out.
    All,
}

/// The generator's pending choice, kept until the discriminator reports a
/// reward.
#[derive(Debug, Clone, Copy)]
struct Choice {
    positive: Triple,
    side: CorruptionSide,
    /// Index of the chosen entity among the draw's candidates.
    chosen: usize,
}

/// One draw's recycled buffers and its pending choice.
#[derive(Default)]
struct Draw {
    pending: Option<Choice>,
    /// KBGAN's drawn candidate entities; IGAN leaves it empty, since its
    /// candidate `i` is entity `i`.
    candidates: Vec<EntityId>,
    /// The generator's softmax over the candidates.
    probs: Vec<f64>,
    /// Scratch for drawing distinct candidate indices without allocating.
    idx_scratch: Vec<usize>,
    /// Floyd's membership bitset for those draws (all zeros between draws).
    idx_seen: Vec<u64>,
}

/// One shard's private REINFORCE workspace: its draw plus the feedback it
/// buffers for `merge_batch`.
#[derive(Default)]
struct ShardSlot {
    draw: Draw,
    /// Gradient contributions accumulated against the batch-start baseline.
    grads: GradientArena,
    /// Rewards observed this batch, in processing order.
    rewards: Vec<f64>,
}

/// The read-only half of a [`GeneratorSampler`], shared by every shard
/// worker: the generator model, its candidate set and the side policy.
struct Generator {
    model: Box<dyn KgeModel>,
    candidates: Candidates,
    policy: CorruptionPolicy,
}

impl Generator {
    /// The entity behind candidate index `i` of `draw`.
    fn entity(&self, draw: &Draw, i: usize) -> EntityId {
        match self.candidates {
            Candidates::Drawn(_) => draw.candidates[i],
            Candidates::All => i as EntityId,
        }
    }

    /// Score the candidate set with the generator and sample the negative.
    fn draw(&self, draw: &mut Draw, positive: &Triple, rng: &mut StdRng) -> SampledNegative {
        let side = self.policy.choose(positive, rng);
        let excluded = positive.entity_at(side);
        match self.candidates {
            Candidates::Drawn(size) => {
                // Distinct draws from the |E| − 1 ids other than the
                // positive's own, shifted past it, so a candidate can never
                // reproduce the positive triple.
                sample_distinct_uniform_into(
                    rng,
                    self.model.num_entities() - 1,
                    size,
                    &mut draw.idx_seen,
                    &mut draw.idx_scratch,
                );
                draw.candidates.clear();
                draw.candidates.extend(draw.idx_scratch.iter().map(|&e| {
                    let e = e as EntityId;
                    e + EntityId::from(e >= excluded)
                }));
                self.model
                    .score_candidates(positive, side, &draw.candidates, &mut draw.probs);
            }
            Candidates::All => {
                self.model.score_all_into(positive, side, &mut draw.probs);
                draw.probs[excluded as usize] = f64::NEG_INFINITY;
            }
        }
        softmax_in_place(&mut draw.probs);
        let chosen = sample_one_weighted(rng, &draw.probs);
        draw.pending = Some(Choice {
            positive: *positive,
            side,
            chosen,
        });
        SampledNegative::new(positive, side, self.entity(draw, chosen))
    }

    /// Take `draw`'s pending choice if it matches the reported negative (the
    /// trainer always calls sample → feedback in lockstep).
    fn take_matching(
        &self,
        draw: &mut Draw,
        positive: &Triple,
        negative: &SampledNegative,
    ) -> Option<Choice> {
        let choice = draw.pending.take()?;
        let matches = choice.positive == *positive
            && choice.side == negative.side
            && self.entity(draw, choice.chosen) == negative.entity;
        matches.then_some(choice)
    }

    /// Accumulate `advantage · ∂ log p(chosen)/∂θ` for a recorded choice.
    ///
    /// `∂ log p(chosen) / ∂ score_i = δ_{i = chosen} − p_i`. We *maximise*
    /// advantage · log p(chosen), so the minimising optimizer receives the
    /// negated gradient.
    fn accumulate_reinforce(
        &self,
        draw: &Draw,
        choice: Choice,
        advantage: f64,
        grads: &mut GradientArena,
    ) {
        for (i, &p) in draw.probs.iter().enumerate() {
            let indicator = if i == choice.chosen { 1.0 } else { 0.0 };
            let coeff = -advantage * (indicator - p);
            if coeff != 0.0 {
                let triple = choice.positive.corrupted(choice.side, self.entity(draw, i));
                self.model.accumulate_score_gradient(&triple, coeff, grads);
            }
        }
    }
}

/// The REINFORCE moving-average reward baseline.
struct Baseline {
    value: f64,
    decay: f64,
    /// Rewards folded in so far: one per REINFORCE update.
    steps: u64,
}

impl Baseline {
    fn observe(&mut self, reward: f64) {
        self.value = self.decay * self.value + (1.0 - self.decay) * reward;
        self.steps += 1;
    }
}

/// The KBGAN and IGAN negative sampler: a generator trained with REINFORCE,
/// differing between the two only in its candidate set (see the module
/// docs).
pub struct GeneratorSampler {
    generator: Generator,
    optimizer: Adam,
    baseline: Baseline,
    /// Per-shard workspaces; slot 0 doubles as the per-triple hooks' state.
    slots: Vec<ShardSlot>,
    /// Recycled gradient arena for `merge_batch` and for the per-triple
    /// hooks' per-positive REINFORCE step.
    merge_scratch: GradientArena,
    /// Shard routing. The generator keeps no keyed state, so *any*
    /// deterministic partition routes it correctly — observing the training
    /// key frequencies lets it reuse the trainer's load-balanced partition
    /// instead of the uniform hash.
    routing: ObservedPartition,
}

impl GeneratorSampler {
    /// A KBGAN sampler.
    ///
    /// * `generator` — the generator embedding model (the paper uses the
    ///   simplest model, TransE, as the generator);
    /// * `candidate_size` — size of the uniformly-drawn candidate set `Neg`
    ///   (matched to NSCaching's `N1` for fairness, as in the paper), clamped
    ///   to the `|E| − 1` entities other than the positive's own;
    /// * `generator_lr` — Adam learning rate for the generator.
    pub fn kbgan(
        generator: Box<dyn KgeModel>,
        candidate_size: usize,
        generator_lr: f64,
        policy: CorruptionPolicy,
    ) -> Self {
        assert!(candidate_size > 0, "candidate set must be non-empty");
        let others = generator.num_entities().saturating_sub(1);
        Self::new(
            generator,
            Candidates::Drawn(candidate_size.min(others)),
            generator_lr,
            policy,
        )
    }

    /// An IGAN-style sampler: the generator's softmax spans every entity,
    /// and its REINFORCE update every entity's score.
    pub fn igan(generator: Box<dyn KgeModel>, generator_lr: f64, policy: CorruptionPolicy) -> Self {
        Self::new(generator, Candidates::All, generator_lr, policy)
    }

    fn new(
        model: Box<dyn KgeModel>,
        candidates: Candidates,
        generator_lr: f64,
        policy: CorruptionPolicy,
    ) -> Self {
        assert!(
            model.num_entities() >= 2,
            "negative sampling needs at least two entities"
        );
        let mut optimizer = Adam::new(generator_lr);
        // Pre-size the generator optimizer's state slabs: REINFORCE steps
        // then never allocate optimizer state mid-epoch.
        optimizer.bind(model.as_ref());
        Self {
            generator: Generator {
                model,
                candidates,
                policy,
            },
            optimizer,
            baseline: Baseline {
                value: 0.0,
                decay: 0.99,
                steps: 0,
            },
            slots: vec![ShardSlot::default()],
            merge_scratch: GradientArena::new(),
            routing: ObservedPartition::default(),
        }
    }

    /// Record the `(h, r)` key frequencies of `triples` (normally the
    /// training split) so `prepare_shards` builds the load-balanced
    /// partition the trainer also uses for NSCaching, instead of the uniform
    /// hash routing (see [`ObservedPartition`]).
    pub fn with_observed_keys(mut self, triples: &[Triple]) -> Self {
        self.routing.observe(triples);
        self
    }

    /// Which baseline this is: KBGAN or IGAN.
    fn kind(&self) -> GeneratorKind {
        match self.generator.candidates {
            Candidates::Drawn(_) => GeneratorKind::KbGan,
            Candidates::All => GeneratorKind::Igan,
        }
    }

    /// The generator's current moving-average reward baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline.value
    }

    /// Number of REINFORCE updates applied so far.
    pub fn feedback_steps(&self) -> u64 {
        self.baseline.steps
    }

    /// Immutable access to the generator (used in tests and reports).
    pub fn generator(&self) -> &dyn KgeModel {
        self.generator.model.as_ref()
    }

    /// One optimizer step of the generator over `grads`.
    fn step(&mut self, grads: &mut GradientArena) {
        self.optimizer.step(self.generator.model.as_mut(), grads);
        self.generator.model.apply_constraints(grads.touched());
    }
}

/// Worker view over one shard: shared read-only generator, private
/// REINFORCE accumulation against the batch-start baseline.
struct GeneratorShardWorker<'a> {
    generator: &'a Generator,
    /// The moving-average baseline snapshotted when the batch started; all of
    /// the batch's advantages are computed against it so the result does not
    /// depend on cross-shard interleaving.
    baseline: f64,
    slot: &'a mut ShardSlot,
}

impl ShardSampler for GeneratorShardWorker<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        self.generator.draw(&mut self.slot.draw, positive, rng)
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let slot = &mut *self.slot;
        let Some(choice) = self
            .generator
            .take_matching(&mut slot.draw, positive, negative)
        else {
            return;
        };
        slot.rewards.push(reward);
        let advantage = reward - self.baseline;
        if advantage != 0.0 {
            self.generator
                .accumulate_reinforce(&slot.draw, choice, advantage, &mut slot.grads);
        }
    }
}

impl NegativeSampler for GeneratorSampler {
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        self.generator.draw(&mut self.slots[0].draw, positive, rng)
    }

    /// The original schedule: an immediate baseline update and one
    /// optimizer step per positive.
    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let Some(choice) =
            self.generator
                .take_matching(&mut self.slots[0].draw, positive, negative)
        else {
            return;
        };
        let advantage = reward - self.baseline.value;
        self.baseline.observe(reward);
        if advantage == 0.0 {
            return;
        }
        // The merge arena is idle between batches; reusing it keeps the
        // per-positive REINFORCE step allocation-free in steady state.
        let mut grads = std::mem::take(&mut self.merge_scratch);
        grads.clear();
        self.generator
            .accumulate_reinforce(&self.slots[0].draw, choice, advantage, &mut grads);
        self.step(&mut grads);
        self.merge_scratch = grads;
    }

    fn prepare_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.routing.prepare(shards);
        if self.slots.len() != shards {
            self.slots = (0..shards).map(|_| ShardSlot::default()).collect();
        }
    }

    fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Load-balanced `(h, r)` routing when key frequencies were observed,
    /// uniform hash otherwise. The generator keeps no keyed state, so the
    /// partition only has to be a deterministic pure function of
    /// `(positive, shards)` — which both [`ObservedPartition`] paths are.
    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        self.routing
            .shard_of((positive.head, positive.relation), shards)
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let generator = &self.generator;
        let baseline = self.baseline.value;
        self.slots
            .iter_mut()
            .map(|slot| {
                Box::new(GeneratorShardWorker {
                    generator,
                    baseline,
                    slot,
                }) as Box<dyn ShardSampler>
            })
            .collect()
    }

    fn merge_batch(&mut self) {
        // Deterministic reduction: rewards update the baseline and gradients
        // merge in ascending shard order, then one optimizer step applies the
        // whole batch's REINFORCE update to the shared generator.
        let mut merged = std::mem::take(&mut self.merge_scratch);
        merged.clear();
        for slot in &mut self.slots {
            for &reward in &slot.rewards {
                self.baseline.observe(reward);
            }
            slot.rewards.clear();
            merged.merge(&mut slot.grads);
            slot.grads.clear();
        }
        if !merged.is_empty() {
            self.step(&mut merged);
        }
        self.merge_scratch = merged;
    }

    fn extra_parameters(&self) -> usize {
        self.generator.model.num_parameters()
    }

    fn export_state(&self) -> SamplerState {
        SamplerState::Generator(GeneratorState {
            kind: self.kind(),
            baseline: self.baseline.value,
            feedback_steps: self.baseline.steps,
            tables: capture_generator_tables(self.generator.model.as_ref()),
            optimizer: self.optimizer.export_state(),
        })
    }

    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        let state = match state {
            SamplerState::Stateless => return Ok(()),
            SamplerState::Generator(g) if g.kind == self.kind() => g,
            other => {
                return Err(format!(
                    "{} sampler cannot import {} state",
                    self.name(),
                    other.kind_name()
                ))
            }
        };
        restore_generator_tables(self.generator.model.as_mut(), &state.tables)?;
        // Importing re-binds, so the slabs stay pre-sized even if the
        // capture was taken before the optimizer ever touched some table.
        self.optimizer
            .import_state(state.optimizer, self.generator.model.as_ref())?;
        self.baseline.value = state.baseline;
        self.baseline.steps = state.feedback_steps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{build_model, ModelConfig, ModelKind};

    fn generator(n: usize) -> Box<dyn KgeModel> {
        build_model(
            &ModelConfig::new(ModelKind::TransE).with_dim(6).with_seed(3),
            n,
            2,
        )
    }

    fn discriminator(n: usize) -> Box<dyn KgeModel> {
        build_model(
            &ModelConfig::new(ModelKind::TransD).with_dim(6).with_seed(9),
            n,
            2,
        )
    }

    /// A KBGAN sampler drawing `candidate_size` candidates, and an IGAN one,
    /// over generators built by `generator`.
    fn both(
        generator: impl Fn() -> Box<dyn KgeModel>,
        candidate_size: usize,
        lr: f64,
    ) -> [GeneratorSampler; 2] {
        [
            GeneratorSampler::kbgan(generator(), candidate_size, lr, CorruptionPolicy::Uniform),
            GeneratorSampler::igan(generator(), lr, CorruptionPolicy::Uniform),
        ]
    }

    #[test]
    fn sampled_negative_comes_from_the_candidate_set() {
        let mut s = GeneratorSampler::kbgan(generator(50), 10, 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(50);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let neg = s.sample(&pos, d.as_ref(), &mut rng);
        assert!(s.slots[0].draw.candidates.contains(&neg.entity));
        assert_eq!(s.extra_parameters(), s.generator().num_parameters());
        assert_eq!(s.name(), "KBGAN");
        assert_eq!(s.kind(), GeneratorKind::KbGan);
    }

    #[test]
    fn igan_sampling_covers_the_whole_entity_set_but_the_positive() {
        let mut s = GeneratorSampler::igan(generator(25), 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(25);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            assert!(neg.entity < 25);
            assert_ne!(neg.triple, pos);
            seen.insert(neg.entity);
        }
        assert!(
            seen.len() > 10,
            "generator starts near-uniform, saw {}",
            seen.len()
        );
        assert_eq!(s.name(), "IGAN");
        assert_eq!(s.kind(), GeneratorKind::Igan);
    }

    #[test]
    fn feedback_updates_the_baseline_and_generator() {
        for mut s in both(|| generator(40), 8, 0.05) {
            let d = discriminator(40);
            let mut rng = seeded_rng(2);
            let pos = Triple::new(2, 1, 5);
            let before = s.generator().tables()[0].data().to_vec();
            assert_eq!(s.feedback_steps(), 0);
            for _ in 0..20 {
                let neg = s.sample(&pos, d.as_ref(), &mut rng);
                let reward = d.score(&neg.triple);
                s.feedback(&pos, &neg, reward, &mut rng);
            }
            assert_eq!(s.feedback_steps(), 20, "{}", s.name());
            assert!(s.baseline().abs() > 0.0, "baseline should move off zero");
            assert_ne!(
                s.generator().tables()[0].data(),
                &before[..],
                "{}: the generator should take REINFORCE steps",
                s.name()
            );
        }
    }

    #[test]
    fn reinforce_increases_generator_probability_of_rewarded_entities() {
        // Reward entity 7 only; after many updates the generator's softmax
        // over the full entity set should assign entity 7 more than the
        // uniform 1/20 share on both corruption sides — whether it scores a
        // drawn candidate set (KBGAN, clamped here to all 19 other
        // entities) or every entity (IGAN).
        let gen = || {
            build_model(
                &ModelConfig::new(ModelKind::DistMult)
                    .with_dim(6)
                    .with_seed(3),
                20,
                2,
            )
        };
        for mut s in both(gen, 20, 0.1) {
            let d = discriminator(20);
            let mut rng = seeded_rng(3);
            let pos = Triple::new(0, 0, 1);
            for _ in 0..600 {
                let neg = s.sample(&pos, d.as_ref(), &mut rng);
                let reward = if neg.entity == 7 { 5.0 } else { -5.0 };
                s.feedback(&pos, &neg, reward, &mut rng);
            }
            let probability_of = |side: CorruptionSide| {
                let scores = s.generator().score_all(&pos, side);
                let probs = nscaching_math::softmax(&scores);
                probs[7]
            };
            let p_head = probability_of(CorruptionSide::Head);
            let p_tail = probability_of(CorruptionSide::Tail);
            assert!(
                p_head > 0.05 || p_tail > 0.05,
                "{}: rewarded entity should exceed the uniform share (head {p_head:.3}, tail \
                 {p_tail:.3})",
                s.name()
            );
            assert!(
                p_head + p_tail > 0.15,
                "{}: combined preference should be clearly above uniform ({:.3})",
                s.name(),
                p_head + p_tail
            );
        }
    }

    #[test]
    fn mismatched_feedback_is_ignored() {
        for mut s in both(|| generator(30), 5, 0.01) {
            let d = discriminator(30);
            let mut rng = seeded_rng(4);
            let pos = Triple::new(0, 0, 1);
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let wrong = SampledNegative::new(&Triple::new(9, 1, 9), neg.side, neg.entity);
            s.feedback(&Triple::new(9, 1, 9), &wrong, 1.0, &mut rng);
            assert_eq!(s.feedback_steps(), 0, "{}", s.name());
            // feedback without a pending draw is also a no-op
            s.feedback(&pos, &neg, 1.0, &mut rng);
            assert_eq!(s.feedback_steps(), 0, "{}", s.name());
        }
    }

    #[test]
    fn sharded_feedback_is_deferred_until_merge_and_merges_deterministically() {
        let run = |s: &mut GeneratorSampler| {
            let d = discriminator(40);
            s.prepare_shards(2);
            assert_eq!(s.shard_count(), 2);
            let positives = [Triple::new(0, 0, 1), Triple::new(5, 1, 9)];
            {
                let mut workers = s.shard_workers();
                assert_eq!(workers.len(), 2);
                for (w, pos) in workers.iter_mut().zip(&positives) {
                    let mut rng = seeded_rng(5);
                    let neg = w.sample(pos, d.as_ref(), &mut rng);
                    w.feedback(pos, &neg, d.score(&neg.triple), &mut rng);
                }
            }
            assert_eq!(s.feedback_steps(), 0, "feedback is buffered in the shards");
            s.merge_batch();
            assert_eq!(s.feedback_steps(), 2, "merge folds both shards' rewards");
            assert!(s.baseline().abs() > 0.0);
            // a second merge with no new feedback is a no-op
            s.merge_batch();
            assert_eq!(s.feedback_steps(), 2);
            s.generator().score(&Triple::new(0, 0, 1)).to_bits()
        };
        let [mut kbgan_a, mut igan_a] = both(|| generator(40), 6, 0.05);
        let [mut kbgan_b, mut igan_b] = both(|| generator(40), 6, 0.05);
        assert_eq!(run(&mut kbgan_a), run(&mut kbgan_b), "KBGAN merge");
        assert_eq!(run(&mut igan_a), run(&mut igan_b), "IGAN merge");
    }

    #[test]
    fn candidates_are_distinct_and_exclude_the_positive_when_clamped() {
        // candidate_size 50 clamps to |E| − 1 = 4, so Neg must be exactly
        // E∖{the positive's entity on the corrupted side}.
        let mut s = GeneratorSampler::kbgan(generator(5), 50, 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(5);
        let mut rng = seeded_rng(6);
        for i in 0..100u32 {
            let pos = Triple::new(i % 5, 0, (i / 5) % 5);
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let excluded = pos.entity_at(neg.side);
            assert!(s.slots[0].draw.pending.is_some(), "a draw is pending");
            let mut candidates = s.slots[0].draw.candidates.clone();
            candidates.sort_unstable();
            let expected: Vec<EntityId> = (0..5).filter(|&e| e != excluded).collect();
            assert_eq!(
                candidates, expected,
                "positive {pos:?}, side {:?}",
                neg.side
            );
        }
    }

    #[test]
    #[should_panic(expected = "candidate set must be non-empty")]
    fn zero_candidate_size_is_rejected() {
        let _ = GeneratorSampler::kbgan(generator(10), 0, 0.01, CorruptionPolicy::Uniform);
    }
}
