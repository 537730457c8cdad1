//! The KBGAN baseline (Cai & Wang, NAACL 2018).
//!
//! KBGAN draws a small uniformly-random candidate set `Neg`, lets a jointly
//! trained *generator* embedding model put a softmax distribution over the
//! candidates, and samples the negative from that distribution. The
//! discriminator (the target KG embedding model) scores the chosen negative;
//! that score is the generator's reward, and the generator is updated with
//! the REINFORCE estimator using a moving-average baseline for variance
//! reduction — exactly the setup the paper compares NSCaching against.
//!
//! Under sharded training the generator is shared read-only across the
//! shard workers (scoring is `&self`); each worker buffers its REINFORCE
//! gradient contributions and rewards in its own shard slot against the
//! batch-start baseline, and [`NegativeSampler::merge_batch`] folds them back
//! in ascending shard order with one generator optimizer step per mini-batch.

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

/// The generator's last choice, kept until the discriminator reports a reward.
struct PendingChoice {
    positive: Triple,
    side: CorruptionSide,
    candidates: Vec<EntityId>,
    probs: Vec<f64>,
    chosen: usize,
}

/// One shard's private REINFORCE workspace: the pending draw, buffered
/// gradients/rewards and the recycled sampling buffers.
#[derive(Default)]
struct KbGanShardSlot {
    pending: Option<PendingChoice>,
    /// Gradient contributions accumulated against the batch-start baseline.
    grads: GradientArena,
    /// Rewards observed this batch, in processing order.
    rewards: Vec<f64>,
    /// Scratch for drawing distinct candidate indices without allocating.
    idx_scratch: Vec<usize>,
    /// Floyd's membership bitset for those draws (all zeros between draws).
    idx_seen: Vec<u64>,
    /// Buffers recycled between consecutive `PendingChoice`s so the
    /// steady-state sample → feedback cycle reuses its allocations.
    spare_candidates: Vec<EntityId>,
    spare_probs: Vec<f64>,
}

impl KbGanShardSlot {
    /// Return a pending choice's buffers to the spare pool for reuse.
    fn recycle(&mut self, pending: PendingChoice) {
        self.spare_candidates = pending.candidates;
        self.spare_probs = pending.probs;
    }
}

/// KBGAN negative sampler: candidate-set generator trained with REINFORCE.
pub struct KbGanSampler {
    generator: Box<dyn KgeModel>,
    optimizer: Adam,
    candidate_size: usize,
    num_entities: usize,
    policy: CorruptionPolicy,
    baseline: f64,
    baseline_decay: f64,
    feedback_steps: u64,
    /// Per-shard workspaces; slot 0 doubles as the sequential path's state.
    slots: Vec<KbGanShardSlot>,
    /// Recycled gradient arena for `merge_batch` (and the sequential path's
    /// per-positive REINFORCE step, which is otherwise idle while sharded).
    merge_scratch: GradientArena,
    /// Shard routing. KBGAN keeps no keyed state, so *any* deterministic
    /// partition routes it correctly — observing the training key
    /// frequencies lets it reuse the trainer's load-balanced partition
    /// instead of the uniform hash.
    routing: ObservedPartition,
}

impl KbGanSampler {
    /// Create a KBGAN sampler.
    ///
    /// * `generator` — the generator embedding model (the paper uses the
    ///   simplest model, TransE, as the generator);
    /// * `candidate_size` — size of the uniformly-drawn candidate set `Neg`
    ///   (matched to NSCaching's `N1` for fairness, as in the paper), clamped
    ///   to the `|E| − 1` entities other than the positive's own;
    /// * `generator_lr` — Adam learning rate for the generator.
    pub fn new(
        generator: Box<dyn KgeModel>,
        candidate_size: usize,
        generator_lr: f64,
        policy: CorruptionPolicy,
    ) -> Self {
        assert!(candidate_size > 0, "candidate set must be non-empty");
        let num_entities = generator.num_entities();
        assert!(
            num_entities >= 2,
            "negative sampling needs at least two entities"
        );
        let mut optimizer = Adam::new(generator_lr);
        // Pre-size the generator optimizer's state slabs: REINFORCE steps
        // then never allocate optimizer state mid-epoch.
        optimizer.bind(generator.as_ref());
        Self {
            generator,
            optimizer,
            // The positive's own entity is never a candidate.
            candidate_size: candidate_size.min(num_entities - 1),
            num_entities,
            policy,
            baseline: 0.0,
            baseline_decay: 0.99,
            feedback_steps: 0,
            slots: vec![KbGanShardSlot::default()],
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

    /// The generator's current moving-average reward baseline.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Number of REINFORCE updates applied so far.
    pub fn feedback_steps(&self) -> u64 {
        self.feedback_steps
    }

    /// Immutable access to the generator (used in tests and reports).
    pub fn generator(&self) -> &dyn KgeModel {
        self.generator.as_ref()
    }

    /// Draw a candidate set, score it with the generator and sample the
    /// negative — shared by the sequential hook and the shard workers.
    fn sample_in_slot(
        generator: &dyn KgeModel,
        candidate_size: usize,
        num_entities: usize,
        policy: &CorruptionPolicy,
        slot: &mut KbGanShardSlot,
        positive: &Triple,
        rng: &mut StdRng,
    ) -> SampledNegative {
        let side = policy.choose(positive, rng);
        // Uniform candidate set Neg, excluding the positive's own entity so a
        // candidate can never reproduce the positive triple (Eq. (5)):
        // distinct draws from the |E| − 1 other ids, shifted past it. The
        // candidate and probability buffers are recycled from the previous
        // draw, and scoring goes through the batched fast path.
        let excluded = positive.entity_at(side);
        sample_distinct_uniform_into(
            rng,
            num_entities - 1,
            candidate_size,
            &mut slot.idx_seen,
            &mut slot.idx_scratch,
        );
        let mut candidates = std::mem::take(&mut slot.spare_candidates);
        candidates.clear();
        candidates.extend(slot.idx_scratch.iter().map(|&e| {
            let e = e as EntityId;
            e + EntityId::from(e >= excluded)
        }));
        let mut probs = std::mem::take(&mut slot.spare_probs);
        generator.score_candidates(positive, side, &candidates, &mut probs);
        softmax_in_place(&mut probs);
        let chosen = sample_one_weighted(rng, &probs);
        let entity = candidates[chosen];
        slot.pending = Some(PendingChoice {
            positive: *positive,
            side,
            candidates,
            probs,
            chosen,
        });
        SampledNegative::new(positive, side, entity)
    }

    /// Take the slot's pending choice if it matches the reported draw.
    fn matching_pending(
        slot: &mut KbGanShardSlot,
        positive: &Triple,
        negative: &SampledNegative,
    ) -> Option<PendingChoice> {
        let pending = slot.pending.take()?;
        // Only apply the update if the feedback matches the recorded draw
        // (the trainer always calls sample → feedback in lockstep).
        if pending.positive != *positive
            || pending.side != negative.side
            || pending.candidates[pending.chosen] != negative.entity
        {
            slot.recycle(pending);
            return None;
        }
        Some(pending)
    }

    /// Accumulate `advantage · ∂ log p(chosen)/∂θ` for a recorded choice.
    ///
    /// `∂ log p(chosen) / ∂ score_i = δ_{i = chosen} − p_i`. We *maximise*
    /// advantage · log p(chosen), so the minimising optimizer receives the
    /// negated gradient.
    fn accumulate_reinforce(
        generator: &dyn KgeModel,
        pending: &PendingChoice,
        advantage: f64,
        grads: &mut GradientArena,
    ) {
        for (i, (&entity, &p)) in pending.candidates.iter().zip(&pending.probs).enumerate() {
            let indicator = if i == pending.chosen { 1.0 } else { 0.0 };
            let coeff = -advantage * (indicator - p);
            if coeff != 0.0 {
                let triple = pending.positive.corrupted(pending.side, entity);
                generator.accumulate_score_gradient(&triple, coeff, grads);
            }
        }
    }

    /// Sequential-path REINFORCE: immediate baseline update and one optimizer
    /// step per positive, exactly the original KBGAN schedule.
    fn reinforce_now(&mut self, pending: PendingChoice, reward: f64) {
        let advantage = reward - self.baseline;
        self.baseline = self.baseline_decay * self.baseline + (1.0 - self.baseline_decay) * reward;
        self.feedback_steps += 1;
        if advantage == 0.0 {
            self.slots[0].recycle(pending);
            return;
        }
        // The merge arena is idle on the sequential path; reusing it keeps
        // the per-positive REINFORCE step allocation-free in steady state.
        let mut grads = std::mem::take(&mut self.merge_scratch);
        grads.clear();
        Self::accumulate_reinforce(self.generator.as_ref(), &pending, advantage, &mut grads);
        self.optimizer.step(self.generator.as_mut(), &mut grads);
        self.generator.apply_constraints(grads.touched());
        self.merge_scratch = grads;
        self.slots[0].recycle(pending);
    }
}

/// Worker view over one KBGAN shard: shared read-only generator, private
/// REINFORCE accumulation against the batch-start baseline.
struct KbGanShardWorker<'a> {
    generator: &'a dyn KgeModel,
    policy: &'a CorruptionPolicy,
    candidate_size: usize,
    num_entities: usize,
    /// The moving-average baseline snapshotted when the batch started; all of
    /// the batch's advantages are computed against it so the result does not
    /// depend on cross-shard interleaving.
    baseline: f64,
    slot: &'a mut KbGanShardSlot,
}

impl ShardSampler for KbGanShardWorker<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        KbGanSampler::sample_in_slot(
            self.generator,
            self.candidate_size,
            self.num_entities,
            self.policy,
            self.slot,
            positive,
            rng,
        )
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let Some(pending) = KbGanSampler::matching_pending(self.slot, positive, negative) else {
            return;
        };
        self.slot.rewards.push(reward);
        let advantage = reward - self.baseline;
        if advantage != 0.0 {
            KbGanSampler::accumulate_reinforce(
                self.generator,
                &pending,
                advantage,
                &mut self.slot.grads,
            );
        }
        self.slot.recycle(pending);
    }
}

impl NegativeSampler for KbGanSampler {
    fn name(&self) -> &'static str {
        "KBGAN"
    }

    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        Self::sample_in_slot(
            self.generator.as_ref(),
            self.candidate_size,
            self.num_entities,
            &self.policy,
            &mut self.slots[0],
            positive,
            rng,
        )
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        _rng: &mut StdRng,
    ) {
        let Some(pending) = Self::matching_pending(&mut self.slots[0], positive, negative) else {
            return;
        };
        self.reinforce_now(pending, reward);
    }

    fn prepare_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.routing.prepare(shards);
        if self.slots.len() != shards {
            self.slots = (0..shards).map(|_| KbGanShardSlot::default()).collect();
        }
    }

    fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Load-balanced `(h, r)` routing when key frequencies were observed,
    /// uniform hash otherwise. KBGAN keeps no keyed state, so the partition
    /// only has to be a deterministic pure function of `(positive, shards)`
    /// — which both [`ObservedPartition`] paths are.
    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        self.routing
            .shard_of((positive.head, positive.relation), shards)
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let generator = self.generator.as_ref();
        let policy = &self.policy;
        let candidate_size = self.candidate_size;
        let num_entities = self.num_entities;
        let baseline = self.baseline;
        self.slots
            .iter_mut()
            .map(|slot| {
                Box::new(KbGanShardWorker {
                    generator,
                    policy,
                    candidate_size,
                    num_entities,
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
        for slot in self.slots.iter_mut() {
            for &reward in &slot.rewards {
                self.baseline =
                    self.baseline_decay * self.baseline + (1.0 - self.baseline_decay) * reward;
                self.feedback_steps += 1;
            }
            slot.rewards.clear();
            merged.merge(&mut slot.grads);
            slot.grads.clear();
        }
        if !merged.is_empty() {
            self.optimizer.step(self.generator.as_mut(), &mut merged);
            self.generator.apply_constraints(merged.touched());
        }
        self.merge_scratch = merged;
    }

    fn extra_parameters(&self) -> usize {
        self.generator.num_parameters()
    }

    fn export_state(&self) -> SamplerState {
        SamplerState::Generator(GeneratorState {
            kind: GeneratorKind::KbGan,
            baseline: self.baseline,
            feedback_steps: self.feedback_steps,
            tables: capture_generator_tables(self.generator.as_ref()),
            optimizer: self.optimizer.export_state(),
        })
    }

    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        let state = match state {
            SamplerState::Stateless => return Ok(()),
            SamplerState::Generator(g) if g.kind == GeneratorKind::KbGan => g,
            other => {
                return Err(format!(
                    "KBGAN sampler cannot import {} state",
                    other.kind_name()
                ))
            }
        };
        restore_generator_tables(self.generator.as_mut(), &state.tables)?;
        // Importing re-binds, so the slabs stay pre-sized even if the
        // capture was taken before the optimizer ever touched some table.
        self.optimizer
            .import_state(state.optimizer, self.generator.as_ref())?;
        self.baseline = state.baseline;
        self.feedback_steps = state.feedback_steps;
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

    #[test]
    fn sampled_negative_comes_from_the_candidate_set() {
        let mut s = KbGanSampler::new(generator(50), 10, 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(50);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let neg = s.sample(&pos, d.as_ref(), &mut rng);
        assert!(neg.entity < 50);
        assert_eq!(s.extra_parameters(), s.generator().num_parameters());
        assert_eq!(s.name(), "KBGAN");
    }

    #[test]
    fn feedback_updates_the_baseline_and_generator() {
        let mut s = KbGanSampler::new(generator(40), 8, 0.05, CorruptionPolicy::Uniform);
        let d = discriminator(40);
        let mut rng = seeded_rng(2);
        let pos = Triple::new(2, 1, 5);
        let before: f64 = {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            s.generator().score(&neg.triple)
        };
        let _ = before;
        assert_eq!(s.feedback_steps(), 0);
        for _ in 0..20 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let reward = d.score(&neg.triple);
            s.feedback(&pos, &neg, reward, &mut rng);
        }
        assert_eq!(s.feedback_steps(), 20);
        assert!(s.baseline().abs() > 0.0, "baseline should move off zero");
    }

    #[test]
    fn reinforce_increases_generator_probability_of_rewarded_entities() {
        // Reward entity 7 only; after many updates the generator's softmax
        // over the full entity set should assign entity 7 more than the
        // uniform 1/20 share on both corruption sides.
        let gen = build_model(
            &ModelConfig::new(ModelKind::DistMult)
                .with_dim(6)
                .with_seed(3),
            20,
            2,
        );
        let mut s = KbGanSampler::new(gen, 20, 0.1, CorruptionPolicy::Uniform);
        let d = discriminator(20);
        let mut rng = seeded_rng(3);
        let pos = Triple::new(0, 0, 1);
        for _ in 0..600 {
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let reward = if neg.entity == 7 { 5.0 } else { -5.0 };
            s.feedback(&pos, &neg, reward, &mut rng);
        }
        let probability_of = |side: nscaching_kg::CorruptionSide| {
            let scores = s.generator().score_all(&pos, side);
            let probs = nscaching_math::softmax(&scores);
            probs[7]
        };
        let p_head = probability_of(nscaching_kg::CorruptionSide::Head);
        let p_tail = probability_of(nscaching_kg::CorruptionSide::Tail);
        assert!(
            p_head > 0.05 || p_tail > 0.05,
            "rewarded entity should exceed the uniform share (head {p_head:.3}, tail {p_tail:.3})"
        );
        assert!(
            p_head + p_tail > 0.15,
            "combined preference should be clearly above uniform ({:.3})",
            p_head + p_tail
        );
    }

    #[test]
    fn mismatched_feedback_is_ignored() {
        let mut s = KbGanSampler::new(generator(30), 5, 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(30);
        let mut rng = seeded_rng(4);
        let pos = Triple::new(0, 0, 1);
        let neg = s.sample(&pos, d.as_ref(), &mut rng);
        let wrong = SampledNegative::new(&Triple::new(9, 1, 9), neg.side, neg.entity);
        s.feedback(&Triple::new(9, 1, 9), &wrong, 1.0, &mut rng);
        assert_eq!(s.feedback_steps(), 0);
        // feedback without a pending draw is also a no-op
        s.feedback(&pos, &neg, 1.0, &mut rng);
        assert_eq!(s.feedback_steps(), 0);
    }

    #[test]
    fn sharded_feedback_is_deferred_until_merge() {
        let mut s = KbGanSampler::new(generator(40), 6, 0.05, CorruptionPolicy::Uniform);
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
    }

    #[test]
    fn candidates_are_distinct_and_exclude_the_positive_when_clamped() {
        // candidate_size 50 clamps to |E| − 1 = 4, so Neg must be exactly
        // E∖{the positive's entity on the corrupted side}.
        let mut s = KbGanSampler::new(generator(5), 50, 0.01, CorruptionPolicy::Uniform);
        let d = discriminator(5);
        let mut rng = seeded_rng(6);
        for i in 0..100u32 {
            let pos = Triple::new(i % 5, 0, (i / 5) % 5);
            let neg = s.sample(&pos, d.as_ref(), &mut rng);
            let excluded = pos.entity_at(neg.side);
            let pending = s.slots[0].pending.as_ref().expect("a draw is pending");
            let mut candidates = pending.candidates.clone();
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
        let _ = KbGanSampler::new(generator(10), 0, 0.01, CorruptionPolicy::Uniform);
    }
}
