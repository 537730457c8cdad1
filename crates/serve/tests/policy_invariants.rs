//! Property tests for the serving cache's segmented-LRU eviction order and
//! its serving integration.
//!
//! Two layers:
//!
//! 1. `PolicyCache` against a brute-force reference model under random
//!    insert/get/remove churn. The reference re-states SLRU's
//!    *specification* in the dumbest possible terms — linear scans over
//!    `(key, last-touch, segment)` tuples — so a divergence means the
//!    intrusive-list implementation broke the spec, not that two copies of
//!    the same code agree with each other.
//! 2. [`KnowledgeServer`] staleness under interleaved queries, scores and
//!    model updates: no eviction order may ever serve an answer computed
//!    against retired model tables. A cacheless twin
//!    server receiving the identical update stream provides the ground
//!    truth. The same invariant is then checked with four threads querying
//!    one shared server while a fifth applies model updates.

// The vendored proptest macro is expansion-hungry at this op-tuple width.
#![recursion_limit = "512"]

use nscaching_kg::Triple;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_serve::{
    CacheConfig, KnowledgeServer, PolicyCache, QueryScratch, RankedEntity, TopKQuery,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Brute-force reference models
// ---------------------------------------------------------------------------

/// One live key in the reference model, with every book SLRU needs.
#[derive(Debug, Clone, Copy)]
struct RefEntry {
    key: u32,
    value: u64,
    /// Monotone stamp of the last list (re-)attachment — the recency order.
    touch: u64,
    /// SLRU segment flag.
    protected: bool,
}

/// A reference cache: the SLRU specification executed by linear scans.
struct RefCache {
    entries: Vec<RefEntry>,
    capacity: usize,
    /// SLRU protected-segment cap (⌈4/5⌉ of capacity, as implemented).
    protected_capacity: usize,
    /// Monotone event clock.
    clock: u64,
}

impl RefCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            protected_capacity: capacity * 4 / 5,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn position(&self, key: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// The specification of SLRU's victim, as a linear argmin.
    fn victim_index(&self) -> usize {
        // SLRU victimises probation first; only an all-protected cache falls
        // back to the protected list.
        let any_probation = self.entries.iter().any(|e| !e.protected);
        let candidates = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !any_probation || !e.protected);
        // Recency only: the least recently touched.
        let (index, _) = candidates
            .min_by_key(|(_, e)| e.touch)
            .expect("victim on an empty reference cache");
        index
    }

    /// The access bookkeeping shared by `get`-hit and replace-`insert`.
    fn on_hit(&mut self, index: usize) {
        let touch = self.tick();
        self.entries[index].touch = touch;
        self.entries[index].protected = true;
        let protected = self.entries.iter().filter(|e| e.protected).count();
        if protected > self.protected_capacity {
            // Demote the least recently touched protected entry; it
            // re-enters probation at the most-recent position. (With a zero
            // protected capacity the just-promoted entry is its own demotion
            // victim, exactly like the real policy's attach-then-demote
            // sequence.)
            let touch = self.tick();
            let demoted = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.protected)
                .min_by_key(|(_, e)| e.touch)
                .map(|(i, _)| i)
                .expect("overflowing protected segment is non-empty");
            self.entries[demoted].protected = false;
            self.entries[demoted].touch = touch;
        }
    }

    fn insert(&mut self, key: u32, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(index) = self.position(key) {
            self.entries[index].value = value;
            self.on_hit(index);
            return;
        }
        if self.entries.len() == self.capacity {
            let victim = self.victim_index();
            self.entries.swap_remove(victim);
        }
        let touch = self.tick();
        self.entries.push(RefEntry {
            key,
            value,
            touch,
            protected: false,
        });
    }

    fn get(&mut self, key: u32) -> Option<u64> {
        let index = self.position(key)?;
        let value = self.entries[index].value;
        self.on_hit(index);
        Some(value)
    }

    fn remove(&mut self, key: u32) -> Option<u64> {
        let index = self.position(key)?;
        Some(self.entries.swap_remove(index).value)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Body of the churn proptest (a plain fn keeps the macro expansion small —
/// the vendored `proptest!` tt-munches its body and hits the recursion limit
/// on large ones).
fn churn_case(capacity: usize, ops: Vec<(u32, u32, u64)>) -> Result<(), TestCaseError> {
    let mut real: PolicyCache<u32, u64> = PolicyCache::new(capacity);
    let mut model = RefCache::new(capacity);
    for (op, key, value) in ops {
        match op {
            // Inserts dominate the mix so eviction churn actually happens.
            0 | 1 => {
                real.insert(key, value);
                model.insert(key, value);
            }
            2 => {
                prop_assert_eq!(real.get(&key).copied(), model.get(key));
            }
            _ => {
                prop_assert_eq!(real.remove(&key), model.remove(key));
            }
        }
        // Capacity is a hard bound at every step, not just at the end.
        prop_assert!(real.len() <= capacity);
        prop_assert_eq!(real.len(), model.len());
    }
    // Final sweep: both caches hold exactly the same key set — every key
    // the reference evicted is really gone, every live key really lives.
    // `contains` does not touch the policy books, so the walk order
    // cannot perturb the comparison.
    for key in 0..24u32 {
        let live = model.position(key).is_some();
        prop_assert_eq!(real.contains(&key), live);
    }
    // And value-for-value (promoting identically on both sides).
    for key in 0..24u32 {
        prop_assert_eq!(real.get(&key).copied(), model.get(key));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_policy_matches_its_reference_model_under_churn(
        capacity in 0usize..10,
        ops in prop::collection::vec((0u32..4, 0u32..24, 0u64..1000), 1..200),
    ) {
        churn_case(capacity, ops)?;
    }
}

// ---------------------------------------------------------------------------
// Serving staleness
// ---------------------------------------------------------------------------

fn serving_engine(config: CacheConfig) -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(8)
            .with_seed(17),
        24,
        4,
    );
    KnowledgeServer::with_cache(model, config)
}

/// The `update`-th model update of the staleness tests: bump one row of
/// every table (rows 0..4 exist in both the entity and relation tables).
fn bump_row(model: &mut dyn KgeModel, update: u64) {
    let row = (update % 4) as usize;
    let bump = 0.25 + update as f64 * 1e-3;
    for table in model.tables_mut() {
        for v in table.row_mut(row) {
            *v += bump;
        }
    }
}

/// Body of the staleness proptest: a cached server against a cacheless twin fed the identical update stream — the twin's
/// answers are the ground truth the cached server must match bit-for-bit at
/// every step.
fn staleness_case(ops: Vec<(u32, u32, u32, u32)>) -> Result<(), TestCaseError> {
    let server = serving_engine(CacheConfig::with_capacity(16));
    let plain = serving_engine(CacheConfig::with_capacity(0));
    let mut scratch = QueryScratch::default();
    let mut fresh = Vec::new();
    let mut update_seed = 0u64;
    for (op, entity, relation, k) in ops {
        match op {
            0 => {
                // Mutate one embedding row on both servers; the stamp
                // bump must retire every cached answer.
                update_seed += 1;
                for engine in [&server, &plain] {
                    engine.update_model(|model| bump_row(model, update_seed));
                }
            }
            1 => {
                // Score probe, including out-of-range tails, which must
                // come back as the same typed rejection.
                let tail = entity * 2 % 26; // 24, 25 are out of range
                let triple = Triple::new(entity, relation, tail);
                let cached = server.score(&triple);
                let truth = plain.score(&triple);
                match (cached, truth) {
                    (Ok(c), Ok(t)) => prop_assert_eq!(c.to_bits(), t.to_bits()),
                    (c, t) => prop_assert_eq!(c, t),
                }
            }
            op => {
                // Top-k keys come from a hot set of 24 (3 anchors × 2
                // relations × k ∈ {1, 2} × 2 sides), so queries repeat
                // across model updates; score probes keep the full range.
                let (entity, relation, k) = (entity % 3, relation % 2, 1 + k % 2);
                let query = if op % 2 == 1 {
                    TopKQuery::heads(entity, relation, k)
                } else {
                    TopKQuery::tails(entity, relation, k)
                };
                // The cache-only peek must agree with the full path
                // *before* the full path repopulates this exact entry.
                let peeked = server.top_k_cached(&query).unwrap();
                let answer = server.top_k(&query, &mut scratch).unwrap();
                plain.top_k_into(&query, &mut scratch, &mut fresh).unwrap();
                prop_assert_eq!(answer.len(), fresh.len());
                for (cached, computed) in answer.iter().zip(&fresh) {
                    prop_assert_eq!(cached.entity, computed.entity);
                    prop_assert_eq!(cached.score.to_bits(), computed.score.to_bits());
                }
                if let Some(peeked) = peeked {
                    prop_assert_eq!(peeked.len(), fresh.len());
                    for (p, computed) in peeked.iter().zip(&fresh) {
                        prop_assert_eq!(p.entity, computed.entity);
                        // A mismatch here means the peek served stale.
                        prop_assert_eq!(p.score.to_bits(), computed.score.to_bits());
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_policy_ever_serves_a_stale_answer(
        ops in prop::collection::vec(
            // op 0 = model update, op 1 = score probe; otherwise a top-k
            // query whose parity picks the corruption side (the vendored
            // proptest caps tuples at 4 slots).
            (0u32..8, 0u32..24, 0u32..4, 1u32..6),
            1..50,
        ),
    ) {
        staleness_case(ops)?;
    }
}

// ---------------------------------------------------------------------------
// Serving staleness under concurrent readers and updates
// ---------------------------------------------------------------------------

/// Model updates the writer thread applies.
const UPDATES: u64 = 20;
/// Querying threads sharing the one server.
const READERS: usize = 4;
/// Reader calls the writer waits for before each update, and each reader
/// makes after the last one.
const CALLS_PER_VERSION: usize = 32;

/// One answer a reader saw, with the update counter read before and after
/// the call: the answer was computed against some model version inside
/// that window.
struct Observation {
    query: usize,
    before: u64,
    after: u64,
    answer: Arc<[RankedEntity]>,
}

fn same_answer(a: &[RankedEntity], b: &[RankedEntity]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.entity == y.entity && x.score.to_bits() == y.score.to_bits())
}

/// Four threads call `top_k` on one shared server over a small hot key set
/// while a fifth applies [`UPDATES`] model updates. The counter is bumped
/// inside `update_model`, under the model write lock, so a reader's
/// before/after reads bracket the model version its answer came from. Every
/// answer must equal the uncached answer of some model version in its
/// window; a served stale entry would match only an older one. The writer
/// waits for [`CALLS_PER_VERSION`] reader calls before each update, so
/// queries interleave with every update however the threads are scheduled.
#[test]
fn concurrent_readers_never_see_a_stale_answer_across_updates() {
    let server = serving_engine(CacheConfig::with_capacity(16));
    let hot: Vec<TopKQuery> = (0..8u32)
        .map(|i| {
            if i % 2 == 0 {
                TopKQuery::tails(i, i % 4, 5)
            } else {
                TopKQuery::heads(i, i % 4, 5)
            }
        })
        .collect();
    let version = AtomicU64::new(0);
    let calls = AtomicUsize::new(0);

    let observations: Vec<Observation> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let (server, hot, version, calls) = (server.clone(), &hot, &version, &calls);
                scope.spawn(move || {
                    let mut scratch = QueryScratch::default();
                    let mut seen = Vec::new();
                    let mut at_last_version = 0;
                    let mut i = t;
                    while at_last_version < CALLS_PER_VERSION {
                        let query = i % hot.len();
                        let before = version.load(Ordering::SeqCst);
                        let answer = server.top_k(&hot[query], &mut scratch).unwrap();
                        let after = version.load(Ordering::SeqCst);
                        calls.fetch_add(1, Ordering::SeqCst);
                        if before == UPDATES {
                            at_last_version += 1;
                        }
                        seen.push(Observation {
                            query,
                            before,
                            after,
                            answer,
                        });
                        i += 1;
                    }
                    seen
                })
            })
            .collect();
        let mut calls_at_update = 0;
        for update in 1..=UPDATES {
            while calls.load(Ordering::SeqCst) < calls_at_update + CALLS_PER_VERSION {
                std::thread::yield_now();
            }
            server.update_model(|model| {
                bump_row(model, update);
                version.store(update, Ordering::SeqCst);
            });
            calls_at_update = calls.load(Ordering::SeqCst);
        }
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect()
    });

    // Ground truth: the uncached answer of every hot query at every model
    // version, from a cacheless twin replaying the same updates.
    let twin = serving_engine(CacheConfig::with_capacity(0));
    let mut scratch = QueryScratch::default();
    let mut truth: Vec<Vec<Vec<RankedEntity>>> = Vec::new();
    for update in 0..=UPDATES {
        if update > 0 {
            twin.update_model(|model| bump_row(model, update));
        }
        let answers = hot
            .iter()
            .map(|query| {
                let mut out = Vec::new();
                twin.top_k_into(query, &mut scratch, &mut out).unwrap();
                out
            })
            .collect();
        truth.push(answers);
    }

    for seen in &observations {
        assert!(
            (seen.before..=seen.after)
                .any(|v| same_answer(&seen.answer, &truth[v as usize][seen.query])),
            "query {} answered outside model versions {}..={}",
            seen.query,
            seen.before,
            seen.after
        );
    }
    assert!(
        server.cache_stats().hits > 0,
        "the hot set must be served from cache"
    );
}
