//! The online query engine: a read-mostly model behind an `Arc`, and one
//! bounded top-k result cache in front of it.
//!
//! # Query model
//!
//! A [`KnowledgeServer`] answers three query shapes against one loaded
//! [`KgeModel`]:
//!
//! * **Top-k link prediction** ([`TopKQuery`]): given `(entity, relation)`
//!   and a direction, the `k` most plausible entities for the open slot —
//!   `(h, r, ?)` for [`CorruptionSide::Tail`], `(?, r, t)` for
//!   [`CorruptionSide::Head`]. Scoring streams the whole entity table through
//!   the batched `score_all_into` fast path, then selects with the bounded
//!   one-pass kernel `top_k_indices_into` — all into caller-owned
//!   [`QueryScratch`], so the uncached steady state allocates nothing. A
//!   mirrored model scans in two passes instead (see *Scan mirror* below).
//! * **Rank** ([`KnowledgeServer::rank`]): the competition rank of a known
//!   triple among all corruptions of one side, from the counts of one
//!   count-only `rank_scan` over the scored entities (no contender indices
//!   are collected: the unfiltered rank needs only the counts), or the same
//!   counts from the two passes of a mirrored model.
//! * **Triplet classification** ([`KnowledgeServer::score`] /
//!   [`KnowledgeServer::classify`]): the scalar score of one triple, compared
//!   against a caller-supplied threshold (thresholds are tuned per relation
//!   by `nscaching_eval`'s classification protocol).
//!
//! # Scan mirror
//!
//! A full-vocabulary scan streams every `f64` entity row, although only the
//! rows near the answer can change it. So a model whose scores are an L1
//! distance to a query vector ([`KgeModel::l1_scan_query`]; of this
//! workspace's models, TransE) is served with a 15-bit fixed-point copy of
//! its entity table, the *scan mirror*, built with the model under the same
//! lock (`with_cache`, `reload`, `update_model`), so a reader never pairs a
//! model with another version's mirror. Each value is stored on a grid of
//! 32,768 levels that spans the table's `[lo, hi]`:
//! `E = round((e − lo)·32767/(hi − lo))`. Fifteen bits, not sixteen, so
//! that the sum of two grid differences (each at most 32767) fits a 16-bit
//! lane, and the kernel adds dimension pairs in 16-bit lanes before
//! widening. The values are kept in one layout, blocks of 32 rows stored
//! dimension-major, and their memory is `2·|E|·d` bytes, a quarter of the
//! table (1.86 MB for 14,541 entities at d = 64, which fits a 2 MiB L2),
//! reported as `nsc_serve_scan_mirror_bytes`. A table holding a non-finite
//! value, or whose range is not finite and positive, gets no mirror.
//!
//! Every top-k and rank of a mirrored model then runs two passes: an
//! approximate one that sums each row's integer L1 distance on the grid,
//! exact there, with the query clamped into `[lo, hi]` and the
//! clamped-away part added back as a per-query constant `C`; and an exact
//! one that rescores with the model's own `f64` kernel only the rows the
//! bound cannot rule out. The bound (`nscaching_math::L1Grid::bound`) is one
//! grid step per dimension, `B ≈ d·(hi − lo)/32767`, plus a relative
//! rounding term; both passes compare integer sums against the integer
//! slack `L ≥ 2B/step`. A row whose sum trails the `k`-th smallest by more
//! than `L` has at least `k` rows strictly ahead of it, so it can never
//! enter the answer; the rest are rescored in ascending id order, so the
//! selection's tie break is the full scan's. Every answer — ids, order,
//! score bits, rank — is therefore the exact scan's, bit for bit (the
//! derivation is in `crate::mirror`; `tests/scan_mirror.rs` checks it
//! against the model's own scan). The rows rescored are counted in
//! `nsc_serve_scan_rescored_rows_total`, so a model whose value range
//! widens the grid shows up in `STATS`. Models without an L1 form, `k = 0`,
//! `k` at or beyond the vocabulary, and non-finite or huge query vectors
//! take the exact scan.
//!
//! # Cache contract
//!
//! Top-k answers are memoised in one capacity-bounded [`PolicyCache`] keyed
//! by the full query `(relation, entity, direction, k)` and evicted in
//! segmented-LRU order (see [`crate::cache`] for why); [`CacheConfig`] picks
//! its capacity. Every entry is stamped with the server's *model stamp* — a mix of a load
//! generation counter and the sum of every `EmbeddingTable::version()` —
//! captured **under the same model lock the answer was computed under**.
//! Mutations go through [`KnowledgeServer::update_model`] /
//! [`KnowledgeServer::reload`], which hold the write lock while they bump
//! table versions and refresh the stamp; a later lookup whose entry stamp no
//! longer matches treats the entry as dead, drops it, and recomputes. A
//! stale answer can therefore never be served, **whatever the eviction
//! order**: the stamp lives in the entry, not in the cache structure, so
//! eviction cannot detach an answer from the tables it was computed from
//! (re-proven in `tests/policy_invariants.rs`).
//!
//! Score, rank and classification queries are not cached; every call
//! computes its answer from the model.
//!
//! # Threading
//!
//! Callers share one server across threads: it is `Sync` and cheap to
//! clone (`Arc` inside), and each thread brings its own [`QueryScratch`].
//! They share the model under a read lock and the cache under one mutex.
//! The mutex is held only for a lookup or an insert, never across the model
//! scan of a miss, so a miss does not block other callers' hits. Lock order
//! is always model → cache. [`KnowledgeServer::top_k`] is also available as
//! its two halves, [`KnowledgeServer::top_k_cached`] (the lookup) and
//! [`KnowledgeServer::top_k_miss`] (compute and insert, no second lookup),
//! so a caller can answer hits on one thread and run the scans on another
//! while counting each request once.

use crate::cache::{CacheStats, PolicyCache};
use crate::error::SnapshotError;
use crate::mirror::{MirrorScratch, ScanMirror};
use crate::snapshot::load_model;
use crate::telemetry::ServeMetrics;
use nscaching_kg::{CorruptionSide, EntityId, RelationId, Triple};
use nscaching_math::{rank_scan, split_seed, top_k_indices_into};
use nscaching_models::{KgeModel, ModelKind};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// One top-k link-prediction query: the `k` best candidates for the open
/// slot of `(entity, relation)` in the given direction.
///
/// `direction` names the side being *predicted*: [`CorruptionSide::Tail`]
/// asks for tails of `(entity, relation, ?)`, [`CorruptionSide::Head`] for
/// heads of `(?, relation, entity)`. The struct is the cache key, so it is
/// small, `Copy` and hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopKQuery {
    /// The relation of the query pattern.
    pub relation: RelationId,
    /// The known entity (head for tail prediction, tail for head prediction).
    pub entity: EntityId,
    /// Which side to predict.
    pub direction: CorruptionSide,
    /// How many candidates to return.
    pub k: u32,
}

impl TopKQuery {
    /// Tails of `(head, relation, ?)`.
    pub fn tails(head: EntityId, relation: RelationId, k: u32) -> Self {
        Self {
            relation,
            entity: head,
            direction: CorruptionSide::Tail,
            k,
        }
    }

    /// Heads of `(?, relation, tail)`.
    pub fn heads(tail: EntityId, relation: RelationId, k: u32) -> Self {
        Self {
            relation,
            entity: tail,
            direction: CorruptionSide::Head,
            k,
        }
    }

    /// The anchor triple whose `direction` side is scanned over all entities.
    fn anchor(&self) -> Triple {
        match self.direction {
            CorruptionSide::Tail => Triple::new(self.entity, self.relation, 0),
            CorruptionSide::Head => Triple::new(0, self.relation, self.entity),
        }
    }
}

/// One ranked answer entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedEntity {
    /// The candidate entity.
    pub entity: EntityId,
    /// Its model score (larger = more plausible).
    pub score: f64,
}

/// A query referencing ids outside the served model's vocabularies.
///
/// Serving traffic is untrusted: a single malformed id must produce a typed
/// rejection, never a slice-out-of-bounds panic on the scoring path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// An entity id at or beyond `num_entities`.
    EntityOutOfRange {
        /// The offending id.
        entity: EntityId,
        /// The served vocabulary size.
        num_entities: usize,
    },
    /// A relation id at or beyond `num_relations`.
    RelationOutOfRange {
        /// The offending id.
        relation: RelationId,
        /// The served vocabulary size.
        num_relations: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EntityOutOfRange {
                entity,
                num_entities,
            } => write!(f, "entity {entity} out of range (|E| = {num_entities})"),
            QueryError::RelationOutOfRange {
                relation,
                num_relations,
            } => write!(
                f,
                "relation {relation} out of range (|R| = {num_relations})"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Validate one `(entity, relation)` pair against a model's vocabularies.
fn validate_ids(
    model: &dyn KgeModel,
    entity: EntityId,
    relation: RelationId,
) -> Result<(), QueryError> {
    if entity as usize >= model.num_entities() {
        return Err(QueryError::EntityOutOfRange {
            entity,
            num_entities: model.num_entities(),
        });
    }
    if relation as usize >= model.num_relations() {
        return Err(QueryError::RelationOutOfRange {
            relation,
            num_relations: model.num_relations(),
        });
    }
    Ok(())
}

/// Validate every id of a triple.
fn validate_triple(model: &dyn KgeModel, triple: &Triple) -> Result<(), QueryError> {
    validate_ids(model, triple.head, triple.relation)?;
    validate_ids(model, triple.tail, triple.relation)
}

/// Per-caller reusable query buffers. All hot paths write into these instead
/// of allocating; after the first few queries establish the high-water marks,
/// a steady-state query performs no heap allocation (asserted in the
/// `serve_throughput` bench). Each thread that queries a shared server
/// keeps its own.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Score buffer: every entity's (`score_all_into` target), or the rows a
    /// two-pass scan rescored.
    scores: Vec<f64>,
    /// Index buffer of the top-k selection.
    order: Vec<usize>,
    /// Buffers of the scan mirror's two passes.
    mirror: MirrorScratch,
}

/// Which entities the indices [`select_top_k`] selected point at.
#[derive(Debug, Clone, Copy)]
enum Scanned {
    /// The whole vocabulary, scanned exactly: indices are entity ids.
    Vocabulary,
    /// The rows the scan mirror's exact pass rescored
    /// (`QueryScratch::mirror.refined`).
    Refined,
}

impl QueryScratch {
    /// The selection [`select_top_k`] left in this scratch, best first.
    /// `scanned` is what it returned.
    fn ranked(&self, scanned: Scanned) -> impl Iterator<Item = RankedEntity> + '_ {
        self.order.iter().map(move |&i| RankedEntity {
            entity: match scanned {
                Scanned::Vocabulary => i as EntityId,
                Scanned::Refined => self.mirror.refined[i],
            },
            score: self.scores[i],
        })
    }
}

/// A cached top-k answer plus the model stamp it was computed under.
#[derive(Debug, Clone, Default)]
struct CachedAnswer {
    stamp: u64,
    answer: Arc<[RankedEntity]>,
}

/// Serving-cache configuration: how many top-k answers to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cached top-k answers (0 disables caching).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

impl CacheConfig {
    /// A cache of `capacity` answers.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity }
    }
}

/// The served model and its scan mirror, under one lock so that a reader
/// can never pair a model with another version's mirror.
struct Served {
    model: Box<dyn KgeModel>,
    /// `Some` for a model with an L1 form whose entity values a grid
    /// spans; see [`crate::mirror`].
    mirror: Option<ScanMirror>,
}

impl Served {
    /// `model` and its mirror.
    fn new(model: Box<dyn KgeModel>) -> Self {
        let mirror = ScanMirror::build(model.as_ref());
        Self { model, mirror }
    }

    fn mirror_bytes(&self) -> u64 {
        self.mirror.as_ref().map_or(0, |m| m.bytes() as u64)
    }
}

struct ServerInner {
    served: RwLock<Served>,
    /// The top-k result cache. Locked only around a lookup or an insert.
    cache: Mutex<PolicyCache<TopKQuery, CachedAnswer>>,
    /// Current model stamp; see the module docs for the invalidation
    /// contract. Written only under the model write lock.
    stamp: AtomicU64,
    /// Bumped on every load/update so stamps from different loaded models
    /// can never collide even if their version sums do.
    generation: AtomicU64,
    /// Bytes of the served scan mirror (0 without one), for the scrape-time
    /// gauge. Written only under the model write lock.
    mirror_bytes: AtomicU64,
    /// Attach-once telemetry handles. Consulted only off the hit path (one
    /// relaxed load on a cache miss); see [`crate::telemetry`] for the
    /// overhead contract.
    metrics: OnceLock<Arc<ServeMetrics>>,
}

/// The serving engine. Clones share one model and one cache (`Arc` inside).
#[derive(Clone)]
pub struct KnowledgeServer {
    inner: Arc<ServerInner>,
}

impl KnowledgeServer {
    /// Serve an already-built model with a result cache of `cache_capacity`
    /// entries (0 disables caching).
    pub fn new(model: Box<dyn KgeModel>, cache_capacity: usize) -> Self {
        Self::with_cache(model, CacheConfig::with_capacity(cache_capacity))
    }

    /// Serve an already-built model with the given [`CacheConfig`].
    pub fn with_cache(model: Box<dyn KgeModel>, config: CacheConfig) -> Self {
        let stamp = stamp_of(model.as_ref(), 1);
        let served = Served::new(model);
        Self {
            inner: Arc::new(ServerInner {
                mirror_bytes: AtomicU64::new(served.mirror_bytes()),
                served: RwLock::new(served),
                cache: Mutex::new(PolicyCache::new(config.capacity)),
                stamp: AtomicU64::new(stamp),
                generation: AtomicU64::new(1),
                metrics: OnceLock::new(),
            }),
        }
    }

    /// Attach telemetry handles (typically [`ServeMetrics::register`]ed on
    /// the front door's registry). Attach-once: later calls are no-ops, so
    /// the handles an instrumented path already loaded stay valid forever.
    pub fn attach_metrics(&self, metrics: Arc<ServeMetrics>) {
        let _ = self.inner.metrics.set(metrics);
    }

    /// The attached telemetry handles, if any.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.inner.metrics.get()
    }

    /// Bridge this engine's cache counters and scan-mirror size onto the
    /// attached registry (scrape-time; a no-op when no metrics are
    /// attached). Takes no model lock.
    pub fn publish_metrics(&self) {
        if let Some(metrics) = self.inner.metrics.get() {
            metrics.bridge(&self.cache_stats(), self.scan_mirror_bytes());
        }
    }

    /// Resident bytes of the served model's scan mirror: `2·|E|·d` for a
    /// mirrored model, 0 for one without (see the module docs).
    pub fn scan_mirror_bytes(&self) -> u64 {
        self.inner.mirror_bytes.load(Ordering::Relaxed)
    }

    /// Load a model from a snapshot (or full checkpoint) file and serve it.
    pub fn load(path: &Path, cache_capacity: usize) -> Result<Self, SnapshotError> {
        Ok(Self::new(load_model(path)?.into_model()?, cache_capacity))
    }

    /// Load a model from a snapshot file and serve it with the given
    /// [`CacheConfig`].
    pub fn load_with_cache(path: &Path, config: CacheConfig) -> Result<Self, SnapshotError> {
        Ok(Self::with_cache(load_model(path)?.into_model()?, config))
    }

    /// Swap in a model from a snapshot file. Existing cache entries become
    /// unreachable (their stamps can no longer match): a lookup that meets
    /// one drops it, and eviction recycles the rest as fresh answers
    /// displace them.
    pub fn reload(&self, path: &Path) -> Result<(), SnapshotError> {
        // The new scan mirror is built before the write lock is taken, so
        // readers wait only for the swap.
        let served = Served::new(load_model(path)?.into_model()?);
        let mut guard = self.inner.served.write().expect("model lock");
        let generation = self.inner.generation.fetch_add(1, Ordering::Relaxed) + 1;
        *guard = served;
        self.publish_served(&guard, generation);
        Ok(())
    }

    /// Mutate the served model in place (e.g. apply an online fine-tuning
    /// step), refreshing the cache stamp so every prior answer is invalidated
    /// by the tables' bumped versions, and rebuilding the scan mirror from
    /// the mutated tables.
    pub fn update_model(&self, update: impl FnOnce(&mut dyn KgeModel)) {
        let mut guard = self.inner.served.write().expect("model lock");
        let generation = self.inner.generation.fetch_add(1, Ordering::Relaxed) + 1;
        update(guard.model.as_mut());
        guard.mirror = ScanMirror::build(guard.model.as_ref());
        self.publish_served(&guard, generation);
    }

    /// Publish the stamp and mirror size of a freshly written `served`.
    /// Called under the model write lock.
    fn publish_served(&self, served: &Served, generation: u64) {
        self.inner.stamp.store(
            stamp_of(served.model.as_ref(), generation),
            Ordering::Release,
        );
        self.inner
            .mirror_bytes
            .store(served.mirror_bytes(), Ordering::Relaxed);
    }

    /// The served scoring function.
    pub fn kind(&self) -> ModelKind {
        self.inner.served.read().expect("model lock").model.kind()
    }

    /// Entity vocabulary size of the served model.
    pub fn num_entities(&self) -> usize {
        self.inner
            .served
            .read()
            .expect("model lock")
            .model
            .num_entities()
    }

    /// Relation vocabulary size of the served model.
    pub fn num_relations(&self) -> usize {
        self.inner
            .served
            .read()
            .expect("model lock")
            .model
            .num_relations()
    }

    /// The current model stamp (diagnostics; changes on every reload/update).
    pub fn stamp(&self) -> u64 {
        self.inner.stamp.load(Ordering::Acquire)
    }

    /// Result-cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// Current number of cached answers.
    pub fn cache_len(&self) -> usize {
        self.cache().len()
    }

    fn cache(&self) -> MutexGuard<'_, PolicyCache<TopKQuery, CachedAnswer>> {
        self.inner.cache.lock().expect("cache lock")
    }

    /// The live cached answer to `query`, if any. A version-invalidated
    /// entry is dropped (and counted) instead, so it can never be served or
    /// promoted over live entries. Must be called under the model read lock,
    /// so `stamp` cannot move between this lookup and a following insert.
    fn cached_answer(&self, query: &TopKQuery, stamp: u64) -> Option<Arc<[RankedEntity]>> {
        let mut cache = self.cache();
        let entry = cache.get(query)?;
        if entry.stamp == stamp {
            return Some(Arc::clone(&entry.answer));
        }
        cache.remove(query);
        if let Some(metrics) = self.inner.metrics.get() {
            metrics.stale_invalidations.inc();
        }
        None
    }

    /// Answer a top-k query without touching the cache, writing the ranked
    /// candidates into `out` (cleared first; `min(k, |E|)` entries, best
    /// first, ties broken towards the lower entity id). Rejects out-of-range
    /// ids with a typed [`QueryError`] — serving traffic is untrusted and
    /// must not be able to panic the scoring path.
    ///
    /// This is the allocation-free hot path: all intermediate state lives in
    /// `scratch` and `out`, both reused across calls.
    pub fn top_k_into(
        &self,
        query: &TopKQuery,
        scratch: &mut QueryScratch,
        out: &mut Vec<RankedEntity>,
    ) -> Result<(), QueryError> {
        let served = self.inner.served.read().expect("model lock");
        validate_ids(served.model.as_ref(), query.entity, query.relation)?;
        let scanned = select_top_k(&served, query, scratch);
        self.count_rescored(scanned, scratch);
        out.clear();
        out.extend(scratch.ranked(scanned));
        Ok(())
    }

    /// Add the rows a two-pass top-k rescored to the attached counter.
    fn count_rescored(&self, scanned: Scanned, scratch: &QueryScratch) {
        if let (Scanned::Refined, Some(metrics)) = (scanned, self.inner.metrics.get()) {
            metrics
                .scan_rescored_rows
                .add(scratch.mirror.refined.len() as u64);
        }
    }

    /// Answer a top-k query through the result cache: the lookup of
    /// [`Self::top_k_cached`] and, on a miss, the compute-and-insert of
    /// [`Self::top_k_miss`], under one hold of the model read lock. A warm
    /// hit is an `Arc` clone (no scoring, no allocation); a miss allocates
    /// once, for the shared answer. Out-of-range ids are rejected before the
    /// cache is touched.
    pub fn top_k(
        &self,
        query: &TopKQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Arc<[RankedEntity]>, QueryError> {
        // Hold the model read lock across lookup, compute and insert: the
        // stamp cannot move while we hold it (writers take the write lock),
        // so the entry we insert is provably stamped with the tables it was
        // computed from. Lock order is always model → cache.
        let served = self.inner.served.read().expect("model lock");
        validate_ids(served.model.as_ref(), query.entity, query.relation)?;
        let stamp = self.inner.stamp.load(Ordering::Acquire);
        if let Some(answer) = self.cached_answer(query, stamp) {
            return Ok(answer);
        }
        Ok(self.compute_and_cache(&served, stamp, query, scratch))
    }

    /// The lookup half of [`Self::top_k`]: the live cached answer to
    /// `query` (an `Arc` clone, no scoring work), or `Ok(None)` on a cold or
    /// version-invalidated key — the stale entry is dropped, exactly as
    /// [`Self::top_k`] would, but nothing is computed. The lookup counts in
    /// [`Self::cache_stats`] like any other, and the entry's stamp is checked
    /// under the model read lock, so a stale answer is never returned.
    /// Out-of-range ids are rejected first, like every other query path.
    ///
    /// The network front door looks every top-k request up through this on
    /// its connection thread, answers hits there, and hands only the misses
    /// to [`Self::top_k_miss`] on its worker pool; under cache-only
    /// degradation it is the only top-k path that runs.
    pub fn top_k_cached(
        &self,
        query: &TopKQuery,
    ) -> Result<Option<Arc<[RankedEntity]>>, QueryError> {
        let served = self.inner.served.read().expect("model lock");
        validate_ids(served.model.as_ref(), query.entity, query.relation)?;
        let stamp = self.inner.stamp.load(Ordering::Acquire);
        Ok(self.cached_answer(query, stamp))
    }

    /// The miss half of [`Self::top_k`], for a caller that has just missed
    /// in [`Self::top_k_cached`]: compute the answer, cache it under the
    /// current model stamp and return it, without a second lookup — so the
    /// request counts once in [`Self::cache_stats`]. If another caller
    /// cached the same key in between, the fresh answer replaces it; each
    /// was computed from the tables its stamp names. Out-of-range ids are
    /// rejected first.
    pub fn top_k_miss(
        &self,
        query: &TopKQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Arc<[RankedEntity]>, QueryError> {
        let served = self.inner.served.read().expect("model lock");
        validate_ids(served.model.as_ref(), query.entity, query.relation)?;
        let stamp = self.inner.stamp.load(Ordering::Acquire);
        Ok(self.compute_and_cache(&served, stamp, query, scratch))
    }

    /// Compute `query`'s answer and cache it under `stamp`. Must be called
    /// under the model read lock `stamp` was read under.
    fn compute_and_cache(
        &self,
        served: &Served,
        stamp: u64,
        query: &TopKQuery,
        scratch: &mut QueryScratch,
    ) -> Arc<[RankedEntity]> {
        // Miss path: the model scan dwarfs the clock reads, so this is the
        // one serve path that gets timed per call (the hit path stays
        // clock-free — see the telemetry module's overhead contract).
        let compute_started = self.inner.metrics.get().map(|_| Instant::now());
        let scanned = select_top_k(served, query, scratch);
        self.count_rescored(scanned, scratch);
        // One allocation, sized by what the kernel selected (`query.k` is an
        // untrusted wire value): the selection's exact length lets the `Arc`
        // be built in place from the scratch.
        let answer: Arc<[RankedEntity]> = scratch.ranked(scanned).collect();
        if let (Some(metrics), Some(started)) = (self.inner.metrics.get(), compute_started) {
            metrics.topk_compute_us.observe(started.elapsed());
        }
        self.cache().insert(
            *query,
            CachedAnswer {
                stamp,
                answer: Arc::clone(&answer),
            },
        );
        answer
    }

    /// The model score of one triple (larger = more plausible).
    pub fn score(&self, triple: &Triple) -> Result<f64, QueryError> {
        let served = self.inner.served.read().expect("model lock");
        score_triple(served.model.as_ref(), triple)
    }

    /// Triplet classification against a caller-tuned threshold.
    pub fn classify(&self, triple: &Triple, threshold: f64) -> Result<bool, QueryError> {
        Ok(self.score(triple)? >= threshold)
    }

    /// Competition rank (1-based, half-credit ties) of `triple` among all
    /// corruptions of `side`: the counts of one count-only [`rank_scan`] of
    /// the scored entities, or, for a mirrored model, the same counts from
    /// the scan mirror's two passes (see the module docs).
    pub fn rank(
        &self,
        triple: &Triple,
        side: CorruptionSide,
        scratch: &mut QueryScratch,
    ) -> Result<f64, QueryError> {
        let served = self.inner.served.read().expect("model lock");
        let model = served.model.as_ref();
        validate_triple(model, triple)?;
        if let Some((scan, rescored)) = served
            .mirror
            .as_ref()
            .and_then(|mirror| mirror.rank(model, triple, side, &mut scratch.mirror))
        {
            if let Some(metrics) = self.inner.metrics.get() {
                metrics.scan_rescored_rows.add(rescored as u64);
            }
            return Ok(scan.rank());
        }
        model.score_all_into(triple, side, &mut scratch.scores);
        let true_entity = triple.entity_at(side) as usize;
        Ok(rank_scan(&scratch.scores, scratch.scores[true_entity], true_entity).rank())
    }
}

/// Score the open slot of `query` and leave the indices of its top `k` in
/// `scratch.order`, best first, ties towards the lower index. Returns which
/// entities those indices point at; [`QueryScratch::ranked`] maps them.
///
/// A mirrored model runs the scan mirror's two passes, whose answer is the
/// exact scan's (see the module docs); the exact scan answers everything
/// else.
fn select_top_k(served: &Served, query: &TopKQuery, scratch: &mut QueryScratch) -> Scanned {
    let model = served.model.as_ref();
    let anchor = query.anchor();
    let k = query.k as usize;
    if let Some(mirror) = &served.mirror {
        if mirror.top_k(
            model,
            &anchor,
            query.direction,
            k,
            &mut scratch.mirror,
            &mut scratch.scores,
            &mut scratch.order,
        ) {
            return Scanned::Refined;
        }
    }
    model.score_all_into(&anchor, query.direction, &mut scratch.scores);
    top_k_indices_into(&scratch.scores, k, &mut scratch.order);
    Scanned::Vocabulary
}

/// Score one triple after validating its ids against the model.
fn score_triple(model: &dyn KgeModel, triple: &Triple) -> Result<f64, QueryError> {
    validate_triple(model, triple)?;
    Ok(model.score(triple))
}

/// The model stamp: load generation mixed with the sum of all table
/// versions. Any optimizer step or constraint application bumps at least one
/// table version (monotonically), and every reload bumps the generation, so
/// the stamp of a mutated or replaced model never equals a prior stamp.
fn stamp_of(model: &dyn KgeModel, generation: u64) -> u64 {
    let version_sum: u64 = model.tables().iter().map(|t| t.version()).sum();
    split_seed(generation, version_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{build_model, ModelConfig};
    use rand::Rng;

    fn server(kind: ModelKind, cache: usize) -> KnowledgeServer {
        let model = build_model(&ModelConfig::new(kind).with_dim(8).with_seed(5), 40, 6);
        KnowledgeServer::new(model, cache)
    }

    fn reference_top_k(server: &KnowledgeServer, query: &TopKQuery) -> Vec<RankedEntity> {
        // Naive oracle: score every candidate through the scalar path.
        let n = server.num_entities() as u32;
        let mut scored: Vec<RankedEntity> = (0..n)
            .map(|e| {
                let anchor = query.anchor();
                RankedEntity {
                    entity: e,
                    score: server.score(&anchor.corrupted(query.direction, e)).unwrap(),
                }
            })
            .collect();
        // Same total order as the production kernel: NaN-tolerant
        // descending score, ties toward the lower entity id.
        scored.sort_unstable_by(|a, b| {
            nscaching_math::cmp_desc(a.score, b.score).then(a.entity.cmp(&b.entity))
        });
        scored.truncate(query.k as usize);
        scored
    }

    #[test]
    fn top_k_matches_the_naive_oracle_for_every_model() {
        for kind in ModelKind::ALL {
            let server = server(kind, 0);
            let mut scratch = QueryScratch::default();
            let mut out = Vec::new();
            for query in [TopKQuery::tails(3, 1, 5), TopKQuery::heads(7, 2, 5)] {
                server.top_k_into(&query, &mut scratch, &mut out).unwrap();
                let oracle = reference_top_k(&server, &query);
                assert_eq!(out.len(), 5, "{kind:?}");
                for (got, want) in out.iter().zip(&oracle) {
                    assert_eq!(got.entity, want.entity, "{kind:?} {query:?}");
                    assert!(
                        (got.score - want.score).abs() <= 1e-12,
                        "{kind:?} {query:?}: {} vs {}",
                        got.score,
                        want.score
                    );
                }
            }
        }
    }

    #[test]
    fn k_larger_than_the_vocabulary_returns_everything() {
        let server = server(ModelKind::TransE, 0);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        server
            .top_k_into(&TopKQuery::tails(0, 0, 1000), &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), server.num_entities());
    }

    /// The full-sort oracle over the batched scores `select_top_k` sees.
    fn sort_oracle_top_k(server: &KnowledgeServer, query: &TopKQuery) -> Vec<RankedEntity> {
        let served = server.inner.served.read().expect("model lock");
        let model = served.model.as_ref();
        let mut scores = Vec::new();
        model.score_all_into(&query.anchor(), query.direction, &mut scores);
        let mut order = Vec::new();
        nscaching_math::top_k_indices_sort_into(&scores, query.k as usize, &mut order);
        order
            .iter()
            .map(|&i| RankedEntity {
                entity: i as EntityId,
                score: scores[i],
            })
            .collect()
    }

    #[test]
    fn a_wire_sized_k_is_answered_from_the_vocabulary() {
        // `k` arrives as an untrusted u32: sizing the answer by it would ask
        // for a 64 GiB allocation and abort the process.
        let server = server(ModelKind::TransE, 0);
        let queries = [
            TopKQuery::tails(3, 1, u32::MAX),
            TopKQuery::heads(7, 2, u32::MAX),
        ];
        let mut scratch = QueryScratch::default();
        for query in &queries {
            let answer = server.top_k(query, &mut scratch).unwrap();
            assert_eq!(answer.len(), server.num_entities(), "{query:?}");
            assert_eq!(&*answer, sort_oracle_top_k(&server, query).as_slice());
        }
    }

    #[test]
    fn cached_and_uncached_answers_agree() {
        let server = server(ModelKind::DistMult, 64);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let query = TopKQuery::tails(2, 3, 7);
        server.top_k_into(&query, &mut scratch, &mut out).unwrap();
        let cold = server.top_k(&query, &mut scratch).unwrap();
        let warm = server.top_k(&query, &mut scratch).unwrap();
        assert_eq!(&*cold, out.as_slice());
        assert!(Arc::ptr_eq(&cold, &warm), "warm hit shares the answer");
        let stats = server.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn model_updates_invalidate_cached_answers() {
        let server = server(ModelKind::TransE, 64);
        let mut scratch = QueryScratch::default();
        let query = TopKQuery::tails(1, 0, 4);
        let before = server.top_k(&query, &mut scratch).unwrap();
        let stamp_before = server.stamp();
        // Nudge one embedding row; the table version bump must retire the
        // cached answer even though the cache never saw the mutation.
        server.update_model(|model| {
            let mut rng = seeded_rng(9);
            for table in model.tables_mut() {
                let row = table.row_mut(0);
                for v in row {
                    *v += rng.gen::<f64>() * 0.5;
                }
            }
        });
        assert_ne!(server.stamp(), stamp_before);
        let after = server.top_k(&query, &mut scratch).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "stale answer was not served");
        assert_ne!(
            before.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
            after.iter().map(|r| r.score.to_bits()).collect::<Vec<_>>(),
            "recomputed answer reflects the mutated model"
        );
        assert_eq!(
            server.cache_stats().hits,
            1,
            "the stale probe counts as a hit then dies"
        );
    }

    #[test]
    fn rank_is_consistent_with_top_k() {
        let server = server(ModelKind::ComplEx, 0);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let query = TopKQuery::tails(4, 2, 1);
        server.top_k_into(&query, &mut scratch, &mut out).unwrap();
        let best = out[0].entity;
        let triple = Triple::new(4, 2, best);
        let rank = server
            .rank(&triple, CorruptionSide::Tail, &mut scratch)
            .unwrap();
        assert_eq!(rank, 1.0, "the top-1 entity must rank first");
    }

    #[test]
    fn classification_respects_the_threshold() {
        let server = server(ModelKind::TransE, 0);
        let triple = Triple::new(0, 0, 1);
        let score = server.score(&triple).unwrap();
        assert!(server.classify(&triple, score - 1.0).unwrap());
        assert!(!server.classify(&triple, score + 1.0).unwrap());
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_panics() {
        let server = server(ModelKind::TransE, 16);
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let n = server.num_entities() as u32;
        let r = server.num_relations() as u32;
        assert_eq!(
            server.top_k_into(&TopKQuery::tails(n, 0, 3), &mut scratch, &mut out),
            Err(QueryError::EntityOutOfRange {
                entity: n,
                num_entities: n as usize
            })
        );
        assert!(matches!(
            server.top_k(&TopKQuery::heads(0, r, 3), &mut scratch),
            Err(QueryError::RelationOutOfRange { .. })
        ));
        assert!(server.score(&Triple::new(0, 0, n)).is_err());
        assert!(server.classify(&Triple::new(n, 0, 0), 0.0).is_err());
        assert!(server
            .rank(&Triple::new(0, r, 1), CorruptionSide::Tail, &mut scratch)
            .is_err());
        assert_eq!(server.cache_len(), 0, "rejected queries are never cached");
    }

    #[test]
    fn cache_peek_serves_hits_and_never_stale_answers() {
        let server = server(ModelKind::TransE, 16);
        let mut scratch = QueryScratch::default();
        let query = TopKQuery::tails(2, 1, 4);
        assert_eq!(server.top_k_cached(&query), Ok(None), "cold key is a miss");
        let computed = server.top_k(&query, &mut scratch).unwrap();
        let peeked = server.top_k_cached(&query).unwrap().expect("warm hit");
        assert!(Arc::ptr_eq(&computed, &peeked), "peek shares the answer");
        server.update_model(|model| {
            model.tables_mut()[0].row_mut(0)[0] += 1.0;
        });
        assert_eq!(
            server.top_k_cached(&query),
            Ok(None),
            "a version-invalidated entry must not be served by the peek path"
        );
        let n = server.num_entities() as u32;
        assert!(server.top_k_cached(&TopKQuery::tails(n, 0, 1)).is_err());
    }

    #[test]
    fn the_lookup_and_miss_halves_answer_like_top_k_and_count_once() {
        let server = server(ModelKind::DistMult, 16);
        let mut scratch = QueryScratch::default();
        let mut expected = Vec::new();
        let query = TopKQuery::heads(5, 2, 6);
        assert_eq!(server.top_k_cached(&query), Ok(None));
        let computed = server.top_k_miss(&query, &mut scratch).unwrap();
        server
            .top_k_into(&query, &mut scratch, &mut expected)
            .unwrap();
        assert_eq!(&*computed, expected.as_slice());
        let peeked = server.top_k_cached(&query).unwrap().expect("miss cached");
        assert!(Arc::ptr_eq(&computed, &peeked), "the miss half cached it");
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "one lookup each");

        // After a model update the miss half caches under the new stamp.
        server.update_model(|model| {
            model.tables_mut()[0].row_mut(0)[0] += 1.0;
        });
        assert_eq!(server.top_k_cached(&query), Ok(None));
        let fresh = server.top_k_miss(&query, &mut scratch).unwrap();
        server
            .top_k_into(&query, &mut scratch, &mut expected)
            .unwrap();
        assert_eq!(&*fresh, expected.as_slice());
        let peeked = server.top_k_cached(&query).unwrap().expect("live again");
        assert!(Arc::ptr_eq(&fresh, &peeked));

        let n = server.num_entities() as u32;
        assert!(server
            .top_k_miss(&TopKQuery::tails(n, 0, 3), &mut scratch)
            .is_err());
        assert_eq!(server.cache_len(), 1, "rejected queries are never cached");
    }

    #[test]
    fn clones_share_the_model_and_cache() {
        let server = server(ModelKind::TransE, 16);
        let clone = server.clone();
        let mut scratch = QueryScratch::default();
        let query = TopKQuery::tails(0, 0, 3);
        let a = server.top_k(&query, &mut scratch).unwrap();
        let b = clone.top_k(&query, &mut scratch).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clone hits the shared cache");
        assert_eq!(clone.cache_stats().hits, 1);
    }

    #[test]
    fn the_scan_mirror_gauge_follows_the_served_model() {
        use nscaching_obs::MetricsRegistry;
        let gauge = |server: &KnowledgeServer, registry: &MetricsRegistry| {
            server.publish_metrics();
            registry.gauge_value("nsc_serve_scan_mirror_bytes", &[])
        };
        // TransE at d = 8 over 40 entities: 2·40·8 bytes.
        let registry = MetricsRegistry::new();
        let transe = server(ModelKind::TransE, 0);
        transe.attach_metrics(ServeMetrics::register(&registry));
        assert_eq!(transe.scan_mirror_bytes(), 2 * 40 * 8);
        assert_eq!(gauge(&transe, &registry), Some(640.0));

        // DistMult has no L1 form, so no mirror.
        let registry = MetricsRegistry::new();
        let distmult = server(ModelKind::DistMult, 0);
        distmult.attach_metrics(ServeMetrics::register(&registry));
        assert_eq!(gauge(&distmult, &registry), Some(0.0));

        // A reload swaps the mirror with the model, both ways.
        let dir = std::env::temp_dir().join("nscaching-serve-mirror-gauge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("transe-{}.snap", std::process::id()));
        let model = build_model(&ModelConfig::new(ModelKind::TransE).with_dim(16), 25, 3);
        crate::snapshot::save_model(&path, model.as_ref()).unwrap();
        distmult.reload(&path).unwrap();
        assert_eq!(gauge(&distmult, &registry), Some((2 * 25 * 16) as f64));
        let path_distmult = dir.join(format!("distmult-{}.snap", std::process::id()));
        let model = build_model(&ModelConfig::new(ModelKind::DistMult).with_dim(8), 30, 3);
        crate::snapshot::save_model(&path_distmult, model.as_ref()).unwrap();
        distmult.reload(&path_distmult).unwrap();
        assert_eq!(gauge(&distmult, &registry), Some(0.0));
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path_distmult);
    }
}
