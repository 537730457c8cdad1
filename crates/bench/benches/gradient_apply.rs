//! Criterion bench: batched gradient-cycle throughput of the slab-backed
//! `GradientArena` engine vs the retired `HashMap` engine.
//!
//! Run with `cargo bench -p nscaching-bench --bench gradient_apply`.
//!
//! The measured unit is one **batch gradient cycle** — the per-mini-batch
//! gradient work of the sharded trainer (Algorithm 2's steps 9–10 plus the
//! Figure 10 instrumentation), with the model-side scoring/emission math and
//! the constraint projection excluded because they are engine-independent:
//!
//! 1. accumulate the batch's sparse row gradients into 4 per-shard sinks
//!    (TransE-shaped emission: head/relation/tail per example),
//! 2. merge the shards into the batch sink in ascending shard order,
//! 3. take the gradient norm (`record_batch_gradient`),
//! 4. apply one Adam step.
//!
//! Workload: d = 128, 512 examples per batch touching 1024 distinct entity
//! rows + 64 relation rows. The Adam-cycle speedup is recorded into
//! `BENCH_gradients.json` at the workspace root and gated
//! (`NSC_GRAD_APPLY_MIN`, ≥ 2× locally; CI relaxes it on shared runners like
//! the other bench gates). The engines differ in the accumulate/merge
//! plumbing (per-row heap churn + SipHash on every add vs slab writes) and
//! in Adam's per-row state (dense moment slabs walked in sorted row order vs
//! a `HashMap` lookup plus two scattered `Vec`s per row).
//!
//! The bench also asserts the tentpole's allocation contract: after warm-up,
//! a steady-state arena cycle performs **zero heap allocations** (counted by
//! a wrapping global allocator) — and, as a sanity check, that both engines
//! land on bit-identical model parameters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nscaching_models::{
    build_model, GradientArena, GradientBuffer, GradientSink, KgeModel, ModelConfig, ModelKind,
    TableId,
};
use nscaching_optim::Adam;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Reference Adam row state: first moments, second moments, step count.
type AdamRowState = (Vec<f64>, Vec<f64>, u64);

struct CountingAllocator;

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIM: usize = 128;
const EXAMPLES: usize = 512;
const ENTITIES: usize = 2 * EXAMPLES; // every example touches 2 fresh rows
const RELATIONS: usize = 64;
const SHARDS: usize = 4;

const ENTITY_TABLE: TableId = 0;
const RELATION_TABLE: TableId = 1;

/// One batch's sparse emission, precomputed so the measured cycle is pure
/// gradient plumbing (the trainer's model-side emission math costs the same
/// under either engine and is measured by the training benches).
struct Workload {
    /// Per-example gradient direction, `DIM` values each.
    values: Vec<Vec<f64>>,
}

impl Workload {
    fn new() -> Self {
        // Deterministic pseudo-random directions in (-1, 1); no RNG crate
        // needed for a fixed workload.
        let values = (0..EXAMPLES)
            .map(|i| {
                (0..DIM)
                    .map(|j| ((i * 31 + j * 17 + 5) % 97) as f64 / 48.5 - 1.0)
                    .collect()
            })
            .collect();
        Self { values }
    }

    /// TransE-shaped emission — `(−v, −v, +v)` on (head, relation, tail) —
    /// for the examples of one shard (round-robin split, like a ragged batch
    /// partition).
    fn emit_shard(&self, sink: &mut dyn GradientSink, shard: usize) {
        let mut i = shard;
        while i < EXAMPLES {
            let v = &self.values[i];
            sink.add(ENTITY_TABLE, 2 * i, v, -1.0);
            sink.add(RELATION_TABLE, i % RELATIONS, v, -1.0);
            sink.add(ENTITY_TABLE, 2 * i + 1, v, 1.0);
            i += SHARDS;
        }
    }

    fn touched_rows(&self) -> usize {
        ENTITIES + RELATIONS
    }
}

fn model() -> Box<dyn KgeModel> {
    build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(3),
        ENTITIES,
        RELATIONS,
    )
}

/// The retired `HashMap`-engine lazy Adam over `GradientBuffer`, verbatim
/// — the bench baseline.
#[derive(Default)]
struct HashMapAdam {
    state: HashMap<(TableId, usize), AdamRowState>,
}

impl HashMapAdam {
    fn step(&mut self, model: &mut dyn KgeModel, grads: &GradientBuffer) -> Vec<(TableId, usize)> {
        let lr = 0.01;
        let mut tables = model.tables_mut();
        let mut touched = Vec::with_capacity(grads.len());
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        for (&(table, row), grad) in grads.iter() {
            let (m, v, t) = self
                .state
                .entry((table, row))
                .or_insert_with(|| (vec![0.0; grad.len()], vec![0.0; grad.len()], 0));
            *t += 1;
            let bias1 = 1.0 - b1.powi(*t as i32);
            let bias2 = 1.0 - b2.powi(*t as i32);
            let params = tables[table].row_mut(row);
            for i in 0..grad.len() {
                let g = grad[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                params[i] -= lr * (m[i] / bias1) / ((v[i] / bias2).sqrt() + eps);
            }
            touched.push((table, row));
        }
        touched
    }
}

/// Reused buffers of one `HashMap`-engine pipeline.
#[derive(Default)]
struct HashMapPipeline {
    shards: [GradientBuffer; SHARDS],
    merged: GradientBuffer,
    opt: HashMapAdam,
}

impl HashMapPipeline {
    /// One batch gradient cycle on the retired engine: per-shard accumulate,
    /// ascending-shard-order merge, norm, optimizer step. Returns the touched
    /// rows (consumed by the constraints stage outside the timed cycle).
    fn cycle(&mut self, workload: &Workload, model: &mut dyn KgeModel) -> Vec<(TableId, usize)> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.clear();
            workload.emit_shard(shard, s);
        }
        self.merged.clear();
        for shard in &self.shards {
            self.merged.merge(shard);
        }
        black_box(self.merged.norm());
        self.opt.step(model, &self.merged)
    }
}

/// Reused buffers of one arena-engine pipeline.
struct ArenaPipeline {
    shards: Vec<GradientArena>,
    merged: GradientArena,
    opt: Adam,
}

impl ArenaPipeline {
    /// A pipeline whose Adam is bound to `model`.
    fn new(model: &dyn KgeModel) -> Self {
        let mut opt = Adam::new(0.01);
        opt.bind(model);
        Self {
            shards: (0..SHARDS).map(|_| GradientArena::new()).collect(),
            merged: GradientArena::new(),
            opt,
        }
    }

    /// One batch gradient cycle on the arena engine (same stages).
    fn cycle(&mut self, workload: &Workload, model: &mut dyn KgeModel) {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.clear();
            workload.emit_shard(shard, s);
        }
        self.merged.clear();
        for shard in self.shards.iter_mut() {
            self.merged.merge(shard);
        }
        black_box(self.merged.norm());
        self.opt.step(model, &mut self.merged);
    }
}

/// Best-of-`samples` seconds per cycle over `rounds`-cycle batches, after one
/// warm-up cycle (high-water marks, optimizer state, map capacities).
fn best_seconds(samples: usize, rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best / rounds as f64
}

fn bench_cycles(c: &mut Criterion) {
    let workload = Workload::new();
    let mut group = c.benchmark_group("gradient_cycle");
    group.sample_size(20);

    {
        let mut m = model();
        let mut pipe = HashMapPipeline::default();
        group.bench_function(BenchmarkId::from_parameter("adam_hashmap"), |b| {
            b.iter(|| pipe.cycle(&workload, black_box(m.as_mut())))
        });
    }
    {
        let mut m = model();
        let mut pipe = ArenaPipeline::new(m.as_ref());
        group.bench_function(BenchmarkId::from_parameter("adam_arena"), |b| {
            b.iter(|| pipe.cycle(&workload, black_box(m.as_mut())))
        });
    }
    group.finish();
}

/// The acceptance gates: Adam-cycle speedup ≥ `NSC_GRAD_APPLY_MIN`, zero
/// steady-state allocations, bit-identical results. Records
/// `BENCH_gradients.json`.
fn assert_gradient_apply(_c: &mut Criterion) {
    let workload = Workload::new();
    let (samples, rounds) = (7, 40);

    // --- Engine equivalence sanity: same workload (constraints included,
    //     like the trainer), bit-identical tables after several cycles.
    {
        let mut arena_model = model();
        let mut hashmap_model = model();
        let mut arena_pipe = ArenaPipeline::new(arena_model.as_ref());
        let mut hashmap_pipe = HashMapPipeline::default();
        for _ in 0..3 {
            arena_pipe.cycle(&workload, arena_model.as_mut());
            arena_model.apply_constraints(arena_pipe.merged.touched());
            let touched = hashmap_pipe.cycle(&workload, hashmap_model.as_mut());
            hashmap_model.apply_constraints(&touched);
        }
        for (a, b) in arena_model.tables().iter().zip(hashmap_model.tables()) {
            assert!(
                a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "engines diverged on table {}",
                a.name()
            );
        }
    }

    // --- Steady-state allocation count of the arena cycle (plus the
    //     constraints stage, which reads the arena's touched list).
    let allocations = {
        let mut m = model();
        let mut pipe = ArenaPipeline::new(m.as_ref());
        for _ in 0..3 {
            pipe.cycle(&workload, m.as_mut());
            m.apply_constraints(pipe.merged.touched());
        }
        let before = ALLOCATION_COUNT.load(Ordering::Relaxed);
        for _ in 0..10 {
            pipe.cycle(&workload, m.as_mut());
            m.apply_constraints(pipe.merged.touched());
        }
        ALLOCATION_COUNT.load(Ordering::Relaxed) - before
    };

    // --- Timed cycles.
    let secs_adam_hashmap = {
        let mut m = model();
        let mut pipe = HashMapPipeline::default();
        best_seconds(samples, rounds, || {
            black_box(pipe.cycle(&workload, m.as_mut()));
        })
    };
    let secs_adam_arena = {
        let mut m = model();
        let mut pipe = ArenaPipeline::new(m.as_ref());
        best_seconds(samples, rounds, || pipe.cycle(&workload, m.as_mut()))
    };

    let speedup_adam = secs_adam_hashmap / secs_adam_arena;
    let min_speedup: f64 = std::env::var("NSC_GRAD_APPLY_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    println!(
        "gradient_apply d={DIM} examples={EXAMPLES} touched_rows={} shards={SHARDS}: \
         adam {:.1} µs (hashmap) vs {:.1} µs (arena) = {speedup_adam:.2}x (min {min_speedup}x); \
         steady-state arena allocations over 10 cycles: {allocations}",
        workload.touched_rows(),
        secs_adam_hashmap * 1e6,
        secs_adam_arena * 1e6,
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"dim\": {DIM},\n    \"examples_per_batch\": {EXAMPLES},\n    \"touched_rows\": {},\n    \"entity_rows\": {ENTITIES},\n    \"relation_rows\": {RELATIONS},\n    \"shards\": {SHARDS},\n    \"emission\": \"TransE-shaped: (-v, -v, +v) on (head, relation, tail)\"\n  }},\n  \"cycle\": \"per-shard accumulate -> ascending-shard merge -> norm -> Adam step\",\n  \"cycle_micros\": {{\n    \"adam_hashmap\": {:.3},\n    \"adam_arena\": {:.3}\n  }},\n  \"speedup_adam_cycle\": {speedup_adam:.3},\n  \"min_required_speedup\": {min_speedup},\n  \"steady_state_allocations_per_10_cycles\": {allocations},\n  \"note\": \"the Adam cycle (the paper's optimizer) carries the NSC_GRAD_APPLY_MIN gate; the engines differ in gradient plumbing (per-row heap churn + SipHash vs slab writes) and optimizer-state access (HashMap lookup + two scattered Vecs per row vs dense slabs walked in sorted row order); model emission math and constraint projection are engine-independent and excluded\"\n}}",
        workload.touched_rows(),
        secs_adam_hashmap * 1e6,
        secs_adam_arena * 1e6,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gradients.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "gradients", "gradient_apply", &section)
    {
        eprintln!("could not record BENCH_gradients.json at {path:?}: {e}");
    }

    assert_eq!(
        allocations, 0,
        "steady-state arena cycles must not allocate (clear→accumulate→merge→apply)"
    );
    assert!(
        speedup_adam >= min_speedup,
        "batched Adam gradient cycle must be ≥{min_speedup}x the HashMap engine \
         (got {speedup_adam:.2}x; override with NSC_GRAD_APPLY_MIN)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = assert_gradient_apply, bench_cycles
}
criterion_main!(benches);
