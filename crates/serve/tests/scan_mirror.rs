//! Bit-identity of the scan mirror's two-pass scans.
//!
//! A served TransE model answers top-k and rank queries by scanning a 15-bit
//! fixed-point copy of its entity table and rescoring exactly only the rows
//! the copy's error bound cannot rule out. Every answer here is compared
//! with the model's own exact scan — `score_all_into` followed by
//! `top_k_indices_sort_into` or `rank_scan` on an identical model — never
//! with a second server, which would run the same mirror code. Entity ids,
//! their order and the score bits must all match.

use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::{rank_scan, seeded_rng, top_k_indices_sort_into};
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_obs::MetricsRegistry;
use nscaching_serve::{save_model, KnowledgeServer, QueryScratch, ServeMetrics, TopKQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::PathBuf;

const SIDES: [CorruptionSide; 2] = [CorruptionSide::Tail, CorruptionSide::Head];

/// A model of `kind` holding exactly `entities` and `relations` (row-major,
/// `dim` wide) in its first two tables.
fn model_with(
    kind: ModelKind,
    dim: usize,
    entities: &[f64],
    relations: &[f64],
) -> Box<dyn KgeModel> {
    let mut model = build_model(
        &ModelConfig::new(kind).with_dim(dim),
        entities.len() / dim,
        relations.len() / dim,
    );
    let mut tables = model.tables_mut();
    tables[0].data_mut().copy_from_slice(entities);
    tables[1].data_mut().copy_from_slice(relations);
    drop(tables);
    model
}

fn transe(dim: usize, entities: &[f64], relations: &[f64]) -> Box<dyn KgeModel> {
    model_with(ModelKind::TransE, dim, entities, relations)
}

/// `(entity, score bits)` pairs: what two answers must share.
fn bits(answer: impl IntoIterator<Item = (EntityId, f64)>) -> Vec<(EntityId, u64)> {
    answer.into_iter().map(|(e, s)| (e, s.to_bits())).collect()
}

/// The exact scan's top-k, from the model itself.
fn oracle_top_k(model: &dyn KgeModel, query: &TopKQuery) -> Vec<(EntityId, u64)> {
    let anchor = match query.direction {
        CorruptionSide::Tail => Triple::new(query.entity, query.relation, 0),
        CorruptionSide::Head => Triple::new(0, query.relation, query.entity),
    };
    let mut scores = Vec::new();
    model.score_all_into(&anchor, query.direction, &mut scores);
    let mut order = Vec::new();
    top_k_indices_sort_into(&scores, query.k as usize, &mut order);
    bits(order.iter().map(|&i| (i as EntityId, scores[i])))
}

/// The exact scan's rank, from the model itself.
fn oracle_rank(model: &dyn KgeModel, triple: &Triple, side: CorruptionSide) -> f64 {
    let mut scores = Vec::new();
    model.score_all_into(triple, side, &mut scores);
    let target = triple.entity_at(side) as usize;
    rank_scan(&scores, scores[target], target).rank()
}

fn served_top_k(
    server: &KnowledgeServer,
    query: &TopKQuery,
    scratch: &mut QueryScratch,
) -> Vec<(EntityId, u64)> {
    let mut out = Vec::new();
    server.top_k_into(query, scratch, &mut out).unwrap();
    bits(out.iter().map(|r| (r.entity, r.score)))
}

/// Assert that `server` answers every probe like `oracle`: top-k at every
/// listed `k` on both sides from a few anchors, and the rank of `triples`.
fn assert_answers_match(
    server: &KnowledgeServer,
    oracle: &dyn KgeModel,
    rng: &mut StdRng,
    triples: &[Triple],
) {
    let n = oracle.num_entities();
    let relations = oracle.num_relations() as u32;
    let mut scratch = QueryScratch::default();
    for k in [0, 1, 2, 10, n - 1, n, n + 3] {
        for direction in SIDES {
            let query = TopKQuery {
                relation: rng.gen_range(0..relations),
                entity: rng.gen_range(0..n as u32),
                direction,
                k: k as u32,
            };
            assert_eq!(
                served_top_k(server, &query, &mut scratch),
                oracle_top_k(oracle, &query),
                "{query:?}"
            );
        }
    }
    for triple in triples {
        for side in SIDES {
            let got = server.rank(triple, side, &mut scratch).unwrap();
            let want = oracle_rank(oracle, triple, side);
            assert_eq!(got.to_bits(), want.to_bits(), "{triple:?} {side:?}");
        }
    }
}

/// Random rows at `scale` with planted near-ties: exact duplicates, copies
/// perturbed by 1e-13 to 1e-5 relative, and copies whose `f32` roundings
/// collide with the original's while their `f64` values differ.
fn near_tie_table(rng: &mut StdRng, rows: usize, dim: usize, scale: f64) -> Vec<f64> {
    let mut data: Vec<f64> = (0..rows * dim)
        .map(|_| (rng.gen::<f64>() - 0.5) * scale)
        .collect();
    for _ in 0..rows / 2 {
        let from = rng.gen_range(0..rows);
        let to = rng.gen_range(0..rows);
        let kind = rng.gen_range(0..3);
        let relative = 10f64.powf(-rng.gen_range(5.0..13.0));
        for i in 0..dim {
            let v = data[from * dim + i];
            data[to * dim + i] = match kind {
                0 => v,
                1 => v * (1.0 + relative * if rng.gen::<bool>() { 1.0 } else { -1.0 }),
                // Below half an f32 ulp: the f32 rounding stays put.
                _ => v + v * 2f64.powi(-30) * rng.gen::<f64>(),
            };
        }
    }
    data
}

/// Plant the grid's edge cases into `data`, keeping its `[lo, hi]`: rows
/// whose grid values collide with another row's while their `f64` values
/// differ (under half a grid step apart), rows exactly one grid step from
/// another, and coordinates equal to `lo` or `hi`.
fn plant_grid_cases(rng: &mut StdRng, data: &mut [f64], dim: usize) {
    let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let step = (hi - lo) / 32_767.0;
    let rows = data.len() / dim;
    for _ in 0..rows / 3 {
        let from = rng.gen_range(0..rows);
        let to = rng.gen_range(0..rows);
        let kind = rng.gen_range(0..3);
        for i in 0..dim {
            let v = data[from * dim + i];
            data[to * dim + i] = match kind {
                0 => v + step * 0.45 * (rng.gen::<f64>() - 0.5),
                1 => v + if rng.gen::<bool>() { step } else { -step },
                _ if rng.gen::<bool>() => lo,
                _ => hi,
            }
            .clamp(lo, hi);
        }
    }
}

/// Triples to rank: random ones, and ones whose target is a planted twin.
fn rank_probes(rng: &mut StdRng, entities: &[f64], dim: usize, relations: usize) -> Vec<Triple> {
    let n = entities.len() / dim;
    let mut triples: Vec<Triple> = (0..6)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..n as u32),
                rng.gen_range(0..relations as u32),
                rng.gen_range(0..n as u32),
            )
        })
        .collect();
    for a in 0..n {
        for b in a + 1..n {
            if entities[a * dim..(a + 1) * dim] == entities[b * dim..(b + 1) * dim] {
                let r = rng.gen_range(0..relations as u32);
                triples.push(Triple::new(a as u32, r, b as u32));
                triples.push(Triple::new(b as u32, r, a as u32));
                if triples.len() > 16 {
                    return triples;
                }
            }
        }
    }
    triples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn near_ties_answer_like_the_exact_scan(seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let dim = [1usize, 5, 8, 16, 23, 64, 65][rng.gen_range(0..7usize)];
        let n = rng.gen_range(12..160);
        let relations = rng.gen_range(1..4);
        let scale = 10f64.powi(rng.gen_range(-3..4));
        let mut entities = near_tie_table(&mut rng, n, dim, scale);
        plant_grid_cases(&mut rng, &mut entities, dim);
        // Relation rows up to 4x the entity scale put query coordinates
        // outside [lo, hi], exercising the clamped-away constant.
        let relation_scale = scale * [1.0, 4.0][rng.gen_range(0..2usize)];
        let relation_rows = near_tie_table(&mut rng, relations, dim, relation_scale);
        let server = KnowledgeServer::new(transe(dim, &entities, &relation_rows), 0);
        prop_assert_eq!(server.scan_mirror_bytes(), (2 * n * dim) as u64);
        let oracle = transe(dim, &entities, &relation_rows);
        let triples = rank_probes(&mut rng, &entities, dim, relations);
        assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
    }
}

#[test]
fn a_dense_near_tie_block_keeps_the_full_scans_order() {
    // Every row is a perturbation of one row, at every relative distance
    // from far inside f32 resolution to far outside it, so the approximate
    // order is nearly meaningless and the exact pass decides everything.
    let mut rng = seeded_rng(3);
    let dim = 64;
    let base: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mut entities = Vec::new();
    for i in 0..400 {
        let relative = 10f64.powf(-13.0 + 8.0 * (i % 40) as f64 / 40.0);
        entities.extend(
            base.iter()
                .map(|v| v * (1.0 + relative * (rng.gen::<f64>() - 0.5))),
        );
    }
    let relations: Vec<f64> = (0..2 * dim)
        .map(|_| (rng.gen::<f64>() - 0.5) * 1e-3)
        .collect();
    let server = KnowledgeServer::new(transe(dim, &entities, &relations), 0);
    assert!(server.scan_mirror_bytes() > 0);
    let oracle = transe(dim, &entities, &relations);
    let triples: Vec<Triple> = (0..20).map(|i| Triple::new(i * 7, i % 2, i * 11)).collect();
    assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
}

#[test]
fn tables_outside_the_bound_take_the_exact_scan() {
    let dim = 8;
    let n = 30;
    let mut rng = seeded_rng(11);
    let clean: Vec<f64> = (0..n * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let relations: Vec<f64> = (0..3 * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let triples = [
        Triple::new(5, 0, 1),
        Triple::new(2, 1, 5),
        Triple::new(3, 2, 4),
    ];
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut entities = clean.clone();
        entities[5 * dim + 3] = bad;
        let server = KnowledgeServer::new(transe(dim, &entities, &relations), 0);
        assert_eq!(server.scan_mirror_bytes(), 0, "{bad}: no mirror");
        let oracle = transe(dim, &entities, &relations);
        assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
    }
    // A constant table spans no grid.
    let constant = vec![0.125; n * dim];
    let server = KnowledgeServer::new(transe(dim, &constant, &relations), 0);
    assert_eq!(server.scan_mirror_bytes(), 0, "constant: no mirror");
    assert_answers_match(
        &server,
        transe(dim, &constant, &relations).as_ref(),
        &mut rng,
        &triples,
    );
    // A relation row outside the bound's domain leaves the mirror in place,
    // but every query through that relation has a non-finite query vector,
    // or one whose bound no slack can hold, and scans exactly. At 1e14 the
    // two passes run with a clamped-away constant so large that the exact
    // kernel's own rounding spans many grid steps, and the bound grows
    // with it.
    for bad in [f64::NAN, f64::INFINITY, 1e300, 1e14] {
        let mut bad_relations = relations.clone();
        bad_relations[dim + 2] = bad;
        let server = KnowledgeServer::new(transe(dim, &clean, &bad_relations), 0);
        assert_eq!(server.scan_mirror_bytes(), (2 * n * dim) as u64);
        let oracle = transe(dim, &clean, &bad_relations);
        let mut scratch = QueryScratch::default();
        for k in [1, 3, 29] {
            for query in [TopKQuery::tails(4, 1, k), TopKQuery::heads(9, 1, k)] {
                assert_eq!(
                    served_top_k(&server, &query, &mut scratch),
                    oracle_top_k(oracle.as_ref(), &query),
                    "{bad}: {query:?}"
                );
            }
        }
        for side in SIDES {
            let triple = Triple::new(4, 1, 7);
            let got = server.rank(&triple, side, &mut scratch).unwrap();
            assert_eq!(
                got.to_bits(),
                oracle_rank(oracle.as_ref(), &triple, side).to_bits()
            );
        }
    }
}

#[test]
fn the_mirror_follows_update_model() {
    let dim = 16;
    let n = 120;
    let mut rng = seeded_rng(5);
    let entities: Vec<f64> = (0..n * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let relations: Vec<f64> = (0..4 * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let server = KnowledgeServer::new(transe(dim, &entities, &relations), 16);
    let mut oracle = transe(dim, &entities, &relations);
    let triples: Vec<Triple> = (0..8).map(|i| Triple::new(i, i % 4, i + 50)).collect();
    assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);

    for round in 0..3 {
        // Overwrite every entity row with fresh values: a stale mirror
        // would pick its refine set from the old table.
        let fresh: Vec<f64> = (0..n * dim)
            .map(|_| (rng.gen::<f64>() - 0.5) * (round + 1) as f64)
            .collect();
        server.update_model(|model| model.tables_mut()[0].data_mut().copy_from_slice(&fresh));
        oracle.tables_mut()[0].data_mut().copy_from_slice(&fresh);
        assert_eq!(server.scan_mirror_bytes(), (2 * n * dim) as u64);
        assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
        // The cached path computes through the same two passes.
        let mut scratch = QueryScratch::default();
        let query = TopKQuery::tails(3, 1, 10);
        let cached = server.top_k(&query, &mut scratch).unwrap();
        assert_eq!(
            bits(cached.iter().map(|r| (r.entity, r.score))),
            oracle_top_k(oracle.as_ref(), &query)
        );
    }

    // An update that leaves a non-finite value drops the mirror; one that
    // repairs it brings the mirror back.
    server.update_model(|model| model.tables_mut()[0].row_mut(7)[0] = f64::NAN);
    oracle.tables_mut()[0].row_mut(7)[0] = f64::NAN;
    assert_eq!(server.scan_mirror_bytes(), 0);
    assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
    server.update_model(|model| model.tables_mut()[0].row_mut(7)[0] = 0.25);
    oracle.tables_mut()[0].row_mut(7)[0] = 0.25;
    assert_eq!(server.scan_mirror_bytes(), (2 * n * dim) as u64);
    assert_answers_match(&server, oracle.as_ref(), &mut rng, &triples);
}

fn snapshot_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nscaching-scan-mirror");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.snap", std::process::id()))
}

#[test]
fn the_mirror_follows_reload() {
    let mut rng = seeded_rng(9);
    let mut table = |rows: usize, dim: usize| -> Vec<f64> {
        (0..rows * dim).map(|_| rng.gen::<f64>() - 0.5).collect()
    };
    // Two TransE files of different shapes, and a DistMult one.
    let a = (table(90, 8), table(3, 8));
    let b = (table(140, 24), table(5, 24));
    let c = (table(60, 8), table(2, 8));
    let path_a = snapshot_path("a");
    let path_b = snapshot_path("b");
    let path_c = snapshot_path("c");
    save_model(&path_a, transe(8, &a.0, &a.1).as_ref()).unwrap();
    save_model(&path_b, transe(24, &b.0, &b.1).as_ref()).unwrap();
    save_model(
        &path_c,
        model_with(ModelKind::DistMult, 8, &c.0, &c.1).as_ref(),
    )
    .unwrap();

    let mut rng = seeded_rng(10);
    let server = KnowledgeServer::load(&path_a, 8).unwrap();
    assert_eq!(server.scan_mirror_bytes(), 2 * 90 * 8);
    let probes = [Triple::new(1, 0, 2), Triple::new(4, 1, 3)];
    assert_answers_match(&server, transe(8, &a.0, &a.1).as_ref(), &mut rng, &probes);

    server.reload(&path_b).unwrap();
    assert_eq!(server.scan_mirror_bytes(), 2 * 140 * 24);
    assert_answers_match(&server, transe(24, &b.0, &b.1).as_ref(), &mut rng, &probes);

    server.reload(&path_c).unwrap();
    assert_eq!(server.scan_mirror_bytes(), 0, "DistMult has no mirror");
    let distmult = model_with(ModelKind::DistMult, 8, &c.0, &c.1);
    assert_answers_match(&server, distmult.as_ref(), &mut rng, &probes);

    server.reload(&path_a).unwrap();
    assert_eq!(server.scan_mirror_bytes(), 2 * 90 * 8);
    assert_answers_match(&server, transe(8, &a.0, &a.1).as_ref(), &mut rng, &probes);
    for path in [path_a, path_b, path_c] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_huge_outlier_widens_the_grid_and_only_grows_the_refine_set() {
    let dim = 16;
    let n = 200;
    let mut rng = seeded_rng(13);
    let entities: Vec<f64> = (0..n * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let relations: Vec<f64> = (0..3 * dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let triples: Vec<Triple> = (0..10).map(|i| Triple::new(i * 3, i % 3, i * 7)).collect();
    let rescored = |entities: &[f64]| -> u64 {
        let registry = MetricsRegistry::new();
        let server = KnowledgeServer::new(transe(dim, entities, &relations), 0);
        server.attach_metrics(ServeMetrics::register(&registry));
        assert_eq!(server.scan_mirror_bytes(), (2 * n * dim) as u64);
        let oracle = transe(dim, entities, &relations);
        assert_answers_match(&server, oracle.as_ref(), &mut seeded_rng(14), &triples);
        registry
            .counter_value("nsc_serve_scan_rescored_rows_total", &[])
            .expect("registered")
    };
    let narrow = rescored(&entities);
    for outlier in [1e6, -1e300, 1e300] {
        let mut wide = entities.clone();
        wide[17 * dim + 5] = outlier;
        let grown = rescored(&wide);
        assert!(
            grown > narrow,
            "{outlier}: {grown} rows rescored, {narrow} without"
        );
    }
}
