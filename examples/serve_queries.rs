//! Serving: train a model, checkpoint it mid-run, resume it, persist the
//! final snapshot and answer online queries through `KnowledgeServer`.
//!
//! ```text
//! cargo run --release --example serve_queries
//! ```
//!
//! Demonstrates the full `nscaching_serve` surface:
//!
//! 1. `save_checkpoint` / `resume_trainer` — interrupt a training run and
//!    continue it bit-for-bit from disk;
//! 2. `save_model` → `KnowledgeServer::load` — the serving artifact;
//! 3. single top-k / rank / classification queries with reusable scratch;
//! 4. concurrent callers: threads share one server, each with its own
//!    `QueryScratch`;
//! 5. the version-invalidated answer cache: warm hits, then a model update
//!    retiring every cached answer.

use nscaching_suite::datagen::GeneratorConfig;
use nscaching_suite::kg::CorruptionSide;
use nscaching_suite::models::{build_model, ModelConfig, ModelKind};
use nscaching_suite::optim::OptimizerConfig;
use nscaching_suite::sampling::{build_sampler, SamplerConfig};
use nscaching_suite::serve::{
    load_checkpoint, resume_trainer, save_checkpoint, save_model, KnowledgeServer, QueryScratch,
    RankedEntity, TopKQuery,
};
use nscaching_suite::train::{TrainConfig, Trainer};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join("nscaching-serve-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let checkpoint_path = dir.join("training.ckpt");
    let snapshot_path = dir.join("model.snap");

    // 1. A synthetic graph and a training configuration.
    let mut generator = GeneratorConfig::small("serve-example");
    generator.num_entities = 400;
    generator.num_train = 4_000;
    generator.num_valid = 200;
    generator.num_test = 200;
    let dataset = nscaching_suite::datagen::generate(&generator).expect("dataset generation");
    println!("{}", dataset.summary());

    let build_config = || {
        TrainConfig::new(12)
            .with_batch_size(256)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_margin(3.0)
            .with_seed(42)
    };
    let build_sampler_fresh = || build_sampler(&SamplerConfig::Bernoulli, &dataset, 7);

    // 2. Train halfway, checkpoint, and "crash".
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(32)
            .with_seed(1),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    let mut trainer = Trainer::new(model, build_sampler_fresh(), &dataset, build_config());
    for _ in 0..6 {
        trainer.train_epoch();
    }
    save_checkpoint(&checkpoint_path, &trainer).expect("checkpoint");
    println!(
        "\ncheckpointed after {} epochs -> {}",
        trainer.epochs_done(),
        checkpoint_path.display()
    );
    drop(trainer); // the training process ends here

    // 3. Resume from disk alone and finish the budget. The resumed
    //    trajectory is bit-for-bit the uninterrupted one (see the
    //    `nscaching_serve` crate docs for the guarantee and its limits).
    let checkpoint = load_checkpoint(&checkpoint_path).expect("load checkpoint");
    let mut trainer = resume_trainer(checkpoint, build_sampler_fresh(), &dataset, build_config())
        .expect("resume");
    println!("resumed at epoch {}", trainer.epochs_done());
    let history = trainer.run();
    println!(
        "finished remaining {} epochs; final filtered MRR = {:.4}",
        history.epochs.len(),
        history.final_report.as_ref().expect("report").combined.mrr
    );

    // 4. Persist the serving artifact and load it into a server with a
    //    1024-entry query cache.
    save_model(&snapshot_path, trainer.model()).expect("save model snapshot");
    let server = KnowledgeServer::load(&snapshot_path, 1024).expect("load server");
    println!(
        "\nserving {:?} (|E| = {}, |R| = {}) from {}",
        server.kind(),
        server.num_entities(),
        server.num_relations(),
        snapshot_path.display()
    );

    // 5. Online queries. Scratch buffers are caller-owned and reused, so the
    //    steady state allocates nothing.
    let mut scratch = QueryScratch::default();
    let probe = dataset.test[0];
    let query = TopKQuery::tails(probe.head, probe.relation, 5);
    let answer = server.top_k(&query, &mut scratch).expect("valid query");
    println!("\ntop-5 tails for ({}, {}, ?):", probe.head, probe.relation);
    for ranked in answer.iter() {
        let marker = if ranked.entity == probe.tail {
            "  <- true tail"
        } else {
            ""
        };
        println!(
            "  entity {:4}  score {:8.3}{marker}",
            ranked.entity, ranked.score
        );
    }
    let rank = server
        .rank(&probe, CorruptionSide::Tail, &mut scratch)
        .expect("valid triple");
    println!("rank of the true tail among all corruptions: {rank}");
    let threshold = server.score(&probe).expect("valid triple") - 0.5;
    println!(
        "classify({probe}) at threshold {threshold:.3}: {}",
        server.classify(&probe, threshold).expect("valid triple")
    );

    // 6. Concurrent callers: threads share the server (and so its model and
    //    answer cache), each with its own scratch. Which thread computes a
    //    repeated key first depends on scheduling, so only the answers,
    //    never the cache counters, are printed.
    const THREADS: usize = 4;
    let queries: Vec<TopKQuery> = dataset
        .test
        .iter()
        .take(64)
        .map(|t| TopKQuery::tails(t.head, t.relation, 3))
        .collect();
    let answers: Vec<Arc<[RankedEntity]>> = std::thread::scope(|scope| {
        let callers: Vec<_> = queries
            .chunks(queries.len().div_ceil(THREADS))
            .map(|chunk| {
                let server = &server;
                scope.spawn(move || {
                    let mut scratch = QueryScratch::default();
                    chunk
                        .iter()
                        .map(|q| server.top_k(q, &mut scratch).expect("valid query"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|caller| caller.join().expect("query thread"))
            .collect()
    });
    let mut expected = Vec::new();
    let agree = queries.iter().zip(&answers).all(|(q, answer)| {
        server
            .top_k_into(q, &mut scratch, &mut expected)
            .expect("valid query");
        answer[..] == expected[..]
    });
    println!(
        "\nanswered {} queries from {THREADS} threads sharing one server; \
         every answer matches the single-threaded scan: {agree}",
        answers.len()
    );

    // 7. Repeat traffic is served from the answer cache; a model update
    //    invalidates it.
    let warm = server.top_k(&query, &mut scratch).expect("valid query");
    println!(
        "the repeated top-5 query is a cache hit: {}",
        Arc::ptr_eq(&answer, &warm)
    );
    server.update_model(|model| {
        // e.g. one online fine-tuning step; here just touch a row.
        model.tables_mut()[0].normalize_row(0);
    });
    let fresh = server.top_k(&query, &mut scratch).expect("valid query");
    println!(
        "after a model update the same query recomputes (cached answer reused: {}, \
         answer still has {} entries) — stale answers can never be served",
        Arc::ptr_eq(&warm, &fresh),
        fresh.len()
    );

    let scores: Vec<f64> = dataset
        .test
        .iter()
        .take(32)
        .map(|triple| server.score(triple).expect("valid triple"))
        .collect();
    println!(
        "bulk-scored {} triples for classification; first = {:.3}",
        scores.len(),
        scores[0]
    );
}
