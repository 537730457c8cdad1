//! Where each request is answered. The connection thread answers every
//! request that needs no full-vocabulary scan — cached top-k and `Score` —
//! and only top-k misses and `Rank` go to the worker queues. These tests pin
//! that split from the outside:
//!
//! * **nothing inline ever queues** — with `queue_deadline` zero, anything
//!   that reaches a worker comes back `DeadlineExceeded` without running, so
//!   a request that comes back answered never touched a queue;
//! * **the ladder does not change** — each degradation level (pinned through
//!   the thresholds) serves exactly the answers it served before the split,
//!   with the same degradation byte;
//! * **one lookup per request** — a top-k miss is looked up once on the
//!   connection thread and computed without a second lookup on a worker, so
//!   the cache counters read one lookup per request.

use nscaching_kg::{CorruptionSide, Triple};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_net::client::{ClientConfig, ClientError, NetClient, Reply};
use nscaching_net::server::{NetServer, NetServerConfig};
use nscaching_net::wire::{Answer, ErrorCode, Request};
use nscaching_serve::{KnowledgeServer, QueryScratch, TopKQuery};
use std::time::Duration;

const CLAMP: u32 = 3;

fn engine() -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(16)
            .with_seed(19),
        80,
        6,
    );
    KnowledgeServer::new(model, 64)
}

fn config() -> NetServerConfig {
    NetServerConfig {
        workers: 2,
        queue_depth: 8,
        poll_interval: Duration::from_millis(5),
        degraded_k_clamp: CLAMP,
        ..NetServerConfig::default()
    }
}

/// A client that never retries, so every typed error reaches the test.
fn client(server: &NetServer) -> NetClient {
    NetClient::new(
        server.addr(),
        ClientConfig {
            max_attempts: 1,
            read_timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        },
    )
}

fn score_request() -> Request {
    Request::Score {
        head: 4,
        relation: 2,
        tail: 9,
    }
}

fn rank_request() -> Request {
    Request::Rank {
        head: 4,
        relation: 2,
        tail: 9,
        side: CorruptionSide::Tail,
    }
}

/// The uncached answer to `query`.
fn expected_top_k(
    engine: &KnowledgeServer,
    query: &TopKQuery,
) -> Vec<nscaching_serve::RankedEntity> {
    let mut out = Vec::new();
    engine
        .top_k_into(query, &mut QueryScratch::default(), &mut out)
        .unwrap();
    out
}

fn top_k_answer(reply: Reply) -> (u8, Vec<nscaching_serve::RankedEntity>) {
    match reply.answer {
        Answer::TopK(ranked) => (reply.degradation, ranked),
        other => panic!("expected a top-k answer, got {other:?}"),
    }
}

fn error_code(outcome: Result<Reply, ClientError>) -> (ErrorCode, u8) {
    match outcome {
        Err(ClientError::Server {
            code, degradation, ..
        }) => (code, degradation),
        other => panic!("expected a typed server error, got {other:?}"),
    }
}

#[test]
fn cached_top_k_and_score_are_answered_without_queueing() {
    let engine = engine();
    let server = NetServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        NetServerConfig {
            queue_deadline: Duration::ZERO,
            ..config()
        },
    )
    .unwrap();
    let mut client = client(&server);

    // Warmed in process through the shared engine: the server sees a hit.
    let warm = TopKQuery::tails(5, 1, 6);
    engine.top_k(&warm, &mut QueryScratch::default()).unwrap();
    let (degradation, answer) = top_k_answer(client.call(&Request::TopK(warm)).unwrap());
    assert_eq!(degradation, 0);
    assert_eq!(answer, expected_top_k(&engine, &warm));

    let score = client.call(&score_request()).unwrap();
    assert_eq!(
        score.answer,
        Answer::Score(engine.score(&Triple::new(4, 2, 9)).unwrap())
    );

    // An out-of-range id is a typed error from the lookup, also inline.
    let invalid = client.call(&Request::TopK(TopKQuery::tails(9_999, 1, 6)));
    assert_eq!(error_code(invalid), (ErrorCode::EntityOutOfRange, 0));

    // The scans are queued, and a zero queue deadline drops them unrun.
    let cold = client.call(&Request::TopK(TopKQuery::tails(6, 1, 6)));
    assert_eq!(error_code(cold), (ErrorCode::DeadlineExceeded, 0));
    assert_eq!(
        error_code(client.call(&rank_request())),
        (ErrorCode::DeadlineExceeded, 0)
    );

    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 2, "{stats:?}");
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn level_one_serves_the_clamped_key_from_the_cache_when_warm() {
    let engine = engine();
    let server = NetServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        NetServerConfig {
            clamp_threshold: 0.0,
            ..config()
        },
    )
    .unwrap();
    assert_eq!(server.degradation_level(), 1);
    let mut client = client(&server);

    // A cold key is clamped, computed and cached under the clamped key.
    let cold = TopKQuery::tails(7, 3, 10);
    let clamped = TopKQuery { k: CLAMP, ..cold };
    let (degradation, answer) = top_k_answer(client.call(&Request::TopK(cold)).unwrap());
    assert_eq!(degradation, 1);
    assert_eq!(answer, expected_top_k(&engine, &clamped));
    assert!(engine.top_k_cached(&clamped).unwrap().is_some());
    assert_eq!(engine.top_k_cached(&cold).unwrap(), None);

    // A warm clamped key is a cache hit: no miss is added.
    let warm = TopKQuery::heads(11, 2, 10);
    let warm_clamped = TopKQuery { k: CLAMP, ..warm };
    engine
        .top_k(&warm_clamped, &mut QueryScratch::default())
        .unwrap();
    let before = engine.cache_stats();
    let (degradation, answer) = top_k_answer(client.call(&Request::TopK(warm)).unwrap());
    assert_eq!(degradation, 1);
    assert_eq!(answer, expected_top_k(&engine, &warm_clamped));
    let after = engine.cache_stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0)
    );

    // Score and rank are still served at level 1.
    assert_eq!(client.call(&score_request()).unwrap().degradation, 1);
    assert_eq!(client.call(&rank_request()).unwrap().degradation, 1);

    let stats = server.shutdown();
    assert_eq!(stats.degraded_l1, 4, "{stats:?}");
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn level_two_serves_warm_full_and_clamped_keys_and_sheds_the_rest() {
    let engine = engine();
    let server = NetServer::bind(
        "127.0.0.1:0",
        engine.clone(),
        NetServerConfig {
            clamp_threshold: 0.0,
            cache_only_threshold: 0.0,
            ..config()
        },
    )
    .unwrap();
    assert_eq!(server.degradation_level(), 2);
    let mut client = client(&server);
    let mut scratch = QueryScratch::default();

    // A warm full-k key is served as asked.
    let full = TopKQuery::tails(2, 4, 10);
    engine.top_k(&full, &mut scratch).unwrap();
    let (degradation, answer) = top_k_answer(client.call(&Request::TopK(full)).unwrap());
    assert_eq!(degradation, 2);
    assert_eq!(answer, expected_top_k(&engine, &full));

    // A cold full key falls back to its warm clamped key.
    let fallback = TopKQuery::heads(8, 5, 10);
    let fallback_clamped = TopKQuery {
        k: CLAMP,
        ..fallback
    };
    engine.top_k(&fallback_clamped, &mut scratch).unwrap();
    let (degradation, answer) = top_k_answer(client.call(&Request::TopK(fallback)).unwrap());
    assert_eq!(degradation, 2);
    assert_eq!(answer, expected_top_k(&engine, &fallback_clamped));

    // Cold top-k, score and rank are shed.
    let cold = Request::TopK(TopKQuery::tails(30, 0, 10));
    for request in [cold, score_request(), rank_request()] {
        assert_eq!(
            error_code(client.call(&request)),
            (ErrorCode::Overloaded, 2),
            "{request:?}"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.shed, 3, "{stats:?}");
    assert_eq!(stats.degraded_l2, 5, "{stats:?}");
    assert!(stats.ledger_balanced(), "{stats:?}");
}

#[test]
fn each_top_k_request_is_looked_up_once() {
    const DISTINCT: usize = 5;
    const REQUESTS: usize = 23;

    let engine = engine();
    let server = NetServer::bind("127.0.0.1:0", engine.clone(), config()).unwrap();
    assert_eq!(server.degradation_level(), 0);
    let mut client = client(&server);
    let keys: Vec<TopKQuery> = (0..DISTINCT as u32)
        .map(|i| TopKQuery::tails(3 * i, i % 6, 4 + i))
        .collect();
    for i in 0..REQUESTS {
        let query = keys[i % DISTINCT];
        let (degradation, answer) = top_k_answer(client.call(&Request::TopK(query)).unwrap());
        assert_eq!(degradation, 0);
        assert_eq!(answer, expected_top_k(&engine, &query));
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, DISTINCT as u64, "{stats:?}");
    assert_eq!(stats.hits, (REQUESTS - DISTINCT) as u64, "{stats:?}");
    assert!(server.shutdown().ledger_balanced());
}
