//! Shard-router integration suite: two in-process replicas behind a
//! [`Router`], proving stable hash ownership, retry-on-another-owner when a
//! replica dies, drain without dropping an in-flight response, and
//! generation-consistent fan-out reload (converged, rejected-atomically,
//! and torn rollouts), the `Transfer-Encoding` refusal at the router, an
//! oversized replica answer that must not count as a dead replica, and a
//! deeply nested body that must not kill any replica.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
use sls_serve::http::{read_response_meta, write_request_keep_alive};
use sls_serve::{
    replica_rank, Client, ErrorResponse, LiveRegistry, ModelsResponse, Router, RouterConfig,
    RouterDrainResponse, RouterReloadResponse, RouterStatzResponse, ServeOptions, Server,
    ServerHandle,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh per-test directory: pid plus a process-wide counter, so
/// concurrent test binaries never collide on a shared fixed path.
fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sls_serve_router_{tag}_{}_{n}", std::process::id()))
}

/// Trains one quick artifact; `seed` varies the bits so reloads are
/// observable.
fn train(seed: u64) -> PipelineArtifact {
    train_hidden(seed, 4)
}

/// [`train`] with `n_hidden` hidden units (features per answered row).
fn train_hidden(seed: u64, n_hidden: usize) -> PipelineArtifact {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ds = SyntheticBlobs::new(30, 4, 2)
        .separation(6.0)
        .generate(&mut rng);
    PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(2)
            .with_hidden(n_hidden),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds")
    .artifact
}

/// Saves one artifact under each name in `models`, so rendezvous hashing
/// has several keys to spread across the replica set.
fn export(dir: &PathBuf, artifact: &PipelineArtifact, models: &[&str]) {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    for name in models {
        artifact
            .save(dir.join(format!("{name}.json")))
            .expect("artifact saves");
    }
}

fn start_replica(dir: &PathBuf) -> ServerHandle {
    let live = LiveRegistry::from_dir(dir, false).expect("load artifact dir");
    Server::bind("127.0.0.1:0", Arc::new(live))
        .expect("bind ephemeral port")
        .with_options(ServeOptions::default())
        .start()
        .expect("replica starts")
}

fn start_router(replicas: Vec<SocketAddr>, replication: usize) -> ServerHandle {
    Router::bind(
        "127.0.0.1:0",
        RouterConfig::new(replicas)
            .with_replication(replication)
            .with_health_interval(Duration::from_millis(50)),
    )
    .expect("bind router")
    .start()
    .expect("router starts")
}

fn router_statz(client: &Client) -> RouterStatzResponse {
    let body = client
        .request_ok("GET", "/v1/admin/statz", "")
        .expect("router statz")
        .body;
    serde_json::from_str(&body).expect("router statz parses")
}

const PROBE: &str = r#"{"rows": [[0.1, 0.2, 0.3, 0.4], [-1.5, 2.0, 0.25, -0.75]]}"#;

/// Model names exported for the ownership tests. Replica ports are
/// ephemeral, so which replica owns a name changes from run to run: five
/// fixed names all land on one replica in 1 run of 16. The tests pick their
/// five from this pool instead (see [`spread_models`]); all sixteen land on
/// one replica in 1 run of 32768.
const NAMES: [&str; 16] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
    "lambda", "mu", "nu", "xi", "omicron", "pi",
];

/// Five of [`NAMES`], at least one of them ranked first on each replica.
fn spread_models(addrs: &[SocketAddr]) -> Vec<&'static str> {
    let owner = |name: &str| replica_rank(name, addrs)[0];
    let mut models: Vec<&str> = (0..addrs.len())
        .filter_map(|replica| NAMES.iter().copied().find(|&n| owner(n) == replica))
        .collect();
    let rest: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|n| !models.contains(n))
        .take(5 - models.len())
        .collect();
    models.extend(rest);
    models
}

#[test]
fn ownership_is_stable_and_matches_the_published_hash() {
    let dir = unique_dir("ownership");
    export(&dir, &train(1), &NAMES);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let models = spread_models(&addrs);
    let router = start_router(addrs.clone(), 1);
    let client = Client::new(router.addr());

    // With replication 1 each model has exactly one owner — the head of the
    // public `replica_rank` — so per-replica forward counters are fully
    // predicted by the hash.
    const ROUNDS: u64 = 3;
    let mut expected = [0u64; 2];
    for model in &models {
        let owner = replica_rank(model, &addrs)[0];
        expected[owner] += ROUNDS;
        let direct = Client::new(addrs[owner])
            .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
            .expect("direct request")
            .body;
        for _ in 0..ROUNDS {
            let routed = client
                .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
                .expect("routed request")
                .body;
            assert_eq!(routed, direct, "router must forward `{model}` verbatim");
        }
    }
    assert!(
        expected.iter().all(|&n| n > 0),
        "the hash should spread 5 models over 2 replicas (got {expected:?})"
    );
    let statz = router_statz(&client);
    assert_eq!(statz.replication, 1);
    assert_eq!(statz.forwards, ROUNDS * models.len() as u64);
    for (index, replica) in statz.replicas.iter().enumerate() {
        assert_eq!(
            replica.forwards, expected[index],
            "replica {index} forward counter must match hash ownership"
        );
        assert!(replica.healthy);
        assert!(!replica.drained);
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn a_killed_replica_is_retried_on_the_other_owner() {
    let dir = unique_dir("retry");
    export(&dir, &train(2), &NAMES);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let models = spread_models(&addrs);
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Kill replica 0. With replication 2 every model is owned by both, so
    // every request must still succeed via replica 1 — including models
    // whose *first-ranked* owner just died.
    let victim_first: Vec<&str> = models
        .iter()
        .filter(|m| replica_rank(m, &addrs)[0] == 0)
        .copied()
        .collect();
    assert!(
        !victim_first.is_empty(),
        "at least one of 5 models should rank the victim first"
    );
    let reference: Vec<String> = models
        .iter()
        .map(|model| {
            Client::new(addrs[1])
                .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
                .expect("direct request")
                .body
        })
        .collect();
    replica_a.shutdown();

    for (model, direct) in models.iter().zip(&reference) {
        let routed = client
            .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
            .expect("routed request survives the kill");
        assert_eq!(&routed.body, direct, "`{model}` must come back bit-equal");
    }
    let statz = router_statz(&client);
    assert_eq!(statz.forwards, models.len() as u64);
    assert!(
        statz.retried_requests >= 1,
        "models ranking the dead replica first must be counted as retried"
    );
    assert!(
        !statz.replicas[0].healthy,
        "dead replica must be marked down"
    );
    assert_eq!(statz.replicas[0].forwards, 0);
    assert_eq!(statz.replicas[1].forwards, models.len() as u64);
    assert_eq!(statz.unrouted, 0);

    router.shutdown();
    replica_b.shutdown();
}

#[test]
fn drain_under_load_loses_no_request_and_freezes_the_replica() {
    let models = ["alpha", "beta", "gamma"];
    let dir = unique_dir("drain");
    export(&dir, &train(3), &models);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());
    let reference: Vec<String> = models
        .iter()
        .map(|model| {
            Client::new(addrs[0])
                .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
                .expect("direct request")
                .body
        })
        .collect();

    // 4 keep-alive workers hammer the router while the main thread drains
    // replica 0 mid-run. Every single response must succeed and match.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..4usize {
            let stop = Arc::clone(&stop);
            let reference = &reference;
            let router_addr = router.addr();
            workers.push(scope.spawn(move || {
                let mut connection = Client::new(router_addr).connect();
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let model = models[(worker + served as usize) % models.len()];
                    let index = (worker + served as usize) % models.len();
                    let response = connection
                        .request_ok("POST", &format!("/v1/models/{model}/features"), PROBE)
                        .expect("no request may fail across the drain");
                    assert_eq!(response.body, reference[index], "`{model}` bit-equal");
                    served += 1;
                }
                served
            }));
        }

        std::thread::sleep(Duration::from_millis(100));
        let body = format!("{{\"replica\": \"{}\"}}", addrs[0]);
        let response = client
            .request_ok("POST", "/v1/admin/drain", &body)
            .expect("drain accepted");
        let drain: RouterDrainResponse =
            serde_json::from_str(&response.body).expect("drain body parses");
        assert_eq!(drain.status, "drained", "in-flight must reach zero");
        assert_eq!(drain.in_flight, 0);
        assert!(drain.node_drained, "the node itself must accept the drain");
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        let served: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert!(served > 0, "load must overlap the drain");
    });

    // The drained node health-fails for other traffic sources but keeps
    // serving: direct inference still answers, /healthz reports 503.
    let direct = Client::new(addrs[0]);
    let health = direct
        .request("GET", "/v1/healthz", "")
        .expect("socket answers");
    assert_eq!(health.status, 503, "drained node must fail health checks");
    let after = direct
        .request_ok("POST", "/v1/models/alpha/features", PROBE)
        .expect("drained node still serves in-flight style traffic")
        .body;
    assert_eq!(after, reference[0]);

    let statz = router_statz(&client);
    assert!(statz.replicas[0].drained);
    assert_eq!(statz.replicas[0].generation, None);
    assert_eq!(statz.replicas[0].in_flight, 0);
    let frozen = statz.replicas[0].forwards;
    for _ in 0..5 {
        client
            .request_ok("POST", "/v1/models/alpha/features", PROBE)
            .expect("post-drain request");
    }
    let statz = router_statz(&client);
    assert_eq!(
        statz.replicas[0].forwards, frozen,
        "a drained replica must receive no new forwards"
    );
    assert_eq!(statz.unrouted, 0);

    // The survivor is the last active replica: draining it must be refused.
    let body = format!("{{\"replica\": \"{}\"}}", addrs[1]);
    let refused = client
        .request("POST", "/v1/admin/drain", &body)
        .expect("socket answers");
    assert_eq!(refused.status, 409);
    assert!(refused.body.contains("last_replica"), "{}", refused.body);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn fanout_reload_converges_or_rejects_atomically() {
    let dir = unique_dir("reload");
    let path = dir.join("demo.json");
    export(&dir, &train(4), &["demo"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Happy path: both replicas swap 1 -> 2 and agree.
    train(5).save(&path).expect("save generation 2");
    let response = client
        .request_ok("POST", "/v1/admin/reload", "")
        .expect("fan-out reload");
    let reload: RouterReloadResponse =
        serde_json::from_str(&response.body).expect("reload body parses");
    assert_eq!(reload.status, "swapped");
    assert!(reload.swapped);
    assert_eq!(reload.generation, Some(2));
    assert_eq!(reload.replicas.len(), 2);
    for replica in &reload.replicas {
        assert!(replica.reachable, "{}", replica.addr);
        let inner = replica.response.as_ref().expect("per-replica response");
        assert!(inner.swapped);
        assert_eq!(inner.generation, 2);
    }
    let statz = router_statz(&client);
    assert_eq!(statz.consistent_generation, Some(2));

    // Corrupt artifact: every replica rejects, nothing diverges, and the
    // old generation keeps serving *and* being advertised.
    std::fs::write(&path, "{ not an artifact").expect("corrupt artifact");
    let response = client
        .request("POST", "/v1/admin/reload", "")
        .expect("socket answers");
    assert_eq!(response.status, 409);
    let reload: RouterReloadResponse =
        serde_json::from_str(&response.body).expect("reload body parses");
    assert_eq!(reload.status, "rejected");
    assert!(!reload.swapped);
    assert_eq!(reload.generation, Some(2), "old generation must survive");
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/v1/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(models.generation, 2);
    assert_eq!(models.models.len(), 1, "demo stays advertised");

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

#[test]
fn a_torn_rollout_hides_the_model_until_generations_realign() {
    let dir = unique_dir("torn");
    let path = dir.join("demo.json");
    export(&dir, &train(6), &["demo"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let addrs = vec![replica_a.addr(), replica_b.addr()];
    let router = start_router(addrs.clone(), 2);
    let client = Client::new(router.addr());

    // Skew the set on purpose: reload only replica 1 directly, bypassing
    // the router's fan-out. Replica 0 stays on generation 1.
    train(7).save(&path).expect("save generation 2");
    let skewed = Client::new(addrs[1]).reload().expect("direct reload");
    assert!(skewed.swapped);
    assert_eq!(skewed.generation, 2);

    let statz = router_statz(&client);
    assert_eq!(
        statz.consistent_generation, None,
        "mixed generations must not report consistency"
    );
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/v1/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(
        models.generation, 0,
        "0 is the explicit 'inconsistent' marker"
    );
    assert!(
        models.models.is_empty(),
        "a torn model must be withdrawn, not served mixed"
    );

    // Re-align by reloading the lagging replica directly; the router
    // advertises the model again.
    let healed = Client::new(addrs[0]).reload().expect("direct reload");
    assert!(healed.swapped);
    assert_eq!(healed.generation, 2);
    let statz = router_statz(&client);
    assert_eq!(statz.consistent_generation, Some(2));
    let models: ModelsResponse = serde_json::from_str(
        &client
            .request_ok("GET", "/v1/models", "")
            .expect("router models")
            .body,
    )
    .expect("models body parses");
    assert_eq!(models.generation, 2);
    assert_eq!(models.models.len(), 1);

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
}

/// The router frames requests with the same reader as the replicas: a
/// `Transfer-Encoding` request on a reused connection is answered `501`,
/// the socket closes, and nothing after the header — neither the body nor
/// the request smuggled behind it — is parsed or forwarded.
#[test]
fn transfer_encoding_through_the_router_closes_with_501() {
    let dir = unique_dir("transfer_encoding");
    export(&dir, &train(1), &["alpha"]);
    let replica = start_replica(&dir);
    let router = start_router(vec![replica.addr()], 1);

    let stream = TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (_, close) = read_response_meta(&mut reader).unwrap();
    assert!(!close);
    let wire = "POST /v1/models/alpha/features HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\
                Content-Length: 5\r\n\r\n0\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n";
    writer.write_all(wire.as_bytes()).unwrap();
    writer.flush().unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 501, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(error.code, "unsupported_transfer_encoding");
    assert!(close, "a refused framing must never be reused");
    let mut probe = [0u8; 1];
    assert_eq!(
        reader.read(&mut probe).expect("clean EOF"),
        0,
        "the smuggled request must never be answered"
    );
    assert_eq!(router_statz(&Client::new(router.addr())).forwards, 0);

    router.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica answer over the client's response limit is the replica's
/// answer, not its failure: the router answers `502` at once, with no retry
/// on the other owner and no replica marked down.
#[test]
fn an_oversized_replica_answer_is_a_502_not_a_dead_replica() {
    let dir = unique_dir("oversized");
    export(&dir, &train_hidden(5, 64), &["wide"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let router = start_router(vec![replica_a.addr(), replica_b.addr()], 2);
    let client = Client::new(router.addr());

    // 64 features of ~19 bytes per row: 16 000 rows answer ~19 MB, over
    // the 16 MiB response limit.
    let rows = vec!["[0.1,0.2,0.3,0.4]"; 16_000].join(",");
    let response = client
        .request(
            "POST",
            "/v1/models/wide/features",
            &format!("{{\"rows\":[{rows}]}}"),
        )
        .expect("the router answers");
    assert_eq!(response.status, 502, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(error.code, "upstream_response_too_large");

    let statz = router_statz(&client);
    assert_eq!(statz.retried_requests, 0);
    for replica in &statz.replicas {
        assert!(replica.healthy, "{} was marked down", replica.addr);
        assert_eq!(replica.failures, 0, "{}", replica.addr);
    }

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A deeply nested body once aborted the replica that parsed it; the
/// router took the dead replica for a transport error and replayed the body
/// to the next owner, killing every owner. Now each replica answers `400`,
/// which the router passes through without a retry, and the router's own
/// drain body parser refuses the same nesting.
#[test]
fn a_deeply_nested_body_is_a_400_that_no_replica_dies_of() {
    let dir = unique_dir("nested");
    export(&dir, &train(1), &["alpha"]);
    let replica_a = start_replica(&dir);
    let replica_b = start_replica(&dir);
    let router = start_router(vec![replica_a.addr(), replica_b.addr()], 2);
    let client = Client::new(router.addr());
    let before = router_statz(&client);

    let nested = "[".repeat(10_000);
    let response = client
        .request(
            "POST",
            "/v1/models/alpha/assign",
            &format!("{{\"rows\":{nested}"),
        )
        .expect("the router answers");
    assert_eq!(response.status, 400, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(error.code, "invalid_body");

    let statz = router_statz(&client);
    assert_eq!(statz.retried_requests, before.retried_requests);
    assert_eq!(statz.unrouted, before.unrouted);
    for replica in [&replica_a, &replica_b] {
        let health = Client::new(replica.addr()).health().expect("replica alive");
        assert_eq!(health.status, "ok");
    }
    assert!(statz.replicas.iter().all(|r| r.healthy && r.failures == 0));

    let response = client
        .request(
            "POST",
            "/v1/admin/drain",
            &format!("{{\"replica\":{nested}"),
        )
        .expect("the router answers");
    assert_eq!(response.status, 400, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(error.code, "invalid_body");
    assert_eq!(client.health().expect("router alive").status, "ok");

    router.shutdown();
    replica_a.shutdown();
    replica_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The router speaks only `/v1`: every former unversioned alias answers a
/// structured 404 without reaching a replica, while its health poll, which
/// runs every 50 ms here, keeps the replica up.
#[test]
fn unversioned_paths_are_not_routes_on_the_router() {
    let dir = unique_dir("unversioned");
    export(&dir, &train(1), &["alpha"]);
    let replica = start_replica(&dir);
    let router = start_router(vec![replica.addr()], 1);
    let client = Client::new(router.addr());

    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("GET", "/models", ""),
        ("POST", "/models/alpha/features", PROBE),
        ("POST", "/models/alpha/assign", PROBE),
        ("GET", "/statz", ""),
        ("GET", "/admin/statz", ""),
        ("POST", "/admin/reload", ""),
        ("POST", "/admin/drain", ""),
    ] {
        let response = client.request(method, path, body).expect("router answers");
        assert_eq!(response.status, 404, "{method} {path}: {}", response.body);
        let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
        assert_eq!(error.code, "not_found", "{method} {path}");
    }

    std::thread::sleep(Duration::from_millis(200));
    let statz = router_statz(&client);
    assert_eq!(statz.forwards, 0, "an unversioned path reached a replica");
    assert!(
        statz.replicas[0].healthy,
        "the health poll marked the replica down"
    );
    assert_eq!(client.health().expect("/v1/healthz answers").status, "ok");
    assert_eq!(
        client
            .features("alpha", &[vec![0.1, 0.2, 0.3, 0.4]])
            .unwrap()
            .len(),
        1
    );

    router.shutdown();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
