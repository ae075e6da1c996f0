//! Batcher identity suite: with the coalescing window open, concurrent
//! clients must receive responses **bitwise identical** (`f64::to_bits`) to
//! serial unbatched calls — across thread counts — and a
//! mixed-model, mixed-endpoint stress run must never leak rows across
//! requests or models.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::ParallelPolicy;
use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
use sls_serve::http::Request;
use sls_serve::{
    route_live, BatchConfig, BatchStatsResponse, Client, FeaturesResponse, LiveRegistry,
    ModelRegistry, Server, ServerHandle,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Two models with different visible widths, so cross-model leakage cannot
/// masquerade as a correct answer shape.
const ALPHA: &str = "alpha"; // 4 visible
const BETA: &str = "beta"; // 6 visible

fn train(seed: u64, dims: usize, clusters: usize) -> PipelineArtifact {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ds = SyntheticBlobs::new(40, dims, clusters)
        .separation(6.0)
        .generate(&mut rng);
    PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(clusters)
            .with_hidden(4),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds")
    .artifact
}

fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(ALPHA, train(41, 4, 2));
    registry.insert(BETA, train(42, 6, 3));
    registry
}

fn start(parallel: ParallelPolicy) -> ServerHandle {
    Server::bind("127.0.0.1:0", Arc::new(LiveRegistry::new(registry())))
        .expect("bind ephemeral port")
        .with_parallel(parallel)
        .with_batching(BatchConfig {
            // Wide enough that concurrent requests actually coalesce, short
            // enough to keep the suite quick.
            window: Duration::from_millis(3),
            max_rows: 64,
        })
        .start()
        .expect("server starts")
}

/// Deterministic distinct rows for one (worker, round) cell.
fn rows_for(model: &str, worker: usize, round: usize) -> Vec<Vec<f64>> {
    let dims = if model == ALPHA { 4 } else { 6 };
    let n_rows = 1 + (worker + round) % 3;
    (0..n_rows)
        .map(|r| {
            (0..dims)
                .map(|c| {
                    let x = (worker * 31 + round * 7 + r * 3 + c) as f64;
                    (x * 0.37).sin() * 2.5
                })
                .collect()
        })
        .collect()
}

fn body_for(model: &str, worker: usize, round: usize) -> (String, String) {
    let rows = rows_for(model, worker, round);
    let cells: Vec<String> = rows
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    (
        format!("/v1/models/{model}/features"),
        format!("{{\"rows\":[{}]}}", cells.join(",")),
    )
}

/// The serial, unbatched reference body — what the batched server must
/// reproduce byte for byte.
fn serial_reference(registry: &LiveRegistry, method: &str, path: &str, body: &str) -> String {
    let (status, reference) = route_live(
        registry,
        &Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        },
        &ParallelPolicy::serial(),
        None,
    );
    assert_eq!(status, 200, "reference request failed: {reference}");
    reference
}

/// Extracts the feature bits from a response body, for the explicit
/// `to_bits` comparison on top of the byte-level one.
fn feature_bits(body: &str) -> Vec<Vec<u64>> {
    let parsed: FeaturesResponse = serde_json::from_str(body).expect("features body parses");
    parsed
        .features
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn batched_responses_are_bitwise_identical_across_policies() {
    let registry = LiveRegistry::new(registry());
    for (label, threads) in [("2 threads", 2), ("4 threads", 4)] {
        let parallel = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
        let handle = start(parallel);
        let client = Client::new(handle.addr());
        let workers = 8usize;
        let barrier = Barrier::new(workers);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let barrier = &barrier;
                let registry = &registry;
                scope.spawn(move || {
                    let mut connection = client.connect();
                    for round in 0..4 {
                        let (path, body) = body_for(ALPHA, worker, round);
                        let expected = serial_reference(registry, "POST", &path, &body);
                        // Release all workers into the batch window at once
                        // so the coalescing path actually runs.
                        barrier.wait();
                        let response = connection
                            .request_ok("POST", &path, &body)
                            .unwrap_or_else(|e| panic!("{label} worker {worker}: {e}"));
                        assert_eq!(
                            response.body, expected,
                            "{label} worker {worker} round {round}: batched body differs"
                        );
                        assert_eq!(
                            feature_bits(&response.body),
                            feature_bits(&expected),
                            "{label} worker {worker} round {round}: f64 bits differ"
                        );
                    }
                });
            }
        });
        // The window was open and 8 clients hammered one model: at least
        // one fused launch must have gone through the coalescing path.
        let statz = client
            .request_ok("GET", "/v1/admin/statz", "")
            .expect("statz answers");
        let stats: BatchStatsResponse = serde_json::from_str(&statz.body).unwrap();
        assert!(stats.batches >= 1, "{label}: no batch launched: {stats:?}");
        assert!(
            stats.batched_requests >= stats.batches,
            "{label}: inconsistent counters: {stats:?}"
        );
        handle.shutdown();
    }
}

#[test]
fn mixed_models_and_endpoints_never_leak_rows() {
    let registry = LiveRegistry::new(registry());
    let handle = start(ParallelPolicy::new(4).with_min_rows_per_thread(1));
    let client = Client::new(handle.addr());
    let workers = 12usize;
    let barrier = Barrier::new(workers);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let barrier = &barrier;
            let registry = &registry;
            scope.spawn(move || {
                let mut connection = client.connect();
                for round in 0..6 {
                    // Interleave models and endpoints across workers so one
                    // batch window sees a mix of keys; every response must
                    // match the serial reference for *its own* rows.
                    let model = if (worker + round) % 2 == 0 {
                        ALPHA
                    } else {
                        BETA
                    };
                    let endpoint = if (worker + round / 2) % 2 == 0 {
                        "features"
                    } else {
                        "assign"
                    };
                    let (_, body) = body_for(model, worker, round);
                    let path = format!("/v1/models/{model}/{endpoint}");
                    let expected = serial_reference(registry, "POST", &path, &body);
                    barrier.wait();
                    let response = connection
                        .request_ok("POST", &path, &body)
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(
                        response.body, expected,
                        "worker {worker} round {round} ({model}/{endpoint}): \
                         response does not match its own serial reference"
                    );
                }
            });
        }
    });
    handle.shutdown();
}
