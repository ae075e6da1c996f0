//! End-to-end serving test: train a pipeline, export + reload the artifact,
//! serve it on an ephemeral port, and hammer it from concurrent client
//! threads, checking every response against the in-process pipeline. Two
//! pooled-policy runs add models of different widths and both endpoints,
//! and require every body to be bitwise identical (`f64::to_bits`) to the
//! serial in-process answer for its own rows.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::ParallelPolicy;
use sls_rbm_core::{FittedPipeline, ModelKind, PipelineArtifact, SlsPipelineConfig};
use sls_serve::http::Request;
use sls_serve::{
    route_live, Client, FeaturesResponse, LiveRegistry, ModelRegistry, ServeError, Server,
    ServerHandle,
};
use std::sync::{Arc, Barrier};

const MODEL: &str = "quick_demo";

/// Trains the demo pipeline once and keeps the raw rows alongside.
fn fitted_with_rows() -> (FittedPipeline, Vec<Vec<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(2023);
    let ds = SyntheticBlobs::new(60, 6, 3)
        .separation(6.0)
        .generate(&mut rng);
    let fitted = PipelineArtifact::fit(
        ModelKind::SlsGrbm,
        SlsPipelineConfig::quick_demo(),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds");
    let rows: Vec<Vec<f64>> = ds.features().row_iter().map(<[f64]>::to_vec).collect();
    (fitted, rows)
}

/// Spins up a server on an ephemeral port whose registry holds the artifact
/// after a save/load round trip (so the test covers the on-disk format too).
fn start_server(artifact: &PipelineArtifact, tag: &str) -> sls_serve::ServerHandle {
    let dir = std::env::temp_dir().join(format!(
        "sls_serve_integration_{}_{tag}",
        std::process::id()
    ));
    artifact
        .save(dir.join(format!("{MODEL}.json")))
        .expect("artifact saves");
    let registry = ModelRegistry::load_dir(&dir).expect("artifacts load");
    std::fs::remove_dir_all(&dir).ok();
    Server::bind("127.0.0.1:0", Arc::new(LiveRegistry::new(registry)))
        .expect("bind ephemeral port")
        .start()
        .expect("server starts")
}

#[test]
fn concurrent_clients_match_in_process_pipeline() {
    let (fitted, rows) = fitted_with_rows();
    let expected_features = fitted
        .artifact
        .features(&sls_linalg_matrix(&rows))
        .expect("in-process features");
    let expected_assignments = fitted.assignments.clone();
    let handle = start_server(&fitted.artifact, "concurrent");
    let client = Client::new(handle.addr());

    let health = client.health().expect("healthz answers");
    assert_eq!(health.status, "ok");
    assert_eq!(health.models, 1);

    // 8 client threads, each slicing a different window of the training rows
    // and alternating between the two inference endpoints.
    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let client = &client;
            let rows = &rows;
            let expected_features = &expected_features;
            let expected_assignments = &expected_assignments;
            scope.spawn(move || {
                for round in 0..5usize {
                    let start = (worker * 7 + round * 3) % (rows.len() - 10);
                    let batch = &rows[start..start + 10];
                    if (worker + round) % 2 == 0 {
                        let features = client.features(MODEL, batch).expect("features request");
                        for (i, row) in features.iter().enumerate() {
                            assert_eq!(
                                row.as_slice(),
                                expected_features.row(start + i),
                                "feature row {} differs from the in-process pipeline",
                                start + i
                            );
                        }
                    } else {
                        let assignments = client.assign(MODEL, batch).expect("assign request");
                        assert_eq!(
                            assignments.as_slice(),
                            &expected_assignments[start..start + 10],
                            "assignments differ from the in-process pipeline"
                        );
                    }
                }
            });
        }
    });

    // Whole-dataset batch in one request: identical to training-time labels.
    let all = client.assign(MODEL, &rows).expect("full-batch assign");
    assert_eq!(all, expected_assignments);

    handle.shutdown();
}

#[test]
fn server_reports_models_and_rejects_bad_requests() {
    let (fitted, rows) = fitted_with_rows();
    let handle = start_server(&fitted.artifact, "errors");
    let client = Client::new(handle.addr());

    let models = client.models().expect("models answers");
    assert_eq!(models.models.len(), 1);
    let info = &models.models[0];
    assert_eq!(info.name, MODEL);
    assert_eq!(info.kind, "sls-grbm");
    assert_eq!(info.n_visible, 6);
    assert_eq!(info.n_hidden, 12);
    assert_eq!(info.n_clusters, Some(3));

    // Unknown model -> 404.
    match client.assign("ghost", &rows[..1]) {
        Err(ServeError::Status { status, .. }) => assert_eq!(status, 404),
        other => panic!("expected a 404 status error, got {other:?}"),
    }
    // Wrong row width -> 400.
    match client.features(MODEL, &[vec![1.0, 2.0]]) {
        Err(ServeError::Status { status, body }) => {
            assert_eq!(status, 400);
            assert!(body.contains("error"));
        }
        other => panic!("expected a 400 status error, got {other:?}"),
    }
    // Malformed JSON body -> 400.
    let response = client
        .request("POST", &format!("/v1/models/{MODEL}/features"), "not json")
        .expect("request completes");
    assert_eq!(response.status, 400);
    // Unknown path -> 404, wrong method -> 405.
    assert_eq!(client.request("GET", "/nope", "").unwrap().status, 404);
    assert_eq!(
        client.request("POST", "/v1/healthz", "").unwrap().status,
        405
    );

    handle.shutdown();
}

#[test]
fn non_finite_rows_are_rejected_as_invalid_body() {
    let (fitted, _) = fitted_with_rows();
    let handle = start_server(&fitted.artifact, "non_finite");
    let client = Client::new(handle.addr());
    // `1e400` is valid JSON that overflows f64 to infinity.
    let body = r#"{"rows":[[0,0,0,0,0,0],[-1e400,1e400,0,0,0,0]]}"#;
    for endpoint in ["features", "assign"] {
        let response = client
            .request("POST", &format!("/v1/models/{MODEL}/{endpoint}"), body)
            .expect("request completes");
        assert_eq!(response.status, 400, "{endpoint}: {}", response.body);
        assert!(
            response.body.contains(r#""code":"invalid_body""#),
            "{endpoint}: {}",
            response.body
        );
        assert!(
            response.body.contains("rows[1][0] is not a finite number"),
            "{endpoint}: {}",
            response.body
        );
    }
    handle.shutdown();
}

/// 10,000 open brackets (~10 KB) once overflowed the handler thread's
/// stack in the recursive JSON parser and aborted the whole server. The
/// parser now stops at 128 levels with a parse error.
#[test]
fn a_deeply_nested_body_is_an_invalid_body_not_a_crash() {
    let (fitted, _) = fitted_with_rows();
    let handle = start_server(&fitted.artifact, "nested");
    let client = Client::new(handle.addr());
    let body = format!("{{\"rows\":{}", "[".repeat(10_000));
    let response = client
        .request("POST", &format!("/v1/models/{MODEL}/assign"), &body)
        .expect("request completes");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains(r#""code":"invalid_body""#),
        "{}",
        response.body
    );
    assert!(
        response.body.contains("recursion limit exceeded"),
        "{}",
        response.body
    );
    let health = client
        .request("GET", "/v1/healthz", "")
        .expect("the server still answers");
    assert_eq!(health.status, 200);
    handle.shutdown();
}

/// Builds a matrix from row vectors (test-local helper to keep the linalg
/// dependency explicit).
fn sls_linalg_matrix(rows: &[Vec<f64>]) -> sls_linalg::Matrix {
    sls_linalg::Matrix::from_rows(rows).expect("rows are rectangular")
}

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

fn two_models() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(ALPHA, train(41, 4, 2));
    registry.insert(BETA, train(42, 6, 3));
    registry
}

fn start_two_models(parallel: ParallelPolicy) -> ServerHandle {
    Server::bind("127.0.0.1:0", Arc::new(LiveRegistry::new(two_models())))
        .expect("bind ephemeral port")
        .with_parallel(parallel)
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

fn body_for(model: &str, worker: usize, round: usize) -> String {
    let cells: Vec<String> = rows_for(model, worker, round)
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!("{{\"rows\":[{}]}}", cells.join(","))
}

/// The serial in-process body the server must reproduce byte for byte.
fn serial_reference(registry: &LiveRegistry, path: &str, body: &str) -> String {
    let request = Request {
        method: "POST".to_string(),
        path: path.to_string(),
        body: body.to_string(),
    };
    let (status, reference) = route_live(registry, &request, &ParallelPolicy::serial(), None);
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
fn concurrent_responses_are_bitwise_identical_across_policies() {
    let registry = LiveRegistry::new(two_models());
    for (label, threads) in [("2 threads", 2), ("4 threads", 4)] {
        let handle = start_two_models(ParallelPolicy::eager(threads));
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
                        let path = format!("/v1/models/{ALPHA}/features");
                        let body = body_for(ALPHA, worker, round);
                        let expected = serial_reference(registry, &path, &body);
                        // Release all workers at once, so their requests
                        // share the worker pool.
                        barrier.wait();
                        let response = connection
                            .request_ok("POST", &path, &body)
                            .unwrap_or_else(|e| panic!("{label} worker {worker}: {e}"));
                        assert_eq!(
                            response.body, expected,
                            "{label} worker {worker} round {round}: body differs"
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
        handle.shutdown();
    }
}

#[test]
fn mixed_models_and_endpoints_never_leak_rows() {
    let registry = LiveRegistry::new(two_models());
    let handle = start_two_models(ParallelPolicy::eager(4));
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
                    // Interleave models and endpoints across workers; every
                    // response must match the serial reference for *its own*
                    // rows.
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
                    let body = body_for(model, worker, round);
                    let path = format!("/v1/models/{model}/{endpoint}");
                    let expected = serial_reference(registry, &path, &body);
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
