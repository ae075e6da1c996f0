//! Versioned-API suite: every route lives under `/v1`, an unversioned path
//! and an unknown version prefix each fail with a structured 404, and every
//! failure class carries its stable machine-readable `code` so clients can
//! branch without parsing human-facing messages.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::ParallelPolicy;
use sls_rbm_core::{ModelKind, PipelineArtifact, RbmParams, SlsPipelineConfig};
use sls_serve::http::Request;
use sls_serve::{route_live, ErrorResponse, LiveRegistry, ModelRegistry, ReloadResponse};

const MODEL: &str = "demo";

/// A trained model with a cluster head: both inference endpoints work.
fn fitted_registry() -> LiveRegistry {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let ds = SyntheticBlobs::new(30, 4, 2)
        .separation(6.0)
        .generate(&mut rng);
    let fitted = PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(2)
            .with_hidden(4),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL, fitted.artifact);
    LiveRegistry::new(registry)
}

/// Raw RBM parameters without a cluster head: `/assign` must refuse.
fn headless_registry() -> LiveRegistry {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let artifact = PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng), ModelKind::Rbm);
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL, artifact);
    LiveRegistry::new(registry)
}

fn call(registry: &LiveRegistry, method: &str, path: &str, body: &str) -> (u16, String) {
    route_live(
        registry,
        &Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        },
        &ParallelPolicy::serial(),
        None,
    )
}

fn error_code(registry: &LiveRegistry, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, body) = call(registry, method, path, body);
    let parsed: ErrorResponse = serde_json::from_str(&body).expect("error body parses");
    assert!(!parsed.error.is_empty(), "error message must not be empty");
    (status, parsed.code)
}

const GOOD_BODY: &str = r#"{"rows": [[0.1, -0.2, 0.3, 0.4], [0.0, 1.0, -1.0, 0.5]]}"#;

#[test]
fn unversioned_paths_are_not_routes() {
    let registry = fitted_registry();
    // Each former alias with the `/v1` route it used to answer for.
    let former_aliases: &[(&str, &str, &str, &str)] = &[
        ("GET", "/healthz", "/v1/healthz", ""),
        ("GET", "/models", "/v1/models", ""),
        (
            "POST",
            "/models/demo/features",
            "/v1/models/demo/features",
            GOOD_BODY,
        ),
        (
            "POST",
            "/models/demo/assign",
            "/v1/models/demo/assign",
            GOOD_BODY,
        ),
        ("POST", "/admin/reload", "/v1/admin/reload", ""),
        ("POST", "/admin/drain", "/v1/admin/drain", ""),
    ];
    assert_aliases_are_gone(&registry, former_aliases);
}

#[test]
fn statz_answers_only_under_v1_admin() {
    let registry = fitted_registry();
    assert_aliases_are_gone(
        &registry,
        &[
            ("GET", "/statz", "/v1/admin/statz", ""),
            ("GET", "/admin/statz", "/v1/admin/statz", ""),
        ],
    );
}

/// Each `(method, alias, route, body)`: the alias answers a structured
/// `not_found` 404 while its `/v1` route still answers.
fn assert_aliases_are_gone(registry: &LiveRegistry, former_aliases: &[(&str, &str, &str, &str)]) {
    for &(method, alias, route, body) in former_aliases {
        let (status, code) = error_code(registry, method, alias, body);
        assert_eq!(status, 404, "{method} {alias} must 404");
        assert_eq!(code, "not_found", "{method} {alias}");
        let (status, answer) = call(registry, method, route, body);
        assert_ne!(status, 404, "{method} {route} must stay a route: {answer}");
    }
}

#[test]
fn unknown_api_versions_fail_with_a_structured_404() {
    let registry = fitted_registry();
    for path in ["/v2/models", "/v0/healthz", "/v99/models/demo/features"] {
        let (status, code) = error_code(&registry, "GET", path, "");
        assert_eq!(status, 404, "{path} must 404");
        assert_eq!(code, "unsupported_api_version", "{path}");
    }
    // `/vX` only matches whole numeric version segments: other `v...`
    // prefixes fall through to the plain not-found class.
    let (status, code) = error_code(&registry, "GET", "/vnext/models", "");
    assert_eq!(status, 404);
    assert_eq!(code, "not_found");
}

#[test]
fn each_failure_class_has_a_stable_code() {
    let registry = fitted_registry();
    let cases: &[(&str, &str, &str, u16, &str)] = &[
        (
            "POST",
            "/v1/models/nope/features",
            GOOD_BODY,
            404,
            "model_not_found",
        ),
        (
            "POST",
            "/v1/models/demo/features",
            "{not json",
            400,
            "invalid_body",
        ),
        (
            "POST",
            "/v1/models/demo/features",
            r#"{"rows": [[1.0, 2.0]]}"#,
            400,
            "bad_row_width",
        ),
        ("GET", "/nope", "", 404, "not_found"),
        ("DELETE", "/v1/models", "", 405, "method_not_allowed"),
        ("POST", "/v1/admin/drain", "", 409, "drain_unavailable"),
    ];
    for &(method, path, body, want_status, want_code) in cases {
        let (status, code) = error_code(&registry, method, path, body);
        assert_eq!(status, want_status, "{method} {path}");
        assert_eq!(code, want_code, "{method} {path}");
    }
}

#[test]
fn assign_without_a_cluster_head_reports_no_cluster_head() {
    let registry = headless_registry();
    let (status, code) = error_code(&registry, "POST", "/v1/models/demo/assign", GOOD_BODY);
    assert_eq!(status, 400);
    assert_eq!(code, "no_cluster_head");
    // Features still work on the same model: only the assign head is gone.
    let (status, _) = call(&registry, "POST", "/v1/models/demo/features", GOOD_BODY);
    assert_eq!(status, 200);
}

#[test]
fn reload_over_a_bare_registry_rejects_with_409() {
    let registry = fitted_registry();
    let (status, body) = call(&registry, "POST", "/v1/admin/reload", "");
    assert_eq!(status, 409);
    let parsed: ReloadResponse = serde_json::from_str(&body).expect("reload body parses");
    assert_eq!(parsed.status, "rejected");
    assert!(!parsed.swapped);
}

#[test]
fn error_bodies_keep_the_human_message_alongside_the_code() {
    // The `error` string stays primary (older clients parse only it); `code`
    // rides alongside. Check the 404 names the model and the 400 names the
    // expected width, so messages stay actionable.
    let registry = fitted_registry();
    let (_, body) = call(&registry, "POST", "/v1/models/nope/features", GOOD_BODY);
    let parsed: ErrorResponse = serde_json::from_str(&body).unwrap();
    assert!(
        parsed.error.contains("nope"),
        "message names the model: {}",
        parsed.error
    );
    let (_, body) = call(
        &registry,
        "POST",
        "/v1/models/demo/features",
        r#"{"rows": [[1.0]]}"#,
    );
    let parsed: ErrorResponse = serde_json::from_str(&body).unwrap();
    assert!(
        parsed.error.contains('4'),
        "message names the width: {}",
        parsed.error
    );
    assert_eq!(parsed.code, "bad_row_width");
}
