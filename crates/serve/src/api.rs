//! JSON request/response bodies of the serving API, shared by the server,
//! the client and the load generator.
//!
//! ## Decoding `rows` bodies
//!
//! [`decode_rows`] turns a `/features` or `/assign` body into the request
//! [`Matrix`] in one pass: the numbers of `{"rows":[[num,…],…]}` go
//! straight into the matrix's flat buffer, with no `Value` tree and no
//! `Vec<Vec<f64>>`. A body of at least [`MIN_BAND_BYTES`] per band is cut
//! into row bands parsed on the worker pool. Every number is read by the
//! vendored `serde_json`'s own token scan and number→`f64` rule, so the
//! bits equal [`serde_json::from_str`]'s for every band count. Any body of
//! another shape (a syntax error, a non-number, an extra or duplicate key,
//! an escaped key) takes the generic path, `from_str::<RowsRequest>` then
//! [`RowsRequest::to_matrix`], which produces the error text.

use serde::{Deserialize, Serialize};
use serde_json::NumberRows;
use sls_linalg::{LinalgError, Matrix, ParallelPolicy, WorkerPool};
use sls_rbm_core::PipelineArtifact;

/// Body of `POST /v1/models/{name}/features` and `POST /v1/models/{name}/assign`:
/// a batch of raw feature rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowsRequest {
    /// Raw feature rows, one inner vector per instance. All rows must have
    /// the model's visible width.
    pub rows: Vec<Vec<f64>>,
}

impl RowsRequest {
    /// Converts the rows into a [`Matrix`] so the whole batch runs through
    /// one matrix multiply.
    ///
    /// # Errors
    ///
    /// Returns a message if the batch is empty or ragged.
    pub fn to_matrix(&self) -> std::result::Result<Matrix, String> {
        if self.rows.is_empty() {
            return Err(EMPTY_ROWS.to_string());
        }
        Matrix::from_rows(&self.rows).map_err(|e| e.to_string())
    }
}

const EMPTY_ROWS: &str = "`rows` must contain at least one row";

/// Why a `/features` or `/assign` body was refused. The status is always
/// `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsError {
    /// [`code::INVALID_BODY`] or [`code::BAD_ROW_WIDTH`].
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl RowsError {
    fn shape(message: impl Into<String>) -> Self {
        Self {
            code: code::BAD_ROW_WIDTH,
            message: message.into(),
        }
    }
}

/// Fewest body bytes per band. On a 2-core Xeon, decoding 256-wide rows
/// (about 2.8 ns per byte) in two bands broke even with one band at 10 KB
/// per band and won by ~25% at 20 KB; this floor keeps a margin, so small
/// bodies decode inline.
pub const MIN_BAND_BYTES: usize = 32 * 1024;

/// Decodes a `{"rows":[[f64,...],...]}` body into the request matrix.
///
/// Refusals, checked in this order: a body that is not JSON of that shape
/// (`invalid_body`), no rows or ragged rows (`bad_row_width`), then the
/// first non-finite cell in row-major order (`invalid_body`; JSON has no
/// NaN or infinity, but a literal like `1e400` overflows to one).
///
/// The body is cut into at most `policy.threads` row bands of at least
/// [`MIN_BAND_BYTES`] each, parsed on the worker pool. The bits and the
/// errors are the same for every band count.
///
/// # Errors
///
/// Returns the [`RowsError`] the server answers `400` with.
pub fn decode_rows(body: &str, policy: &ParallelPolicy) -> Result<Matrix, RowsError> {
    decode_rows_in_bands(body, policy.threads.min(body.len() / MIN_BAND_BYTES))
}

/// [`decode_rows`] over at most `bands` row bands (`0` means one).
pub(crate) fn decode_rows_in_bands(body: &str, bands: usize) -> Result<Matrix, RowsError> {
    decode_row_bands(body, bands.max(1)).unwrap_or_else(|| decode_generic(body))
}

/// The generic path: the `Value` tree, [`RowsRequest::to_matrix`], then
/// the finite scan.
fn decode_generic(body: &str) -> Result<Matrix, RowsError> {
    let rows: RowsRequest = serde_json::from_str(body).map_err(|e| RowsError {
        code: code::INVALID_BODY,
        message: format!("invalid JSON body: {e}"),
    })?;
    let matrix = rows.to_matrix().map_err(RowsError::shape)?;
    check_finite(matrix)
}

/// Where each band starts: `first`, then the first `[` at or after each of
/// `bands - 1` equal byte offsets past it, dropping repeats.
fn band_starts(bytes: &[u8], first: usize, bands: usize) -> Vec<usize> {
    let mut starts = vec![first];
    for band in 1..bands {
        let from = first + (bytes.len() - first) * band / bands;
        if let Some(at) = bytes[from..].iter().position(|&b| b == b'[') {
            if from + at > starts[starts.len() - 1] {
                starts.push(from + at);
            }
        }
    }
    starts
}

fn check_finite(matrix: Matrix) -> Result<Matrix, RowsError> {
    match matrix.as_slice().iter().position(|v| !v.is_finite()) {
        None => Ok(matrix),
        Some(at) => Err(RowsError {
            code: code::INVALID_BODY,
            message: format!(
                "rows[{}][{}] is not a finite number",
                at / matrix.cols(),
                at % matrix.cols()
            ),
        }),
    }
}

/// The one-pass path for a body of exactly `{"rows":[[num,…],…]}`, with
/// JSON whitespace anywhere. `None` means the body has another shape.
///
/// Bands start at a row's `[`: the first row, then the first `[` at or
/// after each of `bands - 1` equal byte offsets. In a body of this shape
/// every `[` past the first row opens a row, so each band stops exactly
/// where the next one starts and only the last band closes the array. A
/// split that does not line up that way means the body has another shape.
fn decode_row_bands(body: &str, bands: usize) -> Option<Result<Matrix, RowsError>> {
    let bytes = body.as_bytes();
    let mut pos = 0;
    for token in [&b"{"[..], b"\"rows\"", b":", b"["] {
        pos = serde_json::skip_whitespace(bytes, pos);
        if !bytes[pos..].starts_with(token) {
            return None;
        }
        pos += token.len();
    }
    let first = serde_json::skip_whitespace(bytes, pos);
    let closes_object = |end: usize| {
        let end = serde_json::skip_whitespace(bytes, end);
        bytes.get(end) == Some(&b'}') && serde_json::skip_whitespace(bytes, end + 1) == bytes.len()
    };
    if bytes.get(first) == Some(&b']') {
        return closes_object(first + 1).then(|| Err(RowsError::shape(EMPTY_ROWS)));
    }
    let starts = band_starts(bytes, first, bands);
    let mut parts = vec![None; starts.len()];
    WorkerPool::global().for_each_mut(&mut parts, |band, part| {
        let cut = starts.get(band + 1).copied().unwrap_or(bytes.len());
        *part = serde_json::parse_number_rows(body, starts[band], cut);
    });
    let parts: Vec<NumberRows> = parts.into_iter().collect::<Option<_>>()?;
    let last = parts.len() - 1;
    let lines_up = parts.iter().enumerate().all(|(band, part)| {
        if band == last {
            part.closed && closes_object(part.end)
        } else {
            !part.closed && part.end == starts[band + 1]
        }
    });
    if !lines_up {
        return None;
    }
    let cols = parts[0].row_lens[0];
    let lens = parts.iter().flat_map(|part| part.row_lens.iter().copied());
    if let Some((row, found)) = lens.enumerate().find(|&(_, len)| len != cols) {
        let ragged = LinalgError::RaggedRows {
            expected: cols,
            row,
            found,
        };
        return Some(Err(RowsError::shape(ragged.to_string())));
    }
    let rows = parts.iter().map(|part| part.row_lens.len()).sum();
    let mut parts = parts.into_iter();
    let mut values = parts.next()?.values;
    values.reserve(rows * cols - values.len());
    for part in parts {
        values.extend_from_slice(&part.values);
    }
    Some(check_finite(Matrix::from_vec(rows, cols, values).ok()?))
}

/// Body of a successful `POST /v1/models/{name}/features` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeaturesResponse {
    /// The model that served the request.
    pub model: String,
    /// Registry generation that served the request. A request resolves its
    /// generation once; a concurrent hot swap never mixes generations within
    /// one response.
    pub generation: u64,
    /// Hidden-feature rows, aligned with the request rows.
    pub features: Vec<Vec<f64>>,
}

/// Body of a successful `POST /v1/models/{name}/assign` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignResponse {
    /// The model that served the request.
    pub model: String,
    /// Registry generation that served the request.
    pub generation: u64,
    /// Cluster label per request row.
    pub assignments: Vec<usize>,
}

/// Body of `GET /v1/healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server answers at all.
    pub status: String,
    /// Number of loaded models.
    pub models: usize,
}

/// One entry of `GET /v1/models`: everything a client needs to shape requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registry name (the `{name}` path segment).
    pub name: String,
    /// Model kind, as produced by `ModelKind::as_str`.
    pub kind: String,
    /// Artifact schema version.
    pub schema_version: u32,
    /// Expected raw-row width.
    pub n_visible: usize,
    /// Produced feature width.
    pub n_hidden: usize,
    /// Cluster count of the fitted head (`null` if the artifact has none,
    /// in which case `/assign` is unavailable for the model).
    pub n_clusters: Option<usize>,
    /// Bytes held by the model's `f64` weights and biases.
    pub param_bytes: usize,
    /// Training timestamp recorded at export time (`null` for artifacts
    /// exported before provenance existed).
    pub trained_at: Option<String>,
    /// Provenance string recorded at export time (`null` when absent).
    pub source: Option<String>,
}

impl ModelInfo {
    /// Builds the info entry for a registered model.
    pub fn describe(name: &str, model: &PipelineArtifact) -> Self {
        Self {
            name: name.to_string(),
            kind: model.model_kind.as_str().to_string(),
            schema_version: model.schema_version,
            n_visible: model.n_visible(),
            n_hidden: model.n_hidden(),
            n_clusters: model.cluster_head.as_ref().map(|head| head.n_clusters),
            param_bytes: model.params.param_bytes(),
            trained_at: model.trained_at.clone(),
            source: model.source.clone(),
        }
    }
}

/// Body of `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Registry generation these entries were read from.
    pub generation: u64,
    /// Loaded models in name order.
    pub models: Vec<ModelInfo>,
}

/// Stable machine-readable error codes carried in every
/// [`ErrorResponse::code`]. Clients branch on these; the `error` string is
/// for humans and may change wording between releases, the codes may not.
pub mod code {
    /// No route matches the request path.
    pub const NOT_FOUND: &str = "not_found";
    /// The path starts with a `/v{n}` prefix this server does not speak.
    pub const UNSUPPORTED_API_VERSION: &str = "unsupported_api_version";
    /// The path exists but not under this method.
    pub const METHOD_NOT_ALLOWED: &str = "method_not_allowed";
    /// The `{name}` path segment names no loaded model.
    pub const MODEL_NOT_FOUND: &str = "model_not_found";
    /// The request body is not valid JSON of the expected shape.
    pub const INVALID_BODY: &str = "invalid_body";
    /// The rows are empty, ragged, or not the model's visible width.
    pub const BAD_ROW_WIDTH: &str = "bad_row_width";
    /// `/assign` on a model whose artifact carries no cluster head.
    pub const NO_CLUSTER_HEAD: &str = "no_cluster_head";
    /// The model rejected a well-shaped batch at compute time.
    pub const INFERENCE_FAILED: &str = "inference_failed";
    /// The declared body exceeds the configured limit (413).
    pub const BODY_TOO_LARGE: &str = "body_too_large";
    /// The request could not be framed; the connection closes (400).
    pub const MALFORMED_REQUEST: &str = "malformed_request";
    /// The request carried a `Transfer-Encoding` header, which this server
    /// does not implement; the connection closes (501).
    pub const UNSUPPORTED_TRANSFER_ENCODING: &str = "unsupported_transfer_encoding";
    /// The server is at its connection cap and shed this one (503).
    pub const OVER_CAPACITY: &str = "over_capacity";
    /// This node is draining: health checks fail while open connections
    /// finish (503).
    pub const DRAINING: &str = "draining";
    /// Drain was requested on a server without drain support (routing over
    /// a bare registry).
    pub const DRAIN_UNAVAILABLE: &str = "drain_unavailable";
    /// The router found no live replica to forward to (503).
    pub const REPLICA_UNAVAILABLE: &str = "replica_unavailable";
    /// A replica's answer exceeds the response size the router reads (502).
    pub const UPSTREAM_RESPONSE_TOO_LARGE: &str = "upstream_response_too_large";
    /// A drain request named an address outside the replica set (404).
    pub const REPLICA_NOT_FOUND: &str = "replica_not_found";
    /// A drain request targeted the only replica still taking traffic (409).
    pub const LAST_REPLICA: &str = "last_replica";
    /// The server failed internally (500).
    pub const INTERNAL: &str = "internal";
}

/// Body of every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable explanation of the failure.
    pub error: String,
    /// Stable machine-readable failure class, one of the [`code`] constants.
    pub code: String,
}

/// Body of `GET /v1/admin/statz` on a serving node: the live registry's
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatzResponse {
    /// Current registry generation (starts at 1, bumps on every swap).
    pub generation: u64,
    /// Successful hot swaps since the process started.
    pub registry_swaps: u64,
    /// Reload attempts that were rejected without swapping.
    pub failed_reloads: u64,
}

/// Per-artifact outcome inside a `POST /v1/admin/reload` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelLoadResult {
    /// Model name derived from the artifact file stem.
    pub name: String,
    /// `true` when the artifact parsed and validated.
    pub loaded: bool,
    /// Failure detail when `loaded` is `false` (`null` otherwise).
    pub message: Option<String>,
}

/// Body of `POST /v1/admin/reload` (both the 200 swapped and 409 rejected
/// shapes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// `"swapped"` on success, `"rejected"` when the old generation was kept.
    pub status: String,
    /// `true` iff a new generation is now serving.
    pub swapped: bool,
    /// The generation serving after this request (new on success, unchanged
    /// on rejection).
    pub generation: u64,
    /// Per-artifact load results for the scanned directory.
    pub models: Vec<ModelLoadResult>,
    /// Overall failure explanation when rejected (`null` on success).
    pub error: Option<String>,
}

/// Body of `POST /v1/admin/drain` on a serving node: the node keeps answering
/// requests on open connections but fails `/v1/healthz` with 503 so routers
/// and load balancers stop sending it new traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainResponse {
    /// Always `"draining"` once the flag is set (drain is idempotent).
    pub status: String,
    /// `true` — the node now fails health checks.
    pub draining: bool,
}

/// Body of `POST /v1/admin/drain` on the **router**: names the replica to
/// retire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainRequest {
    /// Replica address exactly as configured (`host:port`).
    pub replica: String,
}

/// Body of a successful router `POST /v1/admin/drain`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterDrainResponse {
    /// `"drained"` once in-flight forwards hit zero, `"draining"` if some
    /// were still running when the bounded wait expired.
    pub status: String,
    /// The replica that was drained.
    pub replica: String,
    /// Forwards still in flight on the replica when the response was built.
    pub in_flight: usize,
    /// `true` when the replica itself acknowledged the forwarded drain (its
    /// own `/v1/healthz` now fails); `false` when it was unreachable.
    pub node_drained: bool,
}

/// Body of router `GET /v1/healthz`: replica availability in one glance.
/// Decodes as a [`HealthResponse`] too (extra fields are ignored), so
/// clients need not care whether they talk to a node or a router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterHealthResponse {
    /// `"ok"` while at least one replica is routable.
    pub status: String,
    /// Models currently advertised (consistent across their owners).
    pub models: usize,
    /// Configured replica count, drained included.
    pub replicas: usize,
    /// Replicas that are healthy and not drained.
    pub available: usize,
}

/// One replica's row inside router `GET /v1/admin/statz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatz {
    /// Replica address.
    pub addr: String,
    /// Last health-check / forward outcome.
    pub healthy: bool,
    /// `true` once drained; a drained replica owns nothing.
    pub drained: bool,
    /// Registry generation the replica reported, `null` when drained or
    /// unreachable.
    pub generation: Option<u64>,
    /// Forwards currently running against this replica.
    pub in_flight: usize,
    /// Requests forwarded to this replica over the router's lifetime.
    pub forwards: u64,
    /// Transport failures observed against this replica.
    pub failures: u64,
}

/// Body of router `GET /v1/admin/statz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterStatzResponse {
    /// Replicas each model name is hashed onto.
    pub replication: usize,
    /// Generation shared by every reachable non-drained replica, `null`
    /// while replicas disagree or none are reachable.
    pub consistent_generation: Option<u64>,
    /// Requests forwarded through the router.
    pub forwards: u64,
    /// Requests that succeeded only after retrying on another owner.
    pub retried_requests: u64,
    /// Requests answered 503 because no owner was reachable.
    pub unrouted: u64,
    /// Per-replica detail, in configuration order.
    pub replicas: Vec<ReplicaStatz>,
}

/// One replica's outcome inside a router fan-out reload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaReloadResult {
    /// Replica address.
    pub addr: String,
    /// `false` when the replica could not be reached at all.
    pub reachable: bool,
    /// The replica's own [`ReloadResponse`] when reachable.
    pub response: Option<ReloadResponse>,
    /// Transport failure detail when unreachable.
    pub error: Option<String>,
}

/// Body of router `POST /v1/admin/reload`: the fan-out result. `200` only when
/// **every** non-drained replica swapped onto the same generation; anything
/// else is `409` with per-replica detail, and models whose owners disagree
/// stop being advertised until generations re-align.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterReloadResponse {
    /// `"swapped"`, `"rejected"` (every replica kept its old generation,
    /// consistently), or `"inconsistent"` (outcomes diverged).
    pub status: String,
    /// `true` iff every replica swapped onto one shared generation.
    pub swapped: bool,
    /// The common generation when replicas agree, `null` otherwise.
    pub generation: Option<u64>,
    /// Per-replica outcomes, in configuration order (drained replicas are
    /// skipped — they are no longer part of the serving set).
    pub replicas: Vec<ReplicaReloadResult>,
    /// Failure summary when not swapped (`null` on success).
    pub error: Option<String>,
}

/// Converts a matrix to the row-of-rows JSON shape.
pub fn matrix_to_rows(matrix: &Matrix) -> Vec<Vec<f64>> {
    matrix.row_iter().map(<[f64]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sls_rbm_core::{ModelKind, RbmParams};

    #[test]
    fn rows_request_validates_shape() {
        let ok = RowsRequest {
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        assert_eq!(ok.to_matrix().unwrap().shape(), (2, 2));
        let empty = RowsRequest { rows: vec![] };
        assert!(empty.to_matrix().is_err());
        let ragged = RowsRequest {
            rows: vec![vec![1.0], vec![1.0, 2.0]],
        };
        assert!(ragged.to_matrix().is_err());
    }

    #[test]
    fn rows_request_json_round_trip() {
        let req = RowsRequest {
            rows: vec![vec![0.5, -1.25]],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: RowsRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        let values = m.as_slice().iter().map(|v| v.to_bits()).collect();
        (m.rows(), m.cols(), values)
    }

    fn decoded(body: &str, bands: usize) -> Result<(usize, usize, Vec<u64>), RowsError> {
        decode_rows_in_bands(body, bands).map(|m| bits(&m))
    }

    fn wide_body(rows: usize, cols: usize, seed: u64) -> String {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-3.0..3.0)).collect())
            .collect();
        serde_json::to_string(&RowsRequest { rows }).unwrap()
    }

    #[test]
    fn every_band_count_gives_the_bits_and_errors_of_one_band() {
        // The first ten are exactly `{"rows":[[num,…],…]}` and take the
        // one-pass path at every band count; the rest take the generic path.
        let bodies = [
            wide_body(37, 5, 1),
            wide_body(1, 3, 2),
            "{ \"rows\" : [ [1, 2] ,\n\t[ 3 ,4 ]\r, [5,6] ] } ".to_string(),
            "{\"rows\":[[1,2],   [3,4],[5,6],[7,8],[9,10]]}".to_string(),
            "{\"rows\":[[], [], []]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9]]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,1e400]]}".to_string(),
            "{\"rows\":[[-0,2],[3,9223372036854775808],[5,6],[7,8],[9,10]]}".to_string(),
            "{\"rows\":[]}".to_string(),
            "{\"rows\":[[]]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,\"x\"]]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,10]],\"x\":[[1],[2],[3]]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,10]],\"rows\":[[1]]}".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,10]]".to_string(),
            "{\"rows\":[[1,2],[3,4],[5,6],[7,8],[9,10],]}".to_string(),
        ];
        for (at, body) in bodies.iter().enumerate() {
            for bands in 1..=16 {
                assert_eq!(decode_row_bands(body, bands).is_some(), at < 10, "{body}");
            }
            let one = decoded(body, 1);
            assert_eq!(one, decode_generic(body).map(|m| bits(&m)), "{body}");
            for bands in 2..=16 {
                assert_eq!(decoded(body, bands), one, "{bands} bands: {body}");
            }
        }
    }

    #[test]
    fn bands_start_at_rows_past_equal_offsets() {
        let body = wide_body(37, 5, 1);
        let first = body.find("[[").unwrap() + 1;
        for bands in 1..=16 {
            let starts = band_starts(body.as_bytes(), first, bands);
            assert_eq!(starts.len(), bands);
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
            assert!(starts.iter().all(|&at| body.as_bytes()[at] == b'['));
        }
        // Repeats collapse when there are more bands than rows.
        let short = "{\"rows\":[[1],[2]]}";
        assert_eq!(band_starts(short.as_bytes(), 9, 16), vec![9, 13]);
    }

    #[test]
    fn band_errors_keep_the_generic_precedence_and_text() {
        let ragged = "{\"rows\":[[1,1e400],[2,2],[3]]}";
        assert_eq!(
            decoded(ragged, 3).unwrap_err(),
            RowsError {
                code: code::BAD_ROW_WIDTH,
                message: "row 2 has length 1, expected 2 (ragged input)".into(),
            }
        );
        let infinite = "{\"rows\":[[1,2],[3,4],[5,-1e999]]}";
        assert_eq!(
            decoded(infinite, 3).unwrap_err(),
            RowsError {
                code: code::INVALID_BODY,
                message: "rows[2][1] is not a finite number".into(),
            }
        );
        assert_eq!(decoded("{\"rows\":[]}", 4).unwrap_err().message, EMPTY_ROWS);
        let truncated = decoded("{\"rows\":[[1,2],[3,4],[5,6", 3).unwrap_err();
        assert_eq!(truncated.code, code::INVALID_BODY);
        assert!(
            truncated.message.starts_with("invalid JSON body: "),
            "{truncated:?}"
        );
    }

    #[test]
    fn bands_follow_the_policy_above_the_byte_floor() {
        let body = wide_body(64, 256, 3);
        assert!(body.len() > 4 * MIN_BAND_BYTES);
        let serial = decode_rows(&body, &ParallelPolicy::serial()).unwrap();
        let pooled = decode_rows(&body, &ParallelPolicy::new(4)).unwrap();
        assert_eq!(serial.shape(), (64, 256));
        assert_eq!(bits(&pooled), bits(&serial));
    }

    #[test]
    fn model_info_describes_artifact() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let artifact =
            PipelineArtifact::from_params(RbmParams::init(6, 3, &mut rng), ModelKind::SlsGrbm)
                .with_provenance(
                    Some("2026-08-01T00:00:00Z".into()),
                    Some("unit test".into()),
                );
        let info = ModelInfo::describe("demo", &artifact);
        assert_eq!(info.name, "demo");
        assert_eq!(info.kind, "sls-grbm");
        assert_eq!(info.n_visible, 6);
        assert_eq!(info.n_hidden, 3);
        assert_eq!(info.n_clusters, None);
        assert_eq!(info.param_bytes, (6 * 3 + 6 + 3) * 8);
        assert_eq!(info.trained_at.as_deref(), Some("2026-08-01T00:00:00Z"));
        assert_eq!(info.source.as_deref(), Some("unit test"));
        let json = serde_json::to_string(&info).unwrap();
        let back: ModelInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn reload_response_round_trips() {
        let resp = ReloadResponse {
            status: "rejected".into(),
            swapped: false,
            generation: 3,
            models: vec![
                ModelLoadResult {
                    name: "good".into(),
                    loaded: true,
                    message: None,
                },
                ModelLoadResult {
                    name: "bad".into(),
                    loaded: false,
                    message: Some("serialisation error: bad token".into()),
                },
            ],
            error: Some("1 artifact failed to load".into()),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: ReloadResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_response_requires_a_code() {
        let decoded: ErrorResponse =
            serde_json::from_str("{\"error\":\"no model\",\"code\":\"model_not_found\"}").unwrap();
        assert_eq!(decoded.code, code::MODEL_NOT_FOUND);
        assert_eq!(decoded.error, "no model");
        let err = serde_json::from_str::<ErrorResponse>("{\"error\":\"no model\"}").unwrap_err();
        assert!(err.to_string().contains("missing field `code`"), "{err}");
    }

    #[test]
    fn router_bodies_round_trip() {
        let statz = RouterStatzResponse {
            replication: 2,
            consistent_generation: Some(3),
            forwards: 10,
            retried_requests: 1,
            unrouted: 0,
            replicas: vec![ReplicaStatz {
                addr: "127.0.0.1:7891".into(),
                healthy: true,
                drained: false,
                generation: Some(3),
                in_flight: 0,
                forwards: 10,
                failures: 0,
            }],
        };
        let back: RouterStatzResponse =
            serde_json::from_str(&serde_json::to_string(&statz).unwrap()).unwrap();
        assert_eq!(back, statz);

        let reload = RouterReloadResponse {
            status: "inconsistent".into(),
            swapped: false,
            generation: None,
            replicas: vec![ReplicaReloadResult {
                addr: "127.0.0.1:7891".into(),
                reachable: false,
                response: None,
                error: Some("connection refused".into()),
            }],
            error: Some("1 replica unreachable".into()),
        };
        let back: RouterReloadResponse =
            serde_json::from_str(&serde_json::to_string(&reload).unwrap()).unwrap();
        assert_eq!(back, reload);
    }

    #[test]
    fn router_health_decodes_as_plain_health() {
        // A client pointed at the router through the plain typed helper must
        // keep working: serde ignores the extra replica fields.
        let body = serde_json::to_string(&RouterHealthResponse {
            status: "ok".into(),
            models: 2,
            replicas: 3,
            available: 2,
        })
        .unwrap();
        let plain: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(plain.status, "ok");
        assert_eq!(plain.models, 2);
    }

    #[test]
    fn matrix_round_trips_through_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows = matrix_to_rows(&m);
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(Matrix::from_rows(&rows).unwrap(), m);
    }
}
