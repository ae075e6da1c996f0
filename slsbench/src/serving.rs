//! The serving workloads: closed-loop load against real `sls-serve serve`
//! processes (and `route` in front of two of them), plus the traced
//! in-process replay that splits a request across the program's layers.

use crate::load::{closed_loop, verify_body, Conn, Expected, LoopResult, Payload};
use crate::procs::Server;
use crate::report::Outcome;
use crate::trace::{self, timed, Tracer};
use crate::{path_str, text, Context};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::{Dataset, SyntheticBlobs};
use sls_linalg::{Matrix, ParallelPolicy};
use sls_serve::http::{
    read_request_limited, write_response_keep_alive, HttpLimits, Request, RequestRead,
};
use sls_serve::{
    route_live, AssignResponse, BatchConfig, Batcher, FeaturesResponse, LiveRegistry,
    RouterStatzResponse, RowsRequest, ServingModel,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One serving workload.
pub struct Spec {
    /// `features` or `assign`.
    pub endpoint: &'static str,
    /// Model inputs (row width).
    pub dims: usize,
    /// Distinct pre-encoded request bodies the clients cycle through.
    pub payloads: usize,
    /// Closed-loop keep-alive connections.
    pub connections: usize,
    /// Through `sls-serve route` over two replicas, or straight to one
    /// `serve`.
    pub routed: bool,
}

/// Response encoding dominates: 256 rows of 8 inputs in, 256 × 12 hidden
/// features out. Two connections keep both cores busy, so concurrency in
/// the server shows too.
pub const SERVE_FEATURES_256: Spec = Spec {
    endpoint: "features",
    dims: 8,
    payloads: 8,
    connections: 2,
    routed: false,
};

/// Request decoding dominates (256 rows × 256 inputs in, 256 labels out),
/// and every request crosses the router. One connection: two made p99
/// spread far more between runs.
pub const ROUTE_ASSIGN_WIDE: Spec = Spec {
    endpoint: "assign",
    dims: 256,
    payloads: 4,
    connections: 1,
    routed: true,
};

/// Class separation of the served model's training data: wide enough that
/// every seed's model clusters it almost perfectly, so a drop in
/// `cluster_accuracy` means the pipeline changed, not the draw.
const SEPARATION: f64 = 8.0;
/// Rows per request, and rows of the training set the requests permute.
const ROWS: usize = 256;
const CLUSTERS: usize = 3;
const MODEL: &str = "m";
/// Untraced runs set up this many times and report the median.
const SETUPS: usize = 5;
/// Op ids of replayed and direct requests start here, above the ids of
/// requests through the workload's own target.
const REPLAY_OPS: u64 = 1 << 32;
const DIRECT_OPS: u64 = 2 << 32;

/// Running processes plus everything set-up derived from the inputs.
/// Fields drop in order, so the router stops before its replicas.
struct Deployment {
    router: Option<Server>,
    replicas: Vec<Server>,
    models: PathBuf,
    payloads: Vec<Payload>,
    hidden: usize,
    accuracy: f64,
}

impl Deployment {
    fn target(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.replicas[0]).addr
    }

    fn peak_rss_mb(&self) -> f64 {
        let servers = self.router.iter().chain(&self.replicas);
        servers.filter_map(Server::peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0
    }

    fn statz(&self) -> Result<Option<RouterStatzResponse>, String> {
        self.router
            .as_ref()
            .map(|router| crate::load::get_json(router.addr, "/v1/admin/statz"))
            .transpose()
    }
}

/// The labelled rows the model is trained on and the requests permute.
pub fn dataset(seed: u64, dims: usize) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SyntheticBlobs::new(ROWS, dims, CLUSTERS)
        .separation(SEPARATION)
        .generate(&mut rng)
}

/// `count` request bodies, each a seeded permutation of all rows.
pub fn request_rows(data: &Dataset, seed: u64, count: usize) -> Vec<Matrix> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5041_594c); // "PAYL"
    (0..count)
        .map(|_| {
            let order = crate::permutation(data.n_instances(), &mut rng);
            data.features()
                .select_rows(&order)
                .expect("a permutation stays in range")
        })
        .collect()
}

/// In-process inference a served response must match.
pub fn expected(spec: &Spec, model: &ServingModel, rows: &Matrix) -> Result<Expected, String> {
    let serial = ParallelPolicy::serial();
    Ok(match spec.endpoint {
        "features" => Expected::Features(model.features_with(rows, &serial).map_err(text)?),
        _ => Expected::Assign(model.assign_with(rows, &serial).map_err(text)?),
    })
}

fn setup(
    spec: &Spec,
    ctx: &Context,
    k: usize,
    outcome: &mut Outcome,
) -> Result<Deployment, String> {
    let dir = ctx.work.join(format!("setup{k}"));
    let data = dataset(ctx.seed, spec.dims);
    let csv = dir.join("train.csv");
    sls_serve::retrain::write_dataset_csv(&csv, &data)
        .map_err(|e| format!("writing {}: {e}", csv.display()))?;
    let models = dir.join("models");
    let trained = crate::procs::run(
        &ctx.serve_bin,
        &[
            "retrain",
            "--data",
            &path_str(&csv),
            "--out",
            &path_str(&models),
            "--name",
            MODEL,
        ],
    )?;
    outcome.count("setup", trained.status.success());
    if !trained.status.success() {
        return Err(format!(
            "training the served model failed:\n{}",
            trained.stderr
        ));
    }

    let registry = LiveRegistry::from_dir(&models, false).map_err(text)?;
    let model = registry.current().registry.get(MODEL).map_err(text)?;
    let labels = model
        .assign_with(data.features(), &ParallelPolicy::serial())
        .map_err(text)?;
    let accuracy = sls_metrics::clustering_accuracy(&labels, data.labels()).map_err(text)?;
    let path = format!("/v1/models/{MODEL}/{}", spec.endpoint);
    let mut payloads = Vec::new();
    let mut expectations = Vec::new();
    for rows in request_rows(&data, ctx.seed, spec.payloads) {
        let body = serde_json::to_string(&RowsRequest {
            rows: sls_serve::api::matrix_to_rows(&rows),
        })
        .map_err(text)?;
        payloads.push(Payload::post(&path, &body));
        expectations.push(expected(spec, &model, &rows)?);
    }

    let models_arg = path_str(&models);
    let replicas = (0..if spec.routed { 2 } else { 1 })
        .map(|_| {
            Server::start(
                &ctx.serve_bin,
                &["serve", "--dir", &models_arg],
                "serving on http://",
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let router = if spec.routed {
        let list: Vec<String> = replicas.iter().map(|r| r.addr.to_string()).collect();
        Some(Server::start(
            &ctx.serve_bin,
            &["route", "--replicas", &list.join(",")],
            "routing on http://",
        )?)
    } else {
        None
    };
    let mut deployment = Deployment {
        router,
        replicas,
        models,
        payloads,
        hidden: model.n_hidden(),
        accuracy,
    };

    // Warm-up doubles as verification: the first response to each payload
    // is decoded and compared bit for bit with in-process inference; later
    // ones only need to equal it byte for byte. A payload that fails here
    // keeps an empty checked body, so every later request for it fails too.
    let mut conn = Conn::open(deployment.target()).map_err(|e| format!("connecting: {e}"))?;
    for (payload, want) in deployment.payloads.iter_mut().zip(&expectations) {
        let mut body = Vec::new();
        let verdict = match conn.exchange(&payload.request, &mut body) {
            Ok((200, _)) => verify_body(&body, MODEL, want),
            Ok((status, _)) => Err(format!("status {status}")),
            Err(e) => Err(format!("transport: {e}")),
        };
        outcome.count("setup", verdict.is_ok());
        match verdict {
            Ok(()) => payload.checked = body,
            Err(e) => outcome.problem(format!("first response to a payload: {e}")),
        }
    }
    Ok(deployment)
}

/// Checks that the router forwarded exactly the requests that succeeded.
fn check_forwards(
    outcome: &mut Outcome,
    before: &Option<RouterStatzResponse>,
    after: &Option<RouterStatzResponse>,
    succeeded: u64,
) -> (u64, u64, u64) {
    let (Some(before), Some(after)) = (before, after) else {
        return (0, 0, 0);
    };
    let forwards = after.forwards - before.forwards;
    if forwards != succeeded {
        outcome.problem(format!(
            "router forwarded {forwards} requests but {succeeded} succeeded"
        ));
    }
    (
        forwards,
        after.retried_requests - before.retried_requests,
        after.unrouted - before.unrouted,
    )
}

fn record_loop(outcome: &mut Outcome, phase: &'static str, result: &LoopResult) {
    outcome.phase(phase, result.attempted(), result.failed());
    for error in &result.errors {
        outcome.problem(format!("{phase}: {error}"));
    }
}

pub fn run(spec: &Spec, ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if ctx.trace {
        return traced(spec, ctx, outcome);
    }
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for k in 0..SETUPS {
        drop(deployment.take());
        let start = Instant::now();
        deployment = Some(setup(spec, ctx, k, &mut outcome)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let deployment = deployment.expect("at least one set-up");
    let before = deployment.statz()?;
    let mut conns: Vec<Option<Conn>> = (0..spec.connections).map(|_| None).collect();
    let result = closed_loop(
        deployment.target(),
        &deployment.payloads,
        &mut conns,
        ctx.run_time(),
    );
    let after = deployment.statz()?;
    record_loop(&mut outcome, "run", &result);
    check_forwards(&mut outcome, &before, &after, result.succeeded());
    outcome.note(format!(
        "{} requests, p50 {:.3} ms, p99 {:.3} ms; peak RSS kB of router {:?}, replicas {:?}",
        result.attempted(),
        result.latency_ms(0.50),
        result.latency_ms(0.99),
        deployment.router.as_ref().and_then(Server::peak_rss_kb),
        deployment
            .replicas
            .iter()
            .map(Server::peak_rss_kb)
            .collect::<Vec<_>>(),
    ));

    outcome.set("setup_s", trace::median(&setup_s));
    outcome.set("throughput_ops", result.throughput());
    outcome.set("latency_p90_ms", result.latency_ms(0.90));
    outcome.set("cluster_accuracy", deployment.accuracy);
    Ok(outcome)
}

/// Length of one slice of the traced run. Live load, load sent straight to
/// the owning replica, and the in-process replay take turns slice by slice,
/// so drift in machine speed hits every one of them alike.
const SLICE: Duration = Duration::from_secs(1);

/// Interleaves untraced live slices, traced live slices, direct slices to
/// the owning replica (when routed) and in-process replay slices.
fn traced(spec: &Spec, ctx: &Context, mut outcome: Outcome) -> Result<Outcome, String> {
    let deployment = setup(spec, ctx, 0, &mut outcome)?;
    let tracer = Mutex::new(Tracer::new());
    let mut replayer = Replayer::new(spec, &deployment)?;
    let addrs: Vec<SocketAddr> = deployment.replicas.iter().map(|r| r.addr).collect();
    let owner = addrs[sls_serve::replica_rank(MODEL, &addrs)[0]];
    let fresh = || -> Vec<Option<Conn>> { (0..spec.connections).map(|_| None).collect() };
    let (mut plain_conns, mut live_conns, mut direct_conns) = (fresh(), fresh(), fresh());
    let (target, payloads) = (deployment.target(), &deployment.payloads);
    let mut plain = LoopResult::default();
    let mut live = LoopResult::default();
    let mut direct = LoopResult::default();
    let before = deployment.statz()?;
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < ctx.run_time() || rounds == 0 {
        plain.absorb(closed_loop(target, payloads, &mut plain_conns, SLICE));
        live.absorb(closed_loop(target, payloads, &mut live_conns, SLICE));
        if spec.routed {
            direct.absorb(closed_loop(owner, payloads, &mut direct_conns, SLICE));
        }
        replayer.run(&tracer, SLICE, &mut outcome);
        rounds += 1;
    }
    let after = deployment.statz()?;
    outcome.note(format!(
        "{rounds} interleaved rounds in {:.1} s",
        start.elapsed().as_secs_f64()
    ));
    record_loop(&mut outcome, "run", &plain);
    record_loop(&mut outcome, "traced", &live);
    record_loop(&mut outcome, "traced", &direct);
    let (forwards, retries, unrouted) = check_forwards(
        &mut outcome,
        &before,
        &after,
        plain.succeeded() + live.succeeded(),
    );
    {
        let mut tracer = tracer.lock().expect("tracer lock");
        for (base, name, result) in [
            (0, "client.request", &live),
            (DIRECT_OPS, "client.direct", &direct),
        ] {
            for (op, sample) in result.samples.iter().filter(|s| s.ok).enumerate() {
                tracer.record(name, base + op as u64, sample.start, sample.end);
            }
        }
    }

    let spans = tracer.into_inner().expect("tracer lock").spans().to_vec();
    let stage = |name: &str| trace::median(&trace::per_op_us(&spans, name));
    let (read, decode, kernel) = (
        stage("http.read"),
        stage("api.decode"),
        stage("registry.kernel"),
    );
    let (encode, write, handler) = (
        stage("api.encode"),
        stage("http.write"),
        stage("server.handler"),
    );
    let client = stage("client.request");
    let direct = if spec.routed {
        stage("client.direct")
    } else {
        client
    };
    let untraced = trace::median(&plain.latencies_us());
    outcome.set("http.read_us", read);
    outcome.set("api.decode_us", decode);
    outcome.set("registry.kernel_us", kernel);
    outcome.set("api.encode_us", encode);
    outcome.set("http.write_us", write);
    outcome.set("server.handler_us", handler);
    outcome.set("server.unattributed_us", handler - decode - kernel - encode);
    outcome.set("net.transport_us", direct - handler - read - write);
    outcome.set("router.hop_us", client - direct);
    outcome.set("client.request_us", client);
    outcome.set(
        "client.request_p99_us",
        trace::percentile(&live.latencies_us(), 0.99),
    );
    outcome.set("trace.overhead_pct", (client - untraced) / untraced * 100.0);
    let request_bytes: Vec<f64> = deployment
        .payloads
        .iter()
        .map(|p| p.body_len as f64)
        .collect();
    let response_bytes: Vec<f64> = deployment
        .payloads
        .iter()
        .map(|p| p.checked.len() as f64)
        .collect();
    outcome.set("api.request_bytes", trace::median(&request_bytes));
    outcome.set("api.response_bytes", trace::median(&response_bytes));
    outcome.set(
        "client.requests_per_connection",
        live.attempted() as f64 / live.connections_opened.max(1) as f64,
    );
    outcome.set("process.peak_rss_mb", deployment.peak_rss_mb());
    outcome.set(
        "registry.madds",
        (ROWS * spec.dims * deployment.hidden) as f64,
    );
    outcome.set("router.forwards", forwards as f64);
    outcome.set("router.retries", retries as f64);
    outcome.set("router.unrouted", unrouted as f64);
    outcome.set(
        "router.retry_ratio",
        retries as f64 / forwards.max(1) as f64,
    );
    outcome.spans = spans;
    Ok(outcome)
}

/// Replays every payload in process, stage by stage and then as one
/// `route_live` call, under the `serve` defaults: one linalg thread per
/// core on the persistent pool, batching off. Both bodies must be
/// byte-identical to what the live server returned.
struct Replayer<'a> {
    endpoint: &'static str,
    payloads: &'a [Payload],
    live: LiveRegistry,
    model: std::sync::Arc<ServingModel>,
    policy: ParallelPolicy,
    batcher: Batcher,
    limits: HttpLimits,
    written: Vec<u8>,
    /// Replays so far; also the next op id past [`REPLAY_OPS`].
    done: usize,
}

impl<'a> Replayer<'a> {
    fn new(spec: &Spec, deployment: &'a Deployment) -> Result<Self, String> {
        let live = LiveRegistry::from_dir(&deployment.models, false).map_err(text)?;
        let model = live.current().registry.get(MODEL).map_err(text)?;
        Ok(Self {
            endpoint: spec.endpoint,
            payloads: &deployment.payloads,
            live,
            model,
            policy: ParallelPolicy::new(0).with_pool(true),
            batcher: Batcher::new(BatchConfig::disabled()),
            limits: HttpLimits::default(),
            written: Vec::new(),
            done: 0,
        })
    }

    /// Replays payloads round-robin for `budget`.
    fn run(&mut self, tracer: &Mutex<Tracer>, budget: Duration, outcome: &mut Outcome) {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            let payload = &self.payloads[self.done % self.payloads.len()];
            let op = REPLAY_OPS + self.done as u64;
            self.done += 1;
            let verdict = self
                .stages(tracer, op, payload)
                .and_then(|(request, staged)| {
                    let (status, handled) = timed(tracer, "server.handler", op, || {
                        route_live(&self.live, &request, &self.policy, Some(&self.batcher))
                    });
                    if status != 200 || handled.as_bytes() != payload.checked.as_slice() {
                        Err(format!(
                            "route_live answered {status} with a body unlike the live server's"
                        ))
                    } else if staged != handled {
                        Err("the staged replay differs from route_live".to_string())
                    } else {
                        Ok(())
                    }
                });
            outcome.count("traced", verdict.is_ok());
            if let Err(e) = verdict {
                outcome.problem(format!("replay: {e}"));
            }
        }
    }

    /// The request path one layer at a time: framing, body decode, kernel,
    /// response encode, framing. Returns the parsed request and the body.
    fn stages(
        &mut self,
        tracer: &Mutex<Tracer>,
        op: u64,
        payload: &Payload,
    ) -> Result<(Request, String), String> {
        let (model, policy) = (&self.model, &self.policy);
        let generation = self.live.generation();
        timed(tracer, "server.stages", op, || {
            let mut wire: &[u8] = &payload.request;
            let request = match timed(tracer, "http.read", op, || {
                read_request_limited(&mut wire, &self.limits)
            }) {
                Ok(RequestRead::Complete { request, .. }) => request,
                Ok(RequestRead::TooLarge { declared, .. }) => {
                    return Err(format!("{declared}-byte body refused"))
                }
                Err(e) => return Err(e.to_string()),
            };
            let rows = timed(tracer, "api.decode", op, || {
                serde_json::from_str::<RowsRequest>(&request.body)
                    .map_err(text)
                    .and_then(|r| r.to_matrix())
            })?;
            let body = if self.endpoint == "features" {
                let features = timed(tracer, "registry.kernel", op, || {
                    model.features_with(&rows, policy)
                })
                .map_err(text)?;
                timed(tracer, "api.encode", op, || {
                    serde_json::to_string(&FeaturesResponse {
                        model: MODEL.to_string(),
                        generation,
                        features: sls_serve::api::matrix_to_rows(&features),
                    })
                })
            } else {
                let assignments = timed(tracer, "registry.kernel", op, || {
                    model.assign_with(&rows, policy)
                })
                .map_err(text)?;
                timed(tracer, "api.encode", op, || {
                    serde_json::to_string(&AssignResponse {
                        model: MODEL.to_string(),
                        generation,
                        assignments,
                    })
                })
            }
            .map_err(text)?;
            self.written.clear();
            timed(tracer, "http.write", op, || {
                write_response_keep_alive(&mut self.written, 200, &body, true)
            })
            .map_err(text)?;
            Ok((request, body))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::verify_body;
    use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
    use sls_serve::ModelRegistry;

    /// Builds one workload input from `seed` and serves it in process.
    fn served(seed: u64) -> (Vec<u8>, Result<(), String>) {
        let data = dataset(seed, SERVE_FEATURES_256.dims);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fitted = PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            data.features(),
            &mut rng,
        )
        .expect("training succeeds");
        let mut registry = ModelRegistry::new();
        registry.insert(MODEL, fitted.artifact);
        let live = LiveRegistry::new(registry);
        let model = live.current().registry.get(MODEL).unwrap();
        let rows = request_rows(&data, seed, 1).remove(0);
        let body = serde_json::to_string(&RowsRequest {
            rows: sls_serve::api::matrix_to_rows(&rows),
        })
        .unwrap();
        let request = Request {
            method: "POST".to_string(),
            path: format!("/v1/models/{MODEL}/features"),
            body: body.clone(),
        };
        let (status, response) = route_live(&live, &request, &ParallelPolicy::serial(), None);
        assert_eq!(status, 200);
        let want = expected(&SERVE_FEATURES_256, &model, &rows).unwrap();
        (
            body.into_bytes(),
            verify_body(response.as_bytes(), MODEL, &want),
        )
    }

    #[test]
    fn another_seed_changes_the_payloads_and_still_verifies() {
        let (first, first_verdict) = served(1);
        let (second, second_verdict) = served(2);
        assert_eq!(first_verdict, Ok(()));
        assert_eq!(second_verdict, Ok(()));
        assert_ne!(first, second);
        assert_eq!(served(1).0, first, "the same seed gives the same payloads");
    }
}
