//! Load generator for the `sls-serve` HTTP inference server: hammers the
//! `/features` and `/assign` endpoints from concurrent client threads,
//! verifies every response against a precomputed reference, and reports
//! latency percentiles and throughput.
//!
//! ```sh
//! sls-serve export --out artifacts
//! sls-serve serve --dir artifacts --addr 127.0.0.1:7878 &
//! cargo run --release -p sls-bench --bin loadgen -- \
//!     --addr 127.0.0.1:7878 --model quick_demo --requests 400 --concurrency 100 \
//!     --keep-alive 1 --artifact artifacts/quick_demo.json
//! ```
//!
//! Requests cycle a fixed pool of deterministic row batches whose expected
//! responses are precomputed up front — in process from `--artifact PATH`
//! (fully independent of the server), or over serial warm-up HTTP requests
//! otherwise. Any response that is not bitwise identical (`f64::to_bits`)
//! to its reference counts as an error, and any error (mismatch, transport
//! failure, non-2xx status) exits non-zero, so CI can use the run both as a
//! smoke gate and as a bitwise-identity check.
//!
//! In-process references always come from the artifact at full precision:
//! [`PipelineArtifact::features_with`] and
//! [`PipelineArtifact::assign_with`] on its `f64` weights, the same calls
//! the server answers with.
//!
//! Every request goes to the `/v1/...` API, so the same run works against
//! `sls-serve serve` and `sls-serve route`. `--keep-alive 1` gives every
//! worker one reused connection instead of a connection per request.
//!
//! `--requests`, `--concurrency` and `--rows` must be at least 1, and a
//! flag given twice is an error: both exit non-zero, naming the flag,
//! before any connection is made.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::PipelineArtifact;
use sls_serve::{Client, Connection, LatencySummary};
use std::collections::{BTreeMap, BTreeSet};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--model NAME] [--requests N] \
[--concurrency N] [--rows N] [--mode features|assign|mix] [--seed N] \
[--keep-alive 0|1] [--artifact PATH]";

/// How many distinct row batches the workers cycle through. Small enough to
/// precompute references cheaply, large enough that concurrent in-flight
/// requests rarely carry identical payloads.
const REFERENCE_POOL: usize = 32;

struct Options {
    addr: String,
    model: String,
    requests: usize,
    concurrency: usize,
    rows: usize,
    mode: Mode,
    seed: u64,
    keep_alive: bool,
    artifact: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Features,
    Assign,
    Mix,
}

impl Mode {
    /// Which endpoint request number `i` of worker `w` should hit.
    fn pick(self, worker: usize, i: usize) -> &'static str {
        match self {
            Mode::Features => "features",
            Mode::Assign => "assign",
            Mode::Mix => {
                if (worker + i) % 2 == 0 {
                    "features"
                } else {
                    "assign"
                }
            }
        }
    }
}

/// One precomputed request payload with its expected responses.
struct Reference {
    rows: Vec<Vec<f64>>,
    /// `to_bits` of every expected feature value, row-aligned.
    feature_bits: Vec<Vec<u64>>,
    /// Expected cluster labels (empty when the model has no cluster head).
    assignments: Vec<usize>,
}

fn parse_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        other => Err(format!("invalid value `{other}` for `{flag}` (use 0/1)")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        model: "quick_demo".to_string(),
        requests: 200,
        concurrency: 16,
        rows: 16,
        mode: Mode::Mix,
        seed: 2023,
        keep_alive: false,
        artifact: None,
    };
    let mut seen = BTreeSet::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value\n{USAGE}"))?;
        // A size of zero has no meaning: reject it instead of running one.
        let positive = || match value.parse::<usize>() {
            Ok(0) => Err(format!("`{flag}` must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("invalid value `{value}` for `{flag}`")),
        };
        match flag.as_str() {
            "--addr" => options.addr = value.clone(),
            "--model" => options.model = value.clone(),
            "--requests" => options.requests = positive()?,
            "--concurrency" => options.concurrency = positive()?,
            "--rows" => options.rows = positive()?,
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid value `{value}` for `--seed`"))?;
            }
            "--mode" => {
                options.mode = match value.as_str() {
                    "features" => Mode::Features,
                    "assign" => Mode::Assign,
                    "mix" => Mode::Mix,
                    other => return Err(format!("unknown mode `{other}`\n{USAGE}")),
                };
            }
            "--keep-alive" => options.keep_alive = parse_bool(flag, value)?,
            "--artifact" => options.artifact = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        if !seen.insert(flag) {
            return Err(format!("flag `{flag}` given more than once"));
        }
    }
    Ok(options)
}

/// Builds the deterministic request-payload pool.
fn payload_pool(options: &Options, n_visible: usize) -> Vec<Vec<Vec<f64>>> {
    (0..REFERENCE_POOL.min(options.requests))
        .map(|k| {
            let mut rng = ChaCha8Rng::seed_from_u64(options.seed.wrapping_add(k as u64));
            (0..options.rows)
                .map(|_| (0..n_visible).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect()
        })
        .collect()
}

/// Precomputes the expected response for every pooled payload — in process
/// when an artifact is at hand (independent of the server), over serial
/// warm-up HTTP requests otherwise.
fn build_references(
    options: &Options,
    client: &Client,
    pool: Vec<Vec<Vec<f64>>>,
    has_cluster_head: bool,
) -> Result<Vec<Reference>, String> {
    let want_assign = options.mode != Mode::Features && has_cluster_head;
    if let Some(path) = &options.artifact {
        let model =
            PipelineArtifact::load(path).map_err(|e| format!("loading `{path}` failed: {e}"))?;
        let serial = ParallelPolicy::serial();
        return pool
            .into_iter()
            .map(|rows| {
                let matrix = Matrix::from_rows(&rows).map_err(|e| e.to_string())?;
                let features = model
                    .features_with(&matrix, &serial)
                    .map_err(|e| format!("in-process features failed: {e}"))?;
                let feature_bits = features
                    .row_iter()
                    .map(|row| row.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let assignments = if want_assign {
                    model
                        .assign_with(&matrix, &serial)
                        .map_err(|e| format!("in-process assign failed: {e}"))?
                } else {
                    Vec::new()
                };
                Ok(Reference {
                    rows,
                    feature_bits,
                    assignments,
                })
            })
            .collect();
    }
    // No artifact: one serial warm-up request per payload defines the
    // reference the concurrent run must reproduce.
    pool.into_iter()
        .map(|rows| {
            let features = client
                .features(&options.model, &rows)
                .map_err(|e| format!("warm-up features request failed: {e}"))?;
            let feature_bits = features
                .iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect();
            let assignments = if want_assign {
                client
                    .assign(&options.model, &rows)
                    .map_err(|e| format!("warm-up assign request failed: {e}"))?
            } else {
                Vec::new()
            };
            Ok(Reference {
                rows,
                feature_bits,
                assignments,
            })
        })
        .collect()
}

fn verify_features(reference: &Reference, answered: &[Vec<f64>]) -> Result<(), String> {
    let answered_bits: Vec<Vec<u64>> = answered
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect();
    if answered_bits != reference.feature_bits {
        return Err("features are not bitwise identical to the reference".to_string());
    }
    Ok(())
}

fn verify_assignments(reference: &Reference, answered: &[usize]) -> Result<(), String> {
    if answered != reference.assignments {
        return Err(format!(
            "assignments {answered:?} differ from the reference {:?}",
            reference.assignments
        ));
    }
    Ok(())
}

fn run(options: &Options) -> Result<(), String> {
    let addr = options
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{}`: {e}", options.addr))?
        .next()
        .ok_or_else(|| format!("`{}` resolved to no address", options.addr))?;
    let client = Client::new(addr);

    let health = client
        .health()
        .map_err(|e| format!("server health check failed: {e}"))?;
    let models = client
        .models()
        .map_err(|e| format!("listing models failed: {e}"))?;
    let info = models
        .models
        .iter()
        .find(|m| m.name == options.model)
        .ok_or_else(|| {
            format!(
                "model `{}` is not served (available: {})",
                options.model,
                models
                    .models
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    if options.mode != Mode::Features && info.n_clusters.is_none() {
        return Err(format!(
            "model `{}` has no cluster head; use --mode features",
            options.model
        ));
    }
    println!(
        "loadgen: {} requests x {} rows against http://{addr}/v1/models/{} \
         ({} healthy models, concurrency {}, visible width {}, keep-alive {})",
        options.requests,
        options.rows,
        options.model,
        health.models,
        options.concurrency,
        info.n_visible,
        if options.keep_alive { "on" } else { "off" },
    );

    let pool = payload_pool(options, info.n_visible);
    let references = build_references(options, &client, pool, info.n_clusters.is_some())?;
    println!(
        "  verifying against {} {} reference payloads",
        references.len(),
        if options.artifact.is_some() {
            "in-process"
        } else {
            "warm-up HTTP"
        }
    );
    // Per-endpoint latency samples and error messages, appended by workers.
    let samples: Mutex<BTreeMap<&'static str, Vec<Duration>>> = Mutex::new(BTreeMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let connections_opened = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..options.concurrency {
            let client = &client;
            let samples = &samples;
            let errors = &errors;
            let references = &references;
            let connections_opened = &connections_opened;
            let options_ref = &options;
            scope.spawn(move || {
                let mut connection: Option<Connection> =
                    options_ref.keep_alive.then(|| client.connect());
                // Workers split the total request budget as evenly as possible.
                let share = options_ref.requests / options_ref.concurrency
                    + usize::from(worker < options_ref.requests % options_ref.concurrency);
                for i in 0..share {
                    // Deterministic walk over the payload pool, de-phased
                    // per worker so concurrent requests mix payloads.
                    let reference = &references[(worker * 7 + i) % references.len()];
                    let endpoint = options_ref.mode.pick(worker, i);
                    let request_start = Instant::now();
                    let outcome = match (endpoint, connection.as_mut()) {
                        ("features", Some(conn)) => conn
                            .features(&options_ref.model, &reference.rows)
                            .map_err(|e| e.to_string())
                            .and_then(|f| verify_features(reference, &f)),
                        ("features", None) => client
                            .features(&options_ref.model, &reference.rows)
                            .map_err(|e| e.to_string())
                            .and_then(|f| verify_features(reference, &f)),
                        (_, Some(conn)) => conn
                            .assign(&options_ref.model, &reference.rows)
                            .map_err(|e| e.to_string())
                            .and_then(|a| verify_assignments(reference, &a)),
                        (_, None) => client
                            .assign(&options_ref.model, &reference.rows)
                            .map_err(|e| e.to_string())
                            .and_then(|a| verify_assignments(reference, &a)),
                    };
                    let elapsed = request_start.elapsed();
                    match outcome {
                        Ok(()) => {
                            samples
                                .lock()
                                .unwrap()
                                .entry(endpoint)
                                .or_default()
                                .push(elapsed);
                        }
                        Err(e) => errors.lock().unwrap().push(format!("{endpoint}: {e}")),
                    }
                }
                connections_opened.fetch_add(
                    match &connection {
                        Some(conn) => conn.connections_opened(),
                        None => share,
                    },
                    Ordering::Relaxed,
                );
            });
        }
    });
    let elapsed = started.elapsed();

    let samples = samples.into_inner().unwrap();
    let errors = errors.into_inner().unwrap();
    let mut all: Vec<Duration> = Vec::new();
    for (endpoint, endpoint_samples) in &samples {
        if let Some(summary) = LatencySummary::from_samples(endpoint_samples) {
            println!("  {endpoint:<9} {summary}");
        }
        all.extend_from_slice(endpoint_samples);
    }
    let Some(overall) = LatencySummary::from_samples(&all) else {
        return Err("no request succeeded".to_string());
    };
    let throughput = overall.throughput(elapsed);
    println!(
        "  overall   {overall} | elapsed {:.2?} | throughput {throughput:.1} req/s | \
         connections {} | errors {}",
        elapsed,
        connections_opened.load(Ordering::Relaxed),
        errors.len()
    );
    // Machine-greppable one-liner for BENCH tracking.
    println!(
        "loadgen-summary: keep_alive={} requests={} concurrency={} rows={} \
         throughput_rps={throughput:.1} connections={} errors={}",
        u8::from(options.keep_alive),
        options.requests,
        options.concurrency,
        options.rows,
        connections_opened.load(Ordering::Relaxed),
        errors.len()
    );
    if !errors.is_empty() {
        for message in errors.iter().take(5) {
            eprintln!("error: {message}");
        }
        if errors.len() > 5 {
            eprintln!("... and {} more", errors.len() - 5);
        }
        return Err(format!(
            "{} of {} requests failed",
            errors.len(),
            options.requests
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_options(&args).and_then(|options| run(&options));
    if let Err(message) = result {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error `parse_options` answers `args` with.
    fn rejection(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_options(&args) {
            Ok(_) => panic!("{args:?} was accepted"),
            Err(message) => message,
        }
    }

    #[test]
    fn zero_sizes_are_rejected_by_name() {
        for flag in ["--requests", "--concurrency", "--rows"] {
            let err = rejection(&[flag, "0"]);
            assert!(
                err.contains(&format!("`{flag}` must be at least 1")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_repeated_flag_is_rejected_by_name() {
        let err = rejection(&["--rows", "4", "--seed", "1", "--rows", "8"]);
        assert!(err.contains("`--rows`"), "{err}");
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn v1_is_an_unknown_flag() {
        let err = rejection(&["--v1", "1"]);
        assert!(err.contains("unknown flag `--v1`"), "{err}");
    }

    #[test]
    fn batch_report_is_an_unknown_flag() {
        let err = rejection(&["--batch-report", "1"]);
        assert!(err.contains("unknown flag `--batch-report`"), "{err}");
    }

    #[test]
    fn compact_is_an_unknown_flag() {
        let err = rejection(&["--compact", "1"]);
        assert!(err.contains("unknown flag `--compact`"), "{err}");
    }

    #[test]
    fn sizes_parse_as_given() {
        let args: Vec<String> = ["--requests", "7", "--concurrency", "3", "--rows", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_options(&args).expect("valid flags");
        assert_eq!(
            (options.requests, options.concurrency, options.rows),
            (7, 3, 2)
        );
    }
}
