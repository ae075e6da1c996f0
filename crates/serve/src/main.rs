//! `sls-serve`: train-and-export pipeline artifacts, or serve a directory of
//! them over HTTP.
//!
//! ```sh
//! sls-serve export --out artifacts [--name quick_demo] [--model sls-grbm]
//!                  [--instances 90] [--dims 8] [--clusters 3] [--seed 2023]
//!                  [--threads N]
//! sls-serve serve  --dir artifacts [--addr 127.0.0.1:7878]
//!                  [--threads N] [--keepalive-timeout-ms N]
//!                  [--max-conn-requests N] [--max-body-bytes N] [--max-conns N]
//!                  [--watch-interval-ms N]
//! sls-serve route  --replicas HOST:PORT,HOST:PORT [--addr 127.0.0.1:7900]
//!                  [--replication 2] [--health-interval-ms 250]
//!                  [--upstream-timeout-ms 10000] ...
//! ```
//!
//! `serve` and `route` each run one acceptor thread, which hands every
//! connection to its own handler thread. Sizes and intervals that have no
//! zero meaning (`--instances`, `--dims`, `--clusters` of `export` and
//! `synth`, `--chunk-size`, `--sample-rows`, `--replication`,
//! `--health-interval-ms`, `--upstream-timeout-ms`) must be at least 1; a
//! zero is rejected by name before any file is written or socket bound.
//!
//! One linalg policy per process: `export`, `retrain` and `serve` install
//! it before any work starts, from `--threads N`, else
//! `SLS_PARALLEL_THREADS`, else one thread per core (`0`). `threads` turns
//! fan-out on and sets the chunk count of a kernel call with enough work to
//! split (about four per thread); the caller and the persistent worker
//! pool, which `serve` starts at bind time, claim the chunks. Smaller calls
//! run inline. Results are bitwise identical for every policy.
//!
//! Connection handling, the same four flags on `serve` and `route`:
//! `--keepalive-timeout-ms` bounds how long an idle connection is held
//! (default 5000); `--max-conn-requests` caps requests per connection
//! (default 1000; `1` serves one request per connection);
//! `--max-body-bytes` caps the request body (default 16 MiB); `--max-conns`
//! caps concurrent connections (default 1024, excess answered 503).
//! Flags are the only way to set these; the environment only carries the
//! process-wide linalg policy (`SLS_PARALLEL_*`). Each request computes on
//! its own handler thread: all of its rows through one matrix product.
//!
//! Registry lifecycle: every artifact serves with the `f64` weights it was
//! exported with. `POST /v1/admin/reload` re-scans `--dir` and atomically
//! swaps in a new registry generation without dropping in-flight requests
//! or open keep-alive connections — a corrupt artifact rejects the whole
//! reload and the old generation keeps serving; `--watch-interval-ms N`
//! (0 = off, the default) polls the directory fingerprint and triggers the
//! same reload on change. Export stamps artifacts with `trained_at`/`source`
//! provenance, reported by `GET /v1/models`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::ParallelPolicy;
use sls_rbm_core::{ModelKind, PipelineArtifact, SlsConfig, SlsPipelineConfig};
use sls_serve::{LiveRegistry, RetrainOptions, Router, RouterConfig, ServeOptions, Server};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The connection flags `serve` and `route` share, read by [`serve_options`].
const CONNECTION_FLAGS: [&str; 4] = [
    "--keepalive-timeout-ms",
    "--max-conn-requests",
    "--max-body-bytes",
    "--max-conns",
];

const USAGE: &str = "usage:
  sls-serve export  --out DIR [--name NAME] [--model rbm|grbm|sls-rbm|sls-grbm]
                    [--instances N] [--dims N] [--clusters N] [--seed N]
                    [--threads N]
  sls-serve synth   --out FILE [--instances N] [--dims N] [--clusters N]
                    [--separation X] [--seed N]
  sls-serve retrain --data FILE --out DIR [--name NAME]
                    [--model rbm|grbm|sls-rbm|sls-grbm] [--hidden N] [--clusters N]
                    [--chunk-size N] [--sample-rows N] [--epochs N] [--batch-size N]
                    [--learning-rate X] [--eta X] [--seed N]
                    [--checkpoint FILE] [--stop-after-epochs N] [--has-header 0|1]
                    [--threads N]
  sls-serve serve   --dir DIR [--addr HOST:PORT] [--threads N]
                    [--watch-interval-ms N] CONNECTION
  sls-serve route   --replicas HOST:PORT[,HOST:PORT...] [--addr HOST:PORT]
                    [--replication N] [--health-interval-ms N]
                    [--upstream-timeout-ms N] CONNECTION

  CONNECTION: [--keepalive-timeout-ms N] [--max-conn-requests N]
              [--max-body-bytes N] [--max-conns N]
              (--max-conn-requests 1 serves one request per connection)
  --threads N: default SLS_PARALLEL_THREADS, else 0 (one per core)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("export") => run_export(&args[1..]),
        Some("synth") => run_synth(&args[1..]),
        Some("retrain") => run_retrain(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("route") => run_route(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag value` pairs into a map, rejecting unknown and repeated
/// flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`\n{USAGE}"));
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value\n{USAGE}"))?;
        if flags
            .insert(flag.trim_start_matches('-').to_string(), value.clone())
            .is_some()
        {
            return Err(format!("flag `{flag}` given more than once"));
        }
    }
    Ok(flags)
}

/// Installs the process's one parallel policy, before anything reads it:
/// `--threads N`, else `SLS_PARALLEL_THREADS`, else one thread per core.
/// Everything downstream reads it back through [`ParallelPolicy::global`].
fn install_parallel_policy(flags: &BTreeMap<String, String>) -> Result<ParallelPolicy, String> {
    let env_threads =
        std::env::var_os(sls_linalg::ENV_THREADS).map_or(0, |_| ParallelPolicy::global().threads);
    let policy = ParallelPolicy::new(parsed(flags, "threads", env_threads)?);
    ParallelPolicy::set_global(policy);
    Ok(policy)
}

/// The `0|1` flag spellings: `1`/`true` and `0`/`false`, case-insensitively,
/// ignoring surrounding whitespace. One parser for every flag, so no
/// spelling is accepted in one place and rejected in another.
fn parse_bool(raw: &str) -> Option<bool> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => None,
    }
}

/// The connection options from [`CONNECTION_FLAGS`], defaulting each one to
/// [`ServeOptions::default`].
fn serve_options(flags: &BTreeMap<String, String>) -> Result<ServeOptions, String> {
    let defaults = ServeOptions::default();
    Ok(ServeOptions {
        idle_timeout: Duration::from_millis(parsed(
            flags,
            "keepalive-timeout-ms",
            defaults.idle_timeout.as_millis() as u64,
        )?),
        max_requests_per_connection: parsed(
            flags,
            "max-conn-requests",
            defaults.max_requests_per_connection,
        )?,
        max_body_bytes: parsed(flags, "max-body-bytes", defaults.max_body_bytes)?,
        max_connections: parsed(flags, "max-conns", defaults.max_connections)?,
    })
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --{name}")),
    }
}

/// [`parsed`] for a size or duration that must be at least 1.
fn parsed_positive<T: std::str::FromStr + PartialEq + From<u8>>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    let value = parsed(flags, name, default)?;
    if value == T::from(0) {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(value)
}

/// Formats seconds since the Unix epoch as `YYYY-MM-DDThh:mm:ssZ`, using
/// the standard days-to-civil-date conversion (valid for any date after
/// 1970, which Unix seconds guarantee here).
fn iso8601_utc(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (hour, minute, second) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:{second:02}Z")
}

fn run_export(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--out",
            "--name",
            "--model",
            "--instances",
            "--dims",
            "--clusters",
            "--seed",
            "--threads",
        ],
    )?;
    let parallel = install_parallel_policy(&flags)?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "artifacts".to_string());
    let name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| "quick_demo".to_string());
    let kind_name = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "sls-grbm".to_string());
    let kind = ModelKind::parse(&kind_name)
        .ok_or_else(|| format!("unknown model kind `{kind_name}` (rbm|grbm|sls-rbm|sls-grbm)"))?;
    let instances = parsed_positive(&flags, "instances", 90)?;
    let dims = parsed_positive(&flags, "dims", 8)?;
    let clusters = parsed_positive(&flags, "clusters", 3)?;
    let seed = parsed(&flags, "seed", 2023u64)?;

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dataset = SyntheticBlobs::new(instances, dims, clusters)
        .separation(5.0)
        .generate(&mut rng);
    let config = SlsPipelineConfig::quick_demo().with_clusters(clusters);
    eprintln!(
        "training {} on {instances}x{dims} synthetic blobs ({clusters} clusters, seed {seed}, \
         {} linalg thread(s))...",
        kind.as_str(),
        parallel.threads
    );
    let fitted = PipelineArtifact::fit(kind, config, dataset.features(), &mut rng)
        .map_err(|e| format!("training failed: {e}"))?;

    let trained_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| iso8601_utc(d.as_secs()));
    let source = format!(
        "sls-serve export --model {} --instances {instances} --dims {dims} \
         --clusters {clusters} --seed {seed}",
        kind.as_str()
    );
    let artifact = fitted
        .artifact
        .clone()
        .with_provenance(trained_at, Some(source));
    let path = std::path::Path::new(&out).join(format!("{name}.json"));
    artifact
        .save(&path)
        .map_err(|e| format!("saving artifact failed: {e}"))?;
    let mut sizes = BTreeMap::new();
    for &label in &fitted.assignments {
        *sizes.entry(label).or_insert(0usize) += 1;
    }
    eprintln!(
        "exported {} (schema v{}, {} visible -> {} hidden, cluster sizes {:?}) to {}",
        name,
        fitted.artifact.schema_version,
        fitted.artifact.n_visible(),
        fitted.artifact.n_hidden(),
        sizes,
        path.display()
    );
    Ok(())
}

fn run_synth(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--out",
            "--instances",
            "--dims",
            "--clusters",
            "--separation",
            "--seed",
        ],
    )?;
    let out = flags
        .get("out")
        .cloned()
        .ok_or_else(|| format!("synth needs --out FILE\n{USAGE}"))?;
    let instances = parsed_positive(&flags, "instances", 2000)?;
    let dims = parsed_positive(&flags, "dims", 8)?;
    let clusters = parsed_positive(&flags, "clusters", 3)?;
    let separation = parsed(&flags, "separation", 5.0f64)?;
    let seed = parsed(&flags, "seed", 2023u64)?;
    sls_serve::write_synthetic_csv(&out, instances, dims, clusters, separation, seed)
        .map_err(|e| format!("writing {out} failed: {e}"))?;
    eprintln!(
        "wrote {instances}x{dims} synthetic blobs ({clusters} clusters, seed {seed}) to {out}"
    );
    Ok(())
}

fn run_retrain(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "--data",
            "--out",
            "--name",
            "--model",
            "--hidden",
            "--clusters",
            "--chunk-size",
            "--sample-rows",
            "--epochs",
            "--batch-size",
            "--learning-rate",
            "--eta",
            "--seed",
            "--checkpoint",
            "--stop-after-epochs",
            "--has-header",
            "--threads",
        ],
    )?;
    install_parallel_policy(&flags)?;
    let data = flags
        .get("data")
        .cloned()
        .ok_or_else(|| format!("retrain needs --data FILE\n{USAGE}"))?;
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "artifacts".to_string());
    let mut options = RetrainOptions::new(&data, &out);
    if let Some(name) = flags.get("name") {
        options.name = name.clone();
    }
    if let Some(kind_name) = flags.get("model") {
        options.model_kind = ModelKind::parse(kind_name).ok_or_else(|| {
            format!("unknown model kind `{kind_name}` (rbm|grbm|sls-rbm|sls-grbm)")
        })?;
    }
    if let Some(raw) = flags.get("has-header") {
        options.csv.has_header = parse_bool(raw).ok_or_else(|| {
            format!("invalid value `{raw}` for --has-header (use 0/1/true/false)")
        })?;
    }
    options.n_hidden = parsed(&flags, "hidden", options.n_hidden)?;
    options.n_clusters = parsed(&flags, "clusters", options.n_clusters)?;
    options.chunk_size = parsed_positive(&flags, "chunk-size", options.chunk_size)?;
    options.sample_rows = parsed_positive(&flags, "sample-rows", options.sample_rows)?;
    options.train = options
        .train
        .with_epochs(parsed(&flags, "epochs", options.train.epochs)?)
        .with_batch_size(parsed(&flags, "batch-size", options.train.batch_size)?)
        .with_learning_rate(parsed(
            &flags,
            "learning-rate",
            options.train.learning_rate,
        )?);
    options.sls = SlsConfig::new(parsed(&flags, "eta", options.sls.eta)?);
    options.seed = parsed(&flags, "seed", options.seed)?;
    if let Some(path) = flags.get("checkpoint") {
        options.checkpoint = path.into();
    }
    if let Some(raw) = flags.get("stop-after-epochs") {
        let epochs: usize = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --stop-after-epochs"))?;
        options.stop_after_epochs = Some(epochs);
    }
    options.trained_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| iso8601_utc(d.as_secs()));
    options.source = Some(format!(
        "sls-serve retrain --data {data} --model {} --seed {}",
        options.model_kind.as_str(),
        options.seed
    ));

    eprintln!(
        "retraining {} from {data} (chunks of {}, {} sample rows, seed {}, {} linalg thread(s))...",
        options.model_kind.as_str(),
        options.chunk_size,
        options.sample_rows,
        options.seed,
        options.parallel.threads
    );
    let outcome = sls_serve::retrain(&options).map_err(|e| format!("retrain failed: {e}"))?;
    if let Some(summary) = &outcome.supervision {
        eprintln!(
            "supervision: {} credible clusters covering {:.1}% of the sample",
            summary.n_clusters,
            summary.coverage * 100.0
        );
    }
    for stats in &outcome.history.epochs {
        eprintln!(
            "epoch {:>3}: reconstruction error {:.6}",
            stats.epoch, stats.reconstruction_error
        );
    }
    eprintln!(
        "{} after {}/{} epoch(s){}; checkpoint at {}",
        if outcome.completed {
            "complete"
        } else {
            "stopped"
        },
        outcome.epochs_done,
        outcome.epochs_total,
        if outcome.resumed {
            " (resumed from checkpoint)"
        } else {
            ""
        },
        outcome.checkpoint_path.display()
    );
    match &outcome.artifact_path {
        Some(path) => eprintln!(
            "exported {} to {} — a watching `sls-serve serve` instance picks it up on its next \
             poll, or immediately via POST /v1/admin/reload",
            options.name,
            path.display()
        ),
        None => eprintln!("no artifact exported yet; rerun the same command to resume"),
    }
    Ok(())
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            &["--dir", "--addr", "--threads", "--watch-interval-ms"][..],
            &CONNECTION_FLAGS,
        ]
        .concat(),
    )?;
    let parallel = install_parallel_policy(&flags)?;
    let dir = flags
        .get("dir")
        .cloned()
        .unwrap_or_else(|| "artifacts".to_string());
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let watch_ms = parsed(&flags, "watch-interval-ms", 0u64)?;
    let options = serve_options(&flags)?;

    let live = LiveRegistry::from_dir(&dir, false)
        .map_err(|e| format!("loading artifacts failed: {e}"))?;
    for (name, model) in live.current().registry.iter() {
        eprintln!(
            "loaded {} ({}, schema v{}, {} visible -> {} hidden, {} param bytes)",
            name,
            model.model_kind.as_str(),
            model.schema_version,
            model.n_visible(),
            model.n_hidden(),
            model.params.param_bytes()
        );
    }
    let server = Server::bind(addr.as_str(), Arc::new(live))
        .map_err(|e| format!("bind failed: {e}"))?
        .with_watch((watch_ms > 0).then(|| Duration::from_millis(watch_ms)))
        .with_options(options);
    let local = server
        .local_addr()
        .map_err(|e| format!("local address unavailable: {e}"))?;
    eprintln!(
        "serving on http://{local} with {} linalg thread(s) per request, \
         watch {} (POST /v1/admin/reload to hot swap, Ctrl-C to stop)",
        parallel.threads,
        if watch_ms > 0 {
            format!("every {watch_ms}ms")
        } else {
            "off".to_string()
        }
    );
    let handle = server.start().map_err(|e| format!("start failed: {e}"))?;
    handle.join();
    Ok(())
}

fn run_route(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            &[
                "--replicas",
                "--addr",
                "--replication",
                "--health-interval-ms",
                "--upstream-timeout-ms",
            ][..],
            &CONNECTION_FLAGS,
        ]
        .concat(),
    )?;
    let raw_replicas = flags
        .get("replicas")
        .ok_or_else(|| format!("route needs --replicas HOST:PORT[,HOST:PORT...]\n{USAGE}"))?;
    let mut replicas = Vec::new();
    for entry in raw_replicas.split(',').filter(|s| !s.trim().is_empty()) {
        use std::net::ToSocketAddrs;
        let addr = entry
            .trim()
            .to_socket_addrs()
            .map_err(|e| format!("invalid replica address `{entry}`: {e}"))?
            .next()
            .ok_or_else(|| format!("replica address `{entry}` resolved to nothing"))?;
        replicas.push(addr);
    }
    if replicas.is_empty() {
        return Err(format!("--replicas needs at least one HOST:PORT\n{USAGE}"));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7900".to_string());
    let replica_count = replicas.len();
    let config = RouterConfig::new(replicas)
        .with_replication(parsed_positive(&flags, "replication", 2)?)
        .with_health_interval(Duration::from_millis(parsed_positive(
            &flags,
            "health-interval-ms",
            250,
        )?))
        .with_upstream_timeout(Duration::from_millis(parsed_positive(
            &flags,
            "upstream-timeout-ms",
            10_000,
        )?));
    let replication = config.replication.min(replica_count);
    let options = serve_options(&flags)?;
    let router = Router::bind(addr.as_str(), config)
        .map_err(|e| format!("bind failed: {e}"))?
        .with_options(options);
    let local = router
        .local_addr()
        .map_err(|e| format!("local address unavailable: {e}"))?;
    eprintln!(
        "routing on http://{local} across {replica_count} replica(s) ({raw_replicas}), \
         replication {replication} (POST /v1/admin/reload fans out, \
         POST /v1/admin/drain removes a replica, Ctrl-C to stop)"
    );
    let handle = router.start().map_err(|e| format!("start failed: {e}"))?;
    handle.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_flag_spellings() {
        for raw in ["1", "true", "TRUE", " True "] {
            assert_eq!(parse_bool(raw), Some(true), "{raw}");
        }
        for raw in ["0", "false", "FALSE", " False "] {
            assert_eq!(parse_bool(raw), Some(false), "{raw}");
        }
        assert_eq!(parse_bool("yes"), None);
        assert_eq!(parse_bool(""), None);
    }

    #[test]
    fn serve_and_route_share_the_connection_flags() {
        let args: Vec<String> = ["--max-conn-requests", "1", "--max-conns", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args, &CONNECTION_FLAGS).unwrap();
        let options = serve_options(&flags).unwrap();
        assert_eq!(options.max_requests_per_connection, 1);
        assert_eq!(options.max_connections, 8);
        assert_eq!(options.idle_timeout, ServeOptions::default().idle_timeout);
        let keep_alive = vec!["--keep-alive".to_string(), "0".to_string()];
        assert!(parse_flags(&keep_alive, &CONNECTION_FLAGS).is_err());
    }

    #[test]
    fn a_repeated_flag_is_rejected_by_name() {
        let args: Vec<String> = ["--max-conns", "8", "--max-conns", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_flags(&args, &CONNECTION_FLAGS).unwrap_err();
        assert!(err.contains("`--max-conns`"), "{err}");
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn iso8601_matches_known_timestamps() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(86_399), "1970-01-01T23:59:59Z");
        // 2025-01-01T00:00:00Z and a leap-year date (2024-02-29T12:00:00Z).
        assert_eq!(iso8601_utc(1_735_689_600), "2025-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(1_709_208_000), "2024-02-29T12:00:00Z");
    }
}
