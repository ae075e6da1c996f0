//! The `sls-serve` binary end to end: argument validation, the one
//! parallel policy every subcommand installs, and the address `serve` and
//! `route` announce.

use sls_linalg::ENV_THREADS;
use sls_serve::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long a subcommand that should finish may run. A `serve` or `route`
/// that starts instead of rejecting its flags is killed after this, so the
/// test fails instead of hanging.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `sls-serve args` with `SLS_PARALLEL_THREADS` set to `threads_env`,
/// or removed from the child's environment when `None`.
fn sls_serve(args: &[&str], threads_env: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_sls-serve"));
    command
        .args(args)
        .env_remove(ENV_THREADS)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(threads) = threads_env {
        command.env(ENV_THREADS, threads);
    }
    let mut child = command.spawn().expect("sls-serve runs");
    let deadline = Instant::now() + DEADLINE;
    while child.try_wait().expect("sls-serve status").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    child.wait_with_output().expect("sls-serve output")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sls_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Asserts `output` is a usage failure (exit 1, not a panic) whose message
/// contains `needle`.
fn assert_rejected(output: &Output, needle: &str) {
    let err = stderr(output);
    assert_eq!(output.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains(needle), "expected `{needle}` in: {err}");
}

/// The linalg thread count a training subcommand reports on stderr.
fn reported_threads(output: &Output) -> usize {
    let err = stderr(output);
    assert!(output.status.success(), "stderr: {err}");
    let (before, _) = err
        .split_once(" linalg thread(s)")
        .unwrap_or_else(|| panic!("no thread count in: {err}"));
    let count = before.rsplit(' ').next().unwrap();
    count.parse().unwrap()
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn zero_sizes_are_rejected_before_any_file_is_written() {
    let dir = scratch("zero");
    let csv = dir.join("blobs.csv");
    let csv_arg = csv.to_str().unwrap();
    let out = dir.join("artifacts");
    let out_arg = out.to_str().unwrap();
    for flag in ["--instances", "--dims", "--clusters"] {
        let synth = sls_serve(&["synth", "--out", csv_arg, flag, "0"], None);
        assert_rejected(&synth, flag);
        assert!(!csv.exists(), "synth {flag} 0 wrote {}", csv.display());

        let export = sls_serve(&["export", "--out", out_arg, flag, "0"], None);
        assert_rejected(&export, flag);
        assert!(!out.exists(), "export {flag} 0 wrote {}", out.display());
    }

    let synth = sls_serve(&["synth", "--out", csv_arg, "--instances", "60"], None);
    assert!(synth.status.success(), "stderr: {}", stderr(&synth));
    for flag in ["--chunk-size", "--sample-rows"] {
        let retrain = sls_serve(
            &[
                "retrain", "--data", csv_arg, "--out", out_arg, "--epochs", "1", flag, "0",
            ],
            None,
        );
        assert_rejected(&retrain, flag);
        assert!(!out.exists(), "retrain {flag} 0 wrote {}", out.display());
    }

    for flag in [
        "--replication",
        "--health-interval-ms",
        "--upstream-timeout-ms",
    ] {
        let route = sls_serve(
            &[
                "route",
                "--replicas",
                "127.0.0.1:9",
                "--addr",
                "127.0.0.1:0",
                flag,
                "0",
            ],
            None,
        );
        assert_rejected(&route, flag);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Removed serving modes (cross-request batching, compact `f32` weights)
/// have no flags left: a deployment script that still passes one fails at
/// once, naming the flag, instead of serving without the setting it asked
/// for.
#[test]
fn removed_serving_flags_fail_closed() {
    for (flag, value) in [
        ("--batch-window-us", "200"),
        ("--batch-max-rows", "256"),
        ("--compact", "1"),
    ] {
        let serve = sls_serve(&["serve", "--addr", "127.0.0.1:0", flag, value], None);
        assert_rejected(&serve, &format!("unknown flag `{flag}`"));
    }
}

/// Retrains on a `synth` CSV whose first feature is `value` on data lines
/// `lines` (0-based) and asserts that the retrain fails by naming column 0
/// and exports no artifact.
fn assert_retrain_rejects_column_0(tag: &str, lines: std::ops::Range<usize>, value: &str) {
    let dir = scratch(tag);
    let csv = dir.join("blobs.csv");
    let csv_arg = csv.to_str().unwrap();
    let synth = sls_serve(
        &[
            "synth",
            "--out",
            csv_arg,
            "--instances",
            "300",
            "--dims",
            "6",
            "--clusters",
            "3",
            "--seed",
            "3",
        ],
        None,
    );
    assert!(synth.status.success(), "stderr: {}", stderr(&synth));
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut rows: Vec<String> = text.lines().map(str::to_string).collect();
    for line in &mut rows[lines] {
        let (_, rest) = line.split_once(',').unwrap();
        *line = format!("{value},{rest}");
    }
    std::fs::write(&csv, rows.join("\n") + "\n").unwrap();

    let out = dir.join("artifacts");
    let retrain = sls_serve(
        &["retrain", "--data", csv_arg, "--out", out.to_str().unwrap()],
        None,
    );
    assert_rejected(&retrain, "column 0");
    assert!(
        !out.join("retrained.json").exists(),
        "a failed retrain exported an artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_column_whose_sum_overflows_fails_retrain_by_name() {
    // Both values are finite, so the CSV parser accepts them, but their sum
    // is not: the column mean overflowed to infinity and standardising
    // turned the whole column into NaN, which density peaks panicked on.
    assert_retrain_rejects_column_0("overflow", 5..7, "1.7e308");
}

#[test]
fn a_column_whose_std_overflows_fails_retrain_by_name() {
    // A lone finite 1e200 keeps the mean finite, but its squared deviation
    // is not: the column's standard deviation was infinite, and the
    // exported `stds` entry was a JSON `null` that `serve` refused to load.
    assert_retrain_rejects_column_0("std_overflow", 5..6, "1e200");
}

#[test]
fn a_repeated_flag_is_rejected() {
    let dir = scratch("repeated");
    let out = dir.join("artifacts");
    let export = sls_serve(
        &[
            "export",
            "--out",
            out.to_str().unwrap(),
            "--seed",
            "1",
            "--seed",
            "2",
        ],
        None,
    );
    assert_rejected(&export, "`--seed` given more than once");
    assert!(!out.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn min_par_rows_is_an_unknown_flag() {
    for (subcommand, flag) in [
        ("export", "--min-par-rows"),
        ("retrain", "--min-par-rows"),
        ("serve", "--min-par-rows"),
        ("serve", "--workers"),
        ("route", "--workers"),
    ] {
        let output = sls_serve(&[subcommand, flag, "4"], None);
        assert_rejected(&output, &format!("unknown flag `{flag}`"));
    }
}

/// A running `serve` or `route` child, killed when dropped. It keeps its
/// stderr pipe open so the child never writes into a closed pipe.
struct Running {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `sls-serve args --addr 127.0.0.1:0` and reads the bound address
/// after `announce`, the stderr prefix the end-to-end benchmark parses.
fn start(args: &[&str], announce: &str) -> (Running, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sls-serve"))
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sls-serve starts");
    let mut running = Running {
        stderr: BufReader::new(child.stderr.take().expect("stderr is piped")),
        child,
    };
    let mut line = String::new();
    loop {
        line.clear();
        let read = running.stderr.read_line(&mut line).expect("stderr line");
        assert!(
            read > 0,
            "`sls-serve {}` exited before `{announce}`",
            args[0]
        );
        if let Some(rest) = line.strip_prefix(announce) {
            let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
            let addr = addr.unwrap_or_else(|| panic!("no address in `{line}`"));
            return (running, addr);
        }
    }
}

fn status(addr: SocketAddr, path: &str) -> u16 {
    Client::new(addr)
        .request("GET", path, "")
        .expect("the server answers")
        .status
}

#[test]
fn serve_and_route_announce_an_address_that_answers_healthz() {
    let dir = scratch("announce");
    let artifacts = dir.join("artifacts");
    let out = artifacts.to_str().unwrap();
    let export = sls_serve(
        &["export", "--out", out, "--instances", "30", "--dims", "4"],
        None,
    );
    assert!(export.status.success(), "stderr: {}", stderr(&export));

    let (_replica, replica) = start(&["serve", "--dir", out], "serving on http://");
    assert_eq!(status(replica, "/v1/healthz"), 200);
    assert_eq!(status(replica, "/healthz"), 404);
    let replicas = replica.to_string();
    let (_router, router) = start(&["route", "--replicas", &replicas], "routing on http://");
    assert_eq!(status(router, "/v1/healthz"), 200);
    assert_eq!(status(router, "/healthz"), 404);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_and_retrain_default_to_one_thread_per_core() {
    let dir = scratch("policy");
    let csv = dir.join("blobs.csv");
    let csv_arg = csv.to_str().unwrap();
    let synth = sls_serve(
        &[
            "synth",
            "--out",
            csv_arg,
            "--instances",
            "60",
            "--dims",
            "4",
        ],
        None,
    );
    assert!(synth.status.success(), "stderr: {}", stderr(&synth));
    let artifacts = dir.join("artifacts");
    let out = artifacts.to_str().unwrap();

    let export = |threads: &[&str], env: Option<&str>| {
        let mut args = vec!["export", "--out", out, "--instances", "30", "--dims", "4"];
        args.extend_from_slice(threads);
        reported_threads(&sls_serve(&args, env))
    };
    assert_eq!(export(&[], None), cores());
    assert_eq!(export(&["--threads", "1"], None), 1);
    assert_eq!(export(&[], Some("1")), 1);
    assert_eq!(export(&["--threads", "2"], Some("1")), 2);

    let retrain = |threads: &[&str], env: Option<&str>| {
        let mut args = vec!["retrain", "--data", csv_arg, "--out", out, "--epochs", "1"];
        args.extend_from_slice(threads);
        let threads = reported_threads(&sls_serve(&args, env));
        // A finished checkpoint would short-circuit the next run.
        std::fs::remove_file(artifacts.join("retrain-checkpoint.ckpt")).unwrap();
        threads
    };
    assert_eq!(retrain(&[], None), cores());
    assert_eq!(retrain(&["--threads", "1"], None), 1);
    assert_eq!(retrain(&[], Some("1")), 1);
    assert_eq!(retrain(&["--threads", "2"], Some("1")), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
