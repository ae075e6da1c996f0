//! The `sls-serve` binary end to end: argument validation, and the one
//! parallel policy every subcommand installs.

use sls_linalg::ENV_THREADS;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `sls-serve args` with `SLS_PARALLEL_THREADS` set to `threads_env`,
/// or removed from the child's environment when `None`.
fn sls_serve(args: &[&str], threads_env: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_sls-serve"));
    command.args(args).env_remove(ENV_THREADS);
    if let Some(threads) = threads_env {
        command.env(ENV_THREADS, threads);
    }
    command.output().expect("sls-serve runs")
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
    for flag in ["--instances", "--dims", "--clusters"] {
        let csv = dir.join("blobs.csv");
        let csv_arg = csv.to_str().unwrap();
        let synth = sls_serve(&["synth", "--out", csv_arg, flag, "0"], None);
        assert_rejected(&synth, flag);
        assert!(!csv.exists(), "synth {flag} 0 wrote {}", csv.display());

        let out = dir.join("artifacts");
        let export = sls_serve(&["export", "--out", out.to_str().unwrap(), flag, "0"], None);
        assert_rejected(&export, flag);
        assert!(!out.exists(), "export {flag} 0 wrote {}", out.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    for subcommand in ["export", "retrain", "serve"] {
        let output = sls_serve(&[subcommand, "--min-par-rows", "4"], None);
        assert_rejected(&output, "unknown flag `--min-par-rows`");
    }
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
