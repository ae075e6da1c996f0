//! `slsbench`: the end-to-end and per-layer benchmark of `sls-serve`.
//!
//! ```sh
//! python3 slsbench/run.py --workload route-assign-wide --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `run.py` builds `sls-serve` and this binary from source and passes the
//! server binary as `--serve-bin`. Each run generates its inputs from
//! `--seed`, drives the real `sls-serve` binaries with their default flags,
//! checks every output, writes `.slsbench_run/<run>.report.json` and prints
//! the result as the last line of standard output. With `--trace 1` it
//! prints the per-layer split instead of the end-to-end metrics and writes
//! the spans to `.slsbench_run/<run>.spans.jsonl`. See `README.md` for the
//! workloads and metrics.

mod load;
mod procs;
mod report;
mod retrain;
mod serving;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: slsbench --serve-bin PATH --workload serve-features-256|route-assign-wide|retrain-msra \
--seed N --seconds N --trace 0|1";

/// Where runs keep their inputs, reports and traces, relative to the
/// checkout root.
const RUN_DIR: &str = ".slsbench_run";

/// One run's arguments.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

impl Context {
    /// How long the measured phase of an untraced run lasts.
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = std::collections::BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    flags.insert(flag.as_str(), value.clone());
                }
                _ => return Err(USAGE.to_string()),
            }
        }
        let mut take = |name: &str| {
            flags
                .remove(name)
                .ok_or_else(|| format!("missing {name}\n{USAGE}"))
        };
        let workload = take("--workload")?;
        let seed = take("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?;
        let seconds: f64 = take("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number".to_string())?;
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        let serve_bin = PathBuf::from(take("--serve-bin")?);
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}\n{USAGE}"));
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        let work =
            PathBuf::from(RUN_DIR).join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            serve_bin,
            work,
        })
    }
}

/// Error-to-message conversion for `map_err`.
pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A path as a command-line argument.
pub fn path_str(path: &std::path::Path) -> String {
    path.to_string_lossy().into_owned()
}

/// A seeded random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut impl rand::Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// A stray `SLS_*` setting would change the program's policy defaults, so
/// a run refuses to measure under one.
fn refuse_sls_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("SLS_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: every run measures the defaults",
            set.join(", ")
        ))
    }
}

fn run() -> Result<(), String> {
    refuse_sls_environment()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = Context::parse(&args)?;
    if !ctx.serve_bin.is_file() {
        return Err(format!(
            "no sls-serve binary at {}",
            ctx.serve_bin.display()
        ));
    }
    std::fs::remove_dir_all(&ctx.work).ok();
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("creating {}: {e}", ctx.work.display()))?;
    let outcome = match ctx.workload.as_str() {
        "serve-features-256" => serving::run(&serving::SERVE_FEATURES_256, &ctx),
        "route-assign-wide" => serving::run(&serving::ROUTE_ASSIGN_WIDE, &ctx),
        "retrain-msra" => retrain::run(&ctx),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    report::finish(&ctx, outcome)?;
    std::fs::remove_dir_all(&ctx.work).ok();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("slsbench: {message}");
            ExitCode::FAILURE
        }
    }
}
