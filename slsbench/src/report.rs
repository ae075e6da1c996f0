//! The metric catalogue, the per-run outcome and the report: one JSON file
//! per run, and the result line on standard output.

use crate::trace::Span;
use crate::Context;
use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. An op is one request
/// on the serving workloads and one whole `sls-serve retrain` on
/// `retrain-msra`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("latency_p90_ms", "ms"),
    ("success_ratio", "ratio"),
    ("cluster_accuracy", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.read_us", "us"),
    ("api.decode_us", "us"),
    ("registry.kernel_us", "us"),
    ("api.encode_us", "us"),
    ("http.write_us", "us"),
    ("server.handler_us", "us"),
    ("server.unattributed_us", "us"),
    ("net.transport_us", "us"),
    ("router.hop_us", "us"),
    ("client.request_us", "us"),
    ("client.request_p99_us", "us"),
    ("api.request_bytes", "bytes"),
    ("api.response_bytes", "bytes"),
    ("client.requests_per_connection", "count"),
    ("registry.madds", "count"),
    ("process.peak_rss_mb", "MB"),
    ("router.forwards", "count"),
    ("router.retries", "count"),
    ("router.unrouted", "count"),
    ("router.retry_ratio", "ratio"),
    ("datasets.index_ms", "ms"),
    ("datasets.read_ms", "ms"),
    ("datasets.chunks_read", "count"),
    ("retrain.preprocess_ms", "ms"),
    ("clustering.affinity_propagation_ms", "ms"),
    ("clustering.density_peaks_ms", "ms"),
    ("clustering.kmeans_ms", "ms"),
    ("consensus.vote_ms", "ms"),
    ("consensus.coverage", "ratio"),
    ("core.train_ms", "ms"),
    ("core.epochs", "count"),
    ("core.recon_error", "mse"),
    ("core.train_madds", "count"),
    ("core.head_ms", "ms"),
    ("core.export_ms", "ms"),
    ("core.artifact_bytes", "bytes"),
    ("retrain.pipeline_ms", "ms"),
    ("retrain.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Lets a hand-built value tree go through the JSON writer.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Distinct problems kept for the report; the rest are only counted.
const MAX_PROBLEMS: usize = 20;

/// Ops attempted and failed in one phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub phases: BTreeMap<&'static str, Phase>,
    pub problems: Vec<String>,
    pub problems_dropped: usize,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one op of `phase`.
    pub fn count(&mut self, phase: &'static str, ok: bool) {
        self.phase(phase, 1, u64::from(!ok));
    }

    pub fn phase(&mut self, phase: &'static str, attempted: u64, failed: u64) {
        let entry = self.phases.entry(phase).or_default();
        entry.attempted += attempted;
        entry.failed += failed;
    }

    /// Records a failed check; any problem makes the run incorrect.
    pub fn problem(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS && !self.problems.contains(&problem) {
            self.problems.push(problem);
        } else {
            self.problems_dropped += 1;
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn totals(&self) -> Phase {
        self.phases.values().fold(Phase::default(), |sum, p| Phase {
            attempted: sum.attempted + p.attempted,
            failed: sum.failed + p.failed,
        })
    }
}

/// Machine and code identity recorded with every report.
fn machine(ctx: &Context) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::Object(vec![
        ("cores".to_string(), Value::Int(cores as i64)),
        ("cpu".to_string(), Value::Str(cpu)),
        (
            "commit".to_string(),
            git_commit().map_or(Value::Null, Value::Str),
        ),
        ("seed".to_string(), Value::Str(ctx.seed.to_string())),
    ])
}

/// The checked-out commit, when the run happens inside a git work tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Completes the metric set, writes the report and trace files, and prints
/// the result line.
pub fn finish(ctx: &Context, mut outcome: Outcome) -> Result<(), String> {
    let catalogue = if ctx.trace { PER_LAYER } else { END_TO_END };
    let totals = outcome.totals();
    if !ctx.trace {
        let succeeded = totals.attempted - totals.failed;
        outcome.set(
            "success_ratio",
            succeeded as f64 / totals.attempted.max(1) as f64,
        );
    }
    for name in outcome.metrics.keys() {
        if !catalogue.iter().any(|(known, _)| known == name) {
            return Err(format!("metric `{name}` is not in the catalogue"));
        }
    }
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(&value) => value,
            None if ctx.trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let correct = outcome.problems.is_empty() && totals.failed == 0 && totals.attempted > 0;
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Int(totals.attempted.max(1) as i64),
        ),
        ("failed".to_string(), Value::Int(totals.failed as i64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);

    let phases = outcome
        .phases
        .iter()
        .map(|(name, p)| {
            let counts = vec![
                ("attempted".to_string(), Value::Int(p.attempted as i64)),
                (
                    "succeeded".to_string(),
                    Value::Int((p.attempted - p.failed) as i64),
                ),
                ("failed".to_string(), Value::Int(p.failed as i64)),
            ];
            (name.to_string(), Value::Object(counts))
        })
        .collect();
    let strings = |items: &[String]| Value::Array(items.iter().cloned().map(Value::Str).collect());
    let report = Value::Object(vec![
        ("workload".to_string(), Value::Str(ctx.workload.clone())),
        ("trace".to_string(), Value::Bool(ctx.trace)),
        ("seconds".to_string(), Value::Float(ctx.seconds)),
        ("machine".to_string(), machine(ctx)),
        ("phases".to_string(), Value::Object(phases)),
        ("problems".to_string(), strings(&outcome.problems)),
        (
            "problems_dropped".to_string(),
            Value::Int(outcome.problems_dropped as i64),
        ),
        ("notes".to_string(), strings(&outcome.notes)),
        ("result".to_string(), result.clone()),
    ]);
    let report = serde_json::to_string_pretty(&Json(report)).map_err(crate::text)?;
    let stem = ctx.work.to_string_lossy();
    std::fs::write(format!("{stem}.report.json"), &report)
        .map_err(|e| format!("writing the report: {e}"))?;
    if ctx.trace {
        crate::trace::write_spans(format!("{stem}.spans.jsonl").as_ref(), &outcome.spans)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    eprintln!("{report}");
    println!(
        "{}",
        serde_json::to_string(&Json(result)).map_err(crate::text)?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{DeError, Deserialize};

    struct Tree(Value);

    impl Deserialize for Tree {
        fn from_value(value: &Value) -> Result<Self, DeError> {
            Ok(Tree(value.clone()))
        }
    }

    /// `(name, unit)` of every entry of one metric list in BENCHMARK.json.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let Tree(root) = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |value: &Value, name: &str| {
            serde::field(value.as_object().unwrap(), name)
                .unwrap()
                .clone()
        };
        field(&root, list)
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |name| field(m, name).as_str().unwrap().to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }
}
