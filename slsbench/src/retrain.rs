//! The `retrain-msra` workload: repeated `sls-serve retrain` runs on an
//! MSRA-MM 2.0 stand-in, and the traced in-process rebuild of the same
//! pipeline from the program's public functions.

use crate::report::Outcome;
use crate::trace::{self, timed, Span, Tracer};
use crate::{path_str, text, Context};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_clustering::{ClusterAssignment, Clusterer};
use sls_consensus::LocalSupervisionBuilder;
use sls_datasets::{
    generate_msra_dataset, leading_sample, ChunkSource, ChunkedCsvReader, Dataset, MsraDatasetId,
};
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{
    base_clusterers, ClusterHead, FittedPreprocessor, PipelineArtifact, Preprocessing, StreamLimit,
    StreamTrainer, TrainCheckpoint, VisibleKind,
};
use sls_serve::RetrainOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Untraced runs set up this many times and report the median.
const SETUPS: usize = 5;
/// Fewest retrains an untraced run measures, however long they take.
const MIN_RETRAINS: usize = 3;
/// Seed tags `sls_serve::retrain` derives its supervision and cluster-head
/// RNG streams from. The traced rebuild must use the same ones; its bitwise
/// comparison with the real `retrain` catches any drift.
const SUPERVISION_TAG: u64 = 0x5355_5056;
const HEAD_TAG: u64 = 0x4845_4144;
/// Name `retrain` exports under by default.
const EXPORTED: &str = "retrained.json";

/// Seed of the one draw of the Book stand-in every run shuffles.
const BOOK_SEED: u64 = 2023;

/// Writes the Book stand-in (896 × 892, 3 classes) as a label-last CSV, its
/// rows shuffled by the run's seed. Drawing the rows themselves from the
/// seed made the exported model's accuracy spread 20% between seeds; a
/// shuffle of one draw changes every chunk and the leading sample but
/// spread it 7%.
fn setup(ctx: &Context, k: usize) -> Result<(PathBuf, Dataset), String> {
    let book = generate_msra_dataset(
        MsraDatasetId::Book,
        &mut ChaCha8Rng::seed_from_u64(BOOK_SEED),
    );
    let order = crate::permutation(book.n_instances(), &mut ChaCha8Rng::seed_from_u64(ctx.seed));
    let data = book.subset(&order).map_err(text)?;
    let csv = ctx.work.join(format!("setup{k}")).join("book.csv");
    sls_serve::retrain::write_dataset_csv(&csv, &data)
        .map_err(|e| format!("writing {}: {e}", csv.display()))?;
    Ok((csv, data))
}

/// One `sls-serve retrain` with default flags into the fresh directory
/// `out`. Returns the exported artifact, or `None` after recording why the
/// op failed.
fn retrain_once(
    ctx: &Context,
    csv: &Path,
    out: &Path,
    phase: &'static str,
    outcome: &mut Outcome,
) -> Result<(Option<PipelineArtifact>, crate::procs::Finished), String> {
    let finished = crate::procs::run(
        &ctx.serve_bin,
        &["retrain", "--data", &path_str(csv), "--out", &path_str(out)],
    )?;
    let artifact = if !finished.status.success() {
        Err(format!(
            "exited with {}:\n{}",
            finished.status, finished.stderr
        ))
    } else if finished.stderr.contains("resumed from checkpoint") {
        Err("resumed from a checkpoint instead of starting fresh".to_string())
    } else {
        PipelineArtifact::load(out.join(EXPORTED)).map_err(text)
    };
    outcome.count(phase, artifact.is_ok());
    match artifact {
        Ok(artifact) => Ok((Some(artifact), finished)),
        Err(e) => {
            outcome.problem(format!("retrain: {e}"));
            Ok((None, finished))
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Parameters and cluster head bitwise equal; provenance may differ.
fn same_model(a: &PipelineArtifact, b: &PipelineArtifact) -> bool {
    let params = |x: &PipelineArtifact| {
        (
            bits(x.params.weights.as_slice()),
            bits(&x.params.visible_bias),
            bits(&x.params.hidden_bias),
        )
    };
    let head = |x: &PipelineArtifact| {
        x.cluster_head.as_ref().map(|h| {
            (
                h.algorithm.clone(),
                h.n_clusters,
                bits(h.centroids.as_slice()),
            )
        })
    };
    a.model_kind == b.model_kind && params(a) == params(b) && head(a) == head(b)
}

fn accuracy(artifact: &PipelineArtifact, data: &Dataset) -> Result<f64, String> {
    let labels = artifact
        .assign_with(data.features(), &ParallelPolicy::serial())
        .map_err(text)?;
    sls_metrics::clustering_accuracy(&labels, data.labels()).map_err(text)
}

pub fn run(ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    if ctx.trace {
        return traced(ctx, outcome);
    }
    let mut setup_s = Vec::new();
    let mut input = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        input = Some(setup(ctx, k)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (csv, data) = input.expect("at least one set-up");

    let (mut attempted, mut busy) = (0, Duration::ZERO);
    let mut latencies_ms = Vec::new();
    let mut reference: Option<(PipelineArtifact, f64)> = None;
    let mut peak_kb = 0;
    while busy < ctx.run_time() || attempted < MIN_RETRAINS {
        let out = ctx.work.join(format!("run{attempted}"));
        let (artifact, finished) = retrain_once(ctx, &csv, &out, "run", &mut outcome)?;
        attempted += 1;
        busy += finished.elapsed;
        peak_kb = peak_kb.max(finished.peak_rss_kb);
        let Some(artifact) = artifact else { continue };
        latencies_ms.push(finished.elapsed.as_secs_f64() * 1e3);
        let acc = accuracy(&artifact, &data)?;
        match &reference {
            None => reference = Some((artifact, acc)),
            Some((first, first_acc)) => {
                if !same_model(first, &artifact) {
                    outcome.problem("a repeat exported another model than the first".to_string());
                }
                if acc.to_bits() != first_acc.to_bits() {
                    outcome.problem(format!(
                        "cluster accuracy {acc} differs from the first repeat's {first_acc}"
                    ));
                }
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
    outcome.note(format!(
        "{attempted} retrains, p50 {:.0} ms, peak RSS {peak_kb} kB",
        trace::median(&latencies_ms)
    ));
    outcome.set("setup_s", trace::median(&setup_s));
    outcome.set(
        "throughput_ops",
        latencies_ms.len() as f64 / busy.as_secs_f64(),
    );
    // Below ten retrains per run this is the slowest one.
    outcome.set("latency_p90_ms", trace::percentile(&latencies_ms, 0.90));
    outcome.set("cluster_accuracy", reference.map_or(0.0, |(_, acc)| acc));
    Ok(outcome)
}

/// What one traced rebuild reports besides its spans.
struct Rebuilt {
    artifact: PipelineArtifact,
    coverage: f64,
    epochs: usize,
    recon_error: f64,
    artifact_bytes: u64,
    madds: f64,
}

/// Times every chunk read the pipeline makes.
struct TimedSource<'a> {
    inner: &'a ChunkedCsvReader,
    tracer: &'a Mutex<Tracer>,
    op: u64,
}

impl ChunkSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }
    fn n_instances(&self) -> usize {
        self.inner.n_instances()
    }
    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }
    fn n_chunks(&self) -> usize {
        self.inner.n_chunks()
    }
    fn rows_in_chunk(&self, index: usize) -> usize {
        self.inner.rows_in_chunk(index)
    }
    fn read_chunk(&self, index: usize) -> sls_datasets::Result<Matrix> {
        timed(self.tracer, "datasets.read", self.op, || {
            self.inner.read_chunk(index)
        })
    }
}

/// Times one base clusterer.
struct TimedClusterer {
    inner: Box<dyn Clusterer>,
    span: &'static str,
    tracer: Arc<Mutex<Tracer>>,
    op: u64,
}

impl Clusterer for TimedClusterer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn cluster(
        &self,
        data: &Matrix,
        rng: &mut dyn rand::RngCore,
    ) -> sls_clustering::Result<ClusterAssignment> {
        timed(&self.tracer, self.span, self.op, || {
            self.inner.cluster(data, rng)
        })
    }
}

fn clusterer_span(name: &str) -> &'static str {
    match name {
        "AP" => "clustering.affinity_propagation",
        "DP" => "clustering.density_peaks",
        "K-means" => "clustering.kmeans",
        _ => "clustering.other",
    }
}

/// The `retrain` pipeline with default options, rebuilt from public
/// functions with a span around every stage. It runs serially (the
/// `retrain` default), so spans nest on one thread.
fn rebuild(
    csv: &Path,
    out: &Path,
    tracer: &Arc<Mutex<Tracer>>,
    op: u64,
) -> Result<Rebuilt, String> {
    let options = RetrainOptions::new(csv, out);
    let policy = options.parallel;
    let kind = options.model_kind;
    timed(tracer, "retrain.pipeline", op, || {
        options.train.validate().map_err(text)?;
        let reader = timed(tracer, "datasets.index", op, || {
            ChunkedCsvReader::open(&options.data, &options.csv, options.chunk_size)
        })
        .map_err(text)?;
        let source = TimedSource {
            inner: &reader,
            tracer,
            op,
        };
        let sample = leading_sample(&source, options.sample_rows).map_err(text)?;
        let (preprocessor, prepared) = timed(tracer, "retrain.preprocess", op, || {
            let preprocessing = match kind.visible_kind() {
                VisibleKind::Binary => Preprocessing::BinarizeMedian,
                VisibleKind::Gaussian => Preprocessing::Standardize,
            };
            let fitted = FittedPreprocessor::fit(preprocessing, &sample)?;
            let prepared = fitted.transform_with(&sample, &policy)?;
            Ok::<_, sls_rbm_core::RbmError>((fitted, prepared))
        })
        .map_err(text)?;
        let supervision = timed(tracer, "consensus.build", op, || {
            let clusterers: Vec<Box<dyn Clusterer>> = base_clusterers(options.n_clusters, &policy)
                .into_iter()
                .map(|inner| {
                    Box::new(TimedClusterer {
                        span: clusterer_span(inner.name()),
                        inner,
                        tracer: Arc::clone(tracer),
                        op,
                    }) as Box<dyn Clusterer>
                })
                .collect();
            let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ SUPERVISION_TAG);
            LocalSupervisionBuilder::new(options.n_clusters)
                .with_policy(options.voting)
                .with_parallel(policy)
                .build_with_clusterers(&clusterers, &prepared, &mut rng)
        })
        .map_err(text)?;
        let mut checkpoint = TrainCheckpoint::fresh(
            kind,
            source.n_features(),
            options.n_hidden,
            options.train,
            options.seed,
        )
        .map_err(text)?;
        let history = timed(tracer, "core.train", op, || {
            StreamTrainer::new().with_parallel(policy).advance(
                &mut checkpoint,
                &source,
                &preprocessor,
                Some((&supervision, &options.sls)),
                StreamLimit::ToCompletion,
            )
        })
        .map_err(text)?;
        timed(tracer, "core.export", op, || {
            checkpoint.save(&options.checkpoint)
        })
        .map_err(text)?;
        let mut artifact = PipelineArtifact::from_params(checkpoint.params.clone(), kind);
        artifact.preprocessor = preprocessor;
        let (head, _) = timed(tracer, "core.head", op, || {
            let features = artifact.features_with(&sample, &policy)?;
            let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ HEAD_TAG);
            ClusterHead::fit_kmeans(&features, options.n_clusters, &mut rng)
        })
        .map_err(text)?;
        artifact.cluster_head = Some(head);
        let path = out.join(EXPORTED);
        timed(tracer, "core.export", op, || artifact.save(&path)).map_err(text)?;
        let epochs = history.epochs.len();
        let work = epochs * source.n_instances() * source.n_features() * options.n_hidden;
        Ok(Rebuilt {
            coverage: supervision.summary().coverage,
            epochs,
            recon_error: history.final_error().unwrap_or(0.0),
            artifact_bytes: std::fs::metadata(&path).map_err(text)?.len(),
            madds: 5.0 * work as f64,
            artifact,
        })
    })
}

/// Alternates untraced `sls-serve retrain` runs (the headline) with traced
/// rebuilds, so drift in machine speed hits both alike. Every rebuild must
/// export exactly what the binary exported.
fn traced(ctx: &Context, mut outcome: Outcome) -> Result<Outcome, String> {
    let (csv, _) = setup(ctx, 0)?;
    let tracer = Arc::new(Mutex::new(Tracer::new()));
    let mut untraced = Vec::new();
    let mut rebuilt = Vec::new();
    let mut peak_kb = 0;
    let start = Instant::now();
    while rebuilt.is_empty() || start.elapsed() < ctx.run_time() {
        let op = rebuilt.len() as u64;
        let out = ctx.work.join(format!("run{op}"));
        let (artifact, finished) = retrain_once(ctx, &csv, &out, "run", &mut outcome)?;
        let reference = artifact.ok_or("an untraced retrain failed")?;
        untraced.push(finished.elapsed.as_secs_f64() * 1e3);
        peak_kb = peak_kb.max(finished.peak_rss_kb);

        let out = ctx.work.join(format!("traced{op}"));
        let result =
            rebuild(&csv, &out, &tracer, op).map_err(|e| format!("traced rebuild failed: {e}"))?;
        let same = same_model(&result.artifact, &reference);
        outcome.count("traced", same);
        if !same {
            outcome.problem(
                "the traced rebuild exported a different model than `sls-serve retrain`"
                    .to_string(),
            );
            break;
        }
        rebuilt.push(result);
    }
    let spans = tracer.lock().expect("tracer lock").spans().to_vec();
    stage_metrics(&spans, &mut outcome);
    let whole = trace::median(&trace::per_op_us(&spans, "retrain.pipeline")) / 1e3;
    let headline = trace::median(&untraced);
    outcome.set("trace.overhead_pct", (whole - headline) / headline * 100.0);
    outcome.set("process.peak_rss_mb", peak_kb as f64 / 1024.0);
    if let Some(first) = rebuilt.first() {
        outcome.set("consensus.coverage", first.coverage);
        outcome.set("core.epochs", first.epochs as f64);
        outcome.set("core.recon_error", first.recon_error);
        outcome.set("core.train_madds", first.madds);
        outcome.set("core.artifact_bytes", first.artifact_bytes as f64);
    }
    outcome.spans = spans;
    Ok(outcome)
}

/// Per-stage medians over the rebuilds. Every stage is disjoint from the
/// others, so they and the unattributed remainder add up to the whole.
fn stage_metrics(spans: &[Span], outcome: &mut Outcome) {
    // Milliseconds of the selected spans, per rebuild.
    let per_op = |keep: &dyn Fn(&Span) -> bool| {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for span in spans.iter().filter(|s| keep(s)) {
            *totals.entry(span.op).or_default() += span.nanos() as f64 / 1e6;
        }
        totals
    };
    let named = |name: &'static str| per_op(&move |s: &Span| s.name == name);
    let median =
        |totals: BTreeMap<u64, f64>| trace::median(&totals.into_values().collect::<Vec<_>>());
    // Self time: `whole` minus the selected child spans of the same rebuild.
    let without = |whole: BTreeMap<u64, f64>, children: BTreeMap<u64, f64>| {
        let own: Vec<f64> = whole
            .iter()
            .map(|(op, ms)| ms - children.get(op).copied().unwrap_or(0.0))
            .collect();
        trace::median(&own)
    };
    let training_reads = per_op(&|s: &Span| {
        s.name == "datasets.read" && s.parent.is_some_and(|p| spans[p].name == "core.train")
    });
    let clusterers = per_op(&|s: &Span| s.name.starts_with("clustering."));
    let stages = [
        ("datasets.index_ms", median(named("datasets.index"))),
        ("datasets.read_ms", median(named("datasets.read"))),
        ("retrain.preprocess_ms", median(named("retrain.preprocess"))),
        (
            "clustering.affinity_propagation_ms",
            median(named("clustering.affinity_propagation")),
        ),
        (
            "clustering.density_peaks_ms",
            median(named("clustering.density_peaks")),
        ),
        ("clustering.kmeans_ms", median(named("clustering.kmeans"))),
        (
            "consensus.vote_ms",
            without(named("consensus.build"), clusterers),
        ),
        (
            "core.train_ms",
            without(named("core.train"), training_reads),
        ),
        ("core.head_ms", median(named("core.head"))),
        ("core.export_ms", median(named("core.export"))),
    ];
    let whole = median(named("retrain.pipeline"));
    let attributed: f64 = stages.iter().map(|(_, ms)| ms).sum();
    for (name, ms) in stages {
        outcome.set(name, ms);
    }
    outcome.set("retrain.pipeline_ms", whole);
    outcome.set("retrain.unattributed_ms", whole - attributed);
    let mut reads: BTreeMap<u64, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "datasets.read") {
        *reads.entry(span.op).or_default() += 1.0;
    }
    outcome.set("datasets.chunks_read", median(reads));
}
