//! Hot-swap integration suite: zero-downtime generation swaps under
//! keep-alive load, corrupt-artifact atomicity over HTTP, and the directory
//! watcher.
//!
//! The centrepiece drives several keep-alive clients through `/features`
//! and `/assign` while the main thread re-exports the artifact and swaps
//! generations ten times. Every response must decode, carry a known
//! generation, and match — bitwise — the reference computed from the
//! artifact that defined that generation.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{ModelKind, PipelineArtifact, RbmParams, SlsPipelineConfig};
use sls_serve::{Client, LiveRegistry, ServeOptions, Server, ServerHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MODEL: &str = "demo";
const SWAPS: u64 = 10;
const WORKERS: usize = 4;

/// A fresh per-test directory: pid plus a process-wide counter, so
/// concurrent test binaries never collide on a shared fixed path.
fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sls_serve_hotswap_{tag}_{}_{n}",
        std::process::id()
    ))
}

/// Trains a distinct artifact per generation: the seed shifts, so every
/// generation produces different bits for the same probe rows.
fn train(generation: u64) -> PipelineArtifact {
    let mut rng = ChaCha8Rng::seed_from_u64(1000 + generation);
    let ds = SyntheticBlobs::new(30, 4, 2)
        .separation(6.0)
        .generate(&mut rng);
    PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(2)
            .with_hidden(4),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds")
    .artifact
}

/// Fixed probe rows shared by every load worker.
fn probe_rows() -> Vec<Vec<f64>> {
    vec![vec![0.1, 0.2, 0.3, 0.4], vec![-1.5, 2.0, 0.25, -0.75]]
}

/// What the server must answer for the probe rows under one generation:
/// feature bit patterns plus assignments, computed by the defining
/// artifact itself, as the server computes them.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    feature_bits: Vec<Vec<u64>>,
    assignments: Vec<usize>,
}

fn expected(model: &PipelineArtifact) -> Expected {
    let matrix = Matrix::from_rows(&probe_rows()).expect("probe rows are rectangular");
    let parallel = ParallelPolicy::global();
    let features = model
        .features_with(&matrix, &parallel)
        .expect("reference features");
    Expected {
        feature_bits: (0..features.rows())
            .map(|r| features.row(r).iter().map(|v| v.to_bits()).collect())
            .collect(),
        assignments: model
            .assign_with(&matrix, &parallel)
            .expect("reference assignments"),
    }
}

/// A server bound to serve `dir`, plus the live registry it serves from.
fn bind_dir(dir: &PathBuf) -> (Server, Arc<LiveRegistry>) {
    let live = Arc::new(LiveRegistry::from_dir(dir, false).expect("load artifact dir"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&live)).expect("bind ephemeral port");
    (server, live)
}

/// Serves `dir` with no per-connection request cap, so only a swap could
/// close a worker's keep-alive socket.
fn start_from_dir(dir: &PathBuf) -> (ServerHandle, Arc<LiveRegistry>) {
    let (server, live) = bind_dir(dir);
    let options = ServeOptions {
        max_requests_per_connection: usize::MAX,
        ..ServeOptions::default()
    };
    let handle = server.with_options(options).start().expect("server starts");
    (handle, live)
}

/// Ten atomic swaps under sustained keep-alive load: no request may fail,
/// every response must be bitwise consistent with the generation that
/// served it, and every client must ride a single socket throughout.
#[test]
fn ten_swaps_under_keep_alive_load_lose_nothing() {
    let dir = unique_dir("load");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));

    // Precompute the per-generation truth before any traffic starts.
    let artifacts: Vec<PipelineArtifact> = (1..=SWAPS + 1).map(train).collect();
    let references: BTreeMap<u64, Expected> = artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| (i as u64 + 1, expected(a)))
        .collect();
    artifacts[0].save(&path).expect("save generation 1");

    let (handle, live) = start_from_dir(&dir);
    let client = Client::new(handle.addr());

    let stop = Arc::new(AtomicBool::new(false));
    let references = Arc::new(references);
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let references = Arc::clone(&references);
            std::thread::spawn(move || {
                let mut connection = client.connect();
                let rows = probe_rows();
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let features = connection
                        .features_response(MODEL, &rows)
                        .unwrap_or_else(|e| panic!("worker {w}: features failed: {e}"));
                    let reference = references
                        .get(&features.generation)
                        .unwrap_or_else(|| panic!("worker {w}: unknown generation"));
                    let bits: Vec<Vec<u64>> = features
                        .features
                        .iter()
                        .map(|row| row.iter().map(|v| v.to_bits()).collect())
                        .collect();
                    assert_eq!(
                        bits, reference.feature_bits,
                        "worker {w}: generation {} served torn features",
                        features.generation
                    );
                    let assign = connection
                        .assign_response(MODEL, &rows)
                        .unwrap_or_else(|e| panic!("worker {w}: assign failed: {e}"));
                    let reference = references
                        .get(&assign.generation)
                        .unwrap_or_else(|| panic!("worker {w}: unknown generation"));
                    assert_eq!(
                        assign.assignments, reference.assignments,
                        "worker {w}: generation {} served torn assignments",
                        assign.generation
                    );
                    served += 2;
                }
                assert_eq!(
                    connection.connections_opened(),
                    1,
                    "worker {w}: a swap must never drop a keep-alive socket"
                );
                served
            })
        })
        .collect();

    // Swap through generations 2..=11 while the workers hammer away.
    for (swap, artifact) in artifacts.iter().skip(1).enumerate() {
        std::thread::sleep(Duration::from_millis(30));
        artifact.save(&path).expect("save next generation");
        let outcome = live.reload();
        assert!(outcome.swapped, "swap {}: {:?}", swap + 1, outcome.error);
        assert_eq!(outcome.generation, swap as u64 + 2);
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("load worker panicked"))
        .sum();

    assert!(
        total > 0,
        "the load workers must actually have served traffic"
    );
    assert_eq!(live.generation(), SWAPS + 1);
    assert_eq!(live.swaps(), SWAPS);
    assert_eq!(live.failed_reloads(), 0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt artifact rejects the whole reload over HTTP with a structured
/// 409 body, the old generation keeps serving bit-for-bit, and repairing
/// the file heals the next reload.
#[test]
fn corrupt_artifact_keeps_old_generation_serving_over_http() {
    let dir = unique_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));
    let v1 = train(1);
    v1.save(&path).unwrap();

    let (handle, _) = start_from_dir(&dir);
    let client = Client::new(handle.addr());
    let before = client.features(MODEL, &probe_rows()).expect("baseline");

    std::fs::write(&path, "{\"schema_version\": \"not even close\"").unwrap();
    let outcome = client.reload().expect("reload answers");
    assert!(!outcome.swapped);
    assert_eq!(outcome.status, "rejected");
    assert_eq!(outcome.generation, 1, "old generation must be kept");
    let error = outcome.error.expect("a rejection explains itself");
    assert!(error.contains("kept old generation"), "{error}");
    let broken: Vec<_> = outcome.models.iter().filter(|m| !m.loaded).collect();
    assert_eq!(broken.len(), 1);
    assert_eq!(broken[0].name, MODEL);
    assert!(broken[0].message.is_some());

    // The old generation still answers, bitwise unchanged.
    let after = client
        .features(MODEL, &probe_rows())
        .expect("still serving");
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&before), bits(&after));
    let stats = client.statz().expect("statz");
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.registry_swaps, 0);
    assert_eq!(stats.failed_reloads, 1);

    // Repairing the artifact heals the very next reload.
    train(2).save(&path).unwrap();
    let outcome = client.reload().expect("healed reload answers");
    assert!(outcome.swapped, "{:?}", outcome.error);
    assert_eq!(outcome.generation, 2);
    assert_eq!(client.statz().expect("statz").failed_reloads, 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A pre-artifact snapshot (bare `RbmParams` JSON, no `schema_version`) is
/// not an artifact: `POST /v1/admin/reload` rejects the directory with a
/// 409 that names the missing field, and the old generation keeps serving.
#[test]
fn pre_artifact_snapshot_is_refused_by_reload() {
    let dir = unique_dir("pre_artifact");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));
    train(1).save(&path).unwrap();

    let (handle, _) = start_from_dir(&dir);
    let client = Client::new(handle.addr());
    let before = client.features(MODEL, &probe_rows()).expect("baseline");

    let params = RbmParams::init(4, 2, &mut ChaCha8Rng::seed_from_u64(3));
    std::fs::write(&path, serde_json::to_string_pretty(&params).unwrap()).unwrap();
    let response = client
        .request("POST", "/v1/admin/reload", "")
        .expect("reload answers");
    assert_eq!(response.status, 409, "{}", response.body);
    let outcome: sls_serve::ReloadResponse = serde_json::from_str(&response.body).unwrap();
    assert!(!outcome.swapped);
    assert_eq!(outcome.generation, 1, "old generation must be kept");
    let message = outcome.models[0].message.clone().unwrap_or_default();
    assert!(message.contains("schema_version"), "{message}");

    let after = client
        .features(MODEL, &probe_rows())
        .expect("still serving");
    assert_eq!(before, after);
    assert_eq!(client.statz().expect("statz").generation, 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The directory watcher notices a changed artifact and swaps without any
/// `POST /admin/reload` — the `--watch-interval-ms` path end to end.
#[test]
fn directory_watcher_swaps_without_an_admin_call() {
    let dir = unique_dir("watch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));
    train(1).save(&path).unwrap();

    let (server, live) = bind_dir(&dir);
    let handle = server
        .with_watch(Some(Duration::from_millis(25)))
        .start()
        .expect("server starts");
    assert_eq!(live.generation(), 1);

    train(2).save(&path).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never picked up the changed artifact"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live.swaps(), 1);
    assert_eq!(live.failed_reloads(), 0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A retrain that exports an equal-size artifact within the filesystem's
/// mtime granularity must still be picked up. The old `(name, mtime, len)`
/// fingerprint was blind to such a rewrite; the content checksum closes the
/// hole. The test forces the worst case deterministically: both artifacts
/// padded to the same byte length (JSON tolerates trailing whitespace) and
/// the second write's mtime restored to the first's.
#[test]
fn watcher_detects_same_size_same_mtime_rewrite() {
    let dir = unique_dir("samesize");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));

    // Two distinct generations, padded to identical byte length.
    let staging = dir.join("staging.tmp");
    train(1).save(&path).unwrap();
    train(2).save(&staging).unwrap();
    let mut v1 = std::fs::read(&path).unwrap();
    let mut v2 = std::fs::read(&staging).unwrap();
    std::fs::remove_file(&staging).unwrap();
    let len = v1.len().max(v2.len());
    v1.resize(len, b' ');
    v2.resize(len, b' ');
    assert_ne!(v1, v2, "the padded artifacts must differ in content");
    std::fs::write(&path, &v1).unwrap();
    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

    let (server, live) = bind_dir(&dir);
    let handle = server
        .with_watch(Some(Duration::from_millis(25)))
        .start()
        .expect("server starts");
    assert_eq!(live.generation(), 1);

    // Same-size rewrite with the mtime pinned back to the first export's —
    // every pre-checksum fingerprint component is now identical.
    std::fs::write(&path, &v2).unwrap();
    let file = std::fs::File::options().append(true).open(&path).unwrap();
    file.set_modified(mtime).unwrap();
    drop(file);
    assert_eq!(
        std::fs::metadata(&path).unwrap().modified().unwrap(),
        mtime,
        "the rewrite must present the original mtime"
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never noticed the same-size same-mtime rewrite"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live.swaps(), 1);
    assert_eq!(live.failed_reloads(), 0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A change that lands after the registry loaded but before the watcher's
/// first poll must still be reloaded: the registry records the fingerprint
/// it was built from, so the watcher cannot mistake the rewrite for its
/// baseline. Deterministic — no watcher thread exists yet when the artifact
/// is rewritten.
#[test]
fn watcher_reloads_a_change_made_before_start() {
    let dir = unique_dir("prestart");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{MODEL}.json"));
    train(1).save(&path).unwrap();

    let (server, live) = bind_dir(&dir);
    let server = server.with_watch(Some(Duration::from_millis(25)));
    train(2).save(&path).unwrap();
    let handle = server.start().expect("server starts");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never reloaded the artifact rewritten before start"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live.swaps(), 1);
    assert_eq!(live.failed_reloads(), 0);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt artifact is retried once per change, not once per poll: many
/// watcher ticks later `failed_reloads` is still 1, and fixing the file
/// swaps on the next tick.
#[test]
fn watcher_retries_a_corrupt_artifact_once_per_change() {
    let dir = unique_dir("corrupt_watch");
    std::fs::create_dir_all(&dir).unwrap();
    train(1).save(dir.join(format!("{MODEL}.json"))).unwrap();
    let (server, live) = bind_dir(&dir);
    let handle = server
        .with_watch(Some(Duration::from_millis(25)))
        .start()
        .expect("server starts");

    // Land the corrupt file atomically (rename), so no poll can observe a
    // half-written state and count a second, distinct change.
    let staging = dir.join("broken.tmp");
    std::fs::write(&staging, "{ not json }").unwrap();
    std::fs::rename(&staging, dir.join("broken.json")).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live.failed_reloads() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never attempted the corrupt artifact"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Ten watcher intervals with no further change.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        live.failed_reloads(),
        1,
        "a corrupt file was retried per tick"
    );
    assert_eq!(live.generation(), 1);

    std::fs::remove_file(dir.join("broken.json")).unwrap();
    while live.generation() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never reloaded after the corrupt artifact was removed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live.failed_reloads(), 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
