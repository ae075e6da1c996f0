//! The live registry: hot-swappable model generations with zero-downtime
//! semantics.
//!
//! A [`LiveRegistry`] wraps the current [`ModelRegistry`] in an
//! [`Arc`]-swap cell: readers take a short mutex, clone the `Arc` and drop
//! the lock — no I/O, parsing or model math ever happens under it, so the
//! request hot path never blocks on a reload. Each swap installs a complete
//! new [`RegistryGeneration`] with a monotonically increasing generation
//! number; requests that already resolved a generation keep their `Arc`,
//! so a swap can never tear or fail an in-flight request — the old
//! generation simply drains and frees itself when its last holder finishes.
//!
//! Reloads are **atomic per generation**: every artifact in the directory
//! must parse and validate or nothing swaps. A corrupt file leaves the old
//! generation serving and reports a structured per-model result list, so an
//! operator can see exactly which artifact blocked the rollout.
//!
//! Every load or reload attempt also records the directory fingerprint it
//! started from, taken *before* any file is read. The server's directory
//! watcher compares against that record, so a change that lands while (or
//! right after) a generation loads is never mistaken for the state that
//! generation was built from.

use crate::api::ModelLoadResult;
use crate::registry::{artifact_files, ModelRegistry};
use crate::{Result, ServeError};
use sls_rbm_core::PipelineArtifact;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// One immutable snapshot of the registry plus its generation number.
#[derive(Debug)]
pub struct RegistryGeneration {
    /// Monotonic generation counter: 1 for the initial load, +1 per swap.
    pub generation: u64,
    /// The models serving in this generation.
    pub registry: ModelRegistry,
}

/// Outcome of one [`LiveRegistry::reload`] attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadOutcome {
    /// `true` iff a new generation was installed.
    pub swapped: bool,
    /// The generation serving after the attempt.
    pub generation: u64,
    /// Per-artifact load results for the scanned directory.
    pub models: Vec<ModelLoadResult>,
    /// Overall failure explanation when not swapped.
    pub error: Option<String>,
}

/// The hot-swappable registry cell shared by every server worker.
#[derive(Debug)]
pub struct LiveRegistry {
    /// The swap cell. Readers lock, clone the `Arc`, unlock — the lock is
    /// held for a pointer copy, never for artifact loading or inference.
    current: Mutex<Arc<RegistryGeneration>>,
    /// Serialises reload attempts so two concurrent `POST /v1/admin/reload`
    /// calls cannot interleave their load-then-swap sequences, and holds
    /// the source-directory fingerprint the last load or reload attempt —
    /// successful or not — started from.
    last_attempt: Mutex<DirFingerprint>,
    /// Artifact directory reloads re-scan; `None` for registries built in
    /// memory (reload then always rejects).
    source: Option<PathBuf>,
    swaps: AtomicU64,
    failed_reloads: AtomicU64,
}

impl LiveRegistry {
    /// Wraps an in-memory registry as generation 1, with no reload source.
    pub fn new(registry: ModelRegistry) -> Self {
        Self::with_source(registry, None, Vec::new())
    }

    /// Loads generation 1 from `dir` and remembers the directory for future
    /// reloads.
    ///
    /// The second argument is ignored. It holds no setting and is kept only
    /// because the `slsbench` benchmark passes it.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelRegistry::load_dir`] errors — unlike a reload,
    /// there is no previous generation to keep serving at startup.
    pub fn from_dir(dir: impl AsRef<Path>, _ignored: bool) -> Result<Self> {
        let dir = dir.as_ref();
        let fingerprint = dir_fingerprint(dir);
        let registry = ModelRegistry::load_dir(dir)?;
        Ok(Self::with_source(
            registry,
            Some(dir.to_path_buf()),
            fingerprint,
        ))
    }

    fn with_source(
        registry: ModelRegistry,
        source: Option<PathBuf>,
        fingerprint: DirFingerprint,
    ) -> Self {
        Self {
            current: Mutex::new(Arc::new(RegistryGeneration {
                generation: 1,
                registry,
            })),
            last_attempt: Mutex::new(fingerprint),
            source,
            swaps: AtomicU64::new(0),
            failed_reloads: AtomicU64::new(0),
        }
    }

    /// The generation currently serving. Cheap: a mutex-guarded `Arc` clone.
    pub fn current(&self) -> Arc<RegistryGeneration> {
        self.current.lock().unwrap().clone()
    }

    /// Current generation number.
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Directory reloads re-scan, if one is configured.
    pub fn source(&self) -> Option<&Path> {
        self.source.as_deref()
    }

    /// Successful swaps since construction.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Rejected reload attempts since construction.
    pub fn failed_reloads(&self) -> u64 {
        self.failed_reloads.load(Ordering::Relaxed)
    }

    /// Re-scans the source directory and atomically swaps in a new
    /// generation iff **every** artifact loads.
    ///
    /// All loading happens before the swap cell is touched; in-flight
    /// requests keep serving the old generation throughout, and on any
    /// failure (missing source, I/O error, corrupt or empty directory) the
    /// old generation stays current.
    pub fn reload(&self) -> ReloadOutcome {
        let mut last_attempt = self.last_attempt.lock().expect("a reload panicked");
        let Some(dir) = &self.source else {
            return self.rejected(
                Vec::new(),
                "hot reload is not enabled: server was started without an artifact directory"
                    .to_string(),
            );
        };
        *last_attempt = dir_fingerprint(dir);
        self.load_and_swap(dir)
    }

    /// [`Self::reload`], but only when the source directory's fingerprint
    /// differs from the one the last load or reload attempt started from;
    /// `None` when nothing changed (or there is no source directory). This
    /// is the directory watcher's poll: a corrupt artifact is retried once
    /// per change, not once per poll.
    pub(crate) fn reload_if_changed(&self) -> Option<ReloadOutcome> {
        let mut last_attempt = self.last_attempt.lock().expect("a reload panicked");
        let dir = self.source.as_deref()?;
        let fingerprint = dir_fingerprint(dir);
        if fingerprint == *last_attempt {
            return None;
        }
        *last_attempt = fingerprint;
        Some(self.load_and_swap(dir))
    }

    /// Loads every artifact under `dir` and swaps them in as one new
    /// generation. Callers hold `last_attempt`, which serialises reloads.
    fn load_and_swap(&self, dir: &Path) -> ReloadOutcome {
        let files = match artifact_files(dir) {
            Ok(files) => files,
            Err(e) => return self.rejected(Vec::new(), e.to_string()),
        };
        if files.is_empty() {
            return self.rejected(
                Vec::new(),
                format!("no .json artifacts found under `{}`", dir.display()),
            );
        }
        let mut models = Vec::with_capacity(files.len());
        let mut next = ModelRegistry::new();
        let mut failures = 0usize;
        for (name, path) in files {
            match PipelineArtifact::load(&path).map_err(ServeError::from) {
                Ok(model) => {
                    models.push(ModelLoadResult {
                        name: name.clone(),
                        loaded: true,
                        message: None,
                    });
                    next.insert(name, model);
                }
                Err(e) => {
                    failures += 1;
                    models.push(ModelLoadResult {
                        name,
                        loaded: false,
                        message: Some(e.to_string()),
                    });
                }
            }
        }
        if failures > 0 {
            let plural = if failures == 1 { "" } else { "s" };
            return self.rejected(
                models,
                format!("{failures} artifact{plural} failed to load; kept old generation"),
            );
        }
        let generation = {
            let mut current = self.current.lock().unwrap();
            let generation = current.generation + 1;
            *current = Arc::new(RegistryGeneration {
                generation,
                registry: next,
            });
            generation
        };
        self.swaps.fetch_add(1, Ordering::Relaxed);
        ReloadOutcome {
            swapped: true,
            generation,
            models,
            error: None,
        }
    }

    fn rejected(&self, models: Vec<ModelLoadResult>, error: String) -> ReloadOutcome {
        self.failed_reloads.fetch_add(1, Ordering::Relaxed);
        ReloadOutcome {
            swapped: false,
            generation: self.generation(),
            models,
            error: Some(error),
        }
    }
}

/// One `(name, mtime, len, checksum)` entry per artifact file. Name, mtime
/// and length alone miss a real case: a retrain exporting an equal-size
/// artifact within the filesystem's mtime granularity (same second on many
/// filesystems) looks identical and is silently never reloaded. The checksum
/// closes that hole without hashing whole files — it folds the length plus
/// the first and last [`FINGERPRINT_PROBE_BYTES`] of content through FNV-1a,
/// and generation counters / trained weights live in exactly those regions
/// of the JSON exports.
type DirFingerprint = Vec<(String, Option<SystemTime>, u64, u64)>;

/// How many bytes of head and of tail feed the fingerprint checksum.
const FINGERPRINT_PROBE_BYTES: usize = 4096;

/// FNV-1a over the file's length and its first/last
/// [`FINGERPRINT_PROBE_BYTES`] bytes. Reads at most 8 KiB per artifact, so
/// the poll stays cheap even for large exports.
fn probe_checksum(path: &Path, len: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut fold = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    fold(&len.to_le_bytes());
    let Ok(mut file) = std::fs::File::open(path) else {
        return hash;
    };
    use std::io::{Read, Seek, SeekFrom};
    // `read` may legally return fewer bytes than the buffer holds; a single
    // call would make the checksum depend on how the kernel chunked the
    // read, so the same unchanged file could hash differently across polls
    // and trigger spurious reloads. Loop until the probe window is full or
    // EOF.
    fn read_probe(file: &mut std::fs::File, buf: &mut [u8]) -> usize {
        let mut filled = 0;
        while filled < buf.len() {
            match file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        filled
    }
    let mut head = [0u8; FINGERPRINT_PROBE_BYTES];
    let read = read_probe(&mut file, &mut head);
    fold(&head[..read]);
    if len > FINGERPRINT_PROBE_BYTES as u64 {
        let tail_start = len.saturating_sub(FINGERPRINT_PROBE_BYTES as u64);
        let mut tail = [0u8; FINGERPRINT_PROBE_BYTES];
        if file.seek(SeekFrom::Start(tail_start)).is_ok() {
            let read = read_probe(&mut file, &mut tail);
            fold(&tail[..read]);
        }
    }
    hash
}

fn dir_fingerprint(dir: &Path) -> DirFingerprint {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut fingerprint: DirFingerprint = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
        .map(|e| {
            let meta = e.metadata().ok();
            let len = meta.as_ref().map_or(0, |m| m.len());
            (
                e.file_name().to_string_lossy().into_owned(),
                meta.as_ref().and_then(|m| m.modified().ok()),
                len,
                probe_checksum(&e.path(), len),
            )
        })
        .collect();
    fingerprint.sort();
    fingerprint
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_rbm_core::{ModelKind, RbmParams};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn artifact(seed: u64) -> PipelineArtifact {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng), ModelKind::Rbm)
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sls_serve_live_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn in_memory_registry_rejects_reload() {
        let mut registry = ModelRegistry::new();
        registry.insert("demo", artifact(1));
        let live = LiveRegistry::new(registry);
        assert_eq!(live.generation(), 1);
        let outcome = live.reload();
        assert!(!outcome.swapped);
        assert_eq!(outcome.generation, 1);
        assert!(outcome.error.unwrap().contains("not enabled"));
        assert_eq!(live.failed_reloads(), 1);
        assert_eq!(live.swaps(), 0);
    }

    #[test]
    fn reload_swaps_generation_and_bumps_counters() {
        let dir = unique_dir("swap");
        artifact(1).save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        assert_eq!(live.generation(), 1);
        artifact(2).save(dir.join("demo.json")).unwrap();
        artifact(3).save(dir.join("extra.json")).unwrap();
        let outcome = live.reload();
        assert!(outcome.swapped);
        assert_eq!(outcome.generation, 2);
        assert!(outcome.error.is_none());
        assert_eq!(outcome.models.len(), 2);
        assert!(outcome.models.iter().all(|m| m.loaded));
        let current = live.current();
        assert_eq!(current.generation, 2);
        assert_eq!(current.registry.len(), 2);
        assert_eq!(live.swaps(), 1);
        assert_eq!(live.failed_reloads(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_rejects_reload_and_keeps_old_generation() {
        // Unparseable JSON, and a well-formed artifact with a weight that
        // parses to infinity (it would serve NaN features).
        let mut poisoned = artifact(2);
        poisoned.params.weights[(0, 0)] = 12345.5;
        let poisoned = poisoned
            .to_json_pretty()
            .unwrap()
            .replace("12345.5", "1e400");
        assert!(poisoned.contains("1e400"));
        for corrupt in ["{ not json }", poisoned.as_str()] {
            let dir = unique_dir("corrupt");
            artifact(1).save(dir.join("demo.json")).unwrap();
            let live = LiveRegistry::from_dir(&dir, false).unwrap();
            let before = live.current();
            std::fs::write(dir.join("broken.json"), corrupt).unwrap();
            let outcome = live.reload();
            assert!(!outcome.swapped);
            assert_eq!(outcome.generation, 1);
            assert!(outcome.error.unwrap().contains("1 artifact failed"));
            let broken = outcome.models.iter().find(|m| m.name == "broken").unwrap();
            assert!(!broken.loaded);
            assert!(broken.message.is_some());
            let demo = outcome.models.iter().find(|m| m.name == "demo").unwrap();
            assert!(demo.loaded);
            // The serving snapshot is untouched — same Arc, same generation.
            let after = live.current();
            assert!(Arc::ptr_eq(&before, &after));
            assert_eq!(live.failed_reloads(), 1);
            // Removing the corrupt file heals the next reload.
            std::fs::remove_file(dir.join("broken.json")).unwrap();
            assert!(live.reload().swapped);
            assert_eq!(live.generation(), 2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn reload_if_changed_compares_against_the_last_attempt() {
        let dir = unique_dir("changed");
        artifact(1).save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        assert!(live.reload_if_changed().is_none(), "nothing changed yet");
        // A rewrite after the load is a change, whenever it is polled.
        artifact(2).save(dir.join("demo.json")).unwrap();
        assert!(live.reload_if_changed().unwrap().swapped);
        assert!(live.reload_if_changed().is_none());
        // A failed attempt is recorded too: one retry per change.
        std::fs::write(dir.join("broken.json"), "{ not json }").unwrap();
        assert!(!live.reload_if_changed().unwrap().swapped);
        for _ in 0..5 {
            assert!(live.reload_if_changed().is_none());
        }
        assert_eq!(live.failed_reloads(), 1);
        std::fs::remove_file(dir.join("broken.json")).unwrap();
        assert!(live.reload_if_changed().unwrap().swapped);
        assert_eq!((live.generation(), live.swaps()), (3, 2));
        // An in-memory registry has no directory to watch.
        assert!(LiveRegistry::new(ModelRegistry::new())
            .reload_if_changed()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn emptied_directory_rejects_reload() {
        let dir = unique_dir("emptied");
        artifact(1).save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        std::fs::remove_file(dir.join("demo.json")).unwrap();
        let outcome = live.reload();
        assert!(!outcome.swapped);
        assert!(outcome.error.unwrap().contains("no .json artifacts"));
        assert_eq!(live.current().registry.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_generation_survives_while_held() {
        let dir = unique_dir("drain");
        artifact(1).save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        let held = live.current();
        let model_before = held.registry.get("demo").unwrap();
        artifact(2).save(dir.join("demo.json")).unwrap();
        assert!(live.reload().swapped);
        // The held snapshot still resolves the exact same model instance.
        assert!(Arc::ptr_eq(
            &model_before,
            &held.registry.get("demo").unwrap()
        ));
        assert_ne!(held.generation, live.generation());
    }
}
