//! # sls-serve
//!
//! The workspace's model-serving subsystem: load trained
//! [`PipelineArtifact`](sls_rbm_core::PipelineArtifact)s into a
//! [`ModelRegistry`] and answer hidden-feature and cluster-assignment
//! requests over a dependency-free HTTP/1.1 JSON API.
//!
//! ## Layers
//!
//! * [`registry`] — named models shared immutably across workers, each a
//!   [`ServingModel`] with full-precision or f32-quantized weights
//!   (`--compact`).
//! * [`live`] — the hot-swap cell around the registry: `POST /v1/admin/reload`
//!   (and an optional directory watcher) atomically installs a new
//!   generation while in-flight requests drain the old one; a corrupt
//!   artifact rejects the whole reload and the old generation keeps serving.
//! * [`server`] — `std::net::TcpListener` + one acceptor thread handing
//!   each connection to its own handler thread; HTTP/1.1 keep-alive with
//!   pipelining, bodies framed by `Content-Length` and bounded before
//!   buffering. Rows within a request are micro-batched through one
//!   matrix multiply.
//!   [`route_live`] runs the same routing in process, without sockets.
//! * [`batch`] — the cross-request micro-batcher: concurrent requests for
//!   the same model coalesce into one fused launch inside a configurable
//!   latency window, bitwise identical to serving them one by one.
//! * [`client`] — a blocking client for the same API ([`Client`] per-request
//!   connections, [`Connection`] keep-alive reuse), used by the integration
//!   tests and the `loadgen` benchmark binary in `sls-bench`.
//! * [`router`] — the shard router (`sls-serve route`): rendezvous-hashes
//!   model names across a static replica set, forwards inference over
//!   pooled keep-alive connections with health-checked retry, fans
//!   `/v1/admin/reload` out generation-consistently, and drains replicas
//!   without dropping a response. It starts and stops through the same
//!   acceptor and [`ServerHandle`] as the server.
//! * [`retrain`] — the one-command retrain path: chunked CSV ingestion →
//!   consensus supervision on a leading sample → checkpoint-resumable
//!   streaming training → artifact export into the watched directory, which
//!   the live layer then hot-swaps into serving.
//! * [`http`] — the shared minimal HTTP/1.1 framing.
//! * [`api`] — the JSON request/response body types.
//! * [`stats`] — latency percentile summaries for load tooling.
//!
//! ## Quickstart
//!
//! Train-and-export an artifact, then serve a directory of them:
//!
//! ```sh
//! sls-serve export --out artifacts
//! sls-serve serve --dir artifacts --addr 127.0.0.1:7878
//! curl -s -X POST 127.0.0.1:7878/v1/models/quick_demo/assign \
//!      -d '{"rows": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]}'
//! ```
//!
//! In-process:
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use sls_datasets::SyntheticBlobs;
//! use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
//! use sls_serve::{Client, LiveRegistry, ModelRegistry, Server};
//! use std::sync::Arc;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let ds = SyntheticBlobs::new(30, 4, 2).separation(6.0).generate(&mut rng);
//! let fitted = PipelineArtifact::fit(
//!     ModelKind::Grbm,
//!     SlsPipelineConfig::quick_demo().with_clusters(2).with_hidden(4),
//!     ds.features(),
//!     &mut rng,
//! )
//! .expect("training succeeds");
//!
//! let mut registry = ModelRegistry::new();
//! registry.insert("demo", fitted.artifact);
//! let handle = Server::bind("127.0.0.1:0", Arc::new(LiveRegistry::new(registry)))
//!     .expect("bind")
//!     .start()
//!     .expect("start");
//!
//! let client = Client::new(handle.addr());
//! let assignments = client
//!     .assign("demo", &[vec![0.1, 0.2, 0.3, 0.4]])
//!     .expect("request succeeds");
//! assert_eq!(assignments.len(), 1);
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod batch;
pub mod client;
mod error;
pub mod http;
pub mod live;
pub mod registry;
pub mod retrain;
pub mod router;
pub mod server;
pub mod stats;

pub use api::{
    AssignResponse, BatchStatsResponse, DrainResponse, ErrorResponse, FeaturesResponse,
    HealthResponse, ModelInfo, ModelLoadResult, ModelsResponse, ReloadResponse,
    ReplicaReloadResult, ReplicaStatz, RouterDrainResponse, RouterHealthResponse,
    RouterReloadResponse, RouterStatzResponse, RowsRequest,
};
pub use batch::{BatchConfig, BatchOutput, BatchStats, Batcher, Endpoint};
pub use client::{Client, Connection};
pub use error::ServeError;
pub use live::{LiveRegistry, RegistryGeneration, ReloadOutcome};
pub use registry::{ModelRegistry, ServingModel};
pub use retrain::{retrain, write_synthetic_csv, RetrainOptions, RetrainOutcome};
pub use router::{replica_rank, Router, RouterConfig};
pub use server::{route_live, ServeOptions, Server, ServerHandle};
pub use stats::LatencySummary;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
