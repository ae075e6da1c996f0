//! The shard router: one `/v1` endpoint in front of a static set of
//! replicated serving processes.
//!
//! ## Ownership
//!
//! Model names are consistent-hashed onto replicas with **rendezvous
//! (highest-random-weight) hashing**: every `(model, replica)` pair gets an
//! FNV-1a score, the replicas are ranked per model by score, and the top
//! `replication` non-drained replicas own the model. The ranking is a pure
//! function of the model name and the configured addresses, so every router
//! instance — and every test — computes the same owners, and removing a
//! replica only remaps the models it owned.
//!
//! ## Forwarding
//!
//! `POST /v1/models/{name}/features` and `/assign` are forwarded verbatim
//! (path, body, response bytes — upstream error codes included) over pooled
//! keep-alive [`Connection`]s to the first healthy owner. Inference is a
//! pure read, so on transport failure the request is retried on the next
//! owner (bounded by the owner list) and the failing replica is marked
//! down; a background thread polls `/v1/healthz` and marks it back up.
//! A replica answer larger than the client reads is not a transport
//! failure: it is answered `502 upstream_response_too_large` at once, with
//! no retry and no mark-down.
//!
//! ## Rollout
//!
//! `POST /v1/admin/reload` fans out to every non-drained replica and reports
//! each replica's own [`ReloadResponse`](crate::ReloadResponse); it answers `200` only when all of
//! them swapped onto one shared generation. `GET /v1/models` refuses to
//! advertise a model while its reachable owners disagree on the generation,
//! so a torn rollout is visible as a withdrawn model, never as mixed
//! answers. `POST /v1/admin/drain` retires one replica: it stops owning
//! models, in-flight forwards finish (none are dropped), the node itself is
//! told to fail its health checks, and the last active replica refuses to
//! drain.

use crate::api::{
    code, DrainRequest, ModelInfo, ModelsResponse, ReplicaReloadResult, ReplicaStatz,
    RouterDrainResponse, RouterHealthResponse, RouterReloadResponse, RouterStatzResponse,
};
use crate::client::{Client, Connection};
use crate::http::{Request, MAX_BODY_BYTES};
use crate::server::{
    dispatch, error_body, json_body, start_frontend, RequestHandler, ServeOptions, ServerHandle,
};
use crate::{Result, ServeError};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle upstream connections kept per replica; checkouts beyond the cap
/// dial fresh sockets and are dropped on check-in.
const POOL_CAP: usize = 16;

/// How long a drain waits for the replica's in-flight forwards to finish.
const DRAIN_WAIT: Duration = Duration::from_secs(5);

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The static replica set, in configuration order.
    pub replicas: Vec<SocketAddr>,
    /// Replicas each model is hashed onto (clamped to `1..=replicas.len()`).
    /// With `>= 2`, a dead replica is survivable: reads retry on the next
    /// owner.
    pub replication: usize,
    /// How often the background health thread polls each replica; must
    /// be non-zero.
    pub health_interval: Duration,
    /// Connect/read/write timeout for upstream requests; must be non-zero.
    pub upstream_timeout: Duration,
}

impl RouterConfig {
    /// Defaults: replication 2, 250 ms health polls, 10 s upstream timeout.
    pub fn new(replicas: Vec<SocketAddr>) -> Self {
        Self {
            replicas,
            replication: 2,
            health_interval: Duration::from_millis(250),
            upstream_timeout: Duration::from_secs(10),
        }
    }

    /// Overrides the replication factor.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Overrides the health-poll interval.
    #[must_use]
    pub fn with_health_interval(mut self, interval: Duration) -> Self {
        self.health_interval = interval;
        self
    }

    /// Overrides the upstream I/O timeout.
    #[must_use]
    pub fn with_upstream_timeout(mut self, timeout: Duration) -> Self {
        self.upstream_timeout = timeout;
        self
    }
}

/// Ranks `replicas` for `model` by rendezvous hash, best owner first. Pure
/// and deterministic: every process computes the same ranking, and ties
/// (astronomically unlikely) break toward the lower index.
pub fn replica_rank(model: &str, replicas: &[SocketAddr]) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = replicas
        .iter()
        .enumerate()
        .map(|(index, addr)| (rendezvous_score(model, &addr.to_string()), index))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, index)| index).collect()
}

/// FNV-1a over `model`, a `0xFF` separator (never part of UTF-8, so
/// `("ab", "c")` and `("a", "bc")` cannot collide), and the replica address.
fn rendezvous_score(model: &str, replica: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in model
        .as_bytes()
        .iter()
        .chain(&[0xFFu8])
        .chain(replica.as_bytes())
    {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Router-side state of one upstream replica.
#[derive(Debug)]
struct Replica {
    addr: SocketAddr,
    /// Flipped down on health-check or forward failure, back up on success.
    healthy: AtomicBool,
    /// Sticky: a drained replica owns nothing and is never polled again.
    drained: AtomicBool,
    /// Forwards currently running against this replica — what drain waits
    /// on.
    in_flight: AtomicUsize,
    forwards: AtomicU64,
    failures: AtomicU64,
    /// Idle keep-alive connections to this replica.
    pool: Mutex<Vec<Connection>>,
}

impl Replica {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            healthy: AtomicBool::new(true),
            drained: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            forwards: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// A fresh per-request client for admin and aggregate calls (health,
    /// models, statz, reload) — rare enough that pooling would only make
    /// them compete with the forward path.
    fn client(&self, timeout: Duration) -> Client {
        Client::new(self.addr).with_timeout(timeout)
    }

    fn checkout(&self, timeout: Duration) -> Connection {
        let pooled = self.pool.lock().expect("pool lock").pop();
        pooled.unwrap_or_else(|| self.client(timeout).connect())
    }

    fn checkin(&self, connection: Connection) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.len() < POOL_CAP {
            pool.push(connection);
        }
    }
}

/// Decrements a replica's in-flight count on every exit path.
struct InFlight<'a>(&'a Replica);

impl<'a> InFlight<'a> {
    fn enter(replica: &'a Replica) -> Self {
        replica.in_flight.fetch_add(1, Ordering::SeqCst);
        Self(replica)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared state behind every router connection handler.
#[derive(Debug)]
pub(crate) struct RouterState {
    replicas: Vec<Replica>,
    addrs: Vec<SocketAddr>,
    replication: usize,
    timeout: Duration,
    forwards: AtomicU64,
    retried_requests: AtomicU64,
    unrouted: AtomicU64,
}

impl RouterState {
    fn new(config: &RouterConfig) -> Self {
        let replication = config.replication.clamp(1, config.replicas.len().max(1));
        Self {
            replicas: config.replicas.iter().copied().map(Replica::new).collect(),
            addrs: config.replicas.clone(),
            replication,
            timeout: config.upstream_timeout,
            forwards: AtomicU64::new(0),
            retried_requests: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
        }
    }

    /// The non-drained owners of `model`, best first. Draining re-maps
    /// ownership: the rank order is computed over the full configured set,
    /// then drained replicas drop out and the next-ranked replicas take
    /// their place.
    fn owners(&self, model: &str) -> Vec<usize> {
        replica_rank(model, &self.addrs)
            .into_iter()
            .filter(|&index| !self.replicas[index].drained.load(Ordering::SeqCst))
            .take(self.replication)
            .collect()
    }

    /// Forwards one inference request to the first owner that answers.
    /// Healthy owners are tried in rank order first, then marked-down
    /// owners as a last resort (a stale down-mark must degrade a request to
    /// a slow retry, not a guaranteed 503). Safe because `/features` and
    /// `/assign` are pure reads over an immutable generation.
    fn forward(&self, model: &str, request: &Request) -> (u16, String) {
        let owners = self.owners(model);
        if owners.is_empty() {
            self.unrouted.fetch_add(1, Ordering::SeqCst);
            return error_body(
                503,
                code::REPLICA_UNAVAILABLE,
                format!("no replica owns `{model}`: every replica is drained"),
            );
        }
        let (up, down): (Vec<usize>, Vec<usize>) = owners
            .iter()
            .partition(|&&index| self.replicas[index].healthy.load(Ordering::SeqCst));
        let mut last_error = String::new();
        for (attempt, &index) in up.iter().chain(down.iter()).enumerate() {
            let replica = &self.replicas[index];
            let _guard = InFlight::enter(replica);
            let mut connection = replica.checkout(self.timeout);
            let result = connection.request(&request.method, &request.path, &request.body);
            match result {
                Ok(response) => {
                    replica.checkin(connection);
                    replica.healthy.store(true, Ordering::SeqCst);
                    replica.forwards.fetch_add(1, Ordering::SeqCst);
                    self.forwards.fetch_add(1, Ordering::SeqCst);
                    if attempt > 0 {
                        self.retried_requests.fetch_add(1, Ordering::SeqCst);
                    }
                    return (response.status, response.body);
                }
                Err(ServeError::ResponseTooLarge { declared }) => {
                    // The replica is healthy; its answer is just more than
                    // this hop buffers, and every other owner would compute
                    // the same bytes.
                    return error_body(
                        502,
                        code::UPSTREAM_RESPONSE_TOO_LARGE,
                        format!(
                            "replica {} answered `{model}` with {declared} bytes, over the \
                             {MAX_BODY_BYTES}-byte response limit",
                            replica.addr
                        ),
                    );
                }
                Err(e) => {
                    replica.healthy.store(false, Ordering::SeqCst);
                    replica.failures.fetch_add(1, Ordering::SeqCst);
                    last_error = e.to_string();
                }
            }
        }
        self.unrouted.fetch_add(1, Ordering::SeqCst);
        error_body(
            503,
            code::REPLICA_UNAVAILABLE,
            format!(
                "all {} owning replica(s) of `{model}` are unavailable (last error: {last_error})",
                owners.len()
            ),
        )
    }

    /// One `GET /v1/models` snapshot per replica (`None` for drained or
    /// unreachable replicas).
    fn model_snapshots(&self) -> Vec<Option<ModelsResponse>> {
        self.replicas
            .iter()
            .map(|replica| {
                if replica.drained.load(Ordering::SeqCst) {
                    None
                } else {
                    replica.client(self.timeout).models().ok()
                }
            })
            .collect()
    }

    /// The models the router advertises: a model is listed iff at least one
    /// owner is reachable, every *reachable* owner carries it, and all of
    /// them report the same generation. A torn rollout therefore withdraws
    /// the model instead of serving mixed generations.
    fn advertised(&self, snapshots: &[Option<ModelsResponse>]) -> Vec<ModelInfo> {
        let names: BTreeSet<&str> = snapshots
            .iter()
            .flatten()
            .flat_map(|snap| snap.models.iter().map(|m| m.name.as_str()))
            .collect();
        let mut advertised = Vec::new();
        for name in names {
            let mut generations: Vec<u64> = Vec::new();
            let mut info: Option<&ModelInfo> = None;
            let mut torn = false;
            for &owner in &self.owners(name) {
                let Some(snap) = &snapshots[owner] else {
                    continue; // unreachable: cannot prove inconsistency
                };
                match snap.models.iter().find(|m| m.name == name) {
                    Some(model) => {
                        generations.push(snap.generation);
                        info.get_or_insert(model);
                    }
                    None => torn = true, // a reachable owner lacks the model
                }
            }
            let consistent =
                !generations.is_empty() && generations.iter().all(|&g| g == generations[0]);
            if !torn && consistent {
                if let Some(info) = info {
                    advertised.push(info.clone());
                }
            }
        }
        advertised
    }

    /// The generation shared by every reachable snapshot, if they agree.
    fn consistent_generation(snapshots: &[Option<ModelsResponse>]) -> Option<u64> {
        let mut generations = snapshots.iter().flatten().map(|snap| snap.generation);
        let first = generations.next()?;
        generations.all(|g| g == first).then_some(first)
    }

    /// Router `GET /v1/healthz`: `200` while at least one replica is routable.
    fn health(&self) -> (u16, String) {
        let available = self
            .replicas
            .iter()
            .filter(|r| r.healthy.load(Ordering::SeqCst) && !r.drained.load(Ordering::SeqCst))
            .count();
        if available == 0 {
            return error_body(
                503,
                code::REPLICA_UNAVAILABLE,
                "no replica is healthy and undrained",
            );
        }
        let snapshots = self.model_snapshots();
        json_body(
            200,
            &RouterHealthResponse {
                status: "ok".to_string(),
                models: self.advertised(&snapshots).len(),
                replicas: self.replicas.len(),
                available,
            },
        )
    }

    /// Router `GET /v1/models`: the aggregated, consistency-gated model list.
    /// `generation` is the shared replica generation, or `0` while replicas
    /// disagree (per-process generations start at 1, so `0` is unambiguous).
    fn models(&self) -> (u16, String) {
        let snapshots = self.model_snapshots();
        json_body(
            200,
            &ModelsResponse {
                generation: Self::consistent_generation(&snapshots).unwrap_or(0),
                models: self.advertised(&snapshots),
            },
        )
    }

    /// Router `GET /v1/admin/statz`.
    fn statz(&self) -> (u16, String) {
        let replicas: Vec<ReplicaStatz> = self
            .replicas
            .iter()
            .map(|replica| {
                let drained = replica.drained.load(Ordering::SeqCst);
                let generation = if drained {
                    None
                } else {
                    replica
                        .client(self.timeout)
                        .statz()
                        .ok()
                        .map(|s| s.generation)
                };
                ReplicaStatz {
                    addr: replica.addr.to_string(),
                    healthy: replica.healthy.load(Ordering::SeqCst),
                    drained,
                    generation,
                    in_flight: replica.in_flight.load(Ordering::SeqCst),
                    forwards: replica.forwards.load(Ordering::SeqCst),
                    failures: replica.failures.load(Ordering::SeqCst),
                }
            })
            .collect();
        let generations: Vec<u64> = replicas.iter().filter_map(|r| r.generation).collect();
        let consistent = (!generations.is_empty()
            && generations.iter().all(|&g| g == generations[0]))
        .then(|| generations[0]);
        json_body(
            200,
            &RouterStatzResponse {
                replication: self.replication,
                consistent_generation: consistent,
                forwards: self.forwards.load(Ordering::SeqCst),
                retried_requests: self.retried_requests.load(Ordering::SeqCst),
                unrouted: self.unrouted.load(Ordering::SeqCst),
                replicas,
            },
        )
    }

    /// Router `POST /v1/admin/reload`: fan out to every non-drained replica,
    /// `200` only when all of them swapped onto one shared generation.
    fn reload(&self) -> (u16, String) {
        let mut results = Vec::new();
        let mut generations: Vec<u64> = Vec::new();
        let mut unreachable = 0usize;
        let mut rejected = 0usize;
        for replica in &self.replicas {
            if replica.drained.load(Ordering::SeqCst) {
                continue;
            }
            match replica.client(self.timeout).reload() {
                Ok(response) => {
                    generations.push(response.generation);
                    if !response.swapped {
                        rejected += 1;
                    }
                    results.push(ReplicaReloadResult {
                        addr: replica.addr.to_string(),
                        reachable: true,
                        response: Some(response),
                        error: None,
                    });
                }
                Err(e) => {
                    unreachable += 1;
                    results.push(ReplicaReloadResult {
                        addr: replica.addr.to_string(),
                        reachable: false,
                        response: None,
                        error: Some(e.to_string()),
                    });
                }
            }
        }
        let consistent =
            !generations.is_empty() && generations.iter().all(|&g| g == generations[0]);
        let swapped = unreachable == 0 && rejected == 0 && consistent;
        let (status, label, error) = if swapped {
            (200, "swapped", None)
        } else if unreachable == 0 && rejected == results.len() && consistent {
            // Every replica rejected and kept the same old generation: the
            // rollout failed *atomically*, nothing diverged.
            (
                409,
                "rejected",
                Some("every replica rejected the reload and kept the old generation".to_string()),
            )
        } else {
            (
                409,
                "inconsistent",
                Some(format!(
                    "fan-out did not converge: {unreachable} unreachable, {rejected} rejected, \
                     generations {generations:?}"
                )),
            )
        };
        json_body(
            status,
            &RouterReloadResponse {
                status: label.to_string(),
                swapped,
                generation: consistent.then(|| generations[0]),
                replicas: results,
                error,
            },
        )
    }

    /// Router `POST /v1/admin/drain`: retire one replica without dropping a
    /// response. The replica is removed from every owner set first (new
    /// requests stop arriving), then its in-flight forwards get a bounded
    /// window to finish, its pooled connections are dropped, and the node
    /// itself is told to fail health checks for any other traffic source.
    fn drain(&self, body: &str) -> (u16, String) {
        let request: DrainRequest = match serde_json::from_str(body) {
            Ok(request) => request,
            Err(e) => {
                return error_body(
                    400,
                    code::INVALID_BODY,
                    format!("drain needs {{\"replica\":\"host:port\"}}: {e}"),
                )
            }
        };
        let target = request.replica.trim();
        let parsed: Option<SocketAddr> = target.parse().ok();
        let Some(index) = self
            .replicas
            .iter()
            .position(|r| Some(r.addr) == parsed || r.addr.to_string() == target)
        else {
            return error_body(
                404,
                code::REPLICA_NOT_FOUND,
                format!("`{target}` is not in the replica set"),
            );
        };
        let replica = &self.replicas[index];
        let already_drained = replica.drained.load(Ordering::SeqCst);
        let others_active = self
            .replicas
            .iter()
            .enumerate()
            .any(|(i, r)| i != index && !r.drained.load(Ordering::SeqCst));
        if !already_drained && !others_active {
            return error_body(
                409,
                code::LAST_REPLICA,
                format!("refusing to drain `{target}`: it is the last active replica"),
            );
        }
        // Ownership flips first: from here on no new forward selects this
        // replica. A forward that picked it just before the flip still
        // completes — the wait below covers exactly that window.
        replica.drained.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + DRAIN_WAIT;
        while replica.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let in_flight = replica.in_flight.load(Ordering::SeqCst);
        // Idle pooled sockets are dropped so the node's keep-alive count
        // reaches zero; the node keeps serving connections other clients
        // still hold.
        replica.pool.lock().expect("pool lock").clear();
        let node_drained = replica.client(self.timeout).drain().is_ok();
        json_body(
            200,
            &RouterDrainResponse {
                status: if in_flight == 0 {
                    "drained".to_string()
                } else {
                    "draining".to_string()
                },
                replica: replica.addr.to_string(),
                in_flight,
                node_drained,
            },
        )
    }

    /// One health pass over every non-drained replica.
    fn health_pass(&self) {
        for replica in &self.replicas {
            if replica.drained.load(Ordering::SeqCst) {
                continue;
            }
            let healthy = replica.client(self.timeout).health().is_ok();
            replica.healthy.store(healthy, Ordering::SeqCst);
        }
    }
}

impl RequestHandler for RouterState {
    fn handle(&self, request: &Request) -> (u16, String) {
        dispatch(request, |method, rest| {
            Some(match (method, rest) {
                ("GET", ["healthz"]) => self.health(),
                ("GET", ["models"]) => self.models(),
                ("GET", ["admin", "statz"]) => self.statz(),
                ("POST", ["admin", "reload"]) => self.reload(),
                ("POST", ["admin", "drain"]) => self.drain(&request.body),
                ("POST", ["models", name, "features" | "assign"]) => self.forward(name, request),
                _ => return None,
            })
        })
    }
}

/// A bound (but not yet serving) shard router.
#[derive(Debug)]
pub struct Router {
    listener: TcpListener,
    config: RouterConfig,
    options: ServeOptions,
}

impl Router {
    /// Binds the router frontend to `addr` (port `0` for ephemeral) over a
    /// non-empty replica set.
    ///
    /// # Errors
    ///
    /// Returns `BadRequest` when `config.replicas` is empty or
    /// `config.health_interval` or `config.upstream_timeout` is zero, and
    /// bind I/O errors.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> Result<Self> {
        let invalid = if config.replicas.is_empty() {
            Some("a router needs at least one replica")
        } else if config.health_interval.is_zero() {
            Some("a router's health_interval must be positive")
        } else if config.upstream_timeout.is_zero() {
            Some("a router's upstream_timeout must be positive")
        } else {
            None
        };
        if let Some(message) = invalid {
            return Err(ServeError::BadRequest {
                message: message.to_string(),
            });
        }
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            config,
            options: ServeOptions::default(),
        })
    }

    /// Overrides the frontend connection-handling knobs (idle timeout,
    /// request cap, body/connection limits) — same contract as the
    /// server's.
    #[must_use]
    pub fn with_options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self
    }

    /// The address the frontend listener is bound to.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the local address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs one synchronous health pass (so the first request routes on
    /// real data), starts the acceptor and the background health poll,
    /// which marks every non-drained replica down or up each interval, and
    /// returns the handle.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from thread spawning.
    pub fn start(self) -> Result<ServerHandle> {
        let state = Arc::new(RouterState::new(&self.config));
        state.health_pass();
        let poll = Arc::clone(&state);
        let health = (self.config.health_interval, move || poll.health_pass());
        start_frontend(self.listener, self.options, state, Some(health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("10.0.0.{}:7890", i + 1).parse().unwrap())
            .collect()
    }

    #[test]
    fn rank_is_deterministic_and_a_permutation() {
        let replicas = addrs(5);
        for model in ["alpha", "beta", "gamma", "delta", ""] {
            let first = replica_rank(model, &replicas);
            let second = replica_rank(model, &replicas);
            assert_eq!(first, second, "model {model}");
            let mut sorted = first.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>(), "model {model}");
        }
    }

    #[test]
    fn rank_spreads_models_across_replicas() {
        let replicas = addrs(4);
        let mut owner_counts = [0usize; 4];
        for i in 0..200 {
            let model = format!("model-{i}");
            owner_counts[replica_rank(&model, &replicas)[0]] += 1;
        }
        // Rendezvous hashing over 200 names must not starve any replica.
        for (index, &count) in owner_counts.iter().enumerate() {
            assert!(
                count > 20,
                "replica {index} owns only {count}/200 models: {owner_counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_replica_only_remaps_its_own_models() {
        // The consistent-hashing property rendezvous buys us: models whose
        // top owner survives keep that owner when another replica leaves.
        let full = addrs(4);
        let reduced: Vec<SocketAddr> = full[..3].to_vec();
        for i in 0..100 {
            let model = format!("model-{i}");
            let owner_full = replica_rank(&model, &full)[0];
            let owner_reduced = replica_rank(&model, &reduced)[0];
            if owner_full < 3 {
                assert_eq!(
                    owner_full, owner_reduced,
                    "model {model} moved although its owner survived"
                );
            }
        }
    }

    #[test]
    fn owners_skip_drained_replicas() {
        let config = RouterConfig::new(addrs(3)).with_replication(2);
        let state = RouterState::new(&config);
        let before = state.owners("demo");
        assert_eq!(before.len(), 2);
        state.replicas[before[0]]
            .drained
            .store(true, Ordering::SeqCst);
        let after = state.owners("demo");
        assert_eq!(after.len(), 2);
        assert!(!after.contains(&before[0]), "drained replica still owns");
        // The surviving owner keeps its slot; the next-ranked replica
        // backfills.
        assert!(after.contains(&before[1]));
    }

    #[test]
    fn replication_is_clamped_to_the_replica_count() {
        let config = RouterConfig::new(addrs(2)).with_replication(10);
        let state = RouterState::new(&config);
        assert_eq!(state.owners("demo").len(), 2);
        let config = RouterConfig::new(addrs(2)).with_replication(0);
        let state = RouterState::new(&config);
        assert_eq!(state.owners("demo").len(), 1);
    }

    #[test]
    fn bind_rejects_a_zero_health_interval() {
        let config = RouterConfig::new(addrs(1)).with_health_interval(Duration::ZERO);
        let err = Router::bind("127.0.0.1:0", config).unwrap_err().to_string();
        assert!(err.contains("health_interval"), "{err}");
    }

    #[test]
    fn bind_rejects_a_zero_upstream_timeout() {
        let config = RouterConfig::new(addrs(1)).with_upstream_timeout(Duration::ZERO);
        let err = Router::bind("127.0.0.1:0", config).unwrap_err().to_string();
        assert!(err.contains("upstream_timeout"), "{err}");
    }
}
