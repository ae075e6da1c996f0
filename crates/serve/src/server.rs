//! The HTTP JSON inference server: one acceptor thread draining a
//! `TcpListener` into per-connection handler threads that share a
//! hot-swappable [`LiveRegistry`]. The shard router ([`crate::Router`])
//! starts and stops through the same acceptor and the same
//! [`ServerHandle`].
//!
//! ## Endpoints
//!
//! Every route lives under `/v1/`. An unversioned path is not a route
//! (`404 not_found`), and a `/v{n}` prefix other than `/v1` answers
//! `404 unsupported_api_version`.
//!
//! | Method | Path | Body | Success response |
//! |--------|------|------|------------------|
//! | `GET` | `/v1/healthz` | — | `{"status":"ok","models":N}` |
//! | `GET` | `/v1/models` | — | `{"generation":G,"models":[{name, kind, ...}]}` |
//! | `POST` | `/v1/models/{name}/features` | `{"rows":[[f64,...],...]}` | `{"model":name,"generation":G,"features":[[f64,...],...]}` |
//! | `POST` | `/v1/models/{name}/assign` | `{"rows":[[f64,...],...]}` | `{"model":name,"generation":G,"assignments":[usize,...]}` |
//! | `GET` | `/v1/admin/statz` | — | registry counters, see [`StatzResponse`] |
//! | `POST` | `/v1/admin/reload` | — | [`ReloadResponse`] — `200` swapped, `409` rejected |
//! | `POST` | `/v1/admin/drain` | — | [`DrainResponse`] — `/v1/healthz` fails from now on |
//!
//! Unknown paths and model names answer `404`, malformed bodies and shape
//! mismatches `400`, wrong methods on known paths `405`, oversized declared
//! bodies `413` (rejected *before* buffering); every error body is
//! `{"error": "...", "code": "..."}` with a stable machine-readable code
//! from [`crate::api::code`].
//!
//! ## Request decoding
//!
//! An inference body is decoded once, straight into the request matrix, by
//! [`api::decode_rows`]: a large body is cut into row bands of at least
//! 32 KiB, parsed on the worker pool, with the same bits for every band
//! count, and any body not of the plain `{"rows":[[...],...]}` shape takes
//! the generic `serde_json` path, which words the errors. JSON nested
//! deeper than 128 levels is refused as `invalid_body` rather than
//! recursed into. All of a request's rows then run through one matrix
//! product on the handler thread that read it; requests never wait for
//! each other.
//!
//! ## Hot reload
//!
//! Each request resolves the current [`RegistryGeneration`] exactly once and
//! serves entirely from that snapshot, so a concurrent `POST /v1/admin/reload`
//! (or `--watch-interval-ms` directory watcher) swap never fails or tears an
//! in-flight request — the old generation drains and frees itself. See
//! [`crate::live`].
//!
//! ## Connection model
//!
//! Connections are HTTP/1.1 **keep-alive** by default: a handler thread
//! loops reading requests off one socket (pipelining falls out naturally —
//! responses are written in request order) until the client sends
//! `Connection: close`, the idle timeout elapses, the per-connection
//! request cap is reached, or framing breaks (`400` + close, since a
//! desynced stream cannot be trusted — the request-smuggling guard). A
//! request carrying `Transfer-Encoding` is answered `501` and the
//! connection closes: bodies are framed by `Content-Length` only.

use crate::api::{
    self, code, AssignResponse, DrainResponse, ErrorResponse, FeaturesResponse, HealthResponse,
    ModelInfo, ModelsResponse, ReloadResponse, StatzResponse,
};
use crate::http::{
    read_request_limited, write_response_keep_alive, HttpLimits, Request, RequestRead,
    MAX_BODY_BYTES,
};
use crate::live::{LiveRegistry, RegistryGeneration};
use crate::registry::ModelRegistry;
use crate::{Result, ServeError};
use serde::Serialize;
use sls_linalg::{ParallelPolicy, WorkerPool};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request read/write timeout once a request has started arriving — a
/// stalled client must not pin a handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often an idle connection re-checks the shutdown flag while parked
/// waiting for the next request.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Connection-handling knobs of the [`Server`] and the [`crate::Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// How long an idle keep-alive connection is held open waiting for its
    /// next request before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`Connection: close` on the capping response); clamped to ≥ 1, and
    /// `1` serves one request per connection.
    pub max_requests_per_connection: usize,
    /// Largest request body buffered; larger declarations answer `413`
    /// before any body byte is allocated.
    pub max_body_bytes: usize,
    /// Connections handled concurrently (clamped to ≥ 1); excess
    /// connections are answered `503` and closed immediately.
    pub max_connections: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            max_body_bytes: MAX_BODY_BYTES,
            max_connections: 1024,
        }
    }
}

/// A bound (but not yet serving) inference server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    live: Arc<LiveRegistry>,
    parallel: ParallelPolicy,
    options: ServeOptions,
    watch: Option<Duration>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) to serve from
    /// `live`. The caller keeps its own `Arc` to trigger reloads or read
    /// swap counters while the server runs. Inference runs under the
    /// process-wide [`ParallelPolicy::global`] unless overridden with
    /// [`Server::with_parallel`]; connection handling defaults to
    /// [`ServeOptions::default`].
    ///
    /// When the policy can fan out, the persistent linalg [`WorkerPool`] is
    /// constructed here, at bind time: one pool, shared by every connection
    /// for the server's lifetime.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, live: Arc<LiveRegistry>) -> Result<Self> {
        let parallel = ParallelPolicy::global();
        if !parallel.is_serial() {
            let _ = WorkerPool::global();
        }
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            live,
            parallel,
            options: ServeOptions::default(),
            watch: None,
        })
    }

    /// Sets the parallel execution policy for inference (the matrix
    /// product behind `/features` and `/assign`). Responses are bitwise
    /// identical for every policy. A policy that can fan out starts the
    /// shared persistent [`WorkerPool`] immediately, so the first request
    /// never pays pool construction.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        if !parallel.is_serial() {
            let _ = WorkerPool::global();
        }
        self.parallel = parallel;
        self
    }

    /// Overrides the connection-handling knobs (timeouts, request cap,
    /// body/connection limits).
    pub fn with_options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables directory-watch hot reload: every `interval` the artifact
    /// directory's `(name, mtime, len)` fingerprint is re-scanned off the
    /// request path, and a change triggers the same atomic reload as
    /// `POST /v1/admin/reload`. `None` (the default) disables the watcher; it
    /// is also inert when the registry has no source directory.
    pub fn with_watch(mut self, interval: Option<Duration>) -> Self {
        self.watch = interval.filter(|i| !i.is_zero());
        self
    }

    /// The address the listener is bound to.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the local address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Starts the acceptor (and the directory watcher, when enabled) and
    /// returns a handle for address lookup and shutdown.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from thread spawning.
    pub fn start(self) -> Result<ServerHandle> {
        let shared = Arc::new(Shared {
            live: self.live,
            parallel: self.parallel,
            draining: AtomicBool::new(false),
        });
        // The registry records the directory fingerprint each load or
        // reload attempt started from, so a change that lands before the
        // first poll is still reloaded, and a rejected reload (e.g. a
        // half-written artifact) is retried on the *next* change, not every
        // tick.
        let live = Arc::clone(&shared.live);
        let watcher = self
            .watch
            .filter(|_| live.source().is_some())
            .map(|interval| {
                (interval, move || {
                    let _ = live.reload_if_changed();
                })
            });
        start_frontend(self.listener, self.options, shared, watcher)
    }
}

/// Connection-handling state shared by every server-like frontend (the
/// inference server and the shard router): the knobs, the shutdown flag and
/// the live-connection count. Everything request-specific lives behind
/// [`RequestHandler`].
#[derive(Debug)]
pub(crate) struct ConnCore {
    pub(crate) options: ServeOptions,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active_connections: AtomicUsize,
}

impl ConnCore {
    /// The one place both frontends clamp their options: a cap of zero
    /// requests per connection or zero connections would refuse everything.
    pub(crate) fn new(options: ServeOptions) -> Self {
        Self {
            options: ServeOptions {
                max_requests_per_connection: options.max_requests_per_connection.max(1),
                max_connections: options.max_connections.max(1),
                ..options
            },
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        }
    }
}

/// Answers one parsed request with `(status, body)`. Implemented by the
/// inference server (route against the live registry) and the shard router
/// (forward to an owning replica); both share the exact same keep-alive
/// connection machinery around it.
pub(crate) trait RequestHandler: Send + Sync + 'static {
    fn handle(&self, request: &Request) -> (u16, String);
}

/// Inference state shared by every connection handler.
#[derive(Debug)]
struct Shared {
    live: Arc<LiveRegistry>,
    parallel: ParallelPolicy,
    draining: AtomicBool,
}

impl RequestHandler for Shared {
    fn handle(&self, request: &Request) -> (u16, String) {
        route_inner(&self.live, request, &self.parallel, Some(&self.draining))
    }
}

/// Decrements the live-connection count when a handler thread exits on any
/// path, including panics.
struct ConnGuard(Arc<ConnCore>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The start path both frontends share: one acceptor thread over
/// `listener` handing each connection to `handler`, plus at most one
/// `(interval, task)` run through [`every`] on its own thread (the
/// server's directory watcher, the router's health poll).
pub(crate) fn start_frontend<H: RequestHandler>(
    listener: TcpListener,
    options: ServeOptions,
    handler: Arc<H>,
    periodic: Option<(Duration, impl FnMut() + Send + 'static)>,
) -> Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let core = Arc::new(ConnCore::new(options));
    let periodic = match periodic {
        Some((interval, task)) => {
            let core = Arc::clone(&core);
            Some(
                std::thread::Builder::new()
                    .name("sls-serve-periodic".to_string())
                    .spawn(move || every(interval, &core.shutdown, task))?,
            )
        }
        None => None,
    };
    let acceptor_core = Arc::clone(&core);
    let acceptor = std::thread::Builder::new()
        .name("sls-serve-accept".to_string())
        .spawn(move || acceptor_loop(&listener, &acceptor_core, &handler))
        .map_err(|e| {
            // Stops the periodic task that already started.
            core.shutdown.store(true, Ordering::SeqCst);
            e
        })?;
    Ok(ServerHandle {
        addr,
        core,
        acceptor,
        periodic,
    })
}

/// A running server or router: its acceptor thread, its optional periodic
/// task, and the shutdown flag they share.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<ConnCore>,
    acceptor: JoinHandle<()>,
    periodic: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the frontend accepts connections on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the calling thread for as long as the acceptor runs, which
    /// is until the process is killed — what the `sls-serve serve` and
    /// `route` subcommands want.
    pub fn join(self) {
        let _ = self.acceptor.join();
        if let Some(periodic) = self.periodic {
            let _ = periodic.join();
        }
    }

    /// Stops the frontend: sets the shutdown flag, joins the periodic task
    /// (it polls the flag at least every 100 ms), wakes the
    /// acceptor, then waits (bounded) for live connections to observe the
    /// flag and drain.
    pub fn shutdown(self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(periodic) = self.periodic {
            let _ = periodic.join();
        }
        // The acceptor is blocked in `accept`, which a wake-up connection
        // ends, or between accepts, where it re-checks the flag.
        while !self.acceptor.is_finished() {
            let _ = TcpStream::connect(self.addr);
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = self.acceptor.join();
        // Idle keep-alive connections poll the flag every SHUTDOWN_POLL;
        // give them a bounded window to drain instead of waiting forever on
        // a connection wedged mid-request.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.core.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Runs `task` every `interval` until `shutdown` is set, checking the flag
/// before each run and at least every [`SHUTDOWN_POLL`] while it waits:
/// the directory watcher and the router's health poll.
pub(crate) fn every(interval: Duration, shutdown: &AtomicBool, mut task: impl FnMut()) {
    loop {
        let deadline = Instant::now() + interval;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(SHUTDOWN_POLL.min(left));
        }
        task();
    }
}

fn acceptor_loop<H: RequestHandler>(
    listener: &TcpListener,
    core: &Arc<ConnCore>,
    handler: &Arc<H>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Accept failure: aborted handshakes are transient, but
                // resource exhaustion (e.g. EMFILE under fd pressure) makes
                // accept fail immediately in a loop — back off briefly so
                // the handlers draining existing connections can free
                // descriptors instead of being starved by the spin.
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if core.active_connections.load(Ordering::SeqCst) >= core.options.max_connections {
            // Over capacity: shed load with an immediate 503 instead of
            // queueing a connection no handler will reach.
            let mut stream = stream;
            let (_, body) = error_body(503, code::OVER_CAPACITY, "server at connection capacity");
            let _ = write_response_keep_alive(&mut stream, 503, &body, false);
            continue;
        }
        core.active_connections.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(core));
        let handler = Arc::clone(handler);
        let spawned = std::thread::Builder::new()
            .name("sls-serve-conn".to_string())
            .spawn(move || {
                // A broken client connection must not take the server down;
                // the error is simply dropped with the connection.
                let _ = handle_connection(stream, &guard.0, handler.as_ref());
            });
        // Spawn failure drops the closure, whose guard decrements the
        // counter; nothing else to do beyond dropping the connection.
        drop(spawned);
    }
}

/// Outcome of parking on an idle connection.
enum IdleWait {
    /// Bytes of the next request are ready (or already buffered).
    Ready,
    /// The connection closed, idled out, or the server is shutting down.
    Closed,
}

/// Parks until the next request's first byte arrives, without consuming it.
///
/// The socket read timeout is dropped to [`SHUTDOWN_POLL`] so the wait can
/// interleave shutdown-flag checks; only *complete inactivity* counts
/// against the idle budget, and no request byte is ever buffered then lost
/// (`fill_buf` peeks without consuming).
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    idle_timeout: Duration,
    shutdown: &AtomicBool,
) -> IdleWait {
    if !reader.buffer().is_empty() {
        // Pipelined request already buffered behind the previous one.
        return IdleWait::Ready;
    }
    let poll = SHUTDOWN_POLL
        .min(idle_timeout)
        .max(Duration::from_millis(1));
    if reader.get_ref().set_read_timeout(Some(poll)).is_err() {
        return IdleWait::Closed;
    }
    let deadline = Instant::now() + idle_timeout;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return IdleWait::Closed;
        }
        match reader.fill_buf() {
            Ok([]) => return IdleWait::Closed,
            Ok(_) => return IdleWait::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return IdleWait::Closed;
                }
            }
            Err(_) => return IdleWait::Closed,
        }
    }
}

/// Serves one connection: a keep-alive request loop with idle timeout,
/// request cap, bounded body buffering and close-on-desync.
fn handle_connection<H: RequestHandler + ?Sized>(
    stream: TcpStream,
    core: &ConnCore,
    handler: &H,
) -> Result<()> {
    // Nagle's algorithm batches small writes behind delayed ACKs; on a
    // keep-alive connection (no fresh-connection quick-ACK grace) that
    // turns every request/response exchange into a ~40ms stall.
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let options = &core.options;
    let limits = HttpLimits::new(options.max_body_bytes);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        if let IdleWait::Closed =
            wait_for_request(&mut reader, options.idle_timeout, &core.shutdown)
        {
            return Ok(());
        }
        // A request is arriving: switch from the idle poll to the (much
        // longer) per-request I/O budget. The timeout lives on the shared
        // socket, so setting it through the writer half covers the reader.
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        served += 1;
        let may_keep_alive =
            served < options.max_requests_per_connection && !core.shutdown.load(Ordering::SeqCst);
        match read_request_limited(&mut reader, &limits) {
            Ok(RequestRead::Complete { request, close }) => {
                let keep = may_keep_alive && !close;
                let (status, body) = handler.handle(&request);
                write_response_keep_alive(&mut writer, status, &body, keep)?;
                if !keep {
                    return Ok(());
                }
            }
            Ok(RequestRead::TooLarge {
                declared,
                drained,
                close,
            }) => {
                // The body was never buffered; the connection survives only
                // when the declared bytes were actually drained, otherwise
                // the next "request" would start inside the unread body.
                let keep = may_keep_alive && drained && !close;
                let (status, body) = error_body(
                    413,
                    code::BODY_TOO_LARGE,
                    format!(
                        "body of {declared} bytes exceeds the {}-byte limit",
                        options.max_body_bytes
                    ),
                );
                write_response_keep_alive(&mut writer, status, &body, keep)?;
                if !keep {
                    return Ok(());
                }
            }
            Err(e) => {
                // Broken or refused framing: answer and close — after a
                // framing error the stream position is untrusted, and
                // serving more requests from it is the request-smuggling
                // primitive.
                let (status, body) = match &e {
                    ServeError::NotImplemented { message } => {
                        error_body(501, code::UNSUPPORTED_TRANSFER_ENCODING, message.clone())
                    }
                    _ => error_body(
                        400,
                        code::MALFORMED_REQUEST,
                        format!("malformed request: {e}"),
                    ),
                };
                let _ = write_response_keep_alive(&mut writer, status, &body, false);
                return Err(e);
            }
        }
    }
}

/// Routes one request against the current generation of a hot-swappable
/// registry, returning `(status, body)`: the generation is resolved exactly
/// once, the whole request is served from that snapshot, and
/// `POST /v1/admin/reload` is live. The fourth argument is ignored: it is
/// kept only because the `slsbench` benchmark package passes a [`Batcher`].
///
/// The same routing the server's connections run, exposed for driving it
/// in process without sockets. `POST /v1/admin/drain` answers `409` here:
/// draining is connection state only a running server has.
pub fn route_live(
    live: &LiveRegistry,
    request: &Request,
    parallel: &ParallelPolicy,
    _batcher: Option<&Batcher>,
) -> (u16, String) {
    route_inner(live, request, parallel, None)
}

/// Holds no state and does nothing: kept only because the `slsbench`
/// benchmark package names it, as `Batcher::new(BatchConfig::disabled())`
/// passed to [`route_live`].
#[derive(Debug, Clone, Copy)]
pub struct Batcher;

impl Batcher {
    /// The stateless value; the argument is ignored.
    pub fn new(_config: BatchConfig) -> Self {
        Self
    }
}

/// Holds no state: kept only because the `slsbench` benchmark package
/// names it, as the argument of [`Batcher::new`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig;

impl BatchConfig {
    /// The stateless value.
    pub fn disabled() -> Self {
        Self
    }
}

/// The route table both frontends share. Splits the path (query string
/// dropped) and strips the `/v1` API-version prefix. Any *other* `/v{n}`
/// prefix is answered with a structured 404 (a `/v2` client must learn it
/// speaks the wrong version, not chase phantom 404s per route), and so is
/// an unversioned path. `routes` then answers `(method, segments)`;
/// whatever it leaves unanswered is a `405` on a known path and a `404`
/// everywhere else.
pub(crate) fn dispatch(
    request: &Request,
    routes: impl FnOnce(&str, &[&str]) -> Option<(u16, String)>,
) -> (u16, String) {
    let path = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let rest = match segments.split_first() {
        Some((&"v1", rest)) => rest,
        Some((&first, _)) if is_version_prefix(first) => {
            return error_body(
                404,
                code::UNSUPPORTED_API_VERSION,
                format!("API version `{first}` is not supported; this server speaks `/v1`"),
            )
        }
        _ => return not_found(path),
    };
    if let Some(answer) = routes(request.method.as_str(), rest) {
        return answer;
    }
    match rest {
        ["healthz" | "models"]
        | ["admin", "reload" | "statz" | "drain"]
        | ["models", _, "features" | "assign"] => error_body(
            405,
            code::METHOD_NOT_ALLOWED,
            format!("method {} not allowed here", request.method),
        ),
        _ => not_found(path),
    }
}

fn not_found(path: &str) -> (u16, String) {
    error_body(
        404,
        code::NOT_FOUND,
        format!("no route for `{path}`; every route is under `/v1`"),
    )
}

/// `v` followed by only digits — `v1`, `v2`, `v99`. A path like `/verbose`
/// is not a version prefix and falls through to normal route matching.
fn is_version_prefix(segment: &str) -> bool {
    segment.len() >= 2
        && segment.starts_with('v')
        && segment[1..].bytes().all(|b| b.is_ascii_digit())
}

fn route_inner(
    live: &LiveRegistry,
    request: &Request,
    parallel: &ParallelPolicy,
    draining: Option<&AtomicBool>,
) -> (u16, String) {
    let current: Arc<RegistryGeneration> = live.current();
    let (registry, generation) = (&current.registry, current.generation);
    let serve_rows = |name: &str, endpoint| {
        infer(
            registry,
            generation,
            name,
            endpoint,
            &request.body,
            parallel,
        )
    };
    dispatch(request, |method, rest| {
        Some(match (method, rest) {
            ("GET", ["healthz"]) => health(registry, draining),
            ("GET", ["models"]) => json_body(
                200,
                &ModelsResponse {
                    generation,
                    models: registry
                        .iter()
                        .map(|(name, model)| ModelInfo::describe(name, model))
                        .collect(),
                },
            ),
            ("GET", ["admin", "statz"]) => json_body(
                200,
                &StatzResponse {
                    generation,
                    registry_swaps: live.swaps(),
                    failed_reloads: live.failed_reloads(),
                },
            ),
            ("POST", ["admin", "reload"]) => reload(live),
            ("POST", ["admin", "drain"]) => drain(draining),
            ("POST", ["models", name, "features"]) => serve_rows(name, Endpoint::Features),
            ("POST", ["models", name, "assign"]) => serve_rows(name, Endpoint::Assign),
            _ => return None,
        })
    })
}

/// `GET /v1/healthz`: `200 ok` normally, `503 draining` once the node was
/// drained — existing connections keep being served, but routers and load
/// balancers must stop sending new traffic here.
fn health(registry: &ModelRegistry, draining: Option<&AtomicBool>) -> (u16, String) {
    if draining.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
        return error_body(
            503,
            code::DRAINING,
            "node is draining: open connections finish, new traffic must go elsewhere",
        );
    }
    json_body(
        200,
        &HealthResponse {
            status: "ok".to_string(),
            models: registry.len(),
        },
    )
}

/// `POST /v1/admin/drain`: flip the node into draining mode (idempotent).
/// Only a socket-backed server carries the flag; in-process routing
/// ([`route_live`]) answers 409.
fn drain(draining: Option<&AtomicBool>) -> (u16, String) {
    let Some(flag) = draining else {
        return error_body(
            409,
            code::DRAIN_UNAVAILABLE,
            "drain is not available: routing over a bare registry has no connection state",
        );
    };
    flag.store(true, Ordering::SeqCst);
    json_body(
        200,
        &DrainResponse {
            status: "draining".to_string(),
            draining: true,
        },
    )
}

/// `POST /v1/admin/reload`: atomically swap in a new generation from the
/// artifact directory, or report exactly why the old one keeps serving.
fn reload(live: &LiveRegistry) -> (u16, String) {
    let outcome = live.reload();
    let status = if outcome.swapped { 200 } else { 409 };
    json_body(
        status,
        &ReloadResponse {
            status: if outcome.swapped {
                "swapped".to_string()
            } else {
                "rejected".to_string()
            },
            swapped: outcome.swapped,
            generation: outcome.generation,
            models: outcome.models,
            error: outcome.error,
        },
    )
}

/// The two inference endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    /// `POST /v1/models/{name}/features`.
    Features,
    /// `POST /v1/models/{name}/assign`.
    Assign,
}

/// Shared scaffolding of the two inference endpoints: model lookup (404),
/// body decoding ([`api::decode_rows`]) and width checks (400), then the
/// compute; any model error also maps to 400 since inference on an
/// immutable artifact only fails on request-induced shape/capability
/// mismatches.
fn infer(
    registry: &ModelRegistry,
    generation: u64,
    name: &str,
    endpoint: Endpoint,
    body: &str,
    parallel: &ParallelPolicy,
) -> (u16, String) {
    let model = match registry.get(name) {
        Ok(model) => model,
        Err(e) => return error_body(404, code::MODEL_NOT_FOUND, e.to_string()),
    };
    let matrix = match api::decode_rows(body, parallel) {
        Ok(matrix) => matrix,
        Err(e) => return error_body(400, e.code, e.message),
    };
    // Checked up front so each failure class carries its own stable code.
    if matrix.cols() != model.n_visible() {
        return error_body(
            400,
            code::BAD_ROW_WIDTH,
            format!(
                "rows are {} wide but model `{name}` expects {} visible units",
                matrix.cols(),
                model.n_visible()
            ),
        );
    }
    if endpoint == Endpoint::Assign && model.cluster_head.is_none() {
        return error_body(
            400,
            code::NO_CLUSTER_HEAD,
            format!("model `{name}` has no cluster head; `/assign` is unavailable"),
        );
    }
    let answer = match endpoint {
        Endpoint::Features => model.features_with(&matrix, parallel).map(|features| {
            json_body(
                200,
                &FeaturesResponse {
                    model: name.to_string(),
                    generation,
                    features: api::matrix_to_rows(&features),
                },
            )
        }),
        Endpoint::Assign => model.assign_with(&matrix, parallel).map(|assignments| {
            json_body(
                200,
                &AssignResponse {
                    model: name.to_string(),
                    generation,
                    assignments,
                },
            )
        }),
    };
    answer.unwrap_or_else(|e| error_body(400, code::INFERENCE_FAILED, e.to_string()))
}

pub(crate) fn json_body<T: Serialize>(status: u16, value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (status, body),
        Err(e) => (
            500,
            format!("{{\"error\":\"serialisation failed: {e}\",\"code\":\"internal\"}}"),
        ),
    }
}

pub(crate) fn error_body(
    status: u16,
    code: &'static str,
    message: impl Into<String>,
) -> (u16, String) {
    json_body(
        status,
        &ErrorResponse {
            error: message.into(),
            code: code.to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;
    use sls_rbm_core::{ModelKind, SlsPipelineConfig};

    fn registry() -> ModelRegistry {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        let fitted = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        let mut registry = ModelRegistry::new();
        registry.insert("demo", fitted.artifact);
        registry
    }

    /// The fixture registry as the live cell every route resolves through.
    fn live() -> LiveRegistry {
        LiveRegistry::new(registry())
    }

    /// Serial routing.
    fn route(live: &LiveRegistry, request: &Request) -> (u16, String) {
        route_live(live, request, &ParallelPolicy::serial(), None)
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        }
    }

    #[test]
    fn healthz_reports_model_count() {
        let (status, body) = route(&live(), &request("GET", "/v1/healthz", ""));
        assert_eq!(status, 200);
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(health.status, "ok");
        assert_eq!(health.models, 1);
    }

    #[test]
    fn models_lists_loaded_artifacts() {
        let (status, body) = route(&live(), &request("GET", "/v1/models", ""));
        assert_eq!(status, 200);
        let models: ModelsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(models.models.len(), 1);
        assert_eq!(models.models[0].name, "demo");
        assert_eq!(models.models[0].kind, "grbm");
        assert_eq!(models.models[0].n_visible, 4);
        assert_eq!(models.models[0].n_clusters, Some(2));
    }

    #[test]
    fn statz_reports_registry_counters() {
        let live = live();
        let statz = |live: &LiveRegistry| route(live, &request("GET", "/v1/admin/statz", ""));
        assert_eq!(
            statz(&live),
            (
                200,
                r#"{"generation":1,"registry_swaps":0,"failed_reloads":0}"#.to_string()
            )
        );
        // A bare registry rejects every reload, and statz counts it.
        assert_eq!(
            route(&live, &request("POST", "/v1/admin/reload", "")).0,
            409
        );
        assert_eq!(
            statz(&live),
            (
                200,
                r#"{"generation":1,"registry_swaps":0,"failed_reloads":1}"#.to_string()
            )
        );
    }

    #[test]
    fn features_and_assign_answer_batches() {
        let live = live();
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        let (status, response) = route(&live, &request("POST", "/v1/models/demo/features", body));
        assert_eq!(status, 200, "{response}");
        let features: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(features.features.len(), 3);
        assert_eq!(features.features[0].len(), 4);

        let (status, response) = route(&live, &request("POST", "/v1/models/demo/assign", body));
        assert_eq!(status, 200, "{response}");
        let assign: AssignResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(assign.assignments.len(), 3);
        assert!(assign.assignments.iter().all(|&l| l < 2));
    }

    #[test]
    fn unknown_model_is_404() {
        let (status, body) = route(
            &live(),
            &request("POST", "/v1/models/ghost/features", "{\"rows\":[[1.0]]}"),
        );
        assert_eq!(status, 404);
        let err: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(err.error.contains("ghost"));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        assert_eq!(route(&live(), &request("GET", "/nope", "")).0, 404);
        assert_eq!(route(&live(), &request("POST", "/v1/healthz", "")).0, 405);
        assert_eq!(
            route(&live(), &request("POST", "/v1/admin/statz", "")).0,
            405
        );
        assert_eq!(
            route(&live(), &request("GET", "/v1/models/demo/features", "")).0,
            405
        );
    }

    #[test]
    fn bad_bodies_are_400() {
        let live = live();
        for body in [
            "not json",
            "{\"rows\":[]}",
            "{\"rows\":[[1.0],[1.0,2.0]]}",
            // Wrong width for the 4-visible model.
            "{\"rows\":[[1.0,2.0]]}",
        ] {
            let (status, response) =
                route(&live, &request("POST", "/v1/models/demo/features", body));
            assert_eq!(status, 400, "body `{body}` answered {response}");
        }
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let (status, _) = route(&live(), &request("GET", "/v1/healthz?verbose=1", ""));
        assert_eq!(status, 200);
    }

    #[test]
    fn parallel_routing_answers_byte_identical_responses() {
        // The serving contract of the parallel layer: a client can never
        // tell from a response body how many threads computed it.
        let live = live();
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        for path in ["/v1/models/demo/features", "/v1/models/demo/assign"] {
            let request = request("POST", path, body);
            let serial = route_live(&live, &request, &ParallelPolicy::serial(), None);
            let parallel = route_live(&live, &request, &ParallelPolicy::eager(4), None);
            assert_eq!(serial, parallel, "path {path}");
            assert_eq!(serial.0, 200);
        }
    }

    #[test]
    fn reload_on_a_bare_registry_is_409_with_structured_body() {
        let (status, body) = route(&live(), &request("POST", "/v1/admin/reload", ""));
        assert_eq!(status, 409);
        let reload: ReloadResponse = serde_json::from_str(&body).unwrap();
        assert!(!reload.swapped);
        assert_eq!(reload.generation, 1);
        assert!(reload.error.unwrap().contains("not enabled"));
        // Wrong method on the admin path is 405, like every known path.
        assert_eq!(
            route(&live(), &request("GET", "/v1/admin/reload", "")).0,
            405
        );
    }

    #[test]
    fn route_live_swaps_generations_and_reports_them_everywhere() {
        let dir =
            std::env::temp_dir().join(format!("sls_serve_server_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        let fitted = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        fitted.artifact.save(dir.join("demo.json")).unwrap();
        let live = LiveRegistry::from_dir(&dir, false).unwrap();
        let policy = ParallelPolicy::serial();

        let body = "{\"rows\":[[0.1,0.2,0.3,0.4]]}";
        let (status, response) = route_live(
            &live,
            &request("POST", "/v1/models/demo/features", body),
            &policy,
            None,
        );
        assert_eq!(status, 200, "{response}");
        let before: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(before.generation, 1);

        // Re-export a different model under the same name and reload.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let retrained = sls_rbm_core::PipelineArtifact::fit(
            ModelKind::Grbm,
            SlsPipelineConfig::quick_demo()
                .with_clusters(2)
                .with_hidden(4),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        retrained.artifact.save(dir.join("demo.json")).unwrap();
        let (status, response) = route_live(
            &live,
            &request("POST", "/v1/admin/reload", ""),
            &policy,
            None,
        );
        assert_eq!(status, 200, "{response}");
        let reload: ReloadResponse = serde_json::from_str(&response).unwrap();
        assert!(reload.swapped);
        assert_eq!(reload.generation, 2);
        assert!(reload.models.iter().all(|m| m.loaded));

        let (_, response) = route_live(
            &live,
            &request("POST", "/v1/models/demo/features", body),
            &policy,
            None,
        );
        let after: FeaturesResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(after.generation, 2);
        assert_ne!(
            before.features, after.features,
            "retrained model must answer differently"
        );

        let (_, response) = route_live(&live, &request("GET", "/v1/models", ""), &policy, None);
        let models: ModelsResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(models.generation, 2);

        let (_, response) =
            route_live(&live, &request("GET", "/v1/admin/statz", ""), &policy, None);
        let stats: StatzResponse = serde_json::from_str(&response).unwrap();
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.registry_swaps, 1);
        assert_eq!(stats.failed_reloads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let server = Server::bind("127.0.0.1:0", Arc::new(live()))
            .unwrap()
            .with_parallel(ParallelPolicy::new(2));
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        let handle = server.start().unwrap();
        assert_eq!(handle.addr(), addr);
        handle.shutdown();
    }

    #[test]
    fn server_with_pooled_policy_serves_and_shuts_down() {
        // Bind-time pool construction plus real requests through the pooled
        // inference path, answered by concurrent connection handlers
        // sharing one linalg worker pool.
        let server = Server::bind("127.0.0.1:0", Arc::new(live()))
            .unwrap()
            .with_parallel(ParallelPolicy::eager(4));
        let addr = server.local_addr().unwrap();
        let handle = server.start().unwrap();
        let client = crate::Client::new(addr);
        let body = "{\"rows\":[[0.1,0.2,0.3,0.4],[1.0,1.1,1.2,1.3],[2.0,2.1,2.2,2.3]]}";
        let reference = route(&live(), &request("POST", "/v1/models/demo/features", body));
        for _ in 0..4 {
            let response = client
                .request("POST", "/v1/models/demo/features", body)
                .expect("pooled inference request");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, reference.1);
        }
        handle.shutdown();
    }

    #[test]
    fn every_returns_at_once_when_the_flag_is_already_set() {
        // Run on a thread: an `every` that never checks the flag would
        // otherwise hang the suite instead of failing it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let shutdown = AtomicBool::new(true);
            let mut runs = 0;
            every(Duration::ZERO, &shutdown, || runs += 1);
            let _ = tx.send(runs);
        });
        let runs = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("every(0, ..) kept running with the shutdown flag set");
        assert_eq!(runs, 0);
    }
}
