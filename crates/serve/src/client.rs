//! A small blocking HTTP client for the serving API — used by the
//! integration tests and the `loadgen` benchmark binary, and handy for
//! scripting against a running server.
//!
//! [`Client`] opens a fresh connection per request (the conservative
//! baseline); [`Connection`] (from [`Client::connect`]) keeps one socket
//! alive across requests, reconnecting transparently when the server closes
//! it (idle timeout, request cap, restart). A client is built with
//! [`Client::new`], optionally with [`Client::with_timeout`]. Every typed
//! endpoint helper speaks `/v1` and is implemented exactly once, on
//! [`Connection`] — `Client` delegates through a single-shot connection.

use crate::api::{
    AssignResponse, DrainResponse, FeaturesResponse, HealthResponse, ModelsResponse,
    ReloadResponse, RowsRequest, StatzResponse,
};
use crate::http::{read_response_meta, write_request_keep_alive, Response};
use crate::{Result, ServeError};
use serde::Deserialize;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A client bound to one server address. Cheap to copy; every request opens
/// a fresh connection and asks the server to close it (`Connection: close`).
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Creates a client for `addr` with a 30-second connect/read/write
    /// timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            timeout: Duration::from_secs(30),
        }
    }

    /// Overrides the connect/read/write timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Opens a keep-alive [`Connection`] that reuses one socket across
    /// requests. The socket is dialed lazily on the first request.
    pub fn connect(&self) -> Connection {
        Connection {
            addr: self.addr,
            timeout: self.timeout,
            one_shot: false,
            stream: None,
            opened: 0,
            served_on_stream: 0,
        }
    }

    /// A connection that advertises `Connection: close` and drops its socket
    /// after each response — the transport behind every `Client` method.
    fn once(&self) -> Connection {
        Connection {
            one_shot: true,
            ..self.connect()
        }
    }

    /// Sends one request and reads the response, without interpreting the
    /// status code. The path is sent verbatim.
    ///
    /// # Errors
    ///
    /// Returns connection and framing errors.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<Response> {
        self.once().request(method, path, body)
    }

    /// Like [`Self::request`], but treats non-2xx statuses as
    /// [`ServeError::Status`].
    ///
    /// # Errors
    ///
    /// Everything [`Self::request`] returns, plus the status error.
    pub fn request_ok(&self, method: &str, path: &str, body: &str) -> Result<Response> {
        self.once().request_ok(method, path, body)
    }

    /// `GET /v1/healthz`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn health(&self) -> Result<HealthResponse> {
        self.once().health()
    }

    /// `GET /v1/models`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn models(&self) -> Result<ModelsResponse> {
        self.once().models()
    }

    /// `GET /v1/admin/statz`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn statz(&self) -> Result<StatzResponse> {
        self.once().statz()
    }

    /// `POST /v1/admin/reload`. Both outcomes decode to a [`ReloadResponse`]:
    /// `200` swapped and `409` rejected (old generation kept serving) — a
    /// rejection is an answer, not a transport failure.
    ///
    /// # Errors
    ///
    /// Connection, framing and decoding errors, plus [`ServeError::Status`]
    /// for statuses other than 200/409.
    pub fn reload(&self) -> Result<ReloadResponse> {
        self.once().reload()
    }

    /// `POST /v1/admin/drain`: flips the node into draining mode, so its
    /// `/v1/healthz` fails while open connections keep being served.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn drain(&self) -> Result<DrainResponse> {
        self.once().drain()
    }

    /// `POST /v1/models/{model}/features` for a batch of raw rows.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn features(&self, model: &str, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        self.once().features(model, rows)
    }

    /// `POST /v1/models/{model}/assign` for a batch of raw rows.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn assign(&self, model: &str, rows: &[Vec<f64>]) -> Result<Vec<usize>> {
        self.once().assign(model, rows)
    }
}

/// Reader/writer halves of one live socket.
#[derive(Debug)]
struct Stream {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A keep-alive connection: requests reuse one socket until the server
/// closes it, then the next request transparently dials a new one.
///
/// Not `Sync` — use one `Connection` per thread (see `loadgen`).
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    timeout: Duration,
    /// Advertise `Connection: close` and drop the socket after every
    /// response — how [`Client`] reuses this type for its per-request mode.
    one_shot: bool,
    stream: Option<Stream>,
    opened: usize,
    served_on_stream: usize,
}

impl Connection {
    /// The server address this connection talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many sockets this connection has dialed so far — `1` means every
    /// request rode the same socket.
    pub fn connections_opened(&self) -> usize {
        self.opened
    }

    fn dial(&mut self) -> Result<&mut Stream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            // Disable Nagle: request/response ping-pong on a reused socket
            // otherwise serializes behind delayed ACKs (~40ms per exchange).
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            let writer = stream.try_clone()?;
            self.stream = Some(Stream {
                reader: BufReader::new(stream),
                writer,
            });
            self.opened += 1;
            self.served_on_stream = 0;
        }
        Ok(self.stream.as_mut().expect("stream was just installed"))
    }

    fn request_once(&mut self, method: &str, path: &str, body: &str) -> Result<Response> {
        let keep_alive = !self.one_shot;
        let stream = self.dial()?;
        write_request_keep_alive(&mut stream.writer, method, path, body, keep_alive)?;
        let (response, close) = read_response_meta(&mut stream.reader)?;
        self.served_on_stream += 1;
        if close || self.one_shot {
            // The server announced it will close this socket (request cap,
            // shutdown, error) or this connection is single-shot: drop our
            // half so the next request redials.
            self.stream = None;
        }
        Ok(response)
    }

    /// Sends one request over the kept-alive socket and reads the response,
    /// without interpreting the status code.
    ///
    /// If a *reused* socket fails (the server idle-closed it while we were
    /// away — a benign race inherent to keep-alive), the request is retried
    /// once on a fresh connection. A failure on a fresh socket is returned
    /// as-is: retrying there would mask real server trouble. So is
    /// [`ServeError::ResponseTooLarge`]: the server answered, and asking
    /// again would only make it compute the same answer.
    ///
    /// # Errors
    ///
    /// Returns connection and framing errors.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response> {
        let reused = self.stream.is_some() && self.served_on_stream > 0;
        match self.request_once(method, path, body) {
            Ok(response) => Ok(response),
            Err(stale) if reused && !matches!(stale, ServeError::ResponseTooLarge { .. }) => {
                self.stream = None;
                self.request_once(method, path, body)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Like [`Self::request`], but treats non-2xx statuses as
    /// [`ServeError::Status`].
    ///
    /// # Errors
    ///
    /// Everything [`Self::request`] returns, plus the status error.
    pub fn request_ok(&mut self, method: &str, path: &str, body: &str) -> Result<Response> {
        let response = self.request(method, path, body)?;
        if response.is_success() {
            Ok(response)
        } else {
            Err(ServeError::Status {
                status: response.status,
                body: response.body,
            })
        }
    }

    fn get_json<T: Deserialize>(&mut self, path: &str) -> Result<T> {
        Ok(serde_json::from_str(
            &self.request_ok("GET", path, "")?.body,
        )?)
    }

    /// `GET /v1/healthz`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn health(&mut self) -> Result<HealthResponse> {
        self.get_json("/v1/healthz")
    }

    /// `GET /v1/models`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn models(&mut self) -> Result<ModelsResponse> {
        self.get_json("/v1/models")
    }

    /// `GET /v1/admin/statz`.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn statz(&mut self) -> Result<StatzResponse> {
        self.get_json("/v1/admin/statz")
    }

    /// `POST /v1/admin/reload` — see [`Client::reload`].
    ///
    /// # Errors
    ///
    /// Connection, framing and decoding errors, plus [`ServeError::Status`]
    /// for statuses other than 200/409.
    pub fn reload(&mut self) -> Result<ReloadResponse> {
        let response = self.request("POST", "/v1/admin/reload", "")?;
        if response.is_success() || response.status == 409 {
            Ok(serde_json::from_str(&response.body)?)
        } else {
            Err(ServeError::Status {
                status: response.status,
                body: response.body,
            })
        }
    }

    /// `POST /v1/admin/drain` — see [`Client::drain`].
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn drain(&mut self) -> Result<DrainResponse> {
        let response = self.request_ok("POST", "/v1/admin/drain", "")?;
        Ok(serde_json::from_str(&response.body)?)
    }

    /// `POST /v1/models/{model}/features` over the kept-alive socket.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn features(&mut self, model: &str, rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        Ok(self.features_response(model, rows)?.features)
    }

    /// [`Self::features`], returning the full response including the
    /// registry generation that served it.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn features_response(
        &mut self,
        model: &str,
        rows: &[Vec<f64>],
    ) -> Result<FeaturesResponse> {
        let response = self.post_rows(&format!("/v1/models/{model}/features"), rows)?;
        Ok(serde_json::from_str(&response)?)
    }

    /// `POST /v1/models/{model}/assign` over the kept-alive socket.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn assign(&mut self, model: &str, rows: &[Vec<f64>]) -> Result<Vec<usize>> {
        Ok(self.assign_response(model, rows)?.assignments)
    }

    /// [`Self::assign`], returning the full response including the registry
    /// generation that served it.
    ///
    /// # Errors
    ///
    /// Connection, framing, status and decoding errors.
    pub fn assign_response(&mut self, model: &str, rows: &[Vec<f64>]) -> Result<AssignResponse> {
        let response = self.post_rows(&format!("/v1/models/{model}/assign"), rows)?;
        Ok(serde_json::from_str(&response)?)
    }

    fn post_rows(&mut self, path: &str, rows: &[Vec<f64>]) -> Result<String> {
        let body = serde_json::to_string(&RowsRequest {
            rows: rows.to_vec(),
        })?;
        Ok(self.request_ok("POST", path, &body)?.body)
    }
}
