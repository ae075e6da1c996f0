//! Keep-alive integration suite: connection reuse, pipelining, idle
//! timeouts, per-connection request caps, and the framing guards that keep
//! a reused connection immune to desync (oversized, malformed and
//! `Transfer-Encoding` requests — the request-smuggling regression tests,
//! extending the duplicate `Content-Length` coverage in `http.rs`).
//!
//! The raw-socket tests speak the wire format through the `http` module
//! directly, so they observe the `Connection` response header and the exact
//! close behaviour instead of trusting the client wrapper.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::ParallelPolicy;
use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
use sls_serve::http::{read_response_meta, write_request_keep_alive, Request};
use sls_serve::{
    route_live, Client, ErrorResponse, LiveRegistry, ModelRegistry, ServeOptions, Server,
    ServerHandle,
};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MODEL: &str = "demo";

fn registry() -> ModelRegistry {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let ds = SyntheticBlobs::new(30, 4, 2)
        .separation(6.0)
        .generate(&mut rng);
    let fitted = PipelineArtifact::fit(
        ModelKind::Grbm,
        SlsPipelineConfig::quick_demo()
            .with_clusters(2)
            .with_hidden(4),
        ds.features(),
        &mut rng,
    )
    .expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry.insert(MODEL, fitted.artifact);
    registry
}

fn start(options: ServeOptions) -> ServerHandle {
    Server::bind("127.0.0.1:0", Arc::new(LiveRegistry::new(registry())))
        .expect("bind ephemeral port")
        .with_options(options)
        .start()
        .expect("server starts")
}

/// The response body the server must produce for `POST path body`, computed
/// through the in-process router (the bitwise reference).
fn reference(method: &str, path: &str, body: &str) -> (u16, String) {
    route_live(
        &LiveRegistry::new(registry()),
        &Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_string(),
        },
        &ParallelPolicy::global(),
        None,
    )
}

/// A distinct, valid features request body per `tag`.
fn features_body(tag: usize) -> String {
    let t = tag as f64;
    format!(
        "{{\"rows\":[[{},{},{},{}]]}}",
        0.1 + t,
        0.2 + t,
        0.3 - t,
        0.4 * (t + 1.0)
    )
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Asserts the server half of the socket is closed: the next read returns
/// EOF instead of blocking or yielding bytes.
fn assert_closed(reader: &mut BufReader<TcpStream>) {
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => {}
        Ok(n) => panic!("expected EOF on a closed connection, read {n} stray byte(s)"),
        Err(e) => panic!("expected clean EOF on a closed connection, got {e}"),
    }
}

#[test]
fn sequential_requests_share_one_connection() {
    let handle = start(ServeOptions::default());
    let (mut reader, mut writer) = connect(handle.addr());
    for tag in 0..5 {
        let body = features_body(tag);
        let path = format!("/v1/models/{MODEL}/features");
        write_request_keep_alive(&mut writer, "POST", &path, &body, true).unwrap();
        let (response, close) = read_response_meta(&mut reader).expect("response arrives");
        assert!(!close, "request {tag}: server must keep the connection");
        let (expected_status, expected_body) = reference("POST", &path, &body);
        assert_eq!(response.status, expected_status, "request {tag}");
        assert_eq!(response.body, expected_body, "request {tag}");
    }
    handle.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let handle = start(ServeOptions::default());
    let (mut reader, mut writer) = connect(handle.addr());
    let path = format!("/v1/models/{MODEL}/features");
    // All three requests hit the wire before any response is read.
    let bodies: Vec<String> = (10..13).map(features_body).collect();
    for body in &bodies {
        write_request_keep_alive(&mut writer, "POST", &path, body, true).unwrap();
    }
    for (i, body) in bodies.iter().enumerate() {
        let (response, close) = read_response_meta(&mut reader).expect("pipelined response");
        assert!(!close, "pipelined response {i} must keep the connection");
        let (_, expected_body) = reference("POST", &path, body);
        assert_eq!(
            response.body, expected_body,
            "pipelined response {i} out of order or corrupted"
        );
    }
    handle.shutdown();
}

#[test]
fn idle_timeout_closes_the_connection() {
    let handle = start(ServeOptions {
        idle_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = connect(handle.addr());
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    assert!(!close);
    // Stay idle well past the timeout: the server must hang up.
    std::thread::sleep(Duration::from_millis(700));
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn connection_close_is_honored_mid_stream() {
    let handle = start(ServeOptions::default());
    let (mut reader, mut writer) = connect(handle.addr());
    // First request keeps the connection alive...
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (_, close) = read_response_meta(&mut reader).unwrap();
    assert!(!close);
    // ...the second asks to close, and the server must comply.
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", false).unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    assert!(close, "server must announce the close it was asked for");
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn request_cap_closes_the_connection() {
    let handle = start(ServeOptions {
        max_requests_per_connection: 3,
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = connect(handle.addr());
    for served in 1..=3 {
        write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
        let (response, close) = read_response_meta(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            close,
            served == 3,
            "only the capping (3rd) response may close"
        );
    }
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn oversized_body_is_rejected_without_desyncing_the_connection() {
    let handle = start(ServeOptions {
        max_body_bytes: 4096,
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = connect(handle.addr());
    // 8000 declared-and-sent bytes: over the limit but within the drain
    // allowance, so the connection must survive with valid framing.
    let huge = "x".repeat(8000);
    let path = format!("/v1/models/{MODEL}/features");
    write_request_keep_alive(&mut writer, "POST", &path, &huge, true).unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(response.body.contains("4096"), "{}", response.body);
    assert!(!close, "drained rejection must keep the connection");
    // The very next request on the same socket parses and answers cleanly —
    // the smuggling regression: rejected bytes must not shift the framing.
    let body = features_body(7);
    write_request_keep_alive(&mut writer, "POST", &path, &body, true).unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    let (_, expected_body) = reference("POST", &path, &body);
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected_body);
    assert!(!close);
    handle.shutdown();
}

#[test]
fn undrainable_body_declaration_closes_the_connection() {
    let handle = start(ServeOptions {
        max_body_bytes: 1024,
        ..ServeOptions::default()
    });
    let (mut reader, mut writer) = connect(handle.addr());
    // Declare far beyond the drain allowance (4 × 1024) and send nothing:
    // the server must answer 413 immediately — before any body byte — and
    // close, never waiting to buffer what was declared.
    write!(
        writer,
        "POST /v1/models/{MODEL}/features HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n"
    )
    .unwrap();
    writer.flush().unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(close, "an undrained rejection must close the connection");
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn malformed_request_on_a_reused_connection_closes_with_400() {
    let handle = start(ServeOptions::default());
    let (mut reader, mut writer) = connect(handle.addr());
    // A healthy request first, so the malformed one arrives on a *reused*
    // connection.
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (_, close) = read_response_meta(&mut reader).unwrap();
    assert!(!close);
    // Conflicting Content-Length values: the parsers-disagree smuggling
    // vector. The server must refuse to guess and drop the connection.
    write!(
        writer,
        "POST /v1/models/{MODEL}/features HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhi~~~"
    )
    .unwrap();
    writer.flush().unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("Content-Length"),
        "{}",
        response.body
    );
    assert!(close, "a desynced connection must never be reused");
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn transfer_encoding_on_a_reused_connection_closes_with_501() {
    let handle = start(ServeOptions::default());
    let (mut reader, mut writer) = connect(handle.addr());
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (_, close) = read_response_meta(&mut reader).unwrap();
    assert!(!close);
    // Transfer-Encoding plus Content-Length: framed by the length, the
    // body is the 5-byte terminal chunk and a second request follows;
    // framed by the chunked encoding, those bytes belong to another
    // request entirely. The server must refuse both readings: 501, close,
    // and the trailing `GET` is never parsed.
    let wire = format!(
        "POST /v1/models/{MODEL}/features HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\
         Content-Length: 5\r\n\r\n0\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n"
    );
    writer.write_all(wire.as_bytes()).unwrap();
    writer.flush().unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 501, "{}", response.body);
    let error: ErrorResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(error.code, "unsupported_transfer_encoding");
    assert!(close, "a refused framing must never be reused");
    assert_closed(&mut reader);
    handle.shutdown();
}

#[test]
fn client_connection_reuses_one_socket() {
    let handle = start(ServeOptions::default());
    let client = Client::new(handle.addr());
    let mut connection = client.connect();
    for tag in 0..10 {
        let rows = vec![vec![0.1 + tag as f64, 0.2, 0.3, 0.4]];
        let features = connection.features(MODEL, &rows).expect("features request");
        assert_eq!(features.len(), 1);
        assert_eq!(features[0].len(), 4);
    }
    assert_eq!(
        connection.connections_opened(),
        1,
        "all 10 requests must ride one socket"
    );
    handle.shutdown();
}

#[test]
fn client_connection_redials_after_server_side_close() {
    let handle = start(ServeOptions {
        idle_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    });
    let client = Client::new(handle.addr());
    let mut connection = client.connect();
    let rows = vec![vec![0.1, 0.2, 0.3, 0.4]];
    connection.features(MODEL, &rows).expect("first request");
    // Let the server idle-close our socket, then request again: the
    // connection must recover transparently on a fresh socket.
    std::thread::sleep(Duration::from_millis(700));
    connection
        .features(MODEL, &rows)
        .expect("request after idle close");
    assert_eq!(connection.connections_opened(), 2);
    handle.shutdown();
}

#[test]
fn keep_alive_disabled_closes_after_every_request() {
    // One request per connection is a request cap of 1.
    let handle = start(ServeOptions {
        max_requests_per_connection: 1,
        ..ServeOptions::default()
    });
    // Raw socket: the response must announce the close even though the
    // client asked for keep-alive.
    let (mut reader, mut writer) = connect(handle.addr());
    write_request_keep_alive(&mut writer, "GET", "/v1/healthz", "", true).unwrap();
    let (response, close) = read_response_meta(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    assert!(
        close,
        "max_requests_per_connection=1 must close every connection"
    );
    assert_closed(&mut reader);
    // The reusing client keeps working — by redialing per request.
    let client = Client::new(handle.addr());
    let mut connection = client.connect();
    for _ in 0..3 {
        connection
            .request_ok("GET", "/v1/healthz", "")
            .expect("request");
    }
    assert_eq!(connection.connections_opened(), 3);
    handle.shutdown();
}

#[test]
fn zero_connection_cap_is_clamped_to_one() {
    // `max_connections: 0` would shed every connection with a 503; like the
    // request cap it is clamped to 1.
    let handle = start(ServeOptions {
        max_connections: 0,
        ..ServeOptions::default()
    });
    let response = Client::new(handle.addr())
        .request("GET", "/v1/healthz", "")
        .expect("healthz answers");
    assert_eq!(response.status, 200, "{}", response.body);
    handle.shutdown();
}
