//! Minimal HTTP/1.1 framing over `std` I/O.
//!
//! The server and client speak a deliberate subset of HTTP/1.1 — enough for
//! JSON request/response bodies without pulling in any dependency:
//!
//! * persistent connections: HTTP/1.1 keep-alive semantics (`Connection:
//!   keep-alive`/`close` tokens honoured, HTTP/1.0 defaults to close);
//! * bodies are framed by `Content-Length` only: a request carrying any
//!   `Transfer-Encoding` is refused with [`ServeError::NotImplemented`]
//!   (RFC 7230 §3.3.3) instead of being framed by a length a proxy in
//!   front may not have used — the CL.TE request-smuggling desync;
//! * header names are matched case-insensitively, values are trimmed;
//! * oversized declared bodies are rejected *before* buffering — the reader
//!   reports [`RequestRead::TooLarge`] instead of allocating, and drains the
//!   declared bytes when that is cheap enough to keep the connection's
//!   framing valid for the next request.

use crate::{Result, ServeError};
use std::io::{BufRead, Read, Write};

/// Default upper bound on accepted body sizes (16 MiB) — a guard against
/// malformed or hostile `Content-Length` values, far above any legitimate
/// request. Servers can lower it per-connection via [`HttpLimits`].
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Upper bound on a single request/status/header line (8 KiB, the common
/// server default) — without it a client that never sends a newline could
/// grow a line buffer without limit.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Upper bound on the number of header lines in one message.
pub const MAX_HEADER_LINES: usize = 100;

/// Body-size limits applied while reading a request.
///
/// `max_body_bytes` is the largest body that will be buffered; a request
/// declaring more is answered without ever allocating for it. `drain_limit`
/// bounds how many declared-but-rejected bytes the reader is willing to
/// consume to keep a keep-alive connection's framing valid — a declared
/// body beyond it forces the connection closed instead of reading
/// arbitrarily many bytes into the void.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Largest body that will be buffered.
    pub max_body_bytes: usize,
    /// Largest rejected body that will still be drained (consumed and
    /// discarded) so the connection can serve the next request.
    pub drain_limit: usize,
}

impl HttpLimits {
    /// Limits with the given body cap and a drain allowance of 4× the cap.
    pub fn new(max_body_bytes: usize) -> Self {
        Self {
            max_body_bytes,
            drain_limit: max_body_bytes.saturating_mul(4),
        }
    }
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self::new(MAX_BODY_BYTES)
    }
}

/// A parsed HTTP request: method, path and raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method, e.g. `GET` or `POST`.
    pub method: String,
    /// Request path, e.g. `/v1/models/quick_demo/features`.
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Outcome of reading one request under explicit [`HttpLimits`].
#[derive(Debug)]
pub enum RequestRead {
    /// A complete request, plus whether the client asked for the connection
    /// to close after the response (`Connection: close`, or HTTP/1.0
    /// without `keep-alive`).
    Complete {
        /// The parsed request.
        request: Request,
        /// `true` when the client asked the connection to close.
        close: bool,
    },
    /// The declared `Content-Length` exceeds `max_body_bytes`. The body was
    /// **not** buffered; `drained` reports whether the declared bytes were
    /// consumed (so the connection framing is still valid) or left on the
    /// wire (connection must close).
    TooLarge {
        /// The `Content-Length` the client declared.
        declared: usize,
        /// Whether the declared body was consumed and discarded.
        drained: bool,
        /// Whether the client asked the connection to close anyway.
        close: bool,
    },
}

/// A parsed HTTP response: status code and raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code, e.g. `200`.
    pub status: u16,
    /// Raw response body.
    pub body: String,
}

impl Response {
    /// `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn protocol_error(message: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        message: message.into(),
    }
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`]. Returns
/// `Ok(None)` on a cleanly closed stream.
fn read_limited_line(reader: &mut impl BufRead) -> Result<Option<String>> {
    let mut line = String::new();
    // UFCS so `take` borrows the reader (`Self = &mut R`) instead of
    // resolving through auto-deref and moving the reader itself.
    let read = Read::take(&mut *reader, MAX_LINE_BYTES as u64).read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if read == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(protocol_error(format!(
            "line exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    Ok(Some(line))
}

/// The header fields this crate acts on, collected from one header block.
#[derive(Debug, Default)]
struct HeaderBlock {
    content_length: Option<usize>,
    /// A `Connection` header carried a `close` token.
    close: bool,
    /// A `Connection` header carried a `keep-alive` token.
    keep_alive: bool,
    /// The value of a `Transfer-Encoding` header, if any was sent.
    transfer_encoding: Option<String>,
}

/// Reads headers until the blank line.
///
/// Duplicate `Content-Length` headers with *identical* values are collapsed,
/// duplicates with *conflicting* values are rejected — the two behaviours
/// RFC 7230 §3.3.2 permits. Letting a later value silently win is the
/// request-smuggling primitive: two parsers disagreeing on where a body ends
/// disagree on where the next request starts.
fn read_header_block(reader: &mut impl BufRead) -> Result<HeaderBlock> {
    let mut block = HeaderBlock::default();
    for _ in 0..MAX_HEADER_LINES {
        let Some(line) = read_limited_line(reader)? else {
            return Err(protocol_error("connection closed inside headers"));
        };
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(block);
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| protocol_error(format!("invalid Content-Length `{value}`")))?;
                match block.content_length {
                    Some(existing) if existing != parsed => {
                        return Err(protocol_error(format!(
                            "conflicting Content-Length headers ({existing} vs {parsed})"
                        )));
                    }
                    _ => block.content_length = Some(parsed),
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                block.transfer_encoding = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                // `Connection` is a comma-separated token list; only the
                // two tokens this subset understands matter.
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        block.close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        block.keep_alive = true;
                    }
                }
            }
        }
    }
    Err(protocol_error(format!(
        "more than {MAX_HEADER_LINES} header lines"
    )))
}

/// Reads exactly `len` bytes of UTF-8 body.
fn read_body(reader: &mut impl BufRead, len: usize) -> Result<String> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| protocol_error("body is not valid UTF-8"))
}

/// Parses one request under explicit [`HttpLimits`], reporting keep-alive
/// metadata and oversized bodies instead of buffering them.
///
/// An oversized declared body is *never* allocated. When the declaration is
/// within `limits.drain_limit` the body bytes are read and discarded so the
/// connection stays usable ([`RequestRead::TooLarge`] with `drained: true`);
/// beyond it the bytes are left on the wire and the caller must close.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on malformed framing,
/// [`ServeError::NotImplemented`] for a request carrying
/// `Transfer-Encoding` (its body is left unread, so the caller must close),
/// and I/O errors on truncated streams.
pub fn read_request_limited(reader: &mut impl BufRead, limits: &HttpLimits) -> Result<RequestRead> {
    let Some(request_line) = read_limited_line(reader)? else {
        return Err(protocol_error("connection closed before request line"));
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(protocol_error(format!(
            "malformed request line `{}`",
            request_line.trim_end()
        )));
    };
    let method = method.to_ascii_uppercase();
    let path = path.to_string();
    // HTTP/1.0 defaults to close, everything else (HTTP/1.1 or a bare
    // request line) to keep-alive.
    let http10 = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));
    let block = read_header_block(reader)?;
    if let Some(encoding) = block.transfer_encoding {
        return Err(ServeError::NotImplemented {
            message: format!("Transfer-Encoding `{encoding}` is not supported"),
        });
    }
    let close = block.close || (http10 && !block.keep_alive);
    let declared = block.content_length.unwrap_or(0);
    if declared > limits.max_body_bytes {
        let drained = declared <= limits.drain_limit && drain_exact(reader, declared);
        return Ok(RequestRead::TooLarge {
            declared,
            drained,
            close,
        });
    }
    let body = read_body(reader, declared)?;
    Ok(RequestRead::Complete {
        request: Request { method, path, body },
        close,
    })
}

/// Consumes exactly `len` bytes from `reader` into the void, returning
/// whether all of them arrived.
fn drain_exact(reader: &mut impl BufRead, len: usize) -> bool {
    std::io::copy(
        &mut Read::take(&mut *reader, len as u64),
        &mut std::io::sink(),
    )
    .map(|n| n == len as u64)
    .unwrap_or(false)
}

/// Parses one response (status line, headers, `Content-Length` body) from
/// `reader`, also returning whether the server signalled that the
/// connection closes after this response.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on malformed framing,
/// [`ServeError::ResponseTooLarge`] for a declared body over
/// [`MAX_BODY_BYTES`] (left unread, so the caller must drop the
/// connection), and I/O errors on truncated streams.
pub fn read_response_meta(reader: &mut impl BufRead) -> Result<(Response, bool)> {
    let Some(status_line) = read_limited_line(reader)? else {
        return Err(protocol_error("connection closed before status line"));
    };
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status = parts
        .next()
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            protocol_error(format!(
                "malformed status line `{}`",
                status_line.trim_end()
            ))
        })?;
    let http10 = version.eq_ignore_ascii_case("HTTP/1.0");
    let block = read_header_block(reader)?;
    let len = block.content_length.unwrap_or(0);
    if len > MAX_BODY_BYTES {
        return Err(ServeError::ResponseTooLarge { declared: len });
    }
    let body = read_body(reader, len)?;
    let close = block.close || (http10 && !block.keep_alive);
    Ok((Response { status, body }, close))
}

/// Standard reason phrase for the status codes this crate emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_token(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete `application/json` response, advertising keep-alive or
/// close in the `Connection` header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_response_keep_alive(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> Result<()> {
    // One buffered write per message: `write!` straight to a socket emits
    // every format fragment as its own TCP segment, and on a long-lived
    // connection Nagle + delayed ACK turn those fragments into ~40ms
    // stalls (fresh connections hide this behind TCP quick-ACK mode, which
    // is why a connection-per-request server never notices).
    let message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        reason_phrase(status),
        body.len(),
        connection_token(keep_alive),
    );
    writer.write_all(message.as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// Writes a complete request with an optional JSON body, advertising
/// keep-alive or close in the `Connection` header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request_keep_alive(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> Result<()> {
    // Single buffered write — see `write_response_keep_alive` for why.
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: sls-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        connection_token(keep_alive),
    );
    writer.write_all(message.as_bytes())?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one request under the default limits, expecting it complete.
    fn read_complete(reader: &mut impl BufRead) -> Result<Request> {
        match read_request_limited(reader, &HttpLimits::default())? {
            RequestRead::Complete { request, .. } => Ok(request),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        write_request_keep_alive(
            &mut wire,
            "POST",
            "/models/m/assign",
            "{\"rows\":[[1.0]]}",
            false,
        )
        .unwrap();
        let req = read_complete(&mut wire.as_slice()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/models/m/assign");
        assert_eq!(req.body, "{\"rows\":[[1.0]]}");
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response_keep_alive(&mut wire, 200, "{\"status\":\"ok\"}", false).unwrap();
        let (resp, _) = read_response_meta(&mut wire.as_slice()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.body, "{\"status\":\"ok\"}");
    }

    #[test]
    fn transfer_encoding_is_refused_as_not_implemented() {
        for headers in [
            "Transfer-Encoding: chunked\r\n",
            "transfer-encoding: gzip, chunked\r\nContent-Length: 5\r\n",
        ] {
            let wire = format!("POST /x HTTP/1.1\r\n{headers}\r\n0\r\n\r\n");
            match read_request_limited(&mut wire.as_bytes(), &HttpLimits::default()) {
                Err(ServeError::NotImplemented { message }) => {
                    assert!(message.contains("Transfer-Encoding"), "{message}");
                }
                other => panic!("expected NotImplemented for {headers:?}, got {other:?}"),
            }
        }
        assert_eq!(reason_phrase(501), "Not Implemented");
    }

    #[test]
    fn keep_alive_round_trip_reports_metadata() {
        let mut wire = Vec::new();
        write_request_keep_alive(&mut wire, "GET", "/healthz", "", true).unwrap();
        match read_request_limited(&mut wire.as_slice(), &HttpLimits::default()).unwrap() {
            RequestRead::Complete { request, close } => {
                assert_eq!(request.method, "GET");
                assert!(!close, "keep-alive request must not ask to close");
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
        let mut wire = Vec::new();
        write_response_keep_alive(&mut wire, 200, "{}", true).unwrap();
        let (resp, close) = read_response_meta(&mut wire.as_slice()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(!close);
        let mut wire = Vec::new();
        write_response_keep_alive(&mut wire, 200, "{}", false).unwrap();
        let (_, close) = read_response_meta(&mut wire.as_slice()).unwrap();
        assert!(close);
    }

    #[test]
    fn connection_close_token_is_detected() {
        let wire = b"POST /x HTTP/1.1\r\nConnection: Close\r\nContent-Length: 2\r\n\r\nhi";
        match read_request_limited(&mut wire.as_slice(), &HttpLimits::default()).unwrap() {
            RequestRead::Complete { close, .. } => assert!(close),
            other => panic!("expected a complete request, got {other:?}"),
        }
        // Token lists are scanned, not compared whole.
        let wire = b"GET /x HTTP/1.1\r\nConnection: foo, close\r\n\r\n";
        match read_request_limited(&mut wire.as_slice(), &HttpLimits::default()).unwrap() {
            RequestRead::Complete { close, .. } => assert!(close),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        let wire = b"GET /healthz HTTP/1.0\r\n\r\n";
        match read_request_limited(&mut wire.as_slice(), &HttpLimits::default()).unwrap() {
            RequestRead::Complete { close, .. } => assert!(close),
            other => panic!("expected a complete request, got {other:?}"),
        }
        let wire = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        match read_request_limited(&mut wire.as_slice(), &HttpLimits::default()).unwrap() {
            RequestRead::Complete { close, .. } => assert!(!close),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn get_without_body_parses() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_complete(&mut wire.as_slice()).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let wire = b"POST /x HTTP/1.1\r\ncontent-LENGTH: 2\r\n\r\nhi";
        let req = read_complete(&mut wire.as_slice()).unwrap();
        assert_eq!(req.body, "hi");
    }

    #[test]
    fn malformed_framing_errors() {
        assert!(read_complete(&mut b"".as_slice()).is_err());
        assert!(read_complete(&mut b"GARBAGE\r\n\r\n".as_slice()).is_err());
        assert!(
            read_complete(&mut b"POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n".as_slice())
                .is_err()
        );
        // Declared body longer than the stream.
        assert!(
            read_complete(&mut b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi".as_slice())
                .is_err()
        );
        assert!(read_response_meta(&mut b"HTTP/1.1 huh\r\n\r\n".as_slice()).is_err());
    }

    #[test]
    fn unterminated_giant_line_is_rejected() {
        // A "request" that never sends a newline must fail at the line
        // limit instead of buffering without bound.
        let wire = vec![b'A'; MAX_LINE_BYTES + 1];
        assert!(read_complete(&mut wire.as_slice()).is_err());
        let huge_header = [
            b"POST /x HTTP/1.1\r\nX-Junk: ".to_vec(),
            vec![b'j'; MAX_LINE_BYTES],
        ]
        .concat();
        assert!(read_complete(&mut huge_header.as_slice()).is_err());
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        // Request-smuggling guard (RFC 7230 §3.3.2): two different
        // Content-Length values mean two parsers can disagree on where the
        // body ends — reject instead of letting the last value win.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhi~~~";
        let err = read_complete(&mut wire.as_slice()).unwrap_err();
        assert!(err.to_string().contains("conflicting Content-Length"));
        // Same on the response side.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab";
        assert!(read_response_meta(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn identical_duplicate_content_length_is_collapsed() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi";
        let req = read_complete(&mut wire.as_slice()).unwrap();
        assert_eq!(req.body, "hi");
    }

    #[test]
    fn comma_joined_content_length_is_rejected() {
        // `Content-Length: 5, 5` (folded duplicates) is not a valid usize —
        // it must error rather than parse as something surprising.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello";
        assert!(read_complete(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn too_many_header_lines_are_rejected() {
        let mut wire = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADER_LINES {
            wire.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        assert!(read_complete(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request_limited(&mut wire.as_bytes(), &HttpLimits::default()),
            Ok(RequestRead::TooLarge { .. })
        ));
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_response_meta(&mut wire.as_bytes()),
            Err(ServeError::ResponseTooLarge { declared }) if declared == MAX_BODY_BYTES + 1
        ));
    }

    #[test]
    fn oversized_body_is_reported_without_buffering() {
        // Body over the limit but under the drain allowance: consumed so
        // the next request on the wire still parses.
        let limits = HttpLimits::new(8);
        let mut wire = b"POST /x HTTP/1.1\r\nContent-Length: 12\r\n\r\ntwelve bytesGET /healthz HTTP/1.1\r\n\r\n".to_vec();
        let mut reader = wire.as_slice();
        match read_request_limited(&mut reader, &limits).unwrap() {
            RequestRead::TooLarge {
                declared,
                drained,
                close,
            } => {
                assert_eq!(declared, 12);
                assert!(drained);
                assert!(!close);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The follow-up request is framed correctly after the drain.
        let next = read_complete(&mut reader).unwrap();
        assert_eq!(next.path, "/healthz");

        // Beyond the drain allowance the bytes stay on the wire.
        wire = b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n".to_vec();
        match read_request_limited(&mut wire.as_slice(), &limits).unwrap() {
            RequestRead::TooLarge { drained, .. } => assert!(!drained),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for (code, phrase) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (409, "Conflict"),
            (413, "Payload Too Large"),
            (502, "Bad Gateway"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(reason_phrase(code), phrase);
        }
        assert_eq!(reason_phrase(418), "Unknown");
    }
}
