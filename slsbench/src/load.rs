//! The load generator: a minimal keep-alive HTTP/1.1 client over
//! pre-encoded requests, a closed loop over it, and the response verifier.
//!
//! The client is the benchmark's own, not `sls_serve::Client`, so a change to
//! the program's HTTP code moves the server side only. Nothing is encoded or
//! decoded inside the loop: request bytes are built during set-up, and a
//! response counts as correct only when it is byte-equal to the body that
//! set-up decoded and checked against in-process inference.

use serde::Deserialize;
use sls_linalg::Matrix;
use sls_serve::{AssignResponse, FeaturesResponse};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A stalled server must fail a request, not hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One request of a workload, encoded once during set-up.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Full request bytes: request line, headers and JSON body.
    pub request: Vec<u8>,
    /// Length of the JSON body inside `request`.
    pub body_len: usize,
    /// The response body set-up checked against in-process inference.
    pub checked: Vec<u8>,
}

impl Payload {
    pub fn post(path: &str, body: &str) -> Self {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: slsbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        Self {
            request,
            body_len: body.len(),
            checked: Vec::new(),
        }
    }
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        })
    }

    /// Sends `request` and reads the response body into `body`. Returns the
    /// status and whether the server closes the connection after it.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> std::io::Result<(u16, bool)> {
        self.writer.write_all(request)?;
        let status = {
            let line = self.read_line()?;
            let mut parts = line.split(|&b| b == b' ').skip(1);
            parts
                .next()
                .and_then(|code| std::str::from_utf8(code).ok()?.parse().ok())
                .ok_or_else(|| invalid("malformed status line"))?
        };
        let (mut len, mut close) = (None, false);
        loop {
            let line = self.read_line()?;
            let line = std::str::from_utf8(line).map_err(|_| invalid("non-UTF-8 header"))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| invalid("bad Content-Length"))?,
                    );
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        body.resize(len.ok_or_else(|| invalid("no Content-Length"))?, 0);
        self.reader.read_exact(body)?;
        Ok((status, close))
    }

    fn read_line(&mut self) -> std::io::Result<&[u8]> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(&self.line)
    }
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// One `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: slsbench\r\nConnection: close\r\n\r\n");
    let mut body = Vec::new();
    let (status, _) = Conn::open(addr)?.exchange(request.as_bytes(), &mut body)?;
    Ok((status, body))
}

/// `GET` decoded into `T`.
pub fn get_json<T: Deserialize>(addr: SocketAddr, path: &str) -> Result<T, String> {
    let (status, body) = get(addr, path).map_err(|e| format!("GET {path} on {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path} on {addr} answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|_| format!("GET {path}: non-UTF-8 body"))?;
    serde_json::from_str(&text).map_err(|e| format!("GET {path}: {e}"))
}

/// What a served request must compute, from in-process inference.
#[derive(Debug, Clone)]
pub enum Expected {
    Features(Matrix),
    Assign(Vec<usize>),
}

/// Decodes a response body and compares it with `expected` bit for bit
/// (`f64::to_bits`, no tolerance).
pub fn verify_body(body: &[u8], model: &str, expected: &Expected) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let (name, generation) = match expected {
        Expected::Features(want) => {
            let got: FeaturesResponse =
                serde_json::from_str(text).map_err(|e| format!("undecodable response: {e}"))?;
            if got.features.len() != want.rows() {
                return Err(format!(
                    "{} feature rows, expected {}",
                    got.features.len(),
                    want.rows()
                ));
            }
            for (i, row) in got.features.iter().enumerate() {
                let same = row.len() == want.cols()
                    && row
                        .iter()
                        .zip(want.row(i))
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err(format!("feature row {i} differs from in-process inference"));
                }
            }
            (got.model, got.generation)
        }
        Expected::Assign(want) => {
            let got: AssignResponse =
                serde_json::from_str(text).map_err(|e| format!("undecodable response: {e}"))?;
            if &got.assignments != want {
                return Err("assignments differ from in-process inference".to_string());
            }
            (got.model, got.generation)
        }
    };
    if name != model || generation != 1 {
        return Err(format!(
            "answered by model `{name}` generation {generation}"
        ));
    }
    Ok(())
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
    /// Answered 200 with the checked body.
    pub ok: bool,
}

impl Sample {
    /// Latency in microseconds. A failed request misses every latency
    /// limit, so it ranks above every success.
    fn latency_us(&self) -> f64 {
        if self.ok {
            (self.end - self.start).as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        }
    }
}

/// Requests per window of the windowed statistics: enough that ten lie
/// beyond each window's p99.
pub const WINDOW: usize = 1000;

/// Outcome of one closed-loop phase.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every attempted request, in completion order.
    pub samples: Vec<Sample>,
    pub connections_opened: u64,
    /// When the clients started.
    pub start: Option<Instant>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl LoopResult {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted() - self.failed()
    }

    /// Latencies of the verified requests, in microseconds.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(Sample::latency_us)
            .collect()
    }

    /// Consecutive windows of [`WINDOW`] requests (a short tail joins the
    /// last full window), each with its duration.
    fn windows(&self) -> Vec<(&[Sample], Duration)> {
        let count = (self.samples.len() / WINDOW).max(1);
        let mut begin = self.start.or(self.samples.first().map(|s| s.start));
        (0..count)
            .map(|i| {
                let end = if i + 1 == count {
                    self.samples.len()
                } else {
                    (i + 1) * WINDOW
                };
                let window = &self.samples[i * WINDOW..end];
                let last = window.last().map(|s| s.end);
                let duration = match (begin, last) {
                    (Some(b), Some(l)) => l.saturating_duration_since(b),
                    _ => Duration::ZERO,
                };
                begin = last;
                (window, duration)
            })
            .collect()
    }

    /// Nearest-rank latency percentile in milliseconds, taken per window
    /// and reported as the median over windows, so a burst of interference
    /// from other tenants moves one window rather than the whole figure. A
    /// percentile that lands on a failed request reads as its window's
    /// whole duration.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .into_iter()
            .filter(|(window, _)| !window.is_empty())
            .map(|(window, duration)| {
                let latencies: Vec<f64> = window.iter().map(Sample::latency_us).collect();
                let value = crate::trace::percentile(&latencies, p);
                if value.is_finite() {
                    value / 1e3
                } else {
                    duration.as_secs_f64() * 1e3
                }
            })
            .collect();
        crate::trace::median(&per_window)
    }

    /// Verified requests per second, per window, median over windows.
    pub fn throughput(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .into_iter()
            .filter(|(_, duration)| !duration.is_zero())
            .map(|(window, duration)| {
                window.iter().filter(|s| s.ok).count() as f64 / duration.as_secs_f64()
            })
            .collect();
        crate::trace::median(&per_window)
    }

    /// Appends another phase's requests (for interleaved slices).
    pub fn absorb(&mut self, other: LoopResult) {
        self.samples.extend(other.samples);
        self.connections_opened += other.connections_opened;
        self.start = self.start.or(other.start);
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// Runs one closed-loop client per entry of `conns` against `addr` for
/// `duration`: each sends its next request only after the previous response
/// arrived, cycling through `payloads`, on its keep-alive connection (opened
/// on first use and reopened after the server closes it; it stays open for
/// the next call). Every response must be byte-equal to its payload's
/// checked body.
pub fn closed_loop(
    addr: SocketAddr,
    payloads: &[Payload],
    conns: &mut [Option<Conn>],
    duration: Duration,
) -> LoopResult {
    let clients = conns.len();
    let barrier = Barrier::new(clients + 1);
    let results: Vec<LoopResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    client_loop(addr, payloads, conn, client, clients, barrier, duration)
                })
            })
            .collect();
        barrier.wait();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = LoopResult::default();
    for result in results {
        let start = total.start.into_iter().chain(result.start).min();
        total.absorb(result);
        total.start = start;
    }
    total.samples.sort_by_key(|s| s.end);
    total
}

fn client_loop(
    addr: SocketAddr,
    payloads: &[Payload],
    conn: &mut Option<Conn>,
    client: usize,
    clients: usize,
    barrier: &Barrier,
    duration: Duration,
) -> LoopResult {
    let mut result = LoopResult::default();
    let mut body = Vec::new();
    barrier.wait();
    let first = Instant::now();
    result.start = Some(first);
    let deadline = first + duration;
    let mut next = client;
    while Instant::now() < deadline {
        let payload = &payloads[next % payloads.len()];
        next += clients;
        let start = Instant::now();
        let outcome = match conn.as_mut() {
            Some(c) => c.exchange(&payload.request, &mut body),
            None => Conn::open(addr).and_then(|c| {
                result.connections_opened += 1;
                conn.insert(c).exchange(&payload.request, &mut body)
            }),
        };
        let end = Instant::now();
        let error = match outcome {
            Ok((status, close)) => {
                if close {
                    *conn = None;
                }
                (status != 200 || body != payload.checked).then(|| {
                    format!(
                        "status {status}, body unlike the checked one ({} bytes)",
                        body.len()
                    )
                })
            }
            Err(e) => {
                *conn = None;
                Some(format!("transport: {e}"))
            }
        };
        result.samples.push(Sample {
            start,
            end,
            ok: error.is_none(),
        });
        if let Some(error) = error {
            if result.errors.len() < 5 {
                result.errors.push(error);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> Matrix {
        Matrix::from_rows(&[vec![0.25, -1.5, 3.0e-7], vec![0.125, 2.0, -0.75]]).unwrap()
    }

    fn features_body(rows: Vec<Vec<f64>>) -> Vec<u8> {
        let response = FeaturesResponse {
            model: "m".to_string(),
            generation: 1,
            features: rows,
        };
        serde_json::to_string(&response).unwrap().into_bytes()
    }

    #[test]
    fn verifier_accepts_the_exact_response() {
        let expected = Expected::Features(features());
        let body = features_body(sls_serve::api::matrix_to_rows(&features()));
        assert_eq!(verify_body(&body, "m", &expected), Ok(()));
        assert!(verify_body(&body, "other", &expected).is_err());
    }

    #[test]
    fn verifier_rejects_one_flipped_bit() {
        let expected = Expected::Features(features());
        let mut rows = sls_serve::api::matrix_to_rows(&features());
        rows[1][2] = f64::from_bits(rows[1][2].to_bits() ^ 1);
        assert!(verify_body(&features_body(rows), "m", &expected).is_err());
    }

    #[test]
    fn verifier_rejects_two_swapped_rows() {
        let expected = Expected::Features(features());
        let mut rows = sls_serve::api::matrix_to_rows(&features());
        rows.swap(0, 1);
        assert!(verify_body(&features_body(rows), "m", &expected).is_err());

        let assign = |assignments: Vec<usize>| {
            let response = AssignResponse {
                model: "m".to_string(),
                generation: 1,
                assignments,
            };
            serde_json::to_string(&response).unwrap().into_bytes()
        };
        let expected = Expected::Assign(vec![0, 2, 1]);
        assert_eq!(verify_body(&assign(vec![0, 2, 1]), "m", &expected), Ok(()));
        assert!(verify_body(&assign(vec![2, 0, 1]), "m", &expected).is_err());
    }

    #[test]
    fn failed_requests_rank_above_every_success() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let samples = (0..100)
            .map(|i| Sample {
                start: ms(i * 10),
                end: ms(i * 10 + 1),
                ok: i % 50 != 49,
            })
            .collect();
        let result = LoopResult {
            samples,
            start: Some(t0),
            ..LoopResult::default()
        };
        assert_eq!(result.latency_ms(0.5), 1.0);
        assert_eq!(result.latency_ms(0.99), 991.0);
        assert_eq!(result.failed(), 2);
    }

    #[test]
    fn windowed_statistics_take_the_median_window() {
        let t0 = Instant::now();
        let mut at = t0;
        let samples = (0..3 * WINDOW)
            .map(|i| {
                // The middle window is ten times slower.
                let latency = Duration::from_micros(if i / WINDOW == 1 { 1000 } else { 100 });
                let sample = Sample {
                    start: at,
                    end: at + latency,
                    ok: true,
                };
                at += latency;
                sample
            })
            .collect();
        let result = LoopResult {
            samples,
            start: Some(t0),
            ..LoopResult::default()
        };
        assert!((result.latency_ms(0.99) - 0.1).abs() < 1e-9);
        assert!((result.throughput() - 10_000.0).abs() < 1e-6);
    }
}
