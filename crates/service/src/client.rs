//! Client side of the scan-service protocol: the lockstep [`Client`]
//! (one request in flight), the [`PipelinedClient`] (a window of
//! id-tagged scans in flight on one connection, responses accepted out
//! of order and reordered client-side), and a retry wrapper with
//! capped exponential backoff for the transient failure modes a
//! fault-tolerant daemon exposes (`busy`, `internal`, connection
//! resets during a worker respawn).
//!
//! Pipelined retry taxonomy: a transient rejection (`busy`/`internal`)
//! on one in-flight request resubmits *only that request* — the rest
//! of the window keeps flowing and nothing already answered is ever
//! replayed. Only a transport failure costs the connection, and the
//! reconnect resends only the still-unanswered requests.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saint_ir::{fnv1a, FNV_OFFSET};
use saint_obs::{Counter, MetricsRegistry};
use serde::Deserialize as _;

use crate::protocol::{
    self, error_code, Envelope, ErrorResponse, LineRead, MetricsResponse, ScanRequest,
    ScanResponse, StatusResponse, PROTOCOL_VERSION,
};

/// Why a service call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or connection closed).
    Io(std::io::Error),
    /// The server answered, but with a typed rejection (`busy`,
    /// `timeout`, `bad_package`, …). Boxed so the error variant stays
    /// pointer-sized on every `Result` in the client API.
    Rejected(Box<ErrorResponse>),
    /// The server's bytes did not parse as a protocol message.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "service transport error: {e}"),
            ClientError::Rejected(e) => {
                write!(f, "service rejected request: {} ({})", e.code, e.message)
            }
            ClientError::Protocol(msg) => write!(f, "service protocol error: {msg}"),
        }
    }
}

impl ClientError {
    /// Whether a retry against the same daemon can plausibly succeed.
    ///
    /// Transient: transport failures (the daemon may be mid-respawn or
    /// the connection was reset), `busy` (the queue drains), and
    /// `internal` (the panic was isolated; a resubmission runs on a
    /// healthy worker). Everything else — `bad_package`, `malformed`,
    /// `too_large`, `unsupported_version`, `draining`, `timeout` — is
    /// deterministic or deliberate, and retrying only repeats it.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Rejected(e) => {
                e.code == error_code::BUSY || e.code == error_code::INTERNAL
            }
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = single attempt).
    pub retries: u32,
    /// Delay before the first retry; doubles each attempt.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
}

impl RetryPolicy {
    /// `retries` retries over the default 50 ms → 2 s backoff curve.
    #[must_use]
    pub fn new(retries: u32) -> Self {
        RetryPolicy {
            retries,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }

    /// The delay before retry number `attempt` (1-based): exponential
    /// from `base`, capped, plus up to 25% deterministic jitter keyed
    /// on `(seed, attempt)` so a fleet of clients rejected by the same
    /// `busy` burst does not resubmit in lockstep.
    #[must_use]
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1_u32 << attempt.saturating_sub(1).min(16))
            .min(self.cap);
        // FNV-1a is the deterministic stand-in for an RNG: nothing here
        // needs unpredictability, only de-synchronization.
        let jitter_unit = fnv1a(&(seed ^ u64::from(attempt)).to_le_bytes(), FNV_OFFSET) % 256;
        let jitter = exp.mul_f64(jitter_unit as f64 / 256.0 * 0.25);
        exp + jitter
    }
}

/// The per-daemon retry-jitter seed: clients of different daemons
/// de-synchronize even when they retry the same attempt number.
fn jitter_seed(addr: &str) -> u64 {
    let folded = addr.bytes().map(u64::from).fold(0, |a, b| a << 1 | b);
    fnv1a(&folded.to_le_bytes(), FNV_OFFSET)
}

/// Submits one SAPK scan with reconnect-and-retry on transient
/// failures, returning the response and how many retries it took.
/// Each attempt opens a fresh connection: after an `internal` error or
/// a reset, the old connection's handler state is not worth trusting.
/// Bumps [`Counter::ClientRetries`] once per retry when a registry is
/// attached.
///
/// # Errors
/// The last attempt's error when every attempt failed, or the first
/// permanent (non-transient) error immediately.
pub fn scan_with_retries(
    addr: &str,
    sapk_bytes: &[u8],
    deadline_ms: Option<u64>,
    policy: RetryPolicy,
    metrics: Option<&MetricsRegistry>,
) -> Result<(ScanResponse, u32), ClientError> {
    let seed = jitter_seed(addr);
    let mut attempt = 0_u32;
    loop {
        let outcome = Client::connect(addr).and_then(|mut c| c.scan_sapk(sapk_bytes, deadline_ms));
        match outcome {
            Ok(resp) => return Ok((resp, attempt)),
            Err(err) if attempt < policy.retries && err.is_transient() => {
                attempt += 1;
                if let Some(metrics) = metrics {
                    metrics.add(Counter::ClientRetries, 1);
                }
                std::thread::sleep(policy.delay(attempt, seed));
            }
            Err(err) => return Err(err),
        }
    }
}

/// A connected scan-service client. One request is in flight at a
/// time; open several clients for concurrent submission.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:7744`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response lockstep with small frames: Nagle plus
        // delayed ACK would add ~40ms to every roundtrip.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one line and reads one response line, parsed once to a
    /// value tree (scan responses carry a full report, so envelope
    /// dispatch and the typed response are two views of one parse).
    fn roundtrip(&mut self, line: &str) -> Result<(Envelope, serde::Value), ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let raw = match protocol::read_line_bounded(&mut self.reader, protocol::MAX_LINE_BYTES)? {
            LineRead::Line(raw) => raw,
            LineRead::Eof => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            LineRead::TooLong => {
                return Err(ClientError::Protocol("oversized response line".into()))
            }
        };
        let value = serde_json::from_str_value(&raw)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        let envelope = Envelope::from_value(&value)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        Ok((envelope, value))
    }

    /// Dispatches a parsed response into `T` or the typed error.
    fn expect<T: serde::Deserialize>(
        kind: &str,
        envelope: &Envelope,
        value: &serde::Value,
    ) -> Result<T, ClientError> {
        match envelope.kind.as_deref() {
            Some(k) if k == kind => T::from_value(value)
                .map_err(|e| ClientError::Protocol(format!("bad {kind} response: {e}"))),
            Some("error") => {
                let err = ErrorResponse::from_value(value)
                    .map_err(|e| ClientError::Protocol(format!("bad error response: {e}")))?;
                Err(ClientError::Rejected(Box::new(err)))
            }
            other => Err(ClientError::Protocol(format!(
                "expected {kind} response, got kind {other:?}"
            ))),
        }
    }

    /// Submits raw SAPK container bytes for scanning and awaits the
    /// report (or a typed rejection).
    ///
    /// # Errors
    /// [`ClientError::Rejected`] carries the server's typed error
    /// (`busy`, `timeout`, `bad_package`, `draining`, …).
    pub fn scan_sapk(
        &mut self,
        sapk_bytes: &[u8],
        deadline_ms: Option<u64>,
    ) -> Result<ScanResponse, ClientError> {
        let req = ScanRequest::new(sapk_bytes, deadline_ms);
        let (envelope, value) = self.roundtrip(&protocol::to_line(&req))?;
        Self::expect("scan", &envelope, &value)
    }

    /// Submits raw SAPK container bytes through the incremental
    /// (`delta`) verb. The report is byte-identical to
    /// [`scan_sapk`](Self::scan_sapk); when the daemon carries an
    /// artifact store the response additionally reports what was reused
    /// via [`ScanResponse::delta`]. A daemon without a store answers
    /// with a plain full scan (kind `scan`, no delta block) — the verb
    /// is an optimization, never a different answer, so both response
    /// kinds are accepted here.
    ///
    /// # Errors
    /// See [`scan_sapk`](Self::scan_sapk).
    pub fn delta_sapk(
        &mut self,
        sapk_bytes: &[u8],
        deadline_ms: Option<u64>,
    ) -> Result<ScanResponse, ClientError> {
        let req = ScanRequest::new(sapk_bytes, deadline_ms).into_delta();
        let (envelope, value) = self.roundtrip(&protocol::to_line(&req))?;
        match envelope.kind.as_deref() {
            Some("delta") | Some("scan") => ScanResponse::from_value(&value)
                .map_err(|e| ClientError::Protocol(format!("bad delta response: {e}"))),
            _ => Self::expect("delta", &envelope, &value),
        }
    }

    /// Fetches daemon health and accounting.
    ///
    /// # Errors
    /// See [`scan_sapk`](Self::scan_sapk).
    pub fn status(&mut self) -> Result<StatusResponse, ClientError> {
        let req = Envelope {
            v: PROTOCOL_VERSION,
            kind: Some("status".to_string()),
        };
        let (envelope, value) = self.roundtrip(&protocol::to_line(&req))?;
        Self::expect("status", &envelope, &value)
    }

    /// Fetches the daemon's full observability view: phase spans,
    /// monotone counters, cache surfaces, meter totals, queue state.
    ///
    /// # Errors
    /// See [`scan_sapk`](Self::scan_sapk).
    pub fn metrics(&mut self) -> Result<MetricsResponse, ClientError> {
        let req = Envelope {
            v: PROTOCOL_VERSION,
            kind: Some("metrics".to_string()),
        };
        let (envelope, value) = self.roundtrip(&protocol::to_line(&req))?;
        Self::expect("metrics", &envelope, &value)
    }

    /// Requests a graceful drain; the acknowledgement carries the final
    /// counters.
    ///
    /// # Errors
    /// See [`scan_sapk`](Self::scan_sapk).
    pub fn shutdown(&mut self) -> Result<StatusResponse, ClientError> {
        let req = Envelope {
            v: PROTOCOL_VERSION,
            kind: Some("shutdown".to_string()),
        };
        let (envelope, value) = self.roundtrip(&protocol::to_line(&req))?;
        Self::expect("status", &envelope, &value)
    }

    /// Sends a raw pre-framed line and returns the raw response line —
    /// the hook the robustness tests use to speak malformed dialects.
    ///
    /// # Errors
    /// Transport errors only; the response is returned unparsed.
    pub fn raw_roundtrip(&mut self, line: &str) -> Result<String, ClientError> {
        let mut framed = line.to_string();
        if !framed.ends_with('\n') {
            framed.push('\n');
        }
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        match protocol::read_line_bounded(&mut self.reader, protocol::MAX_LINE_BYTES)? {
            LineRead::Line(raw) => Ok(raw),
            LineRead::Eof => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            LineRead::TooLong => Err(ClientError::Protocol("oversized response line".into())),
        }
    }
}

/// Opens one nodelay connection split into reader/writer halves.
fn open(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

/// A pipelined scan-service client: one connection, up to `window`
/// id-tagged scans in flight, responses accepted in whatever order the
/// daemon finishes them and reordered to submission order before
/// [`scan_all`](Self::scan_all) returns.
///
/// Retry semantics (the pipelined taxonomy):
///
/// - a transient typed rejection (`busy`, `internal`) resubmits only
///   the rejected request, under a fresh id, without disturbing the
///   rest of the window — and backs off only when that request was the
///   sole one in flight (otherwise the in-flight responses are the
///   useful work to wait on);
/// - a transport failure reconnects and resends only the requests not
///   yet answered — answered ones keep their results, nothing is
///   replayed;
/// - permanent rejections (`bad_package`, `timeout`, `draining`, …)
///   fail the batch immediately.
pub struct PipelinedClient {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    window: usize,
    policy: RetryPolicy,
    next_id: u64,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl PipelinedClient {
    /// Connects to a daemon at `addr` with a `window`-deep pipeline
    /// (clamped to at least 1) and the default 3-retry policy.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &str, window: usize) -> Result<Self, ClientError> {
        let (reader, writer) = open(addr)?;
        Ok(PipelinedClient {
            addr: addr.to_string(),
            reader,
            writer,
            window: window.max(1),
            policy: RetryPolicy::new(3),
            next_id: 0,
            metrics: None,
        })
    }

    /// Replaces the per-request retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a registry; every per-request resubmission and every
    /// reconnect bumps [`Counter::ClientRetries`].
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The configured pipeline depth.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Scans every package, keeping up to `window` requests in flight,
    /// and returns the responses in submission order.
    ///
    /// # Errors
    /// The first permanent rejection or exhausted retry budget; partial
    /// results are discarded (the daemon side completed them, but the
    /// caller asked for all-or-nothing).
    pub fn scan_all<B: AsRef<[u8]>>(
        &mut self,
        sapks: &[B],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<ScanResponse>, ClientError> {
        Ok(self.scan_all_timed(sapks, deadline_ms)?.0)
    }

    /// Like [`scan_all`](Self::scan_all), additionally reporting each
    /// request's wire latency: submission (the last write, if it was
    /// retried) to response arrival. This is what the benchmark's
    /// p50/p99 numbers are built from.
    ///
    /// # Errors
    /// Same contract as [`scan_all`](Self::scan_all).
    pub fn scan_all_timed<B: AsRef<[u8]>>(
        &mut self,
        sapks: &[B],
        deadline_ms: Option<u64>,
    ) -> Result<(Vec<ScanResponse>, Vec<Duration>), ClientError> {
        let seed = jitter_seed(&self.addr);
        let mut sent_at: Vec<Instant> = vec![Instant::now(); sapks.len()];
        let mut latencies: Vec<Duration> = vec![Duration::ZERO; sapks.len()];
        let mut results: Vec<Option<ScanResponse>> = Vec::new();
        results.resize_with(sapks.len(), || None);
        let mut to_send: VecDeque<usize> = (0..sapks.len()).collect();
        let mut inflight: HashMap<u64, usize> = HashMap::new();
        let mut retries_used: Vec<u32> = vec![0; sapks.len()];
        let mut reconnects = 0_u32;
        let mut answered = 0_usize;
        while answered < sapks.len() {
            // Fill the window.
            while inflight.len() < self.window {
                let Some(idx) = to_send.pop_front() else {
                    break;
                };
                match self.send_scan(sapks[idx].as_ref(), deadline_ms) {
                    Ok(id) => {
                        sent_at[idx] = Instant::now();
                        inflight.insert(id, idx);
                    }
                    Err(e) => {
                        to_send.push_front(idx);
                        self.recover(e, &mut inflight, &mut to_send, &mut reconnects, seed)?;
                    }
                }
            }
            // Take the next response, whichever request it answers.
            let (envelope, value) = match self.read_response() {
                Ok(parsed) => parsed,
                Err(e @ ClientError::Io(_)) => {
                    self.recover(e, &mut inflight, &mut to_send, &mut reconnects, seed)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match envelope.kind.as_deref() {
                Some("scan") => {
                    let resp = ScanResponse::from_value(&value)
                        .map_err(|e| ClientError::Protocol(format!("bad scan response: {e}")))?;
                    let idx = resp.id.and_then(|id| inflight.remove(&id)).ok_or_else(|| {
                        ClientError::Protocol(format!(
                            "response id {:?} matches no in-flight request",
                            resp.id
                        ))
                    })?;
                    latencies[idx] = sent_at[idx].elapsed();
                    results[idx] = Some(resp);
                    answered += 1;
                }
                Some("error") => {
                    let err = ErrorResponse::from_value(&value)
                        .map_err(|e| ClientError::Protocol(format!("bad error response: {e}")))?;
                    let Some(idx) = err.id.and_then(|id| inflight.remove(&id)) else {
                        // Unattributable: the daemon could not tie the
                        // error to a request, so neither can we.
                        return Err(ClientError::Rejected(Box::new(err)));
                    };
                    let transient =
                        err.code == error_code::BUSY || err.code == error_code::INTERNAL;
                    if !transient || retries_used[idx] >= self.policy.retries {
                        return Err(ClientError::Rejected(Box::new(err)));
                    }
                    retries_used[idx] += 1;
                    if let Some(metrics) = &self.metrics {
                        metrics.add(Counter::ClientRetries, 1);
                    }
                    // Only this request retries; the window flows on.
                    // Back off only when it was the sole request in
                    // flight — otherwise the other in-flight responses
                    // are the wait.
                    if inflight.is_empty() {
                        std::thread::sleep(self.policy.delay(retries_used[idx], seed));
                    }
                    to_send.push_front(idx);
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected scan or error response, got kind {other:?}"
                    )))
                }
            }
        }
        let responses = results
            .into_iter()
            .map(|r| r.ok_or_else(|| ClientError::Protocol("response went missing".into())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((responses, latencies))
    }

    /// Writes one id-tagged scan request; the id is process-unique so
    /// a retried request never collides with its earlier incarnation.
    fn send_scan(&mut self, sapk: &[u8], deadline_ms: Option<u64>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = ScanRequest::new(sapk, deadline_ms).with_id(id);
        self.writer.write_all(protocol::to_line(&req).as_bytes())?;
        Ok(id)
    }

    /// Reads and parses one response line.
    fn read_response(&mut self) -> Result<(Envelope, serde::Value), ClientError> {
        let raw = match protocol::read_line_bounded(&mut self.reader, protocol::MAX_LINE_BYTES)? {
            LineRead::Line(raw) => raw,
            LineRead::Eof => {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            LineRead::TooLong => {
                return Err(ClientError::Protocol("oversized response line".into()))
            }
        };
        let value = serde_json::from_str_value(&raw)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        let envelope = Envelope::from_value(&value)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        Ok((envelope, value))
    }

    /// Transport-level recovery: reconnect and requeue every request
    /// not yet answered. Answered requests keep their results; nothing
    /// is replayed.
    fn recover(
        &mut self,
        err: ClientError,
        inflight: &mut HashMap<u64, usize>,
        to_send: &mut VecDeque<usize>,
        reconnects: &mut u32,
        seed: u64,
    ) -> Result<(), ClientError> {
        if !err.is_transient() || *reconnects >= self.policy.retries {
            return Err(err);
        }
        *reconnects += 1;
        if let Some(metrics) = &self.metrics {
            metrics.add(Counter::ClientRetries, 1);
        }
        std::thread::sleep(self.policy.delay(*reconnects, seed));
        let (reader, writer) = open(&self.addr)?;
        self.reader = reader;
        self.writer = writer;
        let mut unanswered: Vec<usize> = inflight.drain().map(|(_, idx)| idx).collect();
        unanswered.sort_unstable();
        for idx in unanswered.into_iter().rev() {
            to_send.push_front(idx);
        }
        Ok(())
    }
}
