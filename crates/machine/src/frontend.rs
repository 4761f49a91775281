//! Fault-tolerant network front-end: the layer that faces untrusted
//! clients and keeps the solver fleet healthy under partial failure.
//!
//! The [`service`](crate::service) module gives one *owner* a worker pool;
//! this module multiplexes **many mutually-untrusting clients** onto that
//! pool over a line-delimited JSON (NDJSON) protocol, with the robustness
//! properties a shared service needs:
//!
//! - **Strict framing** — every request line is parsed against the schema-v3
//!   wire format with typed rejection ([`FrameError`]): malformed JSON,
//!   unknown fields, wrong schema versions, and oversized lines each earn an
//!   error frame on that connection while the fleet keeps running. A bad
//!   client can never poison the service.
//! - **Weighted-fair scheduling** — the global FIFO is replaced by a
//!   [`ScheduledQueue`]: strict priority classes, weighted-fair service
//!   across clients within a class, earliest-deadline-first within one
//!   client's backlog. A flooding client slows only itself down.
//! - **Admission control** — the queue is bounded by policy, not memory:
//!   past [`FrontendConfig::max_queued`] (or the per-client cap) a submit is
//!   shed with a typed [`Response::Overloaded`] carrying `retry_after_ms`,
//!   and the [`Backoff`] helper gives clients a deterministic, seeded,
//!   jittered exponential retry schedule.
//! - **Deadline shedding** — a job whose deadline passes while still queued
//!   is returned as a zero-work [`OutcomeKind::DeadlineExceeded`] outcome at
//!   dequeue, never spun up on a worker.
//! - **Cancellation** — an explicit cancel, or the client's disconnect,
//!   removes that client's queued jobs and cooperatively cancels its running
//!   ones through per-job [`RunController`]s.
//! - **Drain and resume** — [`Frontend::shutdown_to`] checkpoints in-flight
//!   jobs and persists queued ones in the exact
//!   [`ControlledService::shutdown_to`](crate::service::ControlledService::shutdown_to)
//!   file layout; [`Frontend::resume`] continues them **bit-identically** to
//!   never-interrupted runs, at any worker count.
//! - **Accounting** — per-client and fleet-wide [`ClientStats`] hold the
//!   no-lost-jobs invariant: every accepted job lands in exactly one
//!   terminal bucket (completed / failed / cancelled / expired).
//!
//! The session machinery is socket-free — [`Frontend::connect`] returns an
//! in-process [`ClientHandle`] speaking the same [`Request`]/[`Response`]
//! values the TCP layer serializes — so every scheduling and failure path is
//! unit-testable without networking. [`Frontend::serve`] adds the TCP face,
//! and [`NdjsonClient`] is the matching client helper.
//!
//! # Running the server
//!
//! The `saim-server` binary (crate `crates/server`) is a thin shell over
//! this module:
//!
//! ```text
//! saim-server --listen 127.0.0.1:7878 --workers 4 --drain-dir ./drain
//! ```
//!
//! It serves NDJSON over TCP and reads admin commands from stdin: `shutdown`
//! drains to the drain directory (the process's SIGTERM analog — checkpoint
//! files for running jobs, spec files for queued ones) and `stats` prints
//! fleet counters. Restarting with `--resume` picks the drained jobs back up
//! bit-identically. `--stdio` serves a single anonymous session on
//! stdin/stdout instead of TCP, and `--smoke` runs a self-contained loopback
//! round-trip (the CI smoke test).
//!
//! ## Frame format
//!
//! One JSON object per line. Requests:
//!
//! ```text
//! {"schema":3,"frame":"hello","weight":4}
//! {"schema":3,"frame":"submit","priority":0,"deadline_ms":5000,"spec":{...JobSpec...}}
//! {"schema":3,"frame":"cancel","job":7}
//! {"schema":3,"frame":"stats"}
//! ```
//!
//! Responses: `accepted` (job admitted), `outcome` (terminal
//! [`JobOutcome`], including cancelled/expired partials), `failure` (the job
//! panicked; carries its origin ids), `rejected` (typed frame/schema error,
//! connection stays usable unless framing itself is lost), `overloaded`
//! (admission shed; retry after the hinted delay), and `stats` — which
//! since schema v3 also reports the fleet's live `queue_depth` and an
//! `eta_ms` drain estimate (queued jobs × the mean settled-job wall time ÷
//! workers; `0` until the fleet has settled its first job).
//!
//! `deadline_ms` is a relative budget: the server stamps the absolute
//! deadline at admission on its own monotonic clock, so client/server clock
//! skew cannot expire jobs retroactively (the fault harness's skew knob
//! exists precisely to test that the *server's* clock governs).
//!
//! # Fault injection
//!
//! [`faults::FaultPlan`] is a deterministic, always-compiled hook set wired
//! through [`FrontendConfig::faults`] (`None` in production): worker holds
//! (freeze dequeue to build exact backlogs), scripted per-job panics, a
//! scheduler clock-skew knob, and a dequeue log. The loopback tests in
//! `tests/net_frontend.rs` drive every degradation path through it.
//!
//! # Cluster topology
//!
//! One front-end is one shard. The [`cluster`](crate::cluster) module
//! stacks N of them behind `saim-router` — rendezvous-hash placement,
//! probe-driven health/circuit-breaking, and a write-ahead intent journal
//! giving exactly-once settlement across backend failures; its module docs
//! carry the full router ↔ backend wire flow, failure-mode catalogue, and
//! the exactly-once argument. Backend-level faults for that layer (kill,
//! partition/heal, duplicate-outcome replay) are scripted through
//! [`faults::BackendFaultPlan`].

use crate::checkpoint::{CheckpointError, OutcomeKind, RunController};
use crate::parallel::{self, ScheduledQueue, Ticket};
use crate::service::{
    self, check_known_fields, parse_field, parse_json, JobOutcome, JobSpec, SchemaError, SolverJob,
    SCHEMA_VERSION,
};
use crate::telemetry::ClientStats;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub mod faults;

// ---------------------------------------------------------------- framing

/// Why a request line was rejected before reaching the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The line exceeded [`FrontendConfig::max_frame_bytes`]. The framing
    /// itself is no longer trustworthy past this point, so the connection
    /// is closed after the error frame.
    Oversized {
        /// The configured limit the line exceeded.
        limit: usize,
    },
    /// The line parsed as a frame but its payload failed the strict wire
    /// schema (malformed JSON, wrong version, unknown field, bad shape).
    Schema(SchemaError),
    /// The `frame` tag named no request this protocol defines.
    UnknownFrame(String),
    /// A cancel named a job this client has no record of.
    UnknownJob(u64),
}

impl FrameError {
    /// Stable machine-readable code carried on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::Oversized { .. } => "oversized",
            FrameError::Schema(SchemaError::Json(_)) => "json",
            FrameError::Schema(SchemaError::VersionMismatch { .. }) => "version",
            FrameError::Schema(SchemaError::UnknownField(_)) => "unknown_field",
            FrameError::Schema(SchemaError::Malformed(_)) => "malformed",
            FrameError::UnknownFrame(_) => "unknown_frame",
            FrameError::UnknownJob(_) => "unknown_job",
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Schema(e) => write!(f, "{e}"),
            FrameError::UnknownFrame(tag) => write!(f, "unknown frame `{tag}`"),
            FrameError::UnknownJob(job) => write!(f, "no queued or running job {job}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Declares the client's fair-share weight for subsequent submissions.
    Hello {
        /// Weight (clamped to at least 1 by the scheduler).
        weight: u32,
    },
    /// Submits a job.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Strict priority class; higher is more urgent.
        priority: u8,
        /// Relative deadline budget in milliseconds, if any; stamped
        /// absolute on the server clock at admission.
        deadline_ms: Option<u64>,
    },
    /// Cancels a job by its client-chosen id (job ids should be unique per
    /// client; a reused id addresses the most recent submission).
    Cancel {
        /// The job id to cancel.
        job: u64,
    },
    /// Requests this client's and the fleet's counters.
    Stats,
}

impl Request {
    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![("schema".into(), SCHEMA_VERSION.to_value())];
        match self {
            Request::Hello { weight } => {
                fields.push(("frame".into(), Value::Str("hello".into())));
                fields.push(("weight".into(), weight.to_value()));
            }
            Request::Submit {
                spec,
                priority,
                deadline_ms,
            } => return submit_line(&spec.to_json(), *priority, *deadline_ms),
            Request::Cancel { job } => {
                fields.push(("frame".into(), Value::Str("cancel".into())));
                fields.push(("job".into(), job.to_value()));
            }
            Request::Stats => fields.push(("frame".into(), Value::Str("stats".into()))),
        }
        serde_json::to_string(&Value::Object(fields)).expect("frame serialization is infallible")
    }

    /// Strictly parses one request line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Schema`] for malformed JSON, a version other than
    /// [`SCHEMA_VERSION`] (checked first), unknown fields at the envelope or
    /// inside an embedded spec, or shape mismatches;
    /// [`FrameError::UnknownFrame`] for an unrecognized `frame` tag.
    pub fn from_line(line: &str) -> Result<Self, FrameError> {
        let value = parse_json(line).map_err(FrameError::Schema)?;
        check_frame_version(&value)?;
        let tag = match value.field("frame") {
            Ok(Value::Str(tag)) => tag.clone(),
            Ok(other) => {
                return Err(FrameError::Schema(SchemaError::Malformed(format!(
                    "field `frame`: expected string, found {}",
                    other.kind()
                ))))
            }
            Err(e) => return Err(FrameError::Schema(SchemaError::Malformed(e.to_string()))),
        };
        match tag.as_str() {
            "hello" => {
                check_known_fields(&value, &["schema", "frame", "weight"])
                    .map_err(FrameError::Schema)?;
                Ok(Request::Hello {
                    weight: parse_field(&value, "weight").map_err(FrameError::Schema)?,
                })
            }
            "submit" => {
                check_known_fields(
                    &value,
                    &["schema", "frame", "priority", "deadline_ms", "spec"],
                )
                .map_err(FrameError::Schema)?;
                let priority: u32 = parse_field(&value, "priority").map_err(FrameError::Schema)?;
                let priority = u8::try_from(priority).map_err(|_| {
                    FrameError::Schema(SchemaError::Malformed(
                        "field `priority`: exceeds 255".into(),
                    ))
                })?;
                let deadline_ms: Option<u64> =
                    parse_field(&value, "deadline_ms").map_err(FrameError::Schema)?;
                let spec = value
                    .field("spec")
                    .map_err(|e| FrameError::Schema(SchemaError::Malformed(e.to_string())))
                    .and_then(|v| JobSpec::from_value_strict(v).map_err(FrameError::Schema))?;
                Ok(Request::Submit {
                    spec,
                    priority,
                    deadline_ms,
                })
            }
            "cancel" => {
                check_known_fields(&value, &["schema", "frame", "job"])
                    .map_err(FrameError::Schema)?;
                Ok(Request::Cancel {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                })
            }
            "stats" => {
                check_known_fields(&value, &["schema", "frame"]).map_err(FrameError::Schema)?;
                Ok(Request::Stats)
            }
            other => Err(FrameError::UnknownFrame(other.to_string())),
        }
    }
}

/// The Submit frame line (no trailing newline) around an already-encoded
/// spec: `{"schema":…,"frame":"submit","priority":…,"deadline_ms":…,
/// "spec":<spec_json>}`. With `spec_json = spec.to_json()` this is exactly
/// [`Request::to_line`] of the Submit, which delegates here — so a caller
/// that already holds a spec's JSON (the router keeps the text it
/// journaled) frames it without encoding the model again.
pub(crate) fn submit_line(spec_json: &str, priority: u8, deadline_ms: Option<u64>) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(spec_json.len() + 96);
    write!(
        line,
        r#"{{"schema":{SCHEMA_VERSION},"frame":"submit","priority":{priority},"deadline_ms":"#
    )
    .expect("formatting into a String never fails");
    match deadline_ms {
        Some(ms) => write!(line, "{ms}").expect("formatting into a String never fails"),
        None => line.push_str("null"),
    }
    line.push_str(r#","spec":"#);
    line.push_str(spec_json);
    line.push('}');
    line
}

/// Writes one NDJSON frame — `line` and its newline — with a single
/// vectored write where the transport takes it whole, so an unbuffered
/// `TCP_NODELAY` socket never sends the newline as a segment of its own.
pub(crate) fn write_frame<W: Write>(out: &mut W, line: &[u8]) -> std::io::Result<()> {
    use std::io::IoSlice;
    let mut parts = [IoSlice::new(line), IoSlice::new(b"\n")];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(written) => IoSlice::advance_slices(&mut rest, written),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.flush()
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit was admitted; a terminal frame for this job will follow.
    Accepted {
        /// The spec's client-chosen job id, echoed.
        job: u64,
    },
    /// A terminal [`JobOutcome`] — completed, or a partial tagged
    /// cancelled/deadline-exceeded (a job shed while queued reports
    /// `mcs == 0`).
    Outcome {
        /// The outcome.
        outcome: JobOutcome,
    },
    /// The job's execution panicked; its origin ids are echoed so the
    /// client can correlate without a side table.
    Failure {
        /// The spec's client-chosen job id.
        job: u64,
        /// The spec's instance digest.
        instance_digest: u64,
        /// The panic message.
        message: String,
    },
    /// The request was refused with a typed reason; nothing was admitted.
    Rejected {
        /// Machine-readable [`FrameError::code`].
        code: String,
        /// Human-readable detail.
        error: String,
    },
    /// Admission control shed the submit; retry with backoff.
    Overloaded {
        /// Server's hint for the client's first retry delay.
        retry_after_ms: u64,
    },
    /// Counter snapshot.
    Stats {
        /// This client's tallies.
        client: ClientStats,
        /// Fleet-wide tallies (all clients, including departed ones).
        fleet: ClientStats,
        /// Jobs currently waiting in the scheduler queue (fleet-wide).
        queue_depth: u64,
        /// Rough estimate of how long the current backlog takes to drain:
        /// `queue_depth × mean settled-job wall ms ÷ workers`. `0` until
        /// the fleet has settled at least one job.
        eta_ms: u64,
    },
}

impl Response {
    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = vec![("schema".into(), SCHEMA_VERSION.to_value())];
        match self {
            Response::Accepted { job } => {
                fields.push(("frame".into(), Value::Str("accepted".into())));
                fields.push(("job".into(), job.to_value()));
            }
            Response::Outcome { outcome } => {
                fields.push(("frame".into(), Value::Str("outcome".into())));
                fields.push(("outcome".into(), outcome.to_value()));
            }
            Response::Failure {
                job,
                instance_digest,
                message,
            } => {
                fields.push(("frame".into(), Value::Str("failure".into())));
                fields.push(("job".into(), job.to_value()));
                fields.push(("instance_digest".into(), instance_digest.to_value()));
                fields.push(("message".into(), Value::Str(message.clone())));
            }
            Response::Rejected { code, error } => {
                fields.push(("frame".into(), Value::Str("rejected".into())));
                fields.push(("code".into(), Value::Str(code.clone())));
                fields.push(("error".into(), Value::Str(error.clone())));
            }
            Response::Overloaded { retry_after_ms } => {
                fields.push(("frame".into(), Value::Str("overloaded".into())));
                fields.push(("retry_after_ms".into(), retry_after_ms.to_value()));
            }
            Response::Stats {
                client,
                fleet,
                queue_depth,
                eta_ms,
            } => {
                fields.push(("frame".into(), Value::Str("stats".into())));
                fields.push(("client".into(), client.to_value()));
                fields.push(("fleet".into(), fleet.to_value()));
                fields.push(("queue_depth".into(), queue_depth.to_value()));
                fields.push(("eta_ms".into(), eta_ms.to_value()));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("frame serialization is infallible")
    }

    /// Strictly parses one response line (the client-side mirror of
    /// [`Request::from_line`]; same error contract).
    ///
    /// # Errors
    ///
    /// See [`Request::from_line`].
    pub fn from_line(line: &str) -> Result<Self, FrameError> {
        let value = parse_json(line).map_err(FrameError::Schema)?;
        check_frame_version(&value)?;
        let tag = match value.field("frame") {
            Ok(Value::Str(tag)) => tag.clone(),
            Ok(other) => {
                return Err(FrameError::Schema(SchemaError::Malformed(format!(
                    "field `frame`: expected string, found {}",
                    other.kind()
                ))))
            }
            Err(e) => return Err(FrameError::Schema(SchemaError::Malformed(e.to_string()))),
        };
        let schema_err = FrameError::Schema;
        match tag.as_str() {
            "accepted" => {
                check_known_fields(&value, &["schema", "frame", "job"]).map_err(schema_err)?;
                Ok(Response::Accepted {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                })
            }
            "outcome" => {
                check_known_fields(&value, &["schema", "frame", "outcome"]).map_err(schema_err)?;
                let outcome = value
                    .field("outcome")
                    .map_err(|e| FrameError::Schema(SchemaError::Malformed(e.to_string())))
                    .and_then(|v| JobOutcome::from_value_strict(v).map_err(FrameError::Schema))?;
                Ok(Response::Outcome { outcome })
            }
            "failure" => {
                check_known_fields(
                    &value,
                    &["schema", "frame", "job", "instance_digest", "message"],
                )
                .map_err(schema_err)?;
                Ok(Response::Failure {
                    job: parse_field(&value, "job").map_err(FrameError::Schema)?,
                    instance_digest: parse_field(&value, "instance_digest")
                        .map_err(FrameError::Schema)?,
                    message: parse_field(&value, "message").map_err(FrameError::Schema)?,
                })
            }
            "rejected" => {
                check_known_fields(&value, &["schema", "frame", "code", "error"])
                    .map_err(schema_err)?;
                Ok(Response::Rejected {
                    code: parse_field(&value, "code").map_err(FrameError::Schema)?,
                    error: parse_field(&value, "error").map_err(FrameError::Schema)?,
                })
            }
            "overloaded" => {
                check_known_fields(&value, &["schema", "frame", "retry_after_ms"])
                    .map_err(schema_err)?;
                Ok(Response::Overloaded {
                    retry_after_ms: parse_field(&value, "retry_after_ms")
                        .map_err(FrameError::Schema)?,
                })
            }
            "stats" => {
                check_known_fields(
                    &value,
                    &[
                        "schema",
                        "frame",
                        "client",
                        "fleet",
                        "queue_depth",
                        "eta_ms",
                    ],
                )
                .map_err(schema_err)?;
                Ok(Response::Stats {
                    client: parse_field(&value, "client").map_err(FrameError::Schema)?,
                    fleet: parse_field(&value, "fleet").map_err(FrameError::Schema)?,
                    queue_depth: parse_field(&value, "queue_depth").map_err(FrameError::Schema)?,
                    eta_ms: parse_field(&value, "eta_ms").map_err(FrameError::Schema)?,
                })
            }
            other => Err(FrameError::UnknownFrame(other.to_string())),
        }
    }
}

/// Frame-envelope version gate, mirroring the spec/outcome parsers: checked
/// before anything else so foreign-version frames read as a version problem,
/// not field noise.
fn check_frame_version(value: &Value) -> Result<(), FrameError> {
    let found: u32 = parse_field(value, "schema").map_err(FrameError::Schema)?;
    if found != SCHEMA_VERSION {
        return Err(FrameError::Schema(SchemaError::VersionMismatch {
            found,
            expected: SCHEMA_VERSION,
        }));
    }
    Ok(())
}

// ---------------------------------------------------------------- backoff

/// Deterministic seeded jittered exponential backoff for overloaded
/// retries: attempt `n` waits `base · 2ⁿ` capped at `cap`, then jittered to
/// 50–100% of that by a SplitMix64 stream — identical delay sequences for
/// identical seeds, so retry storms are testable and two clients with
/// different seeds decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    state: u64,
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base_ms` and capped at `cap_ms`.
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Self {
        Backoff {
            state: seed,
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
        }
    }

    /// The next delay, advancing the attempt counter and the jitter stream.
    pub fn next_delay(&mut self) -> Duration {
        // SplitMix64 step — the same generator the engines' seed derivation
        // uses, chosen here for the identical reason: trivially seedable and
        // deterministic everywhere
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let ceiling = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceiling / 2;
        Duration::from_millis(ceiling - half + z % (half + 1))
    }

    /// Resets the attempt counter (after a successful request), keeping the
    /// jitter stream position.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Why [`NdjsonClient::submit_retrying`] gave up.
#[derive(Debug)]
pub enum RetryError {
    /// The transport failed underneath the retry loop.
    Io(std::io::Error),
    /// Every attempt in the retry budget was shed with
    /// [`Response::Overloaded`]; the job was never admitted.
    RetriesExhausted {
        /// Attempts made (submits sent) before giving up.
        attempts: u32,
        /// The server's `retry_after_ms` hint on the final shed.
        last_retry_after_ms: u64,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Io(e) => write!(f, "transport failed while retrying: {e}"),
            RetryError::RetriesExhausted {
                attempts,
                last_retry_after_ms,
            } => write!(
                f,
                "submit shed as overloaded on all {attempts} attempts \
                 (last retry hint {last_retry_after_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for RetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetryError::Io(e) => Some(e),
            RetryError::RetriesExhausted { .. } => None,
        }
    }
}

impl From<std::io::Error> for RetryError {
    fn from(e: std::io::Error) -> Self {
        RetryError::Io(e)
    }
}

// ------------------------------------------------------------------- hub

/// Configuration of a [`Frontend`].
#[derive(Clone)]
pub struct FrontendConfig {
    /// Worker threads; `0` means all cores (one from inside another pool).
    pub workers: usize,
    /// Fleet-wide cap on queued jobs; submits past it are shed with
    /// [`Response::Overloaded`].
    pub max_queued: usize,
    /// Per-client cap on queued jobs — one flooding client must not consume
    /// the whole admission budget.
    pub max_queued_per_client: usize,
    /// Longest request line accepted before an `oversized` rejection.
    pub max_frame_bytes: usize,
    /// Retry hint carried on [`Response::Overloaded`].
    pub retry_after_ms: u64,
    /// Sweeps between [`RunController`] polls for running jobs.
    pub poll_interval: u64,
    /// How long a connection may sit with a half-written line before the
    /// reader kicks it (the slow-loris guard). Idle connections with no
    /// partial line are never kicked.
    pub read_timeout: Duration,
    /// Deterministic fault-injection hooks; `None` in production.
    pub faults: Option<Arc<faults::FaultPlan>>,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 0,
            max_queued: 256,
            max_queued_per_client: 64,
            max_frame_bytes: 1 << 20,
            retry_after_ms: 25,
            poll_interval: 8,
            read_timeout: Duration::from_secs(30),
            faults: None,
        }
    }
}

impl FrontendConfig {
    fn validate(&self) {
        assert!(self.max_queued > 0, "admission budget must be positive");
        assert!(
            self.max_queued_per_client > 0,
            "per-client budget must be positive"
        );
        assert!(self.max_frame_bytes > 0, "frame limit must be positive");
    }
}

/// A job's bookkeeping while it runs.
struct Running {
    ctrl: RunController,
    client: u64,
}

/// One connected client's server-side state.
struct ClientSlot {
    weight: u32,
    queued: usize,
    stats: ClientStats,
    by_job: HashMap<u64, u64>,
    tx: mpsc::Sender<Response>,
}

struct HubState {
    clients: HashMap<u64, ClientSlot>,
    running: HashMap<u64, Running>,
    /// Checkpoints captured by workers during a drain, keyed by queue seq.
    drained: Vec<(u64, Box<crate::checkpoint::Checkpoint>)>,
    fleet: ClientStats,
    next_client: u64,
    draining: bool,
    /// Settled jobs that actually ran (elapsed > 0) and their total wall
    /// milliseconds — the running mean behind the `stats` frame's `eta_ms`.
    timed_settles: u64,
    timed_settle_ms: u64,
}

/// The shared core of a [`Frontend`]: scheduler queue, client registry, and
/// clock.
struct Hub {
    config: FrontendConfig,
    queue: ScheduledQueue<SolverJob>,
    state: Mutex<HubState>,
    epoch: Instant,
    /// Resolved worker-thread count (the ETA estimate's divisor).
    worker_count: usize,
}

impl Hub {
    /// Milliseconds on the scheduler clock: monotonic since start, plus the
    /// fault plan's skew (so tests can expire queued deadlines on demand).
    fn now_ms(&self) -> u64 {
        let real = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        match &self.config.faults {
            Some(f) => real.saturating_add_signed(f.skew_ms()),
            None => real,
        }
    }

    /// Backlog drain estimate: queued jobs × mean settled-job wall ms ÷
    /// workers. Deliberately rough — it answers "seconds or hours?", not
    /// "which millisecond" — and `0` until one timed job has settled.
    fn eta_ms(&self, state: &HubState) -> u64 {
        if state.timed_settles == 0 {
            return 0;
        }
        let mean_ms = state.timed_settle_ms / state.timed_settles;
        (self.queue.len() as u64)
            .saturating_mul(mean_ms)
            .checked_div(self.worker_count.max(1) as u64)
            .unwrap_or(0)
    }

    fn send_to(state: &HubState, client: u64, response: Response) {
        if let Some(slot) = state.clients.get(&client) {
            // a send fails only when the handle side is gone mid-disconnect;
            // the disconnect path has already settled the accounting then
            let _ = slot.tx.send(response);
        }
    }

    /// Admission + scheduling for one job. `enforce_admission` is false only
    /// for resume-time resubmission: recovered work was already admitted by
    /// the previous process and must not be shed by its own restart.
    ///
    /// The admission response is delivered on the client's channel *under
    /// the same lock hold* that makes the job visible to workers, so an
    /// `Accepted` always precedes its job's terminal frame even against a
    /// worker that settles instantly.
    fn submit_job(
        self: &Arc<Self>,
        client: u64,
        job: SolverJob,
        priority: u8,
        deadline_ms: Option<u64>,
        enforce_admission: bool,
    ) -> Response {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        let response = self.admit(
            &mut state,
            client,
            job,
            priority,
            deadline_ms,
            enforce_admission,
        );
        Self::send_to(&state, client, response.clone());
        response
    }

    /// The admission decision body of [`Hub::submit_job`]; runs with the
    /// state lock held by the caller.
    fn admit(
        &self,
        state: &mut HubState,
        client: u64,
        job: SolverJob,
        priority: u8,
        deadline_ms: Option<u64>,
        enforce_admission: bool,
    ) -> Response {
        let job_id = job.spec().job;
        if state.draining || !state.clients.contains_key(&client) {
            return Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        if enforce_admission {
            let slot = state.clients.get(&client).expect("checked above");
            if self.queue.len() >= self.config.max_queued
                || slot.queued >= self.config.max_queued_per_client
            {
                let slot = state.clients.get_mut(&client).expect("checked above");
                slot.stats.rejected += 1;
                state.fleet.rejected += 1;
                return Response::Overloaded {
                    retry_after_ms: self.config.retry_after_ms,
                };
            }
        }
        let slot = state.clients.get_mut(&client).expect("checked above");
        let ticket = Ticket {
            client,
            weight: slot.weight,
            priority,
            deadline: deadline_ms.map(|d| self.now_ms().saturating_add(d)),
        };
        match self.queue.push(ticket, job) {
            Ok(seq) => {
                slot.queued += 1;
                slot.stats.accepted += 1;
                slot.by_job.insert(job_id, seq);
                state.fleet.accepted += 1;
                Response::Accepted { job: job_id }
            }
            // the queue closes only when the hub is draining, checked above;
            // losing that race still sheds politely
            Err(_) => Response::Overloaded {
                retry_after_ms: self.config.retry_after_ms,
            },
        }
    }

    /// Handles one parsed request on behalf of `client`. Immediate
    /// responses (admission results, rejections, stats) are delivered on
    /// the client's channel, in order with the job outcomes.
    fn handle(self: &Arc<Self>, client: u64, request: Request) {
        match request {
            Request::Hello { weight } => {
                let mut state = self.state.lock().expect("hub lock is never poisoned");
                if let Some(slot) = state.clients.get_mut(&client) {
                    slot.weight = weight.max(1);
                }
            }
            Request::Submit {
                spec,
                priority,
                deadline_ms,
            } => {
                self.submit_job(client, SolverJob::Fresh(spec), priority, deadline_ms, true);
            }
            Request::Cancel { job } => self.cancel(client, job),
            Request::Stats => {
                let state = self.state.lock().expect("hub lock is never poisoned");
                if let Some(slot) = state.clients.get(&client) {
                    let response = Response::Stats {
                        client: slot.stats,
                        fleet: state.fleet,
                        queue_depth: self.queue.len() as u64,
                        eta_ms: self.eta_ms(&state),
                    };
                    let _ = slot.tx.send(response);
                }
            }
        }
    }

    /// Rejects an unparsable line on the client's channel.
    fn reject(&self, client: u64, error: &FrameError) {
        let state = self.state.lock().expect("hub lock is never poisoned");
        if let Some(slot) = state.clients.get(&client) {
            let _ = slot.tx.send(Response::Rejected {
                code: error.code().to_string(),
                error: error.to_string(),
            });
        }
    }

    fn cancel(self: &Arc<Self>, client: u64, job: u64) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        let Some(slot) = state.clients.get(&client) else {
            return;
        };
        let Some(&seq) = slot.by_job.get(&job) else {
            Self::send_to(
                &state,
                client,
                Response::Rejected {
                    code: FrameError::UnknownJob(job).code().to_string(),
                    error: FrameError::UnknownJob(job).to_string(),
                },
            );
            return;
        };
        if let Some((_, removed)) = self.queue.remove_seq(seq) {
            // still queued: settle it here, synthesizing the zero-work
            // cancelled outcome — no worker ever sees it
            let slot = state.clients.get_mut(&client).expect("present above");
            slot.queued -= 1;
            slot.by_job.remove(&job);
            slot.stats.cancelled += 1;
            state.fleet.cancelled += 1;
            let outcome =
                JobOutcome::expired(removed.spec()).with_outcome_kind(OutcomeKind::Cancelled);
            Self::send_to(&state, client, Response::Outcome { outcome });
        } else if let Some(running) = state.running.get(&seq) {
            // mid-run: ask the job's controller; the worker settles it
            running.ctrl.request_cancel();
        } else {
            Self::send_to(
                &state,
                client,
                Response::Rejected {
                    code: FrameError::UnknownJob(job).code().to_string(),
                    error: FrameError::UnknownJob(job).to_string(),
                },
            );
        }
    }

    /// Removes a departed client: queued jobs are dropped (counted
    /// cancelled fleet-wide), running ones are cooperatively cancelled.
    fn disconnect(&self, client: u64) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        if state.clients.remove(&client).is_none() {
            return;
        }
        let dropped = self.queue.remove_client(client);
        state.fleet.cancelled += dropped.len() as u64;
        for running in state.running.values() {
            if running.client == client {
                running.ctrl.request_cancel();
            }
        }
    }

    /// Classifies one terminal result into the stats buckets and delivers
    /// the response (when the client is still connected).
    fn settle(
        &self,
        seq: u64,
        client: u64,
        job_id: u64,
        bucket: impl Fn(&mut ClientStats),
        response: Response,
    ) {
        let mut state = self.state.lock().expect("hub lock is never poisoned");
        state.running.remove(&seq);
        if let Response::Outcome { outcome } = &response {
            if outcome.elapsed_ns > 0 {
                state.timed_settles += 1;
                state.timed_settle_ms += outcome.elapsed_ns / 1_000_000;
            }
        }
        bucket(&mut state.fleet);
        if let Some(slot) = state.clients.get_mut(&client) {
            bucket(&mut slot.stats);
            if slot.by_job.get(&job_id) == Some(&seq) {
                slot.by_job.remove(&job_id);
            }
            let _ = slot.tx.send(response);
        }
    }
}

/// One worker's service loop over the scheduler queue.
fn worker_loop(hub: Arc<Hub>) {
    parallel::mark_pool_worker();
    let clock = {
        let hub = Arc::clone(&hub);
        move || hub.now_ms()
    };
    loop {
        if let Some(f) = &hub.config.faults {
            f.wait_if_held();
        }
        let Some(scheduled) = hub.queue.pop(&clock) else {
            return;
        };
        let seq = scheduled.seq;
        let client = scheduled.ticket.client;
        let job = scheduled.item;
        let job_id = job.spec().job;
        let digest = job.spec().instance_digest;
        if let Some(f) = &hub.config.faults {
            f.log_dequeue(client, job_id);
        }
        // queue-side bookkeeping is settled at pop, whatever happens next
        {
            let mut state = hub.state.lock().expect("hub lock is never poisoned");
            if let Some(slot) = state.clients.get_mut(&client) {
                slot.queued = slot.queued.saturating_sub(1);
            } else {
                // the client vanished between disconnect's sweep and this
                // pop: its job is cancelled work, not lost work
                state.fleet.cancelled += 1;
                continue;
            }
            if scheduled.expired {
                // deadline passed while queued: shed without an engine —
                // the typed terminal response costs no worker time
                state.running.remove(&seq);
                state.fleet.expired += 1;
                let slot = state.clients.get_mut(&client).expect("present above");
                slot.stats.expired += 1;
                slot.by_job.remove(&job_id);
                let outcome = JobOutcome::expired(job.spec());
                Hub::send_to(&state, client, Response::Outcome { outcome });
                continue;
            }
            let mut ctrl = RunController::unlimited().with_poll_interval(hub.config.poll_interval);
            if let Some(deadline) = scheduled.ticket.deadline {
                let remaining = deadline.saturating_sub(hub.now_ms());
                ctrl = ctrl.with_deadline_in(Duration::from_millis(remaining));
            }
            if state.draining {
                // shutdown raced this pop: make the job checkpoint at its
                // first poll instead of running to completion
                ctrl.request_checkpoint();
            }
            state.running.insert(
                seq,
                Running {
                    ctrl: ctrl.clone(),
                    client,
                },
            );
            drop(state);
            let faults = hub.config.faults.clone();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = &faults {
                    f.panic_if_scripted(job_id);
                }
                job.execute(&ctrl)
            }));
            match result {
                Err(payload) => {
                    let message = service::panic_message(payload.as_ref());
                    hub.settle(
                        seq,
                        client,
                        job_id,
                        |stats| stats.failed += 1,
                        Response::Failure {
                            job: job_id,
                            instance_digest: digest,
                            message,
                        },
                    );
                }
                Ok(run) => match run.outcome.outcome_kind {
                    OutcomeKind::Checkpointed => {
                        let mut state = hub.state.lock().expect("hub lock is never poisoned");
                        state.running.remove(&seq);
                        let checkpoint = run
                            .checkpoint
                            .expect("checkpointed outcomes carry their checkpoint");
                        state.drained.push((seq, checkpoint));
                    }
                    kind => {
                        let bucket: fn(&mut ClientStats) = match kind {
                            OutcomeKind::Completed => |s| s.completed += 1,
                            OutcomeKind::Cancelled => |s| s.cancelled += 1,
                            OutcomeKind::DeadlineExceeded => |s| s.expired += 1,
                            OutcomeKind::Checkpointed => unreachable!("handled above"),
                        };
                        hub.settle(
                            seq,
                            client,
                            job_id,
                            bucket,
                            Response::Outcome {
                                outcome: run.outcome,
                            },
                        );
                    }
                },
            }
        }
    }
}

/// What [`Frontend::shutdown_to`] persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// In-flight jobs checkpointed mid-run.
    pub checkpointed: usize,
    /// Queued jobs persisted as spec/checkpoint files untouched.
    pub pending: usize,
}

/// The multi-client scheduling front-end; see the [module docs](self).
pub struct Frontend {
    hub: Arc<Hub>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Frontend {
    /// Starts the worker fleet.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (zero admission budget or frame
    /// limit).
    pub fn start(config: FrontendConfig) -> Self {
        config.validate();
        let worker_count = parallel::resolve_pool_workers(config.workers);
        let hub = Arc::new(Hub {
            config,
            queue: ScheduledQueue::new(),
            state: Mutex::new(HubState {
                clients: HashMap::new(),
                running: HashMap::new(),
                drained: Vec::new(),
                fleet: ClientStats::default(),
                next_client: 1,
                draining: false,
                timed_settles: 0,
                timed_settle_ms: 0,
            }),
            epoch: Instant::now(),
            worker_count,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || worker_loop(hub))
            })
            .collect();
        Frontend { hub, workers }
    }

    /// Starts a fleet and resubmits every job a previous
    /// [`Frontend::shutdown_to`] (or
    /// [`ControlledService::shutdown_to`](crate::service::ControlledService::shutdown_to))
    /// persisted under `dir`, in the original order, owned by the returned
    /// recovery handle. Completed resumed jobs are bit-identical to
    /// never-interrupted runs at any worker count. Recovered jobs bypass
    /// admission control — they were already admitted once.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from reading the drain directory; nothing has
    /// run when an error is returned.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, as [`Frontend::start`].
    pub fn resume(
        config: FrontendConfig,
        dir: &Path,
    ) -> Result<(Self, ClientHandle), CheckpointError> {
        let jobs = service::load_drain_dir(dir)?;
        let frontend = Frontend::start(config);
        let recovery = frontend.connect();
        for job in jobs {
            let response = frontend.hub.submit_job(recovery.id, job, 0, None, false);
            debug_assert!(
                matches!(response, Response::Accepted { .. }),
                "resume submission bypasses admission"
            );
        }
        Ok((frontend, recovery))
    }

    /// Registers an in-process client session (weight 1 until a
    /// [`Request::Hello`] changes it). Dropping the handle disconnects it,
    /// cancelling the client's remaining work.
    pub fn connect(&self) -> ClientHandle {
        let (tx, rx) = mpsc::channel();
        let mut state = self.hub.state.lock().expect("hub lock is never poisoned");
        let id = state.next_client;
        state.next_client += 1;
        state.clients.insert(
            id,
            ClientSlot {
                weight: 1,
                queued: 0,
                stats: ClientStats::default(),
                by_job: HashMap::new(),
                tx,
            },
        );
        drop(state);
        ClientHandle {
            id,
            hub: Arc::clone(&self.hub),
            rx,
        }
    }

    /// Fleet-wide counters.
    pub fn fleet_stats(&self) -> ClientStats {
        self.hub
            .state
            .lock()
            .expect("hub lock is never poisoned")
            .fleet
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful drain — the SIGTERM path: stops admitting, pulls queued
    /// jobs into spec/checkpoint files, asks running jobs to checkpoint,
    /// joins the workers, and persists everything under `dir` in the PR 6
    /// drain layout (`job-NNNNNN.spec.json` / `job-NNNNNN.ckpt`, ordered by
    /// scheduler sequence). [`Frontend::resume`] continues the work
    /// bit-identically.
    ///
    /// Clients with jobs still in flight receive no further frames — their
    /// jobs survive in the drain directory; redelivery happens through the
    /// resumed server's recovery handle.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory or a file cannot be
    /// written; files persisted before the failure remain on disk.
    pub fn shutdown_to(mut self, dir: &Path) -> Result<DrainReport, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        {
            let mut state = self.hub.state.lock().expect("hub lock is never poisoned");
            state.draining = true;
            for running in state.running.values() {
                running.ctrl.request_checkpoint();
            }
        }
        // Seal the queue before waking any frozen workers: a woken worker
        // must find the queue closed, not race this capture and run a
        // queued job to completion into a connection nobody reads anymore.
        let pending = self.hub.queue.take_pending();
        if let Some(f) = &self.hub.config.faults {
            // frozen workers can't drain; a scripted hold must not deadlock
            // the shutdown path
            f.release_workers();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for (seq, _, job) in &pending {
            match job {
                SolverJob::Fresh(spec) => service::write_atomic(
                    &dir.join(format!("job-{seq:06}.spec.json")),
                    &spec.to_json(),
                )?,
                SolverJob::Resume(checkpoint) => {
                    checkpoint.save(&dir.join(format!("job-{seq:06}.ckpt")))?;
                }
            }
        }
        let state = self.hub.state.lock().expect("hub lock is never poisoned");
        for (seq, checkpoint) in &state.drained {
            checkpoint.save(&dir.join(format!("job-{seq:06}.ckpt")))?;
        }
        Ok(DrainReport {
            checkpointed: state.drained.len(),
            pending: pending.len(),
        })
    }

    /// Serves NDJSON connections from `listener` on a background thread
    /// until the frontend drains or drops. Each connection gets its own
    /// session (reader + writer threads) over [`Frontend::connect`]'s
    /// machinery.
    pub fn serve(&self, listener: TcpListener) -> std::thread::JoinHandle<()> {
        let hub = Arc::clone(&self.hub);
        listener
            .set_nonblocking(true)
            .expect("loopback listeners accept nonblocking mode");
        std::thread::spawn(move || loop {
            if hub
                .state
                .lock()
                .expect("hub lock is never poisoned")
                .draining
            {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let hub = Arc::clone(&hub);
                    std::thread::spawn(move || handle_connection(hub, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return,
            }
        })
    }
}

impl Drop for Frontend {
    /// Discards queued jobs, lets running ones finish, joins the workers.
    fn drop(&mut self) {
        if let Some(f) = &self.hub.config.faults {
            f.release_workers();
        }
        self.hub.queue.take_pending();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An in-process client session: the socket-free face of the protocol, and
/// what each TCP connection wraps.
pub struct ClientHandle {
    id: u64,
    hub: Arc<Hub>,
    rx: mpsc::Receiver<Response>,
}

impl ClientHandle {
    /// This session's server-assigned client id.
    pub fn client_id(&self) -> u64 {
        self.id
    }

    /// Handles one raw request line exactly as the TCP reader would:
    /// parsed strictly, rejected lines earn a typed [`Response::Rejected`]
    /// on the stream. Returns whether the line was parseable (`false`
    /// signals framing loss; the TCP layer hangs up on oversized lines).
    pub fn send_line(&self, line: &str) -> bool {
        match Request::from_line(line) {
            Ok(request) => {
                self.hub.handle(self.id, request);
                true
            }
            Err(error) => {
                self.hub.reject(self.id, &error);
                false
            }
        }
    }

    /// Sends one typed request.
    pub fn send(&self, request: Request) {
        self.hub.handle(self.id, request);
    }

    /// Convenience submit.
    pub fn submit(&self, spec: JobSpec, priority: u8, deadline_ms: Option<u64>) {
        self.send(Request::Submit {
            spec,
            priority,
            deadline_ms,
        });
    }

    /// Next response, blocking until one arrives. `None` after the hub
    /// side has gone away (fleet drained).
    pub fn recv(&self) -> Option<Response> {
        self.rx.recv().ok()
    }

    /// Next response, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Next response if one is already waiting.
    pub fn try_recv(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }
}

impl Drop for ClientHandle {
    /// Disconnect semantics: queued jobs dropped, running jobs cancelled.
    fn drop(&mut self) {
        self.hub.disconnect(self.id);
    }
}

// ---------------------------------------------------------------- TCP face

/// Reads one `\n`-terminated line of at most `limit` bytes. Distinguishes
/// a clean EOF (`Ok(None)`), a complete line, an oversized line, a timeout
/// with a partial line buffered (the slow-loris signature), and transport
/// errors. An interrupted read (`EINTR`, e.g. after the process was
/// stopped and continued) is retried, idle or mid-frame.
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    limit: usize,
) -> Result<Option<String>, ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() {
                    continue; // idle connection: keep waiting
                }
                return Err(ReadError::Stalled); // half a frame, then silence
            }
            Err(_) => return Err(ReadError::Transport),
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(ReadError::Transport) // EOF inside a frame: truncated
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > limit + 1 {
            reader.consume(take);
            return Err(ReadError::Oversized);
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            buf.pop(); // the newline
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
}

/// Reads and parses one response line — [`NdjsonClient::recv`]'s read
/// path. `read_line` retries interrupted reads (`EINTR`) internally, so a
/// stop/continue of the process never splits a frame.
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Response::from_line(line.trim_end())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

pub(crate) enum ReadError {
    Oversized,
    Stalled,
    Transport,
}

/// One TCP session: a writer thread drains the client's response channel
/// onto the socket while this thread reads, parses, and dispatches request
/// lines. Any exit path disconnects the client, which cancels its work.
fn handle_connection(hub: Arc<Hub>, stream: TcpStream) {
    let limit = hub.config.max_frame_bytes;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(hub.config.read_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // register the session exactly like an in-process one
    let (tx, rx) = mpsc::channel::<Response>();
    let client = {
        let mut state = hub.state.lock().expect("hub lock is never poisoned");
        let id = state.next_client;
        state.next_client += 1;
        state.clients.insert(
            id,
            ClientSlot {
                weight: 1,
                queued: 0,
                stats: ClientStats::default(),
                by_job: HashMap::new(),
                tx,
            },
        );
        id
    };
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        while let Ok(response) = rx.recv() {
            if write_frame(&mut out, response.to_line().as_bytes()).is_err() {
                return; // client stopped reading; reader will notice too
            }
        }
    });
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, limit) {
            Ok(Some(line)) => {
                if line.is_empty() {
                    continue;
                }
                match Request::from_line(&line) {
                    Ok(request) => hub.handle(client, request),
                    Err(error) => hub.reject(client, &error),
                }
            }
            Ok(None) => break, // clean EOF
            Err(ReadError::Oversized) => {
                // past the cap the line boundary itself is untrusted: send
                // the typed error and hang up rather than resynchronize
                let error = FrameError::Oversized { limit };
                hub.reject(client, &error);
                break;
            }
            Err(ReadError::Stalled) | Err(ReadError::Transport) => break,
        }
    }
    hub.disconnect(client);
    drop(reader);
    // disconnect dropped the slot (and its sender); the writer drains what
    // was already queued and exits
    let _ = writer.join();
}

// ------------------------------------------------------------- the client

/// Blocking NDJSON client for `saim-server`: connect → submit (with
/// deterministic backoff on overload) → stream responses.
pub struct NdjsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl NdjsonClient {
    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// Any socket-level connect failure.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(NdjsonClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Any socket-level write failure.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.send_line(&request.to_line())
    }

    /// Sends one already-encoded request line (no trailing newline; the
    /// frame's newline is added here), in one write.
    ///
    /// # Errors
    ///
    /// Any socket-level write failure.
    pub(crate) fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        write_frame(&mut self.writer, line.as_bytes())
    }

    /// Bounds how long [`NdjsonClient::recv`] blocks (`None` blocks
    /// forever); a timeout surfaces as a `WouldBlock`/`TimedOut` error.
    ///
    /// # Errors
    ///
    /// Any socket-level option failure.
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }

    /// Sends a raw line verbatim — the fault-injection tests' way of
    /// delivering malformed, truncated, or interleaved bytes.
    ///
    /// # Errors
    ///
    /// Any socket-level write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::UnexpectedEof`] when the server hung up, other
    /// kinds for transport failures, and `InvalidData` when the server sent
    /// a line this client's schema cannot parse.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        read_response(&mut self.reader)
    }

    /// Submits with retry: on [`Response::Overloaded`] sleeps the larger of
    /// the server's hint and the [`Backoff`]'s next deterministic delay,
    /// then resubmits, up to `max_attempts` (clamped to at least 1).
    /// Returns the first non-overload response (for an admitted job:
    /// [`Response::Accepted`]).
    ///
    /// The server serializes every response to this client on one ordered
    /// stream, so the admission response to this submit is the next frame
    /// after any frames already owed — call this only when caught up on
    /// owed frames (earlier jobs' outcomes), or they will be consumed here.
    ///
    /// # Errors
    ///
    /// [`RetryError::Io`] on socket errors, and
    /// [`RetryError::RetriesExhausted`] when every attempt in the budget
    /// was shed — the retry loop is capped, never unbounded.
    pub fn submit_retrying(
        &mut self,
        spec: &JobSpec,
        priority: u8,
        deadline_ms: Option<u64>,
        backoff: &mut Backoff,
        max_attempts: u32,
    ) -> Result<Response, RetryError> {
        let request = Request::Submit {
            spec: spec.clone(),
            priority,
            deadline_ms,
        };
        let attempts = max_attempts.max(1);
        let mut last_hint = 0;
        for attempt in 0..attempts {
            self.send(&request)?;
            match self.recv()? {
                Response::Overloaded { retry_after_ms } => {
                    last_hint = retry_after_ms;
                    if attempt + 1 < attempts {
                        let wait = backoff
                            .next_delay()
                            .max(Duration::from_millis(retry_after_ms));
                        std::thread::sleep(wait);
                    }
                }
                other => return Ok(other),
            }
        }
        Err(RetryError::RetriesExhausted {
            attempts,
            last_retry_after_ms: last_hint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::OutcomeKind;
    use crate::service::SolverSpec;
    use crate::EnsembleConfig;
    use saim_ising::QuboBuilder;

    fn toy_spec(job: u64, seed: u64) -> JobSpec {
        let mut b = QuboBuilder::new(4);
        for i in 0..4 {
            b.add_linear(i, -1.0).expect("index in range");
        }
        b.add_pair(0, 1, 0.5).expect("indices in range");
        JobSpec::new(job, b.build(), SolverSpec::Descent { max_sweeps: 50 }, seed)
            .with_instance_digest(job ^ 0xD1)
    }

    /// `Request::Submit`'s line as the generic value-tree writer builds it
    /// — the encoding `submit_line` must reproduce byte for byte.
    fn value_tree_submit_line(spec: &JobSpec, priority: u8, deadline_ms: Option<u64>) -> String {
        let fields: Vec<(String, Value)> = vec![
            ("schema".into(), SCHEMA_VERSION.to_value()),
            ("frame".into(), Value::Str("submit".into())),
            ("priority".into(), u32::from(priority).to_value()),
            ("deadline_ms".into(), deadline_ms.to_value()),
            ("spec".into(), spec.to_value()),
        ];
        serde_json::to_string(&Value::Object(fields)).unwrap()
    }

    #[test]
    fn spliced_submit_lines_match_the_value_tree_encoding() {
        let mut dense = QuboBuilder::new(5);
        for i in 0..5 {
            dense.add_linear(i, -1.5 + i as f64 / 3.0).unwrap();
            for j in i + 1..5 {
                dense.add_pair(i, j, 1e-3 * (i * j) as f64 - 0.25).unwrap();
            }
        }
        let specs = [
            toy_spec(7, 11),
            JobSpec::new(
                u64::MAX,
                dense.build(),
                SolverSpec::Ensemble(EnsembleConfig {
                    replicas: 3,
                    ..EnsembleConfig::default()
                }),
                0,
            )
            .with_instance_digest(u64::MAX - 1),
        ];
        for spec in &specs {
            for priority in [0, 1, 7, 255] {
                for deadline_ms in [None, Some(0), Some(1500), Some(u64::MAX)] {
                    let want = value_tree_submit_line(spec, priority, deadline_ms);
                    assert_eq!(submit_line(&spec.to_json(), priority, deadline_ms), want);
                    let request = Request::Submit {
                        spec: spec.clone(),
                        priority,
                        deadline_ms,
                    };
                    assert_eq!(request.to_line(), want);
                    assert_eq!(Request::from_line(&want).unwrap(), request);
                }
            }
        }
    }

    /// A writer that records each write call and accepts at most `cap`
    /// bytes per call, across all the slices of a vectored write.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(self.cap - taken);
                self.bytes.extend_from_slice(&buf[..take]);
                taken += take;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write_when_the_transport_takes_it() {
        let line = Request::Submit {
            spec: toy_spec(3, 4),
            priority: 2,
            deadline_ms: Some(9),
        }
        .to_line();
        let framed = format!("{line}\n").into_bytes();
        let mut whole = CountingWriter {
            bytes: Vec::new(),
            calls: 0,
            cap: usize::MAX,
        };
        write_frame(&mut whole, line.as_bytes()).unwrap();
        assert_eq!(whole.calls, 1, "line and newline go out together");
        assert_eq!(whole.bytes, framed);
        // short writes resume where the transport stopped, newline included
        for cap in [1, 7, line.len(), line.len() + 1] {
            let mut short = CountingWriter {
                bytes: Vec::new(),
                calls: 0,
                cap,
            };
            write_frame(&mut short, line.as_bytes()).unwrap();
            assert_eq!(short.bytes, framed, "cap {cap}");
            assert_eq!(short.calls, framed.len().div_ceil(cap), "cap {cap}");
        }
    }

    /// A reader that replays a script of byte chunks and `EINTR`s (`None`)
    /// — the shape of a timed socket read around a stop/continue of the
    /// process.
    struct Scripted {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        chunk: Vec<u8>,
        pos: usize,
    }

    impl Scripted {
        fn new(steps: &[Option<&[u8]>]) -> Self {
            Scripted {
                steps: steps.iter().map(|s| s.map(<[u8]>::to_vec)).collect(),
                chunk: Vec::new(),
                pos: 0,
            }
        }
    }

    impl std::io::Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let available = self.fill_buf()?;
            let n = available.len().min(out.len());
            out[..n].copy_from_slice(&available[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Scripted {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos == self.chunk.len() {
                match self.steps.pop_front() {
                    Some(Some(bytes)) => (self.chunk, self.pos) = (bytes, 0),
                    Some(None) => return Err(std::io::ErrorKind::Interrupted.into()),
                    None => {}
                }
            }
            Ok(&self.chunk[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn interrupted_reads_still_return_the_full_line() {
        // EINTR before a frame starts, then twice in its middle
        let mut reader = Scripted::new(&[
            None,
            Some(b"{\"frame\":\"stats\""),
            None,
            None,
            Some(b",\"x\":1}\n"),
            Some(b"next\n"),
        ]);
        let mut read = || read_line_capped(&mut reader, 1024).map_err(|_| "read failed");
        assert_eq!(read(), Ok(Some("{\"frame\":\"stats\",\"x\":1}".into())));
        assert_eq!(read(), Ok(Some("next".into())));
        assert_eq!(read(), Ok(None));
    }

    #[test]
    fn interrupted_response_reads_still_return_the_full_frame() {
        let frame = Response::Rejected {
            code: "json".into(),
            error: "bad".into(),
        }
        .to_line();
        let bytes = format!("{frame}\n").into_bytes();
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let mut reader = Scripted::new(&[None, Some(head), None, Some(tail)]);
        let response = read_response(&mut reader).expect("a full frame");
        assert_eq!(response.to_line(), frame);
    }

    fn slow_spec(job: u64, seed: u64) -> JobSpec {
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            b.add_linear(i, -1.0).expect("index in range");
        }
        JobSpec::new(
            job,
            b.build(),
            SolverSpec::Ensemble(EnsembleConfig {
                replicas: 2,
                threads: 1,
                mcs_per_run: 4000,
                ..EnsembleConfig::default()
            }),
            seed,
        )
    }

    /// A job that cannot finish before a cancel lands: the p-bit machine
    /// sweeps small models in microseconds, so the running-cancel test needs
    /// hours of scripted work to hold its race window open.
    fn endless_spec(job: u64, seed: u64) -> JobSpec {
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            b.add_linear(i, -1.0).expect("index in range");
        }
        JobSpec::new(
            job,
            b.build(),
            SolverSpec::Ensemble(EnsembleConfig {
                replicas: 2,
                threads: 1,
                mcs_per_run: 2_000_000_000,
                ..EnsembleConfig::default()
            }),
            seed,
        )
    }

    fn test_config(workers: usize, faults: Option<Arc<faults::FaultPlan>>) -> FrontendConfig {
        FrontendConfig {
            workers,
            faults,
            ..FrontendConfig::default()
        }
    }

    fn expect_outcome(handle: &ClientHandle) -> JobOutcome {
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Outcome { outcome }) => outcome,
            other => panic!("expected an outcome frame, got {other:?}"),
        }
    }

    fn expect_accepted(handle: &ClientHandle, job: u64) {
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Accepted { job: got }) => assert_eq!(got, job),
            other => panic!("expected accepted for job {job}, got {other:?}"),
        }
    }

    #[test]
    fn request_frames_roundtrip() {
        let frames = vec![
            Request::Hello { weight: 4 },
            Request::Submit {
                spec: toy_spec(3, 9),
                priority: 2,
                deadline_ms: Some(1500),
            },
            Request::Submit {
                spec: toy_spec(4, 9),
                priority: 0,
                deadline_ms: None,
            },
            Request::Cancel { job: 7 },
            Request::Stats,
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(Request::from_line(&line).expect("round-trips"), frame);
            // byte-stable re-serialization, like the spec/outcome schema
            assert_eq!(
                Request::from_line(&line).expect("round-trips").to_line(),
                line
            );
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        let frames = vec![
            Response::Accepted { job: 1 },
            Response::Outcome {
                outcome: toy_spec(1, 1).run().canonical(),
            },
            Response::Failure {
                job: 2,
                instance_digest: 99,
                message: "boom".into(),
            },
            Response::Rejected {
                code: "json".into(),
                error: "invalid JSON: oops".into(),
            },
            Response::Overloaded { retry_after_ms: 25 },
            Response::Stats {
                client: ClientStats {
                    accepted: 3,
                    completed: 2,
                    ..ClientStats::default()
                },
                fleet: ClientStats {
                    accepted: 9,
                    rejected: 1,
                    ..ClientStats::default()
                },
                queue_depth: 4,
                eta_ms: 1200,
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(Response::from_line(&line).expect("round-trips"), frame);
        }
    }

    #[test]
    fn bad_lines_earn_typed_rejections() {
        assert!(matches!(
            Request::from_line("{not json"),
            Err(FrameError::Schema(SchemaError::Json(_)))
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":99,"frame":"stats"}"#),
            Err(FrameError::Schema(SchemaError::VersionMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            }))
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":3,"frame":"teleport"}"#),
            Err(FrameError::UnknownFrame(tag)) if tag == "teleport"
        ));
        assert!(matches!(
            Request::from_line(r#"{"schema":3,"frame":"stats","extra":1}"#),
            Err(FrameError::Schema(SchemaError::UnknownField(f))) if f == "extra"
        ));
        // the v3 stats fields are version-gated: a v2 stats frame (which
        // could not carry them) reads as a version problem, and a v3 frame
        // missing them is malformed, not silently defaulted
        assert!(matches!(
            Response::from_line(
                r#"{"schema":2,"frame":"stats","client":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0},"fleet":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0}}"#
            ),
            Err(FrameError::Schema(SchemaError::VersionMismatch {
                found: 2,
                expected: SCHEMA_VERSION
            }))
        ));
        assert!(matches!(
            Response::from_line(
                r#"{"schema":3,"frame":"stats","client":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0},"fleet":{"accepted":0,"rejected":0,"completed":0,"failed":0,"cancelled":0,"expired":0}}"#
            ),
            Err(FrameError::Schema(SchemaError::Malformed(_)))
        ));
        // strictness reaches inside the embedded spec
        let mut submit = Request::Submit {
            spec: toy_spec(1, 1),
            priority: 0,
            deadline_ms: None,
        }
        .to_line();
        submit = submit.replace("\"seed\":", "\"sede\":");
        assert!(matches!(
            Request::from_line(&submit),
            Err(FrameError::Schema(_))
        ));
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let mut a = Backoff::new(42, 10, 80);
        let mut b = Backoff::new(42, 10, 80);
        let delays: Vec<u64> = (0..8).map(|_| a.next_delay().as_millis() as u64).collect();
        let replay: Vec<u64> = (0..8).map(|_| b.next_delay().as_millis() as u64).collect();
        assert_eq!(delays, replay, "same seed, same schedule");
        for (attempt, &d) in delays.iter().enumerate() {
            let ceiling = (10u64 << attempt.min(32)).min(80);
            assert!(d >= ceiling / 2 && d <= ceiling, "attempt {attempt}: {d}");
        }
        let mut c = Backoff::new(43, 10, 80);
        let other: Vec<u64> = (0..8).map(|_| c.next_delay().as_millis() as u64).collect();
        assert_ne!(delays, other, "different seeds decorrelate");
    }

    #[test]
    fn backoff_jitter_sequence_matches_pinned_vector() {
        // the exact SplitMix64-derived schedule for seed 42, base 10 ms,
        // cap 80 ms — pinned so any change to the generator or the
        // jitter-window arithmetic is a deliberate, visible decision
        let mut backoff = Backoff::new(42, 10, 80);
        let delays: Vec<u64> = (0..8)
            .map(|_| backoff.next_delay().as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![6, 15, 20, 40, 51, 41, 68, 45]);
        // reset keeps the stream position but restarts the exponential
        backoff.reset();
        let restarted = backoff.next_delay().as_millis() as u64;
        assert!((5..=10).contains(&restarted), "attempt-0 window again");
    }

    #[test]
    fn submit_completes_and_matches_direct_run() {
        let frontend = Frontend::start(test_config(2, None));
        let handle = frontend.connect();
        let spec = toy_spec(11, 5);
        handle.submit(spec.clone(), 0, None);
        expect_accepted(&handle, 11);
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.canonical(), spec.run().canonical());
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats {
                client,
                fleet,
                queue_depth,
                ..
            }) => {
                assert_eq!(client.accepted, 1);
                assert_eq!(client.completed, 1);
                assert_eq!(client.in_flight(), 0);
                assert_eq!(fleet.accepted, fleet.settled());
                assert_eq!(queue_depth, 0, "nothing queued after settlement");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn stats_report_queue_depth_and_eta_estimate() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        for job in 0..3u64 {
            handle.submit(toy_spec(job, job), 0, None);
            expect_accepted(&handle, job);
        }
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats {
                queue_depth,
                eta_ms,
                ..
            }) => {
                assert_eq!(queue_depth, 3, "held workers leave the backlog queued");
                assert_eq!(eta_ms, 0, "no settled job yet, so no mean to project");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        plan.release_workers();
        for _ in 0..3 {
            expect_outcome(&handle);
        }
        handle.send(Request::Stats);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Stats { queue_depth, .. }) => assert_eq!(queue_depth, 0),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn admission_control_sheds_with_retry_hint() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let mut config = test_config(1, Some(Arc::clone(&plan)));
        config.max_queued_per_client = 1;
        let frontend = Frontend::start(config);
        let handle = frontend.connect();
        handle.submit(toy_spec(1, 1), 0, None);
        expect_accepted(&handle, 1);
        handle.submit(toy_spec(2, 2), 0, None);
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
            other => panic!("expected overloaded, got {other:?}"),
        }
        plan.release_workers();
        assert_eq!(expect_outcome(&handle).job, 1);
        // capacity freed: the shed job is admitted on retry
        handle.submit(toy_spec(2, 2), 0, None);
        expect_accepted(&handle, 2);
        assert_eq!(expect_outcome(&handle).job, 2);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.accepted, 2);
        assert_eq!(fleet.rejected, 1);
        assert_eq!(fleet.completed, 2);
    }

    #[test]
    fn cancel_settles_queued_and_running_jobs_as_cancelled() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        // queued cancel: settled synchronously, zero work
        handle.submit(toy_spec(1, 1), 0, None);
        expect_accepted(&handle, 1);
        handle.send(Request::Cancel { job: 1 });
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.outcome_kind, OutcomeKind::Cancelled);
        assert_eq!(outcome.mcs, 0, "never ran");
        // unknown cancel: typed rejection
        handle.send(Request::Cancel { job: 99 });
        match handle.recv_timeout(Duration::from_secs(5)) {
            Some(Response::Rejected { code, .. }) => assert_eq!(code, "unknown_job"),
            other => panic!("expected rejected, got {other:?}"),
        }
        // running cancel: a long job is stopped cooperatively
        handle.submit(endless_spec(2, 7), 0, None);
        expect_accepted(&handle, 2);
        plan.release_workers();
        // wait for the worker to actually pick it up, then cancel mid-run
        while !plan.dequeue_log().iter().any(|&(_, job)| job == 2) {
            std::thread::yield_now();
        }
        handle.send(Request::Cancel { job: 2 });
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.job, 2);
        assert_eq!(outcome.outcome_kind, OutcomeKind::Cancelled);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.cancelled, 2);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn queued_deadline_expiry_is_shed_without_a_worker() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        handle.submit(toy_spec(5, 1), 0, Some(10_000));
        expect_accepted(&handle, 5);
        // the clock-skew fault drives the queued deadline into the past
        plan.set_skew_ms(60_000);
        plan.release_workers();
        let outcome = expect_outcome(&handle);
        assert_eq!(outcome.job, 5);
        assert_eq!(outcome.outcome_kind, OutcomeKind::DeadlineExceeded);
        assert_eq!(outcome.mcs, 0, "no engine was spun up");
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.expired, 1);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn fairness_interleaves_clients_and_weights_shape_shares() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let flood = frontend.connect();
        let light = frontend.connect();
        // a 10:1 flood against a light client, equal weights
        for i in 0..10 {
            flood.submit(toy_spec(100 + i, i), 0, None);
            expect_accepted(&flood, 100 + i);
        }
        light.submit(toy_spec(200, 1), 0, None);
        expect_accepted(&light, 200);
        light.submit(toy_spec(201, 2), 0, None);
        expect_accepted(&light, 201);
        plan.release_workers();
        for _ in 0..10 {
            expect_outcome(&flood);
        }
        expect_outcome(&light);
        expect_outcome(&light);
        let log = plan.dequeue_log();
        let light_id = light.client_id();
        let light_positions: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == light_id)
            .map(|(i, _)| i)
            .collect();
        // weighted-fair: the light client's two jobs are served inside the
        // first four dequeues, not behind the flood
        assert!(
            light_positions.iter().all(|&p| p < 4),
            "light client starved: dequeue order {log:?}"
        );
    }

    #[test]
    fn priorities_preempt_and_edf_orders_within_a_client() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        // shuffled deadlines in one priority class, plus one urgent job
        for (job, deadline) in [(1u64, 90_000u64), (2, 30_000), (3, 60_000)] {
            handle.submit(toy_spec(job, job), 0, Some(deadline));
            expect_accepted(&handle, job);
        }
        handle.submit(toy_spec(9, 9), 3, None);
        expect_accepted(&handle, 9);
        plan.release_workers();
        let completions: Vec<u64> = (0..4).map(|_| expect_outcome(&handle).job).collect();
        // the priority-3 job first, then EDF order over the class-0 batch
        assert_eq!(completions, vec![9, 2, 3, 1]);
    }

    #[test]
    fn scripted_worker_panic_is_a_typed_failure_and_the_fleet_survives() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.panic_on_job(7);
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        let spec = toy_spec(7, 1).with_instance_digest(0xABC);
        handle.submit(spec, 0, None);
        expect_accepted(&handle, 7);
        match handle.recv_timeout(Duration::from_secs(20)) {
            Some(Response::Failure {
                job,
                instance_digest,
                message,
            }) => {
                assert_eq!(job, 7);
                assert_eq!(instance_digest, 0xABC);
                assert!(message.contains("injected worker panic"));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // the fleet is still alive and serving
        let next = toy_spec(8, 2);
        handle.submit(next.clone(), 0, None);
        expect_accepted(&handle, 8);
        assert_eq!(expect_outcome(&handle).canonical(), next.run().canonical());
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.failed, 1);
        assert_eq!(fleet.completed, 1);
        assert_eq!(fleet.accepted, fleet.settled());
    }

    #[test]
    fn disconnect_cancels_the_clients_remaining_work() {
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let doomed = frontend.connect();
        let survivor = frontend.connect();
        for job in 0..3u64 {
            doomed.submit(toy_spec(job, job), 0, None);
            expect_accepted(&doomed, job);
        }
        survivor.submit(toy_spec(10, 1), 0, None);
        expect_accepted(&survivor, 10);
        drop(doomed); // disconnect: queued jobs must not occupy workers
        plan.release_workers();
        assert_eq!(expect_outcome(&survivor).job, 10);
        let fleet = frontend.fleet_stats();
        assert_eq!(fleet.cancelled, 3);
        assert_eq!(fleet.completed, 1);
        assert_eq!(fleet.accepted, fleet.settled());
        // at most the survivor's job ever reached a worker
        assert!(plan.dequeue_log().len() <= 1 + 1);
    }

    #[test]
    fn drain_and_resume_replay_bit_identically() {
        let scratch = tempdir();
        let specs: Vec<JobSpec> = (0..4u64).map(|j| slow_spec(j, j)).collect();
        let plan = Arc::new(faults::FaultPlan::new());
        plan.hold_workers();
        let frontend = Frontend::start(test_config(1, Some(Arc::clone(&plan))));
        let handle = frontend.connect();
        for spec in &specs {
            handle.submit(spec.clone(), 0, None);
            expect_accepted(&handle, spec.job);
        }
        plan.release_workers();
        // let the worker get into the first job, then drain mid-stream
        while plan.dequeue_log().is_empty() {
            std::thread::yield_now();
        }
        let report = frontend.shutdown_to(scratch.as_path()).expect("drain");
        let mut outcomes: HashMap<u64, JobOutcome> = HashMap::new();
        while let Some(response) = handle.try_recv() {
            if let Response::Outcome { outcome } = response {
                outcomes.insert(outcome.job, outcome);
            }
        }
        assert_eq!(
            outcomes.len() + report.checkpointed + report.pending,
            specs.len(),
            "every accepted job is finished, checkpointed, or persisted"
        );
        // a restarted server continues the drained jobs...
        let (resumed, recovery) =
            Frontend::resume(test_config(2, None), scratch.as_path()).expect("resume");
        while outcomes.len() < specs.len() {
            match recovery.recv_timeout(Duration::from_secs(30)) {
                Some(Response::Outcome { outcome }) => {
                    outcomes.insert(outcome.job, outcome);
                }
                Some(Response::Accepted { .. }) => {}
                Some(other) => panic!("unexpected frame during recovery: {other:?}"),
                None => panic!("recovery stream dried up early"),
            }
        }
        // ...bit-identically to runs that were never interrupted
        for spec in &specs {
            let outcome = outcomes.get(&spec.job).expect("job recovered");
            assert_eq!(outcome.outcome_kind, OutcomeKind::Completed);
            assert_eq!(outcome.canonical(), spec.run().canonical());
        }
        drop(recovery);
        drop(resumed);
        std::fs::remove_dir_all(scratch.as_path()).ok();
    }

    /// A unique scratch directory under the target tmpdir.
    fn tempdir() -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let path =
            std::env::temp_dir().join(format!("saim-frontend-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&path).expect("scratch dir");
        TempDir { path }
    }

    struct TempDir {
        path: std::path::PathBuf,
    }

    impl TempDir {
        fn as_path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.path).ok();
        }
    }
}
