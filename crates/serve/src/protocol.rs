//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — travels as one frame: a 4-byte
//! big-endian payload length followed by that many bytes of compact
//! UTF-8 JSON. Length-prefixing keeps the reader trivial (no streaming
//! JSON scanner, no delimiter escaping) and lets the server bound
//! memory per request before parsing a single byte.
//!
//! Probe recordings cross the wire as `{"rate": <hz>, "axes": [[..] x 6]}`.
//! The JSON writer emits shortest-round-trip `f64` text, so a recording
//! survives a TCP hop bit-identically and the server's decisions match
//! the in-process path exactly — the property the bench's transport-
//! parity check rests on.
//!
//! Requests and responses may carry an optional `"trace"` field: a
//! trace id as 16 lower-case hex digits (JSON numbers are f64 and would
//! corrupt a u64 above 2^53). Both parsers ignore unknown fields, so
//! old peers tolerate it and [`PROTOCOL_VERSION`] stays 1; the server
//! echoes the id in every response so a client can locate its request's
//! trace in `GET /traces`. Parse failures are measured as typed
//! telemetry counters: `serve.frame.oversized` (announced length over
//! the cap), `serve.frame.version_mismatch`, and
//! `serve.frame.malformed` (everything else).

use std::io::{self, Read, Write};

use mandipass_imu_sim::{Condition, Recording};
use mandipass_util::json::{self, Value};

/// Protocol version carried in every request's `"v"` field.
pub const PROTOCOL_VERSION: f64 = 1.0;

/// Hard ceiling on one frame's payload, shared by both directions.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one frame: 4-byte big-endian length + payload.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly before a new frame started.
///
/// # Errors
///
/// * `InvalidData` when the announced length exceeds `max_bytes`.
/// * `UnexpectedEof` when the peer closed mid-frame.
/// * Read timeouts and other socket errors propagate unchanged.
pub fn read_frame(reader: &mut impl Read, max_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match reader.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_bytes {
        mandipass_telemetry::counter!("serve.frame.oversized").inc();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Optional field carrying a trace id (hex) on requests and responses.
pub const TRACE_FIELD: &str = "trace";

/// Optional request field: the client's total latency budget in
/// milliseconds. A worker that picks the request up after its queue
/// wait alone blew the budget sheds it without running the forward
/// pass (`kind: "deadline_exceeded"`). Like [`TRACE_FIELD`], both
/// parsers ignore unknown fields, so [`PROTOCOL_VERSION`] stays 1.
pub const DEADLINE_FIELD: &str = "deadline_ms";

/// Stable error kind: the server shed the request under overload
/// (bounded admission queue full, or circuit breaker open). Carries
/// `retry_after_ms`.
pub const KIND_OVERLOADED: &str = "overloaded";
/// Stable error kind: the request's `deadline_ms` budget was already
/// spent waiting in the admission queue.
pub const KIND_DEADLINE: &str = "deadline_exceeded";
/// Stable error kind: the server is draining its queue for shutdown.
pub const KIND_SHUTTING_DOWN: &str = "shutting_down";
/// Stable error kind: the breaker is Degraded (drift alarm) and only
/// the policy path with its accel-only fallback is served.
pub const KIND_DEGRADED_ONLY: &str = "degraded_only";

/// Appends the deadline budget to a request document (no-op on
/// non-objects).
pub fn with_deadline_ms(doc: Value, deadline_ms: u64) -> Value {
    match doc {
        Value::Object(mut members) => {
            members.push((
                DEADLINE_FIELD.to_string(),
                Value::Number(deadline_ms as f64),
            ));
            Value::Object(members)
        }
        other => other,
    }
}

/// The deadline budget a request document carries; `None` when absent
/// or unparsable (a garbled budget must not fail an otherwise valid
/// request — the server just serves it without a deadline).
pub fn deadline_ms_of(doc: &Value) -> Option<u64> {
    let ms = doc.get(DEADLINE_FIELD).and_then(Value::as_f64)?;
    if ms.is_finite() && ms >= 0.0 && ms.fract() == 0.0 && ms <= 2f64.powi(53) {
        Some(ms as u64)
    } else {
        None
    }
}

/// Appends the trace id to a wire document (no-op on non-objects).
pub fn with_trace_id(doc: Value, trace_id: u64) -> Value {
    match doc {
        Value::Object(mut members) => {
            members.push((
                TRACE_FIELD.to_string(),
                Value::String(mandipass_telemetry::format_trace_id(trace_id)),
            ));
            Value::Object(members)
        }
        other => other,
    }
}

/// The trace id a wire document carries; `None` when the field is
/// absent or unparsable (tracing is best-effort metadata — a bad id
/// must not fail an otherwise valid request).
pub fn trace_id_of(doc: &Value) -> Option<u64> {
    doc.get(TRACE_FIELD)
        .and_then(Value::as_str)
        .and_then(|text| mandipass_telemetry::parse_trace_id(text).ok())
}

/// Classifies one request parse failure into the typed frame counters.
fn count_parse_error(message: &str) {
    if message.contains("unsupported protocol version") {
        mandipass_telemetry::counter!("serve.frame.version_mismatch").inc();
    } else {
        mandipass_telemetry::counter!("serve.frame.malformed").inc();
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The deployment's live health verdict plus enrolment count.
    Health,
    /// Single-probe verification against `user_id`'s template.
    Verify {
        /// The claimed identity.
        user_id: u32,
        /// The probe recording.
        probe: Recording,
    },
    /// Multi-probe verification under the server's [`VerifyPolicy`]
    /// (quality gate, bounded retry, degraded accel-only fallback).
    ///
    /// [`VerifyPolicy`]: mandipass::prelude::VerifyPolicy
    VerifyWithPolicy {
        /// The claimed identity.
        user_id: u32,
        /// Candidate probes, consumed in order up to the policy's
        /// attempt budget.
        probes: Vec<Recording>,
    },
}

impl Request {
    /// Serialises to the wire JSON document.
    pub fn to_json(&self) -> Value {
        let mut members = vec![("v".to_string(), Value::Number(PROTOCOL_VERSION))];
        match self {
            Request::Health => {
                members.push(("op".to_string(), Value::String("health".to_string())));
            }
            Request::Verify { user_id, probe } => {
                members.push(("op".to_string(), Value::String("verify".to_string())));
                members.push(("user".to_string(), Value::Number(f64::from(*user_id))));
                members.push(("probe".to_string(), recording_to_json(probe)));
            }
            Request::VerifyWithPolicy { user_id, probes } => {
                members.push(("op".to_string(), Value::String("verify_policy".to_string())));
                members.push(("user".to_string(), Value::Number(f64::from(*user_id))));
                members.push((
                    "probes".to_string(),
                    Value::Array(probes.iter().map(recording_to_json).collect()),
                ));
            }
        }
        Value::Object(members)
    }

    /// Parses a wire document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/malformed field; unknown
    /// `op` values and protocol versions are rejected explicitly.
    pub fn from_json(value: &Value) -> Result<Request, String> {
        let version = value
            .get("v")
            .and_then(Value::as_f64)
            .ok_or("request misses the \"v\" version field")?;
        if version != PROTOCOL_VERSION {
            return Err(format!("unsupported protocol version {version}"));
        }
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request misses the \"op\" field")?;
        let user = || -> Result<u32, String> {
            let n = value
                .get("user")
                .and_then(Value::as_f64)
                .ok_or("request misses the \"user\" field")?;
            if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
                return Err(format!("\"user\" {n} is not a u32"));
            }
            Ok(n as u32)
        };
        match op {
            "health" => Ok(Request::Health),
            "verify" => Ok(Request::Verify {
                user_id: user()?,
                probe: recording_from_json(
                    value
                        .get("probe")
                        .ok_or("verify misses the \"probe\" field")?,
                )?,
            }),
            "verify_policy" => {
                let probes = value
                    .get("probes")
                    .and_then(Value::as_array)
                    .ok_or("verify_policy misses the \"probes\" array")?;
                Ok(Request::VerifyWithPolicy {
                    user_id: user()?,
                    probes: probes
                        .iter()
                        .map(recording_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                })
            }
            other => Err(format!("unknown op \"{other}\"")),
        }
    }

    /// [`Request::from_frame_meta`] without the envelope metadata.
    ///
    /// # Errors
    ///
    /// As [`Request::from_frame_meta`].
    pub fn from_frame(payload: &[u8]) -> Result<Request, String> {
        Request::from_frame_meta(payload).map(|(request, _)| request)
    }

    /// The request decoder: parses raw frame bytes (UTF-8 + JSON +
    /// schema) into the request and the frame's optional envelope
    /// metadata (trace id, deadline budget), counting failures into the
    /// typed frame counters.
    ///
    /// # Errors
    ///
    /// As [`Request::from_json`], plus UTF-8 and JSON syntax errors; a
    /// frame that fails to parse yields no metadata even if the raw text
    /// contained some.
    pub fn from_frame_meta(payload: &[u8]) -> Result<(Request, FrameMeta), String> {
        let parse = || -> Result<(Request, FrameMeta), String> {
            let text =
                std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
            let doc = json::parse(text)?;
            let request = Request::from_json(&doc)?;
            Ok((
                request,
                FrameMeta {
                    trace_id: trace_id_of(&doc),
                    deadline_ms: deadline_ms_of(&doc),
                },
            ))
        };
        parse().inspect_err(|message| count_parse_error(message))
    }
}

/// The optional envelope fields a request frame carried alongside the
/// request itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// The client's trace id ([`TRACE_FIELD`]).
    pub trace_id: Option<u64>,
    /// The client's latency budget ([`DEADLINE_FIELD`]).
    pub deadline_ms: Option<u64>,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Health`].
    Health {
        /// The drift monitor's `HealthReport` document.
        health: Value,
        /// Number of enrolled identities.
        enrolled: usize,
    },
    /// A verification decision (both verify flavours).
    Decision {
        /// Accepted as the claimed identity?
        accepted: bool,
        /// Cosine distance to the stored template.
        distance: f64,
        /// Threshold the decision was made against.
        threshold: f64,
        /// Whether the decision used degraded accel-only mode.
        degraded: bool,
        /// Probes consumed, including the deciding one.
        attempts: usize,
        /// Reject labels of probes consumed before the decision.
        rejects: Vec<String>,
    },
    /// A typed failure (`kind` is stable, `message` human-readable).
    Error {
        /// Stable error label (e.g. `not_enrolled`, `bad_request`,
        /// [`KIND_OVERLOADED`]).
        kind: String,
        /// Human-readable detail.
        message: String,
        /// For shed responses ([`KIND_OVERLOADED`]): how long the
        /// client should back off before retrying. `None` on every
        /// other error kind.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// A typed error with no retry hint — the shape every pre-overload
    /// error site produces.
    pub fn error(kind: &str, message: impl Into<String>) -> Response {
        Response::Error {
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An [`KIND_OVERLOADED`] shed response carrying a retry hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Error {
            kind: KIND_OVERLOADED.to_string(),
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

impl Response {
    /// Serialises to the wire JSON document.
    pub fn to_json(&self) -> Value {
        match self {
            Response::Health { health, enrolled } => Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("op".to_string(), Value::String("health".to_string())),
                ("enrolled".to_string(), Value::Number(*enrolled as f64)),
                ("health".to_string(), health.clone()),
            ]),
            Response::Decision {
                accepted,
                distance,
                threshold,
                degraded,
                attempts,
                rejects,
            } => Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("op".to_string(), Value::String("decision".to_string())),
                ("accepted".to_string(), Value::Bool(*accepted)),
                ("distance".to_string(), Value::Number(*distance)),
                ("threshold".to_string(), Value::Number(*threshold)),
                ("degraded".to_string(), Value::Bool(*degraded)),
                ("attempts".to_string(), Value::Number(*attempts as f64)),
                (
                    "rejects".to_string(),
                    Value::Array(rejects.iter().map(|r| Value::String(r.clone())).collect()),
                ),
            ]),
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => {
                let mut members = vec![
                    ("ok".to_string(), Value::Bool(false)),
                    ("kind".to_string(), Value::String(kind.clone())),
                    ("error".to_string(), Value::String(message.clone())),
                ];
                if let Some(ms) = retry_after_ms {
                    members.push(("retry_after_ms".to_string(), Value::Number(*ms as f64)));
                }
                Value::Object(members)
            }
        }
    }

    /// Parses a wire document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/malformed field.
    pub fn from_json(value: &Value) -> Result<Response, String> {
        let ok = value
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("response misses the \"ok\" field")?;
        if !ok {
            return Ok(Response::Error {
                kind: value
                    .get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: value
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                retry_after_ms: value
                    .get("retry_after_ms")
                    .and_then(Value::as_f64)
                    .filter(|ms| ms.is_finite() && *ms >= 0.0)
                    .map(|ms| ms as u64),
            });
        }
        match value.get("op").and_then(Value::as_str) {
            Some("health") => Ok(Response::Health {
                health: value.get("health").cloned().unwrap_or(Value::Null),
                enrolled: value.get("enrolled").and_then(Value::as_f64).unwrap_or(0.0) as usize,
            }),
            Some("decision") => {
                let field = |name: &str| {
                    value
                        .get(name)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("decision misses the \"{name}\" field"))
                };
                let flag = |name: &str| {
                    value
                        .get(name)
                        .and_then(Value::as_bool)
                        .ok_or_else(|| format!("decision misses the \"{name}\" field"))
                };
                Ok(Response::Decision {
                    accepted: flag("accepted")?,
                    distance: field("distance")?,
                    threshold: field("threshold")?,
                    degraded: flag("degraded")?,
                    attempts: field("attempts")? as usize,
                    rejects: value
                        .get("rejects")
                        .and_then(Value::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect(),
                })
            }
            _ => Err("response carries an unknown \"op\"".to_string()),
        }
    }

    /// Parses raw frame bytes.
    ///
    /// # Errors
    ///
    /// As [`Response::from_json`], plus UTF-8 and JSON syntax errors.
    pub fn from_frame(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        Response::from_json(&json::parse(text)?)
    }
}

/// Serialises a recording for the wire: sample rate plus the six axis
/// tracks. Condition and the simulator's user tag stay server-side
/// concerns — a real client would not know them either.
pub fn recording_to_json(recording: &Recording) -> Value {
    Value::Object(vec![
        (
            "rate".to_string(),
            Value::Number(recording.sample_rate_hz()),
        ),
        (
            "axes".to_string(),
            Value::Array(
                recording
                    .axes()
                    .iter()
                    .map(|axis| Value::Array(axis.iter().map(|&v| Value::Number(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Deserialises a wire recording.
///
/// # Errors
///
/// Returns a message for missing fields, non-numeric samples, or a
/// shape [`Recording::from_parts`] rejects (≠ 6 axes, ragged or empty
/// tracks, non-positive rate).
pub fn recording_from_json(value: &Value) -> Result<Recording, String> {
    let rate = value
        .get("rate")
        .and_then(Value::as_f64)
        .ok_or("recording misses the \"rate\" field")?;
    let axes_json = value
        .get("axes")
        .and_then(Value::as_array)
        .ok_or("recording misses the \"axes\" array")?;
    let mut axes = Vec::with_capacity(axes_json.len());
    for (i, axis) in axes_json.iter().enumerate() {
        let samples = axis
            .as_array()
            .ok_or_else(|| format!("axis {i} is not an array"))?;
        axes.push(
            samples
                .iter()
                .map(|v| match v {
                    // JSON has no NaN; the writer emits `null` for
                    // non-finite samples (faulted sensors produce them)
                    // and the quality gate must still see them as such.
                    Value::Null => Ok(f64::NAN),
                    _ => v
                        .as_f64()
                        .ok_or_else(|| format!("axis {i} holds a non-number")),
                })
                .collect::<Result<Vec<f64>, _>>()?,
        );
    }
    Recording::from_parts(rate, axes, Condition::Normal, 0).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn probe() -> Recording {
        let axes: Vec<Vec<f64>> = (0..6)
            .map(|a| {
                (0..32)
                    .map(|i| ((a * 32 + i) as f64).sin() * 1e-3 + 0.1)
                    .collect()
            })
            .collect();
        Recording::from_parts(1000.0, axes, Condition::Normal, 7).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b""[..])
        );
        // Clean EOF between frames.
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let err = read_frame(&mut Cursor::new(buf), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7); // header + one payload byte
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // EOF inside the header itself is also an error, not a clean close.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0, 0]), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_round_trip_bit_identically() {
        let original = Request::Verify {
            user_id: 42,
            probe: probe(),
        };
        let parsed = Request::from_frame(original.to_json().to_json().as_bytes()).unwrap();
        match (&original, &parsed) {
            (
                Request::Verify {
                    user_id: a,
                    probe: pa,
                },
                Request::Verify {
                    user_id: b,
                    probe: pb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(pa.sample_rate_hz(), pb.sample_rate_hz());
                // Shortest-round-trip f64 text ⇒ bit-identical samples.
                assert_eq!(pa.axes(), pb.axes());
            }
            other => panic!("round trip changed the variant: {other:?}"),
        }
        let multi = Request::VerifyWithPolicy {
            user_id: 3,
            probes: vec![probe(), probe()],
        };
        let parsed = Request::from_frame(multi.to_json().to_json().as_bytes()).unwrap();
        assert!(
            matches!(parsed, Request::VerifyWithPolicy { user_id: 3, ref probes } if probes.len() == 2)
        );
        assert_eq!(
            Request::from_frame(Request::Health.to_json().to_json().as_bytes()).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn non_finite_samples_survive_the_wire_as_nan() {
        // Faulted sensors emit NaN/Inf; JSON writes them as `null`. The
        // reader must restore them as NaN so the server's quality gate
        // sees the same non-finite probe an in-process caller would.
        let mut axes: Vec<Vec<f64>> = (0..6).map(|a| vec![0.1 + a as f64; 8]).collect();
        axes[2][3] = f64::NAN;
        axes[4][5] = f64::INFINITY;
        let faulted = Recording::from_parts(1000.0, axes, Condition::Normal, 7).unwrap();
        let wire = recording_to_json(&faulted).to_json();
        let back = recording_from_json(&json::parse(&wire).unwrap()).unwrap();
        assert!(back.axes()[2][3].is_nan());
        assert!(back.axes()[4][5].is_nan());
        let finite: usize = back
            .axes()
            .iter()
            .map(|a| a.iter().filter(|v| v.is_finite()).count())
            .sum();
        assert_eq!(finite, 6 * 8 - 2);
    }

    #[test]
    fn responses_round_trip() {
        let decision = Response::Decision {
            accepted: true,
            distance: 0.123456789,
            threshold: 0.4,
            degraded: false,
            attempts: 2,
            rejects: vec!["quality:dead_axis".to_string()],
        };
        assert_eq!(
            Response::from_frame(decision.to_json().to_json().as_bytes()).unwrap(),
            decision
        );
        let error = Response::error("not_enrolled", "user 9 has no template");
        assert_eq!(
            Response::from_frame(error.to_json().to_json().as_bytes()).unwrap(),
            error
        );
        // A plain error emits no retry hint on the wire at all.
        assert!(!error.to_json().to_json().contains("retry_after_ms"));
        let shed = Response::overloaded("queue full", 250);
        let wire = shed.to_json().to_json();
        assert!(wire.contains("\"retry_after_ms\":250"), "{wire}");
        assert_eq!(Response::from_frame(wire.as_bytes()).unwrap(), shed);
        let health = Response::Health {
            health: Value::Object(vec![(
                "status".to_string(),
                Value::String("healthy".into()),
            )]),
            enrolled: 4,
        };
        assert_eq!(
            Response::from_frame(health.to_json().to_json().as_bytes()).unwrap(),
            health
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_context_and_counted() {
        // The registry is process-global and the harness runs tests
        // concurrently, so counter assertions use ≥ deltas.
        let malformed = mandipass_telemetry::metrics().counter("serve.frame.malformed");
        let mismatched = mandipass_telemetry::metrics().counter("serve.frame.version_mismatch");
        let (malformed_before, mismatched_before) = (malformed.get(), mismatched.get());
        let mut malformed_docs = 0u64;
        for (doc, needle) in [
            ("{}", "\"v\""),
            ("{\"v\":2,\"op\":\"health\"}", "version"),
            ("{\"v\":1}", "\"op\""),
            ("{\"v\":1,\"op\":\"reboot\"}", "unknown op"),
            ("{\"v\":1,\"op\":\"verify\",\"user\":1.5}", "u32"),
            ("{\"v\":1,\"op\":\"verify\",\"user\":1}", "probe"),
            ("not json", "byte"),
        ] {
            let err = Request::from_frame(doc.as_bytes()).unwrap_err();
            assert!(err.contains(needle), "{doc} → {err}");
            if !needle.contains("version") {
                malformed_docs += 1;
            }
        }
        assert!(
            malformed.get() >= malformed_before + malformed_docs,
            "malformed frames must be counted"
        );
        assert!(
            mismatched.get() > mismatched_before,
            "version mismatches must be counted separately"
        );
    }

    /// A frame of 100 000 nested `[` once overflowed the decoding
    /// thread's stack and aborted the server; it is an ordinary
    /// malformed frame now.
    #[test]
    fn deeply_nested_frames_are_malformed_not_fatal() {
        let malformed = mandipass_telemetry::metrics().counter("serve.frame.malformed");
        let before = malformed.get();
        let frame = "[".repeat(100_000).into_bytes();
        let err = std::thread::spawn(move || Request::from_frame(&frame))
            .join()
            .expect("decoding thread survives")
            .expect_err("depth 100 000 must be rejected");
        assert!(err.contains("nesting"), "{err}");
        assert!(malformed.get() > before, "counted as malformed");
    }

    #[test]
    fn oversized_frames_are_counted() {
        let oversized = mandipass_telemetry::metrics().counter("serve.frame.oversized");
        let before = oversized.get();
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        assert!(read_frame(&mut Cursor::new(buf), 16).is_err());
        assert!(oversized.get() > before);
    }

    #[test]
    fn trace_ids_ride_the_wire_and_absent_ones_stay_absent() {
        let request = Request::Health;
        let traced = with_trace_id(request.to_json(), 0xdead_beef_cafe_f00d);
        let bytes = traced.to_json();
        assert!(bytes.contains("\"trace\":\"deadbeefcafef00d\""), "{bytes}");
        let (parsed, meta) = Request::from_frame_meta(bytes.as_bytes()).unwrap();
        assert_eq!(parsed, Request::Health);
        assert_eq!(meta.trace_id, Some(0xdead_beef_cafe_f00d));
        // An untraced frame parses with no id; an old peer parsing a
        // traced frame (unknown field) still gets the request.
        let (_, meta) = Request::from_frame_meta(request.to_json().to_json().as_bytes()).unwrap();
        assert_eq!(meta.trace_id, None);
        assert_eq!(
            Request::from_frame(bytes.as_bytes()).unwrap(),
            Request::Health
        );
        // A garbled trace id is best-effort metadata, not an error.
        let doc = json::parse("{\"v\":1,\"op\":\"health\",\"trace\":\"zz\"}").unwrap();
        assert_eq!(trace_id_of(&doc), None);
        assert_eq!(Request::from_json(&doc).unwrap(), Request::Health);
        // Responses echo the id the same way.
        let response = Response::error("bad_request", "nope");
        let echoed = with_trace_id(response.to_json(), 7);
        assert_eq!(trace_id_of(&echoed), Some(7));
        assert_eq!(Response::from_json(&echoed).unwrap(), response);
    }

    use mandipass_util::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn traced_frames_with_nan_samples_round_trip(
            trace_id in 0u64..u64::MAX,
            values in proptest::collection::vec(-1e3f64..1e3, 8..64),
            salt in 0u64..1024,
        ) {
            // Lace the samples with non-finite values keyed off their
            // own bit patterns, then push the traced request through a
            // real frame write + read + parse.
            let axes: Vec<Vec<f64>> = (0..6)
                .map(|a| {
                    values
                        .iter()
                        .map(|&v| match (v.to_bits() ^ (salt + a)) % 7 {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            _ => v,
                        })
                        .collect()
                })
                .collect();
            let probe = Recording::from_parts(350.0, axes.clone(), Condition::Normal, 0)
                .unwrap_or_else(|e| panic!("shape is valid: {e}"));
            let request = Request::Verify { user_id: 9, probe };
            let mut wire = Vec::new();
            write_frame(
                &mut wire,
                with_trace_id(request.to_json(), trace_id).to_json().as_bytes(),
            )
            .unwrap_or_else(|e| panic!("write: {e}"));
            let payload = read_frame(&mut Cursor::new(wire), DEFAULT_MAX_FRAME_BYTES)
                .unwrap_or_else(|e| panic!("read: {e}"))
                .unwrap_or_else(|| panic!("frame vanished"));
            let (parsed, meta) = Request::from_frame_meta(&payload)
                .unwrap_or_else(|e| panic!("parse: {e}"));
            prop_assert_eq!(meta.trace_id, Some(trace_id));
            let Request::Verify { user_id, probe } = parsed else {
                panic!("round trip changed the variant");
            };
            prop_assert_eq!(user_id, 9);
            for (axis, original) in probe.axes().iter().zip(&axes) {
                prop_assert_eq!(axis.len(), original.len());
                for (&back, &sent) in axis.iter().zip(original) {
                    // Non-finite samples all become NaN (JSON null);
                    // finite samples come back bit-identical.
                    if sent.is_finite() {
                        prop_assert!(back.to_bits() == sent.to_bits());
                    } else {
                        prop_assert!(back.is_nan());
                    }
                }
            }
        }
    }

    #[test]
    fn deadline_budgets_ride_the_wire_and_garbled_ones_are_ignored() {
        let doc = with_deadline_ms(Request::Health.to_json(), 750);
        let bytes = doc.to_json();
        assert!(bytes.contains("\"deadline_ms\":750"), "{bytes}");
        let (request, meta) = Request::from_frame_meta(bytes.as_bytes()).unwrap();
        assert_eq!(request, Request::Health);
        assert_eq!(meta.deadline_ms, Some(750));
        assert_eq!(meta.trace_id, None);
        // Both envelope fields compose.
        let both = with_trace_id(with_deadline_ms(Request::Health.to_json(), 10), 0xfeed);
        let (_, meta) = Request::from_frame_meta(both.to_json().as_bytes()).unwrap();
        assert_eq!(
            meta,
            FrameMeta {
                trace_id: Some(0xfeed),
                deadline_ms: Some(10),
            }
        );
        // An absent budget parses as None; a garbled one (negative,
        // fractional, non-numeric) is best-effort metadata, not an error.
        let (_, meta) =
            Request::from_frame_meta(Request::Health.to_json().to_json().as_bytes()).unwrap();
        assert_eq!(meta.deadline_ms, None);
        for garbled in [
            "{\"v\":1,\"op\":\"health\",\"deadline_ms\":-5}",
            "{\"v\":1,\"op\":\"health\",\"deadline_ms\":1.5}",
            "{\"v\":1,\"op\":\"health\",\"deadline_ms\":\"soon\"}",
        ] {
            let (request, meta) = Request::from_frame_meta(garbled.as_bytes()).unwrap();
            assert_eq!(request, Request::Health);
            assert_eq!(meta.deadline_ms, None, "{garbled}");
        }
    }

    #[test]
    fn wire_recording_rejects_bad_shapes() {
        let ok = recording_to_json(&probe());
        assert!(recording_from_json(&ok).is_ok());
        let bad = Value::Object(vec![
            ("rate".to_string(), Value::Number(1000.0)),
            ("axes".to_string(), Value::Array(vec![Value::Array(vec![])])),
        ]);
        assert!(recording_from_json(&bad).is_err());
    }
}
