//! Closed-loop load generator for the serving layer, plus the
//! `BENCH_serve.json` schema validator and baseline comparator.
//!
//! N client threads each issue a deterministic per-client stream of
//! mixed traffic — genuine probes, cross-user impostor probes, and
//! fault-injected probes that exercise the retry/degraded policy path —
//! against either the in-process [`VerifyService`] or a TCP
//! [`VerifyServer`](mandipass_serve::VerifyServer) endpoint. Closed loop
//! means one in-flight request per client: the next request only starts
//! when the previous response lands, so sustained QPS and the latency
//! quantiles describe the same steady state.
//!
//! Request *contents* derive only from `(seed, client index, request
//! index)`, never from timing, so the decision tallies of two runs with
//! the same config are bit-identical across transports — the
//! transport-parity check in `exp_serve` and the deterministic shape of
//! `BENCH_serve.json` both rest on this.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mandipass_imu_sim::faults::sweep_profiles;
use mandipass_imu_sim::{Condition, Recorder, UserProfile};
use mandipass_serve::{Request, Response, VerifyClient, VerifyService};
use mandipass_telemetry::{Histogram, Monitor, Registry};
use mandipass_util::json::Value;
use mandipass_util::rand::{rngs::StdRng, Rng, SeedableRng};

/// Schema tag of the serve bench artifact.
pub const BENCH_SERVE_SCHEMA: &str = "mandipass.bench.serve/v1";

/// Traffic composition in whole percent; the three shares must sum
/// to 100 (validated by [`LoadConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMix {
    /// Genuine probes from the claimed user.
    pub genuine_pct: u32,
    /// Probes recorded from a *different* enrolled user.
    pub impostor_pct: u32,
    /// Genuine probes with an injected sensor fault, sent through the
    /// policy path (retry + degraded fallback).
    pub faulty_pct: u32,
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix {
            genuine_pct: 70,
            impostor_pct: 20,
            faulty_pct: 10,
        }
    }
}

/// One load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Traffic composition.
    pub mix: TrafficMix,
    /// Fault intensity (0..=1) for the faulty share.
    pub fault_intensity: f64,
    /// Master seed; every client derives its own stream from it.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 32,
            mix: TrafficMix::default(),
            fault_intensity: 0.75,
            seed: 0x5e12_4e20,
        }
    }
}

impl LoadConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the mix does not sum to 100 % or the
    /// intensity leaves `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let sum = self.mix.genuine_pct + self.mix.impostor_pct + self.mix.faulty_pct;
        if sum != 100 {
            return Err(format!("traffic mix sums to {sum}%, expected 100%"));
        }
        if !(0.0..=1.0).contains(&self.fault_intensity) {
            return Err(format!(
                "fault intensity {} outside [0, 1]",
                self.fault_intensity
            ));
        }
        Ok(())
    }

    fn serialise(&self) -> Value {
        Value::Object(vec![
            ("clients".to_string(), Value::Number(self.clients as f64)),
            (
                "requests_per_client".to_string(),
                Value::Number(self.requests_per_client as f64),
            ),
            (
                "mix".to_string(),
                Value::Object(vec![
                    (
                        "genuine_pct".to_string(),
                        Value::Number(f64::from(self.mix.genuine_pct)),
                    ),
                    (
                        "impostor_pct".to_string(),
                        Value::Number(f64::from(self.mix.impostor_pct)),
                    ),
                    (
                        "faulty_pct".to_string(),
                        Value::Number(f64::from(self.mix.faulty_pct)),
                    ),
                ]),
            ),
            (
                "fault_intensity".to_string(),
                Value::Number(self.fault_intensity),
            ),
            ("seed".to_string(), Value::Number(self.seed as f64)),
        ])
    }
}

/// Where the generated traffic goes.
#[derive(Debug, Clone)]
pub enum LoadTarget<'a> {
    /// Call [`VerifyService::handle`] directly — no sockets, the upper
    /// bound a TCP transport can approach.
    InProcess(&'a Arc<VerifyService>),
    /// Connect one TCP client per thread to a running verify server.
    Tcp(SocketAddr),
}

/// Per-thread outcome tally; summed after join so the totals are
/// deterministic regardless of scheduling.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    accepted: u64,
    rejected: u64,
    degraded: u64,
    exhausted: u64,
    errors: u64,
    genuine: u64,
    genuine_accepted: u64,
    impostor: u64,
    impostor_accepted: u64,
    faulty: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.degraded += other.degraded;
        self.exhausted += other.exhausted;
        self.errors += other.errors;
        self.genuine += other.genuine;
        self.genuine_accepted += other.genuine_accepted;
        self.impostor += other.impostor;
        self.impostor_accepted += other.impostor_accepted;
        self.faulty += other.faulty;
    }
}

/// Latency quantiles of one run, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Mean.
    pub mean: f64,
    /// Slowest observed request.
    pub max: f64,
}

/// The result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The configuration that produced it.
    pub config: LoadConfig,
    /// Wall-clock span from first spawn to last join, seconds.
    pub wall_seconds: f64,
    /// Sustained throughput: completed requests / wall seconds.
    pub qps: f64,
    /// Latency quantiles.
    pub latency: LatencySummary,
    /// Completed requests.
    pub requests: u64,
    /// Accept decisions.
    pub accepted: u64,
    /// Reject decisions (a decision was made, identity denied).
    pub rejected: u64,
    /// Decisions taken in degraded accel-only mode.
    pub degraded: u64,
    /// Policy runs that exhausted every attempt.
    pub exhausted: u64,
    /// Transport or unexpected server errors.
    pub errors: u64,
    /// Per-category request counts and per-category accepts.
    pub genuine: u64,
    /// Genuine requests that were accepted.
    pub genuine_accepted: u64,
    /// Impostor requests issued.
    pub impostor: u64,
    /// Impostor requests that were (wrongly) accepted.
    pub impostor_accepted: u64,
    /// Fault-injected requests issued.
    pub faulty: u64,
    /// The serving deployment's drift-monitor health report at the end
    /// of the run, when the caller handed the monitor over.
    pub monitor: Value,
    /// Trace ids the server echoed back, in client-thread order (empty
    /// for in-process runs, which cannot observe their minted ids).
    pub trace_ids: Vec<u64>,
}

impl LoadReport {
    /// Reject fraction over completed requests (rejected + exhausted).
    pub fn reject_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.rejected + self.exhausted) as f64 / self.requests as f64
        }
    }

    /// Degraded-decision fraction over completed requests.
    pub fn degraded_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.degraded as f64 / self.requests as f64
        }
    }

    /// The decision tallies that must be transport-invariant.
    pub fn decision_signature(&self) -> [u64; 7] {
        [
            self.requests,
            self.accepted,
            self.rejected,
            self.degraded,
            self.exhausted,
            self.genuine_accepted,
            self.impostor_accepted,
        ]
    }

    /// One `BENCH_serve.json` section.
    pub fn to_json(&self) -> Value {
        let num = |v: f64| {
            if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            }
        };
        Value::Object(vec![
            ("requests".to_string(), Value::Number(self.requests as f64)),
            ("wall_seconds".to_string(), num(self.wall_seconds)),
            ("qps".to_string(), num(self.qps)),
            (
                "latency_seconds".to_string(),
                Value::Object(vec![
                    ("p50".to_string(), num(self.latency.p50)),
                    ("p99".to_string(), num(self.latency.p99)),
                    ("p999".to_string(), num(self.latency.p999)),
                    ("mean".to_string(), num(self.latency.mean)),
                    ("max".to_string(), num(self.latency.max)),
                ]),
            ),
            (
                "counts".to_string(),
                Value::Object(
                    [
                        ("accepted", self.accepted),
                        ("rejected", self.rejected),
                        ("degraded", self.degraded),
                        ("exhausted", self.exhausted),
                        ("errors", self.errors),
                        ("genuine", self.genuine),
                        ("genuine_accepted", self.genuine_accepted),
                        ("impostor", self.impostor),
                        ("impostor_accepted", self.impostor_accepted),
                        ("faulty", self.faulty),
                    ]
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Number(v as f64)))
                    .collect(),
                ),
            ),
            (
                "rates".to_string(),
                Value::Object(vec![
                    ("reject".to_string(), num(self.reject_rate())),
                    ("degraded".to_string(), num(self.degraded_rate())),
                ]),
            ),
            ("monitor".to_string(), self.monitor.clone()),
        ])
    }
}

/// What one client thread does with a prepared request.
enum Caller<'a> {
    InProcess(&'a VerifyService),
    Tcp(Box<VerifyClient>),
}

impl Caller<'_> {
    /// Issues one request. TCP calls ride [`VerifyClient::call_traced`]
    /// so the echoed trace id comes back with the response; in-process
    /// calls mint and commit their trace inside `handle` and return no
    /// id (there is no wire to echo it on).
    fn call(&mut self, request: &Request) -> (Result<Response, String>, Option<u64>) {
        match self {
            Caller::InProcess(service) => (Ok(service.handle(request)), None),
            Caller::Tcp(client) => match client.call_traced(request, None) {
                Ok((response, echoed)) => (Ok(response), echoed),
                Err(e) => (Err(e.to_string()), None),
            },
        }
    }
}

/// Traffic category of one planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedKind {
    /// Genuine probe from the claimed user.
    Genuine,
    /// Probe recorded from a different enrolled user.
    Impostor,
    /// Fault-injected genuine probe through the policy path.
    Faulty,
}

/// Draws one request from the traffic mix — the single source of
/// request *contents* for both the closed-loop and open-loop
/// generators, so their plans are interchangeable given the same RNG
/// stream.
fn plan_mixed(
    rng: &mut StdRng,
    users: &[UserProfile],
    recorder: &Recorder,
    mix: TrafficMix,
    fault_intensity: f64,
) -> (Request, PlannedKind) {
    let draw = rng.gen_range(0..100u32);
    let user_idx = rng.gen_range(0..users.len());
    let probe_seed = rng.next_u64();
    let user = &users[user_idx];
    if draw < mix.genuine_pct {
        let probe = recorder.record(user, Condition::Normal, probe_seed);
        (
            Request::Verify {
                user_id: user.id,
                probe,
            },
            PlannedKind::Genuine,
        )
    } else if draw < mix.genuine_pct + mix.impostor_pct && users.len() > 1 {
        let offset = 1 + rng.gen_range(0..users.len() - 1);
        let other = &users[(user_idx + offset) % users.len()];
        let probe = recorder.record(other, Condition::Normal, probe_seed);
        (
            Request::Verify {
                user_id: user.id,
                probe,
            },
            PlannedKind::Impostor,
        )
    } else {
        let profiles = sweep_profiles(fault_intensity);
        let profile = &profiles[rng.gen_range(0..profiles.len())];
        let clean = recorder.record(user, Condition::Normal, probe_seed);
        // One fault-injected probe plus one clean retry.
        let probes = vec![
            profile.apply(&clean, probe_seed),
            recorder.record(user, Condition::Normal, probe_seed ^ 0xDEAD_BEEF),
        ];
        (
            Request::VerifyWithPolicy {
                user_id: user.id,
                probes,
            },
            PlannedKind::Faulty,
        )
    }
}

/// The deterministic request plan for `(client, index)`.
fn plan_request(
    rng: &mut StdRng,
    users: &[UserProfile],
    recorder: &Recorder,
    config: &LoadConfig,
    tally: &mut Tally,
) -> (Request, bool, bool) {
    // Returns (request, is_genuine, is_impostor); faulty = neither flag.
    let (request, kind) = plan_mixed(rng, users, recorder, config.mix, config.fault_intensity);
    match kind {
        PlannedKind::Genuine => tally.genuine += 1,
        PlannedKind::Impostor => tally.impostor += 1,
        PlannedKind::Faulty => tally.faulty += 1,
    }
    (
        request,
        kind == PlannedKind::Genuine,
        kind == PlannedKind::Impostor,
    )
}

/// The deterministic request plan for open-loop request `index`: a pure
/// function of `(seed, index)`, independent of any thread's issue
/// order, so the open-loop run and the closed-loop parity run plan
/// byte-identical requests per index.
pub fn plan_indexed_request(
    seed: u64,
    index: usize,
    users: &[UserProfile],
    recorder: &Recorder,
    mix: TrafficMix,
    fault_intensity: f64,
) -> (Request, PlannedKind) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    plan_mixed(&mut rng, users, recorder, mix, fault_intensity)
}

/// A stable, bit-exact signature of one service outcome: decisions
/// carry their accept/degraded flags, attempt count, and the distance's
/// exact bit pattern; typed errors carry their kind. Two transports (or
/// an open-loop and a closed-loop run) serving the same request must
/// produce equal signatures — util JSON round-trips f64 exactly.
pub fn outcome_signature(response: &Response) -> String {
    match response {
        Response::Decision {
            accepted,
            degraded,
            attempts,
            distance,
            ..
        } => format!(
            "d:{}:{}:{}:{:016x}",
            u8::from(*accepted),
            u8::from(*degraded),
            attempts,
            distance.to_bits()
        ),
        Response::Error { kind, .. } => format!("e:{kind}"),
        Response::Health { .. } => "h".to_string(),
    }
}

fn score_response(
    response: &Result<Response, String>,
    genuine: bool,
    impostor: bool,
    tally: &mut Tally,
) {
    tally.requests += 1;
    match response {
        Ok(Response::Decision {
            accepted, degraded, ..
        }) => {
            if *accepted {
                tally.accepted += 1;
                if genuine {
                    tally.genuine_accepted += 1;
                }
                if impostor {
                    tally.impostor_accepted += 1;
                }
            } else {
                tally.rejected += 1;
            }
            if *degraded {
                tally.degraded += 1;
            }
        }
        Ok(Response::Error { kind, .. }) if kind == "retries_exhausted" => tally.exhausted += 1,
        // Pipeline rejects on hostile probes (e.g. undetectable
        // vibration) are decisions of a kind too; anything else —
        // transport failures, bad_request — is an error.
        Ok(Response::Error { kind, .. })
            if kind != "bad_request" && kind != "not_enrolled" && kind != "unknown" =>
        {
            tally.exhausted += 1
        }
        _ => tally.errors += 1,
    }
}

/// Runs one closed-loop load generation against `target`.
///
/// `users` are the enrolled identities (probe material comes from
/// `recorder`); `monitor`, when given, contributes the end-of-run
/// health verdict to the report.
///
/// # Panics
///
/// Panics when `config` fails [`LoadConfig::validate`] or `users` is
/// empty — both are harness-construction bugs, not runtime states.
pub fn run_load(
    target: &LoadTarget<'_>,
    users: &[UserProfile],
    recorder: &Recorder,
    config: &LoadConfig,
    monitor: Option<&Monitor>,
) -> LoadReport {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid load config: {e}"));
    assert!(!users.is_empty(), "load generation needs enrolled users");
    // A private registry so repeated runs in one process do not blur
    // each other's quantiles.
    let histogram = Registry::new().histogram("serve.load_latency_seconds");
    let started = Instant::now();
    let tallies: Vec<(Tally, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|client_idx| {
                let histogram: Histogram = histogram.clone();
                scope.spawn(move || {
                    let mut caller = match target {
                        LoadTarget::InProcess(service) => Caller::InProcess(service.as_ref()),
                        LoadTarget::Tcp(addr) => Caller::Tcp(Box::new(
                            VerifyClient::connect(*addr)
                                .unwrap_or_else(|e| panic!("load client connect: {e}")),
                        )),
                    };
                    let mut rng =
                        StdRng::seed_from_u64(config.seed.wrapping_add(
                            (client_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        ));
                    let mut tally = Tally::default();
                    let mut echoed_ids = Vec::new();
                    for _ in 0..config.requests_per_client {
                        let (request, genuine, impostor) =
                            plan_request(&mut rng, users, recorder, config, &mut tally);
                        let sent = Instant::now();
                        let (response, echoed) = caller.call(&request);
                        histogram.observe(sent.elapsed().as_secs_f64());
                        score_response(&response, genuine, impostor, &mut tally);
                        if let Some(id) = echoed {
                            echoed_ids.push(id);
                        }
                    }
                    (tally, echoed_ids)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic!("load client panicked")))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let mut total = Tally::default();
    let mut trace_ids = Vec::new();
    for (t, ids) in &tallies {
        total.add(t);
        trace_ids.extend_from_slice(ids);
    }
    LoadReport {
        config: config.clone(),
        wall_seconds,
        qps: total.requests as f64 / wall_seconds,
        latency: LatencySummary {
            p50: histogram.quantile(0.5),
            p99: histogram.quantile(0.99),
            p999: histogram.quantile(0.999),
            mean: histogram.mean(),
            max: histogram.max(),
        },
        requests: total.requests,
        accepted: total.accepted,
        rejected: total.rejected,
        degraded: total.degraded,
        exhausted: total.exhausted,
        errors: total.errors,
        genuine: total.genuine,
        genuine_accepted: total.genuine_accepted,
        impostor: total.impostor,
        impostor_accepted: total.impostor_accepted,
        faulty: total.faulty,
        monitor: monitor.map_or(Value::Null, |m| m.health().to_json()),
        trace_ids,
    }
}

/// The latency-attribution report for the traces a monitor sampled
/// during a load run: per-stage p50/p99/mean/max over the queue-wait /
/// decode / verify / write taxonomy plus the `top_k` slowest traces in
/// full. A thin re-export of
/// [`mandipass_telemetry::attribution_report`] so bench binaries do not
/// reach into the telemetry crate directly.
pub fn trace_attribution(monitor: &Monitor, top_k: usize) -> Value {
    mandipass_telemetry::attribution_report(&monitor.traces(), top_k)
}

/// Assembles the full schema-versioned `BENCH_serve.json` document from
/// the two transport runs.
pub fn bench_serve_document(
    scale_description: &str,
    config: &LoadConfig,
    workers: usize,
    in_process: &LoadReport,
    tcp: &LoadReport,
) -> Value {
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String(BENCH_SERVE_SCHEMA.to_string()),
        ),
        (
            "scale".to_string(),
            Value::String(scale_description.to_string()),
        ),
        ("config".to_string(), config.serialise()),
        ("workers".to_string(), Value::Number(workers as f64)),
        ("in_process".to_string(), in_process.to_json()),
        ("tcp".to_string(), tcp.to_json()),
    ])
}

fn get_num(doc: &Value, path: &[&str]) -> Result<f64, String> {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("missing field \"{}\"", path.join(".")))?;
    }
    node.as_f64()
        .ok_or_else(|| format!("field \"{}\" is not a number", path.join(".")))
}

fn validate_section(doc: &Value, section: &str) -> Result<(), String> {
    let sec = doc
        .get(section)
        .ok_or_else(|| format!("missing section \"{section}\""))?;
    let requests = get_num(sec, &["requests"])?;
    if requests <= 0.0 {
        return Err(format!("{section}: zero requests completed"));
    }
    let qps = get_num(sec, &["qps"])?;
    if qps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(format!("{section}: qps {qps} not positive"));
    }
    let p50 = get_num(sec, &["latency_seconds", "p50"])?;
    let p99 = get_num(sec, &["latency_seconds", "p99"])?;
    let p999 = get_num(sec, &["latency_seconds", "p999"])?;
    if !(p50 > 0.0 && p50 <= p99 && p99 <= p999) {
        return Err(format!(
            "{section}: latency quantiles disordered (p50 {p50}, p99 {p99}, p999 {p999})"
        ));
    }
    for counter in [
        "accepted",
        "rejected",
        "degraded",
        "exhausted",
        "errors",
        "genuine",
        "impostor",
        "faulty",
    ] {
        let v = get_num(sec, &["counts", counter])?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!(
                "{section}: count \"{counter}\" = {v} is not a non-negative integer"
            ));
        }
    }
    for rate in ["reject", "degraded"] {
        let v = get_num(sec, &["rates", rate])?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{section}: rate \"{rate}\" = {v} outside [0, 1]"));
        }
    }
    let errors = get_num(sec, &["counts", "errors"])?;
    if errors > 0.0 {
        return Err(format!("{section}: {errors} transport/protocol errors"));
    }
    sec.get("monitor")
        .and_then(|m| m.get("status"))
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{section}: missing monitor.status"))?;
    Ok(())
}

/// Validates one `BENCH_serve.json` document against the v1 schema.
///
/// # Errors
///
/// Returns the first violated constraint, with its field path.
pub fn validate_bench_serve(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" tag")?;
    if schema != BENCH_SERVE_SCHEMA {
        return Err(format!(
            "schema \"{schema}\" is not \"{BENCH_SERVE_SCHEMA}\""
        ));
    }
    doc.get("scale")
        .and_then(Value::as_str)
        .ok_or("missing \"scale\" description")?;
    for field in ["clients", "requests_per_client", "seed", "fault_intensity"] {
        get_num(doc, &["config", field])?;
    }
    let workers = get_num(doc, &["workers"])?;
    if workers < 1.0 {
        return Err(format!("workers {workers} < 1"));
    }
    validate_section(doc, "in_process")?;
    validate_section(doc, "tcp")?;
    Ok(())
}

/// Compares a fresh document against a committed baseline and fails on
/// regressions beyond the given ratios: p99 latency may grow to at most
/// `max_p99_ratio`× the baseline, QPS may shrink to no less than
/// `min_qps_ratio`× the baseline. Both sections are gated.
///
/// # Errors
///
/// Returns every violated gate, one per line.
pub fn compare_bench_serve(
    fresh: &Value,
    baseline: &Value,
    max_p99_ratio: f64,
    min_qps_ratio: f64,
) -> Result<(), String> {
    let mut violations = Vec::new();
    for section in ["in_process", "tcp"] {
        let fresh_p99 = get_num(fresh, &[section, "latency_seconds", "p99"])?;
        let base_p99 = get_num(baseline, &[section, "latency_seconds", "p99"])?;
        if fresh_p99 > base_p99 * max_p99_ratio {
            violations.push(format!(
                "{section}: p99 {fresh_p99:.6}s exceeds {max_p99_ratio}x baseline {base_p99:.6}s"
            ));
        }
        let fresh_qps = get_num(fresh, &[section, "qps"])?;
        let base_qps = get_num(baseline, &[section, "qps"])?;
        if fresh_qps < base_qps * min_qps_ratio {
            violations.push(format!(
                "{section}: qps {fresh_qps:.1} below {min_qps_ratio}x baseline {base_qps:.1}"
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Hot-path bench document: per-extract forward latency of the naive
// tensor-per-layer oracle vs the zero-alloc im2col+GEMM fast path, with
// parity and arena steady-state facts. The speedup gate compares the
// FRESH document's own same-run ratio against a floor, so the gate is
// machine-independent (both numerator and denominator come from the
// same binary on the same box in the same run).
// ---------------------------------------------------------------------

/// Schema tag of the hot-path bench artifact.
pub const BENCH_HOTPATH_SCHEMA: &str = "mandipass.bench.hotpath/v1";

/// Validates one `BENCH_hotpath.json` document against the v1 schema.
///
/// # Errors
///
/// Returns the first violated constraint, with its field path.
pub fn validate_bench_hotpath(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" tag")?;
    if schema != BENCH_HOTPATH_SCHEMA {
        return Err(format!(
            "schema \"{schema}\" is not \"{BENCH_HOTPATH_SCHEMA}\""
        ));
    }
    doc.get("scale")
        .and_then(Value::as_str)
        .ok_or("missing \"scale\" description")?;
    for field in ["iters", "batch"] {
        if get_num(doc, &[field])? < 1.0 {
            return Err(format!("{field} must be at least 1"));
        }
    }
    for field in ["naive", "fast", "batched_per_probe"] {
        let v = get_num(doc, &["per_extract_seconds", field])?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("per_extract_seconds.{field} {v} not positive"));
        }
    }
    for field in ["fast", "batched"] {
        let v = get_num(doc, &["speedup", field])?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("speedup.{field} {v} not positive"));
        }
    }
    match doc.get("parity").and_then(|p| p.get("fast_bitwise")) {
        Some(Value::Bool(_)) => {}
        _ => return Err("missing parity.fast_bitwise bool".to_string()),
    }
    for field in ["steady_growth_events", "high_water_bytes", "pooled_buffers"] {
        if get_num(doc, &["arena", field])? < 0.0 {
            return Err(format!("arena.{field} negative"));
        }
    }
    for field in ["im2col_mean_ns", "gemm_mean_ns", "bias_act_mean_ns"] {
        get_num(doc, &["stages", field])?;
    }
    Ok(())
}

/// Gates a fresh hot-path document: its own same-run fast-path speedup
/// must reach `min_speedup`× the naive oracle, and must not fall below
/// `min_vs_baseline`× the baseline document's speedup (a ratio of
/// ratios, so still machine-independent). Parity and the steady-state
/// zero-allocation claim are hard gates, not ratios.
///
/// # Errors
///
/// Returns every violated gate, one per line.
pub fn compare_bench_hotpath(
    fresh: &Value,
    baseline: &Value,
    min_speedup: f64,
    min_vs_baseline: f64,
) -> Result<(), String> {
    let mut violations = Vec::new();
    let fresh_speedup = get_num(fresh, &["speedup", "fast"])?;
    if fresh_speedup < min_speedup {
        violations.push(format!(
            "fast-path speedup {fresh_speedup:.2}x below the {min_speedup}x floor"
        ));
    }
    let base_speedup = get_num(baseline, &["speedup", "fast"])?;
    if fresh_speedup < base_speedup * min_vs_baseline {
        violations.push(format!(
            "fast-path speedup {fresh_speedup:.2}x below {min_vs_baseline}x baseline {base_speedup:.2}x"
        ));
    }
    if fresh.get("parity").and_then(|p| p.get("fast_bitwise")) != Some(&Value::Bool(true)) {
        violations.push("fast path lost bit-exact parity with the naive oracle".to_string());
    }
    let growth = get_num(fresh, &["arena", "steady_growth_events"])?;
    if growth != 0.0 {
        violations.push(format!(
            "arena grew {growth} times in the steady-state window (zero-alloc claim broken)"
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Open-loop (arrival-rate-driven) generation and the overload bench
// document. A closed-loop generator can never overload a server — each
// client waits for its answer, so offered load self-throttles to
// capacity. The open-loop generator fires request `i` at time
// `start + i / rate` regardless of outstanding responses, which is the
// only way to drive offered load past capacity and observe the shed
// path, the bounded queue, and saturated tail latency.
// ---------------------------------------------------------------------

/// Schema tag of the overload bench artifact.
pub const BENCH_OVERLOAD_SCHEMA: &str = "mandipass.bench.overload/v1";

/// One open-loop run: `total_requests` arrivals at `rate_per_sec`,
/// issued by `senders` threads (thread `s` owns indices `i ≡ s mod
/// senders`), one fresh connection per request.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Total arrivals.
    pub total_requests: usize,
    /// Sender threads; must comfortably exceed `rate × per-request
    /// latency` or the offered rate degrades toward closed-loop.
    pub senders: usize,
    /// Traffic composition.
    pub mix: TrafficMix,
    /// Fault intensity for the faulty share.
    pub fault_intensity: f64,
    /// Master seed; request `i` derives from `(seed, i)` only.
    pub seed: u64,
    /// Optional per-request `deadline_ms` budget.
    pub deadline_ms: Option<u64>,
}

/// What happened to one open-loop request.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenOutcome {
    /// The server dispatched it; the signature is
    /// [`outcome_signature`] of the response.
    Served {
        /// Bit-exact outcome signature for parity checks.
        signature: String,
    },
    /// The server shed it with a typed error (`overloaded`,
    /// `deadline_exceeded`, or `shutting_down`).
    Shed {
        /// The error kind.
        kind: String,
    },
    /// The transport failed — a hang-up, reset, or timeout. The
    /// overload acceptance gate requires zero of these: overload must
    /// surface as typed sheds, never as connection failures.
    Transport {
        /// The I/O error text.
        error: String,
    },
}

/// The result of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Configured arrival rate.
    pub offered_rate: f64,
    /// Completed arrivals / wall time — sags below `offered_rate` when
    /// senders cannot keep up.
    pub achieved_rate: f64,
    /// Wall-clock seconds, first arrival to last response.
    pub wall_seconds: f64,
    /// Requests that got a dispatched (served) response.
    pub served: u64,
    /// Requests shed with a typed `overloaded`.
    pub shed_overloaded: u64,
    /// Requests shed with a typed `deadline_exceeded`.
    pub shed_deadline: u64,
    /// Requests shed with a typed `shutting_down`.
    pub shed_shutdown: u64,
    /// Transport failures (must be zero under the acceptance gate).
    pub transport_errors: u64,
    /// Served responses / wall seconds — the goodput the overload chart
    /// plots against offered load.
    pub goodput: f64,
    /// Latency quantiles of *served* requests only (connect + round
    /// trip); sheds answer fast and would flatter the tail.
    pub latency: LatencySummary,
    /// Per-index outcomes, `outcomes[i]` for request `i`.
    pub outcomes: Vec<OpenOutcome>,
}

impl OpenLoopReport {
    /// Served + shed + failed — always `total_requests`.
    pub fn total(&self) -> u64 {
        self.served
            + self.shed_overloaded
            + self.shed_deadline
            + self.shed_shutdown
            + self.transport_errors
    }

    /// One sweep-point JSON section.
    pub fn to_json(&self) -> Value {
        let num = |v: f64| {
            if v.is_finite() {
                Value::Number(v)
            } else {
                Value::Null
            }
        };
        Value::Object(vec![
            ("offered_rate".to_string(), num(self.offered_rate)),
            ("achieved_rate".to_string(), num(self.achieved_rate)),
            ("wall_seconds".to_string(), num(self.wall_seconds)),
            ("total".to_string(), Value::Number(self.total() as f64)),
            ("served".to_string(), Value::Number(self.served as f64)),
            (
                "shed".to_string(),
                Value::Object(vec![
                    (
                        "overloaded".to_string(),
                        Value::Number(self.shed_overloaded as f64),
                    ),
                    (
                        "deadline".to_string(),
                        Value::Number(self.shed_deadline as f64),
                    ),
                    (
                        "shutting_down".to_string(),
                        Value::Number(self.shed_shutdown as f64),
                    ),
                ]),
            ),
            (
                "transport_errors".to_string(),
                Value::Number(self.transport_errors as f64),
            ),
            ("goodput".to_string(), num(self.goodput)),
            (
                "latency_seconds".to_string(),
                Value::Object(vec![
                    ("p50".to_string(), num(self.latency.p50)),
                    ("p99".to_string(), num(self.latency.p99)),
                    ("mean".to_string(), num(self.latency.mean)),
                    ("max".to_string(), num(self.latency.max)),
                ]),
            ),
        ])
    }
}

/// Issues one pre-serialized request frame on a fresh connection and
/// classifies the reply.
fn open_loop_call(
    addr: SocketAddr,
    frame: &[u8],
    max_frame_bytes: usize,
) -> Result<Response, String> {
    use mandipass_serve::protocol;
    let mut stream = std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    protocol::write_frame(&mut stream, frame).map_err(|e| format!("write: {e}"))?;
    let payload = protocol::read_frame(&mut stream, max_frame_bytes)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "server closed before answering".to_string())?;
    Response::from_frame(&payload).map_err(|e| format!("parse: {e}"))
}

/// Runs one open-loop generation against a TCP endpoint.
///
/// All request frames are planned and serialized *before* the clock
/// starts, so the send loop does no probe synthesis and the offered
/// rate is real. Request `i`'s contents depend only on `(seed, i)` —
/// identical to what [`plan_indexed_request`] returns — which is what
/// the admitted-decision parity check in `exp_overload` compares
/// against.
///
/// # Panics
///
/// Panics on nonsensical configs (zero rate or requests) — harness
/// construction bugs.
pub fn run_open_loop(
    addr: SocketAddr,
    users: &[UserProfile],
    recorder: &Recorder,
    config: &OpenLoopConfig,
) -> OpenLoopReport {
    use mandipass_serve::with_deadline_ms;
    assert!(
        config.rate_per_sec > 0.0 && config.total_requests > 0,
        "open-loop config needs a positive rate and request count"
    );
    assert!(
        !users.is_empty(),
        "open-loop generation needs enrolled users"
    );
    let max_frame_bytes = 1 << 24;
    // Plan phase (off the clock): serialize every frame up front.
    let frames: Vec<Vec<u8>> = (0..config.total_requests)
        .map(|i| {
            let (request, _) = plan_indexed_request(
                config.seed,
                i,
                users,
                recorder,
                config.mix,
                config.fault_intensity,
            );
            let mut doc = request.to_json();
            if let Some(ms) = config.deadline_ms {
                doc = with_deadline_ms(doc, ms);
            }
            doc.to_json().into_bytes()
        })
        .collect();
    let histogram = Registry::new().histogram("serve.open_loop_latency_seconds");
    let senders = config.senders.max(1);
    let started = Instant::now();
    let per_thread: Vec<Vec<(usize, OpenOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let frames = &frames;
                let histogram = histogram.clone();
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut index = s;
                    while index < frames.len() {
                        // Open loop: arrival i is due at start + i/rate;
                        // sleep if early, fire immediately if late.
                        let due = started
                            + std::time::Duration::from_secs_f64(
                                index as f64 / config.rate_per_sec,
                            );
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let outcome = match open_loop_call(addr, &frames[index], max_frame_bytes) {
                            Ok(Response::Error { kind, .. })
                                if kind == "overloaded"
                                    || kind == "deadline_exceeded"
                                    || kind == "shutting_down" =>
                            {
                                OpenOutcome::Shed { kind }
                            }
                            Ok(response) => {
                                histogram.observe(sent.elapsed().as_secs_f64());
                                OpenOutcome::Served {
                                    signature: outcome_signature(&response),
                                }
                            }
                            Err(error) => OpenOutcome::Transport { error },
                        };
                        outcomes.push((index, outcome));
                        index += senders;
                    }
                    outcomes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("open-loop sender panicked"))
            })
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
    let mut indexed: Vec<(usize, OpenOutcome)> = per_thread.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _)| *i);
    let outcomes: Vec<OpenOutcome> = indexed.into_iter().map(|(_, o)| o).collect();
    let mut served = 0u64;
    let (mut shed_overloaded, mut shed_deadline, mut shed_shutdown) = (0u64, 0u64, 0u64);
    let mut transport_errors = 0u64;
    for outcome in &outcomes {
        match outcome {
            OpenOutcome::Served { .. } => served += 1,
            OpenOutcome::Shed { kind } => match kind.as_str() {
                "overloaded" => shed_overloaded += 1,
                "deadline_exceeded" => shed_deadline += 1,
                _ => shed_shutdown += 1,
            },
            OpenOutcome::Transport { .. } => transport_errors += 1,
        }
    }
    OpenLoopReport {
        offered_rate: config.rate_per_sec,
        achieved_rate: outcomes.len() as f64 / wall_seconds,
        wall_seconds,
        served,
        shed_overloaded,
        shed_deadline,
        shed_shutdown,
        transport_errors,
        goodput: served as f64 / wall_seconds,
        latency: LatencySummary {
            p50: histogram.quantile(0.5),
            p99: histogram.quantile(0.99),
            p999: histogram.quantile(0.999),
            mean: histogram.mean(),
            max: histogram.max(),
        },
        outcomes,
    }
}

/// Validates one `BENCH_overload.json` document against the v1 schema,
/// including the overload acceptance gates: saturation ≥ 2× capacity,
/// zero transport errors, admitted p99 within 5× the unsaturated p99,
/// zero parity mismatches, and a drill that opened, recovered, and
/// repeated identically.
///
/// # Errors
///
/// Returns the first violated constraint, with its field path.
pub fn validate_bench_overload(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" tag")?;
    if schema != BENCH_OVERLOAD_SCHEMA {
        return Err(format!(
            "schema \"{schema}\" is not \"{BENCH_OVERLOAD_SCHEMA}\""
        ));
    }
    doc.get("scale")
        .and_then(Value::as_str)
        .ok_or("missing \"scale\" description")?;
    get_num(doc, &["seed"])?;
    let capacity_qps = get_num(doc, &["capacity", "qps"])?;
    let capacity_p99 = get_num(doc, &["capacity", "p99_seconds"])?;
    if capacity_qps <= 0.0 || capacity_p99 <= 0.0 {
        return Err(format!(
            "capacity not positive (qps {capacity_qps}, p99 {capacity_p99})"
        ));
    }
    let sweep = match doc.get("sweep") {
        Some(Value::Array(points)) if !points.is_empty() => points,
        _ => return Err("missing or empty \"sweep\" array".to_string()),
    };
    for (i, point) in sweep.iter().enumerate() {
        for field in ["offered_rate", "goodput", "served", "total"] {
            get_num(point, &[field]).map_err(|e| format!("sweep[{i}]: {e}"))?;
        }
    }
    let saturation = get_num(doc, &["overload", "saturation_ratio"])?;
    if saturation < 2.0 {
        return Err(format!(
            "overload.saturation_ratio {saturation:.2} < 2.0: offered load did not reach 2x capacity"
        ));
    }
    let transport = get_num(doc, &["overload", "transport_errors"])?;
    if transport != 0.0 {
        return Err(format!(
            "overload.transport_errors = {transport}: sheds must be typed replies, not hang-ups"
        ));
    }
    let served = get_num(doc, &["overload", "served"])?;
    if served <= 0.0 {
        return Err("overload.served = 0: saturation starved every request".to_string());
    }
    let shed = get_num(doc, &["overload", "shed", "overloaded"])?;
    if shed <= 0.0 {
        return Err(
            "overload.shed.overloaded = 0: 2x offered load never hit the queue bound".to_string(),
        );
    }
    let p99_ratio = get_num(doc, &["overload", "p99_ratio_vs_unsaturated"])?;
    if p99_ratio > 5.0 {
        return Err(format!(
            "overload.p99_ratio_vs_unsaturated {p99_ratio:.2} > 5: the bounded queue failed to cap tail latency"
        ));
    }
    let parity_checked = get_num(doc, &["overload", "parity_checked"])?;
    let parity_mismatches = get_num(doc, &["overload", "parity_mismatches"])?;
    if parity_checked <= 0.0 {
        return Err("overload.parity_checked = 0: no admitted request was compared".to_string());
    }
    if parity_mismatches != 0.0 {
        return Err(format!(
            "overload.parity_mismatches = {parity_mismatches}: admitted decisions drifted from the closed-loop run"
        ));
    }
    let transitions = match doc.get("drill").and_then(|d| d.get("transitions")) {
        Some(Value::Array(t)) => t,
        _ => return Err("missing drill.transitions array".to_string()),
    };
    let labels: Vec<&str> = transitions.iter().filter_map(Value::as_str).collect();
    if !labels.iter().any(|l| l.contains("->open:")) {
        return Err(format!("drill never opened the breaker: {labels:?}"));
    }
    if !labels
        .iter()
        .any(|l| l.contains("->closed:probes_recovered"))
    {
        return Err(format!("drill never recovered the breaker: {labels:?}"));
    }
    match doc.get("drill").and_then(|d| d.get("runs_identical")) {
        Some(Value::Bool(true)) => {}
        other => {
            return Err(format!(
                "drill.runs_identical is {other:?}: two same-seed drills must match exactly"
            ))
        }
    }
    Ok(())
}

/// Compares a fresh overload document against a committed baseline:
/// goodput under saturation may shrink to no less than
/// `min_goodput_ratio`× the baseline's, and saturated p99 may grow to
/// at most `max_p99_ratio`× the baseline's.
///
/// # Errors
///
/// Returns every violated gate, one per line.
pub fn compare_bench_overload(
    fresh: &Value,
    baseline: &Value,
    max_p99_ratio: f64,
    min_goodput_ratio: f64,
) -> Result<(), String> {
    let mut violations = Vec::new();
    let fresh_goodput = get_num(fresh, &["overload", "goodput"])?;
    let base_goodput = get_num(baseline, &["overload", "goodput"])?;
    if fresh_goodput < base_goodput * min_goodput_ratio {
        violations.push(format!(
            "overload: goodput {fresh_goodput:.1} below {min_goodput_ratio}x baseline {base_goodput:.1}"
        ));
    }
    let fresh_p99 = get_num(fresh, &["overload", "latency_seconds", "p99"])?;
    let base_p99 = get_num(baseline, &["overload", "latency_seconds", "p99"])?;
    if fresh_p99 > base_p99 * max_p99_ratio {
        violations.push(format!(
            "overload: saturated p99 {fresh_p99:.6}s exceeds {max_p99_ratio}x baseline {base_p99:.6}s"
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Trace bench artifact: schema validation and the baseline gate for
// `BENCH_trace.json` (produced by `exp_trace`), closing the loop that
// previously left the trace artifact written but ungated in CI.
// ---------------------------------------------------------------------

/// Schema tag of the trace bench artifact.
pub const BENCH_TRACE_SCHEMA: &str = "mandipass.bench.trace/v1";

/// Stages every trace document must attribute (queue_wait is sparse by
/// design — only queued requests record it — so it is not required).
const TRACE_REQUIRED_STAGES: [&str; 4] = ["total", "decode", "verify", "write"];

/// Validates one `BENCH_trace.json` document against the v1 schema:
/// the tag, a positive request count, per-stage attribution with
/// ordered quantiles for every required stage, and every acceptance
/// check recorded as passing.
///
/// # Errors
///
/// Returns the first violated constraint, with its field path.
pub fn validate_bench_trace(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" tag")?;
    if schema != BENCH_TRACE_SCHEMA {
        return Err(format!(
            "schema \"{schema}\" is not \"{BENCH_TRACE_SCHEMA}\""
        ));
    }
    doc.get("scale")
        .and_then(Value::as_str)
        .ok_or("missing \"scale\" description")?;
    let requests = get_num(doc, &["requests"])?;
    if requests < 1.0 || requests.fract() != 0.0 {
        return Err(format!("requests {requests} is not a positive integer"));
    }
    let trace_count = get_num(doc, &["attribution", "trace_count"])?;
    if trace_count < 1.0 {
        return Err("attribution.trace_count is zero — nothing was traced".to_string());
    }
    for stage in TRACE_REQUIRED_STAGES {
        let count = get_num(doc, &["attribution", "stages", stage, "count"])?;
        if count < 1.0 {
            return Err(format!("attribution stage \"{stage}\" has zero samples"));
        }
        let p50 = get_num(doc, &["attribution", "stages", stage, "p50_nanos"])?;
        let p99 = get_num(doc, &["attribution", "stages", stage, "p99_nanos"])?;
        if !(p50 >= 0.0 && p50 <= p99) {
            return Err(format!(
                "attribution stage \"{stage}\": quantiles disordered (p50 {p50}, p99 {p99})"
            ));
        }
    }
    match doc.get("checks") {
        Some(Value::Object(checks)) if !checks.is_empty() => {
            for (name, value) in checks {
                if value.as_bool() != Some(true) {
                    return Err(format!("acceptance check \"{name}\" did not pass"));
                }
            }
        }
        _ => return Err("missing \"checks\" section".to_string()),
    }
    Ok(())
}

/// Compares a fresh trace document against a committed baseline:
/// verify-stage and end-to-end p99 attribution may grow to at most
/// `max_p99_ratio`× the baseline, and the fresh run must cover at least
/// `min_requests_ratio`× the baseline's requests (a shrunken run would
/// make the latency gate meaningless).
///
/// # Errors
///
/// Returns every violated gate, one per line.
pub fn compare_bench_trace(
    fresh: &Value,
    baseline: &Value,
    max_p99_ratio: f64,
    min_requests_ratio: f64,
) -> Result<(), String> {
    let mut violations = Vec::new();
    for stage in ["verify", "total"] {
        let fresh_p99 = get_num(fresh, &["attribution", "stages", stage, "p99_nanos"])?;
        let base_p99 = get_num(baseline, &["attribution", "stages", stage, "p99_nanos"])?;
        if fresh_p99 > base_p99 * max_p99_ratio {
            violations.push(format!(
                "attribution.{stage}: p99 {fresh_p99:.0}ns exceeds {max_p99_ratio}x baseline {base_p99:.0}ns"
            ));
        }
    }
    let fresh_requests = get_num(fresh, &["requests"])?;
    let base_requests = get_num(baseline, &["requests"])?;
    if fresh_requests < base_requests * min_requests_ratio {
        violations.push(format!(
            "requests {fresh_requests} below {min_requests_ratio}x baseline {base_requests}"
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(qps: f64, p99: f64) -> LoadReport {
        LoadReport {
            config: LoadConfig::default(),
            wall_seconds: 1.0,
            qps,
            latency: LatencySummary {
                p50: p99 / 2.0,
                p99,
                p999: p99 * 1.5,
                mean: p99 / 2.0,
                max: p99 * 2.0,
            },
            requests: 128,
            accepted: 80,
            rejected: 40,
            degraded: 4,
            exhausted: 8,
            errors: 0,
            genuine: 90,
            genuine_accepted: 78,
            impostor: 26,
            impostor_accepted: 2,
            faulty: 12,
            monitor: Value::Object(vec![(
                "status".to_string(),
                Value::String("healthy".to_string()),
            )]),
            trace_ids: Vec::new(),
        }
    }

    #[test]
    fn attribution_of_an_idle_monitor_is_empty_but_well_formed() {
        let monitor = Monitor::default();
        let report = trace_attribution(&monitor, 5);
        assert_eq!(report.get("trace_count").and_then(Value::as_f64), Some(0.0));
        assert!(matches!(report.get("slowest"), Some(Value::Array(a)) if a.is_empty()));
    }

    fn fake_doc(qps: f64, p99: f64) -> Value {
        bench_serve_document(
            "test scale",
            &LoadConfig::default(),
            4,
            &fake_report(qps, p99),
            &fake_report(qps * 0.8, p99 * 1.2),
        )
    }

    #[test]
    fn document_round_trips_and_validates() {
        let doc = fake_doc(500.0, 0.010);
        let text = doc.to_json();
        let parsed = mandipass_util::json::parse(&text).unwrap();
        validate_bench_serve(&parsed).unwrap();
    }

    #[test]
    fn validator_names_the_violated_field() {
        let mut doc = fake_doc(500.0, 0.010);
        if let Value::Object(members) = &mut doc {
            members.retain(|(k, _)| k != "tcp");
        }
        let err = validate_bench_serve(&doc).unwrap_err();
        assert!(err.contains("tcp"), "{err}");

        let bad_schema = Value::Object(vec![(
            "schema".to_string(),
            Value::String("something/v9".to_string()),
        )]);
        assert!(validate_bench_serve(&bad_schema)
            .unwrap_err()
            .contains("v9"));
    }

    #[test]
    fn validator_rejects_disordered_quantiles_and_errors() {
        let mut report = fake_report(100.0, 0.01);
        report.latency.p999 = report.latency.p50 / 2.0;
        let doc = bench_serve_document("s", &LoadConfig::default(), 2, &report, &report);
        assert!(validate_bench_serve(&doc)
            .unwrap_err()
            .contains("disordered"));

        let mut report = fake_report(100.0, 0.01);
        report.errors = 3;
        let doc = bench_serve_document("s", &LoadConfig::default(), 2, &report, &report);
        assert!(validate_bench_serve(&doc).unwrap_err().contains("errors"));
    }

    #[test]
    fn comparator_gates_p99_and_qps() {
        let baseline = fake_doc(1000.0, 0.010);
        // Healthy: same perf passes with generous ratios.
        compare_bench_serve(&fake_doc(1000.0, 0.010), &baseline, 2.0, 0.5).unwrap();
        // Slightly worse but inside the envelope passes.
        compare_bench_serve(&fake_doc(600.0, 0.018), &baseline, 2.0, 0.5).unwrap();
        // p99 blow-up fails and is named.
        let err = compare_bench_serve(&fake_doc(1000.0, 0.050), &baseline, 2.0, 0.5).unwrap_err();
        assert!(err.contains("p99"), "{err}");
        // QPS collapse fails.
        let err = compare_bench_serve(&fake_doc(100.0, 0.010), &baseline, 2.0, 0.5).unwrap_err();
        assert!(err.contains("qps"), "{err}");
    }

    #[test]
    fn mix_must_sum_to_one_hundred() {
        let mut config = LoadConfig::default();
        config.mix.genuine_pct = 50;
        assert!(config.validate().unwrap_err().contains("mix"));
        assert!(LoadConfig::default().validate().is_ok());
    }

    #[test]
    fn reject_and_degraded_rates_are_fractions_of_requests() {
        let report = fake_report(100.0, 0.01);
        assert!((report.reject_rate() - 48.0 / 128.0).abs() < 1e-12);
        assert!((report.degraded_rate() - 4.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn indexed_plans_are_deterministic_and_index_local() {
        let population = mandipass_imu_sim::Population::generate(3, 0xbeef);
        let users = population.users();
        let recorder = Recorder::default();
        let mix = TrafficMix::default();
        for index in [0usize, 1, 7, 63] {
            let (a, ka) = plan_indexed_request(42, index, users, &recorder, mix, 0.5);
            let (b, kb) = plan_indexed_request(42, index, users, &recorder, mix, 0.5);
            assert_eq!(ka, kb, "plan kind must be a pure function of (seed, index)");
            assert_eq!(
                a.to_json().to_json(),
                b.to_json().to_json(),
                "request {index} must serialize identically across plans"
            );
        }
        let (a, _) = plan_indexed_request(42, 5, users, &recorder, mix, 0.5);
        let (b, _) = plan_indexed_request(43, 5, users, &recorder, mix, 0.5);
        assert_ne!(
            a.to_json().to_json(),
            b.to_json().to_json(),
            "different seeds must alter the stream"
        );
    }

    #[test]
    fn outcome_signatures_distinguish_decisions_errors_and_health() {
        let decision = Response::Decision {
            accepted: true,
            distance: 0.25,
            threshold: 0.5,
            degraded: false,
            attempts: 1,
            rejects: Vec::new(),
        };
        let sig = outcome_signature(&decision);
        assert!(sig.starts_with("d:1:0:1:"), "{sig}");
        let error = Response::error("overloaded", "queue full");
        assert_eq!(outcome_signature(&error), "e:overloaded");
        let health = Response::Health {
            health: Value::Object(Vec::new()),
            enrolled: 0,
        };
        assert_eq!(outcome_signature(&health), "h");
    }

    fn fake_overload_doc() -> Value {
        let point = |rate: f64, served: f64, shed: f64| {
            Value::Object(vec![
                ("offered_rate".to_string(), Value::Number(rate)),
                ("achieved_rate".to_string(), Value::Number(rate)),
                ("wall_seconds".to_string(), Value::Number(1.0)),
                ("total".to_string(), Value::Number(served + shed)),
                ("served".to_string(), Value::Number(served)),
                (
                    "shed".to_string(),
                    Value::Object(vec![
                        ("overloaded".to_string(), Value::Number(shed)),
                        ("deadline".to_string(), Value::Number(0.0)),
                        ("shutting_down".to_string(), Value::Number(0.0)),
                    ]),
                ),
                ("transport_errors".to_string(), Value::Number(0.0)),
                ("goodput".to_string(), Value::Number(served)),
                (
                    "latency_seconds".to_string(),
                    Value::Object(vec![
                        ("p50".to_string(), Value::Number(0.002)),
                        ("p99".to_string(), Value::Number(0.008)),
                        ("mean".to_string(), Value::Number(0.003)),
                        ("max".to_string(), Value::Number(0.02)),
                    ]),
                ),
            ])
        };
        let mut overload = match point(440.0, 180.0, 260.0) {
            Value::Object(fields) => fields,
            _ => unreachable!(),
        };
        overload.push(("saturation_ratio".to_string(), Value::Number(2.2)));
        overload.push(("p99_ratio_vs_unsaturated".to_string(), Value::Number(1.6)));
        overload.push(("parity_checked".to_string(), Value::Number(180.0)));
        overload.push(("parity_mismatches".to_string(), Value::Number(0.0)));
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::String(BENCH_OVERLOAD_SCHEMA.to_string()),
            ),
            ("scale".to_string(), Value::String("test".to_string())),
            ("seed".to_string(), Value::Number(7.0)),
            (
                "capacity".to_string(),
                Value::Object(vec![
                    ("qps".to_string(), Value::Number(200.0)),
                    ("p99_seconds".to_string(), Value::Number(0.005)),
                ]),
            ),
            (
                "sweep".to_string(),
                Value::Array(vec![point(160.0, 160.0, 0.0), point(440.0, 180.0, 260.0)]),
            ),
            ("overload".to_string(), Value::Object(overload)),
            (
                "drill".to_string(),
                Value::Object(vec![
                    (
                        "transitions".to_string(),
                        Value::Array(vec![
                            Value::String("closed->open:error_rate".to_string()),
                            Value::String("open->half_open:machine".to_string()),
                            Value::String("half_open->closed:probes_recovered".to_string()),
                        ]),
                    ),
                    ("runs_identical".to_string(), Value::Bool(true)),
                ]),
            ),
        ])
    }

    fn patch(doc: &Value, path: &[&str], value: Value) -> Value {
        match doc {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        if k == path[0] {
                            if path.len() == 1 {
                                (k.clone(), value.clone())
                            } else {
                                (k.clone(), patch(v, &path[1..], value.clone()))
                            }
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn overload_document_round_trips_and_validates() {
        let doc = fake_overload_doc();
        let parsed = mandipass_util::json::parse(&doc.to_json()).unwrap();
        validate_bench_overload(&parsed).unwrap();
    }

    #[test]
    fn overload_validator_enforces_every_acceptance_gate() {
        let doc = fake_overload_doc();
        let cases: Vec<(&[&str], Value, &str)> = vec![
            (
                &["overload", "saturation_ratio"],
                Value::Number(1.5),
                "saturation",
            ),
            (
                &["overload", "transport_errors"],
                Value::Number(2.0),
                "transport",
            ),
            (
                &["overload", "p99_ratio_vs_unsaturated"],
                Value::Number(9.0),
                "p99_ratio",
            ),
            (
                &["overload", "parity_mismatches"],
                Value::Number(1.0),
                "parity",
            ),
            (
                &["overload", "shed", "overloaded"],
                Value::Number(0.0),
                "queue bound",
            ),
            (
                &["drill", "runs_identical"],
                Value::Bool(false),
                "identical",
            ),
            (
                &["drill", "transitions"],
                Value::Array(vec![Value::String("closed->open:error_rate".to_string())]),
                "recovered",
            ),
        ];
        for (path, value, needle) in cases {
            let err = validate_bench_overload(&patch(&doc, path, value)).unwrap_err();
            assert!(err.contains(needle), "{path:?}: {err}");
        }
        let err = validate_bench_overload(&patch(
            &doc,
            &["schema"],
            Value::String("mandipass.bench.overload/v9".to_string()),
        ))
        .unwrap_err();
        assert!(err.contains("v9"), "{err}");
    }

    #[test]
    fn overload_comparator_gates_goodput_and_saturated_p99() {
        let baseline = fake_overload_doc();
        compare_bench_overload(&baseline, &baseline, 2.0, 0.5).unwrap();
        let slow = patch(
            &baseline,
            &["overload", "latency_seconds", "p99"],
            Value::Number(0.1),
        );
        assert!(compare_bench_overload(&slow, &baseline, 2.0, 0.5)
            .unwrap_err()
            .contains("p99"));
        let starved = patch(&baseline, &["overload", "goodput"], Value::Number(10.0));
        assert!(compare_bench_overload(&starved, &baseline, 2.0, 0.5)
            .unwrap_err()
            .contains("goodput"));
    }

    fn fake_trace_doc() -> Value {
        let stage = |count: f64, p50: f64, p99: f64| {
            Value::Object(vec![
                ("count".to_string(), Value::Number(count)),
                ("p50_nanos".to_string(), Value::Number(p50)),
                ("p99_nanos".to_string(), Value::Number(p99)),
                ("mean_nanos".to_string(), Value::Number(p50)),
                ("max_nanos".to_string(), Value::Number(p99 * 1.2)),
            ])
        };
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::String(BENCH_TRACE_SCHEMA.to_string()),
            ),
            (
                "scale".to_string(),
                Value::String("4 clients x 16 requests".to_string()),
            ),
            ("requests".to_string(), Value::Number(64.0)),
            ("echoed_ids".to_string(), Value::Number(64.0)),
            (
                "attribution".to_string(),
                Value::Object(vec![
                    ("trace_count".to_string(), Value::Number(66.0)),
                    (
                        "stages".to_string(),
                        Value::Object(vec![
                            ("total".to_string(), stage(66.0, 3.5e7, 4.8e7)),
                            ("queue_wait".to_string(), stage(5.0, 4.0e6, 1.2e7)),
                            ("decode".to_string(), stage(66.0, 8.5e4, 1.7e5)),
                            ("verify".to_string(), stage(66.0, 3.2e7, 4.1e7)),
                            ("write".to_string(), stage(66.0, 3.1e6, 1.3e7)),
                        ]),
                    ),
                    ("slowest".to_string(), Value::Array(Vec::new())),
                ]),
            ),
            (
                "checks".to_string(),
                Value::Object(vec![
                    ("stage_sums_within_total".to_string(), Value::Bool(true)),
                    ("sampling_bit_identical".to_string(), Value::Bool(true)),
                ]),
            ),
        ])
    }

    #[test]
    fn trace_validator_accepts_the_real_shape_and_names_failures() {
        let doc = fake_trace_doc();
        validate_bench_trace(&doc).unwrap_or_else(|e| panic!("{e}"));
        let wrong_schema = patch(&doc, &["schema"], Value::String("v9".to_string()));
        assert!(validate_bench_trace(&wrong_schema)
            .unwrap_err()
            .contains("v9"));
        let no_traces = patch(&doc, &["attribution", "trace_count"], Value::Number(0.0));
        assert!(validate_bench_trace(&no_traces)
            .unwrap_err()
            .contains("trace_count"));
        let disordered = patch(
            &doc,
            &["attribution", "stages", "verify", "p50_nanos"],
            Value::Number(9.9e7),
        );
        assert!(validate_bench_trace(&disordered)
            .unwrap_err()
            .contains("disordered"));
        let failed_check = patch(
            &doc,
            &["checks", "sampling_bit_identical"],
            Value::Bool(false),
        );
        assert!(validate_bench_trace(&failed_check)
            .unwrap_err()
            .contains("sampling_bit_identical"));
    }

    #[test]
    fn trace_comparator_gates_verify_p99_and_request_coverage() {
        let baseline = fake_trace_doc();
        compare_bench_trace(&baseline, &baseline, 2.0, 0.5).unwrap_or_else(|e| panic!("{e}"));
        let slow = patch(
            &baseline,
            &["attribution", "stages", "verify", "p99_nanos"],
            Value::Number(9.0e7),
        );
        assert!(compare_bench_trace(&slow, &baseline, 2.0, 0.5)
            .unwrap_err()
            .contains("verify"));
        let shrunk = patch(&baseline, &["requests"], Value::Number(8.0));
        assert!(compare_bench_trace(&shrunk, &baseline, 2.0, 0.5)
            .unwrap_err()
            .contains("requests"));
    }
}
