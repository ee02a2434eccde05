//! The TCP workloads: `unlock_512` (single-probe `verify`) and
//! `policy_512` (three-probe `verify_policy`), served by the verify
//! server over loopback at the paper's 512-d configuration.
//!
//! One process generates all load. Server workers, client threads and
//! persistent connections each number the usable cores. Each run is an
//! open loop at two fixed offered rates (`low`, `high`) and a
//! closed-loop saturation phase, interleaved in rounds; every request
//! is planned and serialised before the clock starts.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mandipass::prelude::*;
use mandipass_imu_sim::faults::sweep_profiles;
use mandipass_imu_sim::{Condition, Recorder, UserProfile};
use mandipass_serve::protocol::{self, DEFAULT_MAX_FRAME_BYTES};
use mandipass_serve::{BreakerConfig, Request, Response, ServeConfig, VerifyServer, VerifyService};
use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::{Rng, SeedableRng};

use crate::deploy::{self, elapsed_ns};
use crate::layers::{self, Decomposer, ExtraSamples, PolicyWalk};
use crate::openloop::{self, Sample};
use crate::report::Report;
use crate::stats::{median_of, Summary};
use crate::trace::Tracer;
use crate::Args;

/// One TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// `verify_policy` with three probes (else single-probe `verify`).
    pub policy: bool,
    /// Offered rate of the `low` phase, requests/s (about 30 % of the
    /// capacity measured when the benchmark was defined).
    pub low_rate: f64,
    /// Offered rate of the `high` phase (about 75 % of that capacity).
    pub high_rate: f64,
}

/// Single-probe unlocks: the template transform is most of the service
/// time.
pub const UNLOCK_512: Spec = Spec {
    name: "unlock_512",
    policy: false,
    low_rate: 50.0,
    high_rate: 125.0,
};

/// Policy traffic: three probes per request, about half with a
/// fault-injected first probe, exercising the quality gate, the batched
/// forward, and the degraded fallback on top of the template transform.
pub const POLICY_512: Spec = Spec {
    name: "policy_512",
    policy: true,
    low_rate: 48.0,
    high_rate: 120.0,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Latency limit of `slo_ok.high`, from due time to decision; well
/// under the paper's 1 s response time.
const SLO_MS: f64 = 100.0;
/// Distinct requests planned per run; the phases issue them in order
/// and start over when they run out.
const DISTINCT: usize = 1200;
/// Every this-many-th distinct request is replayed in process to check
/// its TCP decisions.
const REPLAY_STRIDE: usize = 3;
/// Requests the traced run decomposes layer by layer.
const DECOMPOSED: usize = 150;
/// Share of genuine requests; the rest claim an enrolled user's
/// identity with another enrolled user's probe.
const GENUINE_SHARE: f64 = 0.7;
/// Share of policy requests whose first probe carries a sensor fault.
const FAULTY_SHARE: f64 = 0.5;
/// Probes per policy request.
const POLICY_PROBES: u64 = 3;
/// Rounds the measured time is split into. Each round runs a `low`
/// block, a `high` block and a saturation block, so every metric
/// samples the whole run rather than one window of it: the speed of a
/// shared machine drifts over seconds.
const ROUNDS: usize = 5;
/// Untimed warm-up requests per connection, part of set-up.
const WARMUP_PER_CONNECTION: usize = 8;
/// Client-side reply timeout; a timeout counts as a failed request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Plan phases, mixed into the request seed.
const PHASE_WARMUP: u64 = 1;
const PHASE_MEASURED: u64 = 2;

/// One planned request: its serialised frame and ground truth.
struct Planned {
    frame: Vec<u8>,
    genuine: bool,
}

/// A reply reduced to what parity compares: decisions bit for bit,
/// errors by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reply {
    Decision {
        accepted: bool,
        degraded: bool,
        attempts: usize,
        distance_bits: u64,
    },
    /// A typed biometric outcome without a decision (e.g. every probe
    /// rejected) — an answer, not a failure.
    Rejected(String),
    /// Transport error, timeout, shed or service error.
    Failed(String),
}

impl Reply {
    fn of(response: Result<Response, String>) -> Reply {
        match response {
            Ok(Response::Decision {
                accepted,
                degraded,
                attempts,
                distance,
                ..
            }) => Reply::Decision {
                accepted,
                degraded,
                attempts,
                distance_bits: distance.to_bits(),
            },
            Ok(Response::Error { kind, .. }) if !SERVICE_FAILURES.contains(&kind.as_str()) => {
                Reply::Rejected(kind)
            }
            Ok(Response::Error { kind, .. }) => Reply::Failed(kind),
            Ok(Response::Health { .. }) => Reply::Failed("unexpected health reply".to_string()),
            Err(e) => Reply::Failed(e),
        }
    }

    fn failed(&self) -> bool {
        matches!(self, Reply::Failed(_))
    }

    fn accepted(&self) -> bool {
        matches!(self, Reply::Decision { accepted: true, .. })
    }
}

/// Error kinds that mean the service did not judge the request.
const SERVICE_FAILURES: [&str; 7] = [
    "overloaded",
    "shutting_down",
    "deadline_exceeded",
    "degraded_only",
    "bad_request",
    "not_enrolled",
    "unknown",
];

/// One persistent client connection.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let mut conn = Conn { addr, stream: None };
        // A failed connect is retried by the first call.
        let _ = conn.stream();
        conn
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, CLIENT_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one frame and returns the reply frame; any error drops the
    /// connection so the next call reconnects.
    fn roundtrip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        let result = self.stream().and_then(|stream| {
            protocol::write_frame(stream, frame)?;
            protocol::read_frame(stream, DEFAULT_MAX_FRAME_BYTES)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })
        });
        result.map_err(|e| {
            self.stream = None;
            e.to_string()
        })
    }

    fn call(&mut self, frame: &[u8]) -> Reply {
        Reply::of(self.roundtrip(frame).and_then(|f| Response::from_frame(&f)))
    }
}

/// A set-up deployment behind a bound server.
struct Deployment {
    service: Arc<VerifyService>,
    server: VerifyServer,
    extractor: BiometricExtractor,
    cohort: Vec<UserProfile>,
    recorder: Recorder,
    enroll_ns: Vec<u64>,
}

impl Deployment {
    fn connections(&self, n: usize) -> Vec<Conn> {
        (0..n)
            .map(|_| Conn::open(self.server.local_addr()))
            .collect()
    }
}

/// Train, enrol, calibrate, bind, warm up.
fn setup(spec: &Spec, cores: usize) -> Deployment {
    let trained = deploy::train();
    let mut service = VerifyService::with_breaker(
        trained.system,
        VerifyPolicy::default(),
        // The drift-coupled breaker would answer plain `verify` with
        // `degraded_only` once impostor traffic moves the distance
        // distribution; the benchmark measures the verify path itself.
        BreakerConfig::disabled(),
    );
    let enroll_ns =
        deploy::enrol_cohort(&trained.cohort, &trained.recorder, |user, recs, matrix| {
            service
                .enroll(user.id, recs, matrix)
                .expect("cohort enrols");
        });
    let threshold = deploy::calibrate(service.system(), &trained.cohort, &trained.recorder);
    service.system_mut().config_mut().threshold = threshold;
    let service = Arc::new(service);
    let config = ServeConfig {
        workers: cores,
        ..ServeConfig::default()
    };
    let server = VerifyServer::bind(Arc::clone(&service), "127.0.0.1:0", config)
        .expect("bind loopback server");
    let deployment = Deployment {
        service,
        server,
        extractor: trained.extractor,
        cohort: trained.cohort,
        recorder: trained.recorder,
        enroll_ns,
    };
    let warmup = plan(
        spec,
        &deployment,
        0,
        PHASE_WARMUP,
        WARMUP_PER_CONNECTION * cores,
        cores,
    );
    let replies = open_phase(
        &mut deployment.connections(cores),
        &warmup,
        0,
        warmup.len(),
        f64::INFINITY,
    );
    assert!(
        replies.iter().all(|s| !s.result.failed()),
        "warm-up requests fail"
    );
    deployment
}

/// A deterministic per-request generator for `(seed, phase, index)`.
fn request_rng(seed: u64, phase: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (phase << 56)
            ^ (index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

fn plan_one(
    spec: &Spec,
    cohort: &[UserProfile],
    recorder: &Recorder,
    seed: u64,
    phase: u64,
    index: usize,
) -> Planned {
    let mut rng = request_rng(seed, phase, index);
    let genuine = rng.gen_bool(GENUINE_SHARE);
    let claimed = rng.gen_range(0..cohort.len());
    let source = if genuine {
        claimed
    } else {
        (claimed + 1 + rng.gen_range(0..cohort.len() - 1)) % cohort.len()
    };
    let probe_seed = rng.next_u64();
    let user = cohort[claimed].id;
    let record =
        |k: u64| recorder.record(&cohort[source], Condition::Normal, probe_seed ^ (k << 40));
    let request = if spec.policy {
        let mut probes: Vec<_> = (0..POLICY_PROBES).map(record).collect();
        if rng.gen_bool(FAULTY_SHARE) {
            let profiles = sweep_profiles(1.0);
            let profile = &profiles[rng.gen_range(0..profiles.len())];
            probes[0] = profile.apply(&probes[0], probe_seed);
        }
        Request::VerifyWithPolicy {
            user_id: user,
            probes,
        }
    } else {
        Request::Verify {
            user_id: user,
            probe: record(0),
        }
    };
    Planned {
        frame: request.to_json().to_json().into_bytes(),
        genuine,
    }
}

/// Plans `count` requests of `phase` on `threads` threads.
fn plan(
    spec: &Spec,
    d: &Deployment,
    seed: u64,
    phase: u64,
    count: usize,
    threads: usize,
) -> Vec<Planned> {
    let chunk = count.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = (0..count)
            .step_by(chunk)
            .map(|from| {
                scope.spawn(move || {
                    (from..(from + chunk).min(count))
                        .map(|i| plan_one(spec, &d.cohort, &d.recorder, seed, phase, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("planning thread panicked"))
            .collect()
    })
}

/// Issues `count` requests open loop at `rate` over `conns`, starting
/// at pool index `first` and wrapping around the pool. Sample indices
/// are pool indices.
fn open_phase(
    conns: &mut [Conn],
    pool: &[Planned],
    first: usize,
    count: usize,
    rate: f64,
) -> Vec<Sample<Reply>> {
    let mut samples = openloop::run(conns, &openloop::schedule(count, rate), |c, i, _| {
        c.call(&pool[(first + i) % pool.len()].frame)
    });
    for s in &mut samples {
        s.index = (first + s.index) % pool.len();
    }
    samples
}

fn latency_ms(samples: &[Sample<Reply>]) -> Summary {
    Summary::new(
        samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect(),
    )
}

/// Accept share of genuine (`genuine = true`) or impostor requests
/// among `issued` (pool index, reply) pairs, and its n.
fn accept_share(pool: &[Planned], issued: &[(usize, &Reply)], genuine: bool) -> (f64, usize) {
    let (hits, n) = issued
        .iter()
        .filter(|(i, _)| pool[*i].genuine == genuine)
        .fold((0usize, 0usize), |(h, n), (_, r)| {
            (h + usize::from(r.accepted()), n + 1)
        });
    (hits as f64 / n.max(1) as f64, n)
}

/// The end-to-end run.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) {
    let cores = deploy::cores();
    let mut setups = Vec::new();
    let mut enroll_ns = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous deployment (and its server) first.
        drop(deployment.take());
        let start = Instant::now();
        let d = setup(spec, cores);
        setups.push(start.elapsed().as_secs_f64());
        enroll_ns.extend(d.enroll_ns.iter().map(|&ns| ns as f64));
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");

    let phase = args.seconds * 0.3;
    let saturation = args.seconds * 0.4;
    let block = |rate: f64| (rate * phase / ROUNDS as f64).round().max(1.0) as usize;
    let (n_low, n_high) = (block(spec.low_rate), block(spec.high_rate));
    let sat_block = Duration::from_secs_f64(saturation / ROUNDS as f64);
    let pool = plan(spec, &d, args.seed, PHASE_MEASURED, DISTINCT, cores);

    let (mut low, mut high, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    // Closed-loop throughput of each saturation block: the metric is
    // their median, so one block hit by a stall of the shared machine
    // does not move it.
    let mut sat_rates = Vec::new();
    let mut next = 0;
    let mut conns = d.connections(cores);
    for _ in 0..ROUNDS {
        low.extend(open_phase(&mut conns, &pool, next, n_low, spec.low_rate));
        high.extend(open_phase(
            &mut conns,
            &pool,
            next + n_low,
            n_high,
            spec.high_rate,
        ));
        next += n_low + n_high;
        let (replies, elapsed) = openloop::closed(&mut conns, sat_block, |c, i| {
            c.call(&pool[(next + i) % pool.len()].frame)
        });
        let ok = replies.iter().filter(|r| !r.failed()).count();
        sat_rates.push(ok as f64 / elapsed.as_secs_f64());
        let first = next;
        next += replies.len();
        sat.extend(
            replies
                .into_iter()
                .enumerate()
                .map(|(i, r)| ((first + i) % pool.len(), r)),
        );
    }
    drop(conns);
    let rss = deploy::rss_mib();

    let open: Vec<(usize, &Reply)> = low
        .iter()
        .chain(&high)
        .map(|s| (s.index, &s.result))
        .collect();
    let all: Vec<(usize, &Reply)> = open
        .iter()
        .copied()
        .chain(sat.iter().map(|(i, r)| (*i, r)))
        .collect();
    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|(_, r)| r.failed()).count() as u64;

    let replay = parity(&d, cores, &pool, REPLAY_STRIDE, &all);
    report.check(
        "tcp_matches_in_process",
        replay.mismatches == 0,
        format!(
            "{} of {} TCP replies differ from an in-process replay of {} distinct requests",
            replay.mismatches, replay.compared, replay.replayed
        ),
    );
    let (gar, genuine_n) = accept_share(&pool, &open, true);
    let (far, impostor_n) = accept_share(&pool, &open, false);
    report.check(
        "impostors_accepted_less",
        far < gar,
        format!("far {far:.4} (n={impostor_n}) < gar {gar:.4} (n={genuine_n})"),
    );

    let slo = Duration::from_secs_f64(SLO_MS / 1e3);
    let slo_ok = high
        .iter()
        .filter(|s| !s.result.failed() && s.latency <= slo)
        .count() as f64
        / high.len() as f64;

    report.note(format!(
        "{}: {cores} cores -> {cores} server workers, {cores} client threads and connections; \
         {ROUNDS} rounds of low {} req/s x {:.2}s, high {} req/s x {:.2}s, saturation {:.2}s; \
         {} distinct requests, reused cyclically",
        spec.name,
        spec.low_rate,
        phase / ROUNDS as f64,
        spec.high_rate,
        phase / ROUNDS as f64,
        sat_block.as_secs_f64(),
        pool.len()
    ));
    report.note(format!(
        "set-up runs: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let late = Summary::new(high.iter().map(|s| s.late.as_secs_f64() * 1e3).collect());
    report.unbounded("generator lateness at high", late.tail(), "ms");
    report.metric(
        "setup_s",
        median_of(&setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    let (low_ms, high_ms) = (latency_ms(&low), latency_ms(&high));
    report.figure("p50_ms.low", low_ms.median(), "ms");
    report.unbounded("p50_ms.high", high_ms.median(), "ms");
    report.note(format!(
        "slo_ok.high = {slo_ok:.4}: decided within {SLO_MS} ms of due, n={}",
        high.len()
    ));
    report.metric(
        "throughput_ops",
        median_of(&sat_rates),
        "ops/s",
        format!(
            "median of {ROUNDS} closed-loop blocks of {:.2}s, {} requests",
            sat_block.as_secs_f64(),
            sat.len()
        ),
    );
    let enroll = Summary::new(enroll_ns.iter().map(|ns| ns / 1e6).collect());
    report.unbounded("tail_ms.low", low_ms.tail(), "ms");
    report.unbounded("tail_ms.high", high_ms.tail(), "ms");
    report.unbounded("enroll_p50_ms (set-up enrolments)", enroll.median(), "ms");
    report.unbounded("enroll_tail_ms (set-up enrolments)", enroll.tail(), "ms");
    report.metric(
        "gar",
        gar,
        "ratio",
        format!("low+high phases, n={genuine_n}"),
    );
    report.metric("rss_mib", rss, "MiB", "VmRSS after the measured phases");
}

struct Parity {
    replayed: usize,
    compared: usize,
    mismatches: usize,
}

/// Replays every `stride`-th distinct request in process, from the
/// frame the server received, and compares the decision with every TCP
/// reply to that request.
fn parity(
    d: &Deployment,
    threads: usize,
    pool: &[Planned],
    stride: usize,
    issued: &[(usize, &Reply)],
) -> Parity {
    let mut by_request: BTreeMap<usize, Vec<&Reply>> = BTreeMap::new();
    for &(i, reply) in issued {
        if i % stride == 0 && !reply.failed() {
            by_request.entry(i).or_default().push(reply);
        }
    }
    let picked: Vec<(&usize, &Vec<&Reply>)> = by_request.iter().collect();
    let chunk = picked.len().div_ceil(threads.max(1)).max(1);
    let mismatches: usize = std::thread::scope(|scope| {
        picked
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(&i, tcp)| {
                            let local = Reply::of(
                                Request::from_frame(&pool[i].frame).map(|r| d.service.handle(&r)),
                            );
                            tcp.iter().filter(|&&r| *r != local).count()
                        })
                        .sum::<usize>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .sum()
    });
    Parity {
        replayed: picked.len(),
        compared: picked.iter().map(|(_, r)| r.len()).sum(),
        mismatches,
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced(spec: &Spec, args: &Args, report: &mut Report) -> Tracer {
    let cores = deploy::cores();
    let d = setup(spec, cores);
    let phase_s = args.seconds * 0.3;
    let count = |rate: f64| (rate * phase_s).round().max(1.0) as usize;
    let (n_low, n_high) = (count(spec.low_rate), count(spec.high_rate));
    let pool = plan(spec, &d, args.seed, PHASE_MEASURED, DISTINCT, cores);

    // Untraced, then traced, over the same requests: the difference is
    // the tracing overhead.
    let untraced = latency_ms(&open_phase(
        &mut d.connections(cores),
        &pool,
        0,
        n_low,
        spec.low_rate,
    ));
    let epoch = Instant::now();
    let traced_low = traced_phase(&d, cores, &pool, 0, n_low, spec.low_rate, epoch);
    let traced_high = traced_phase(&d, cores, &pool, n_low, n_high, spec.high_rate, epoch);
    let traced = latency_ms(&traced_low.0);
    let mut loadgen = traced_low.1;
    loadgen.absorb(traced_high.1);
    let late = Summary::new(
        traced_high
            .0
            .iter()
            .map(|s| s.late.as_secs_f64() * 1e3)
            .collect(),
    );
    report.attempted = (traced_low.0.len() + traced_high.0.len()) as u64;
    report.failed = traced_low
        .0
        .iter()
        .chain(&traced_high.0)
        .filter(|s| s.result.failed())
        .count() as u64;

    let mut tracer = Tracer::new(epoch);
    let mut decomposer = Decomposer::new(d.service.system(), &d.extractor);
    let mut conn = Conn::open(d.server.local_addr());
    let mut uncovered = BTreeSet::new();
    let mut transport_us = Vec::new();
    let mut frame_bytes = Vec::new();
    let mut mismatches = 0usize;
    for (i, planned) in pool.iter().take(DECOMPOSED).enumerate() {
        let rid = (1 << 40) + i as u64;
        let outcome = decompose(&d, &mut conn, &mut decomposer, &mut tracer, rid, planned);
        frame_bytes.push(planned.frame.len() as f64);
        transport_us.push((outcome.roundtrip_ns as f64 - outcome.handle_ns as f64) / 1e3);
        match outcome.verdict {
            Verdict::Reproduced => {}
            Verdict::Unreproduced => {
                uncovered.insert(rid);
            }
            Verdict::Mismatch(why) => {
                uncovered.insert(rid);
                mismatches += 1;
                report.note(format!("request {i}: {why}"));
            }
        }
    }
    drop(conn);
    report.check(
        "decomposition_reproduces",
        mismatches == 0,
        format!(
            "{} requests decomposed, {} not replayable (degraded fallback), {mismatches} mismatched",
            DECOMPOSED.min(pool.len()),
            uncovered.len() - mismatches
        ),
    );

    let decided: Vec<(usize, &Reply)> = traced_low.0.iter().map(|s| (s.index, &s.result)).collect();
    let extra = ExtraSamples {
        transport_us,
        frame_bytes,
        enroll_us: d.enroll_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
        storage_bytes: d.service.system().enclave().storage_bytes() as f64,
        late_ms: late,
        overhead: (traced.median().value, untraced.median().value),
        impostor_accept: accept_share(&pool, &decided, false),
    };
    layers::metrics(report, &tracer, &decomposer.counts, &uncovered, &extra);
    tracer.absorb(loadgen);
    tracer
}

/// [`open_phase`] with spans: `loadgen.request` from due time to reply,
/// around `server.roundtrip` and `protocol.response_decode`. Request
/// ids are the position in the run.
fn traced_phase(
    d: &Deployment,
    cores: usize,
    pool: &[Planned],
    first: usize,
    count: usize,
    rate: f64,
    epoch: Instant,
) -> (Vec<Sample<Reply>>, Tracer) {
    let mut senders: Vec<(Conn, Tracer)> = d
        .connections(cores)
        .into_iter()
        .map(|c| (c, Tracer::new(epoch)))
        .collect();
    let mut samples = openloop::run(
        &mut senders,
        &openloop::schedule(count, rate),
        |(conn, t), i, due| {
            let rid = (first + i) as u64;
            let id = t.begin_at("loadgen.request", rid, due);
            let sent = Instant::now();
            let raw = conn.roundtrip(&pool[(first + i) % pool.len()].frame);
            t.record("server.roundtrip", rid, sent, Instant::now());
            let reply = t.span("protocol.response_decode", rid, |_| {
                Reply::of(raw.and_then(|f| Response::from_frame(&f)))
            });
            t.end(id);
            reply
        },
    );
    for s in &mut samples {
        s.index = (first + s.index) % pool.len();
    }
    let mut merged = Tracer::new(epoch);
    for (_, t) in senders {
        merged.absorb(t);
    }
    (samples, merged)
}

enum Verdict {
    Reproduced,
    Unreproduced,
    Mismatch(String),
}

struct Decomposed {
    roundtrip_ns: u64,
    handle_ns: u64,
    verdict: Verdict,
}

/// One request, sequentially on an idle server: decode and re-encode
/// the frame, the TCP round trip, in-process handling, the real
/// authenticator call, and its layer-by-layer replay.
fn decompose(
    d: &Deployment,
    conn: &mut Conn,
    decomposer: &mut Decomposer<'_>,
    t: &mut Tracer,
    rid: u64,
    planned: &Planned,
) -> Decomposed {
    t.span("request", rid, |t| {
        let request = t
            .span("protocol.request_decode", rid, |_| {
                Request::from_frame(&planned.frame)
            })
            .expect("planned frames decode");
        let encoded = t.span("protocol.request_encode", rid, |_| {
            request.to_json().to_json()
        });
        let start = Instant::now();
        let tcp = t.span("server.roundtrip", rid, |_| conn.call(&planned.frame));
        let roundtrip_ns = elapsed_ns(start);
        let start = Instant::now();
        let handled = t.span("service.handle", rid, |_| {
            Reply::of(Ok(d.service.handle(&request)))
        });
        let handle_ns = elapsed_ns(start);
        let system = d.service.system();
        let policy = VerifyPolicy::default();
        let verdict = if encoded.as_bytes() != planned.frame.as_slice() {
            Verdict::Mismatch("re-encoded frame differs from the planned frame".to_string())
        } else if tcp != handled {
            Verdict::Mismatch(format!("tcp {tcp:?} != in-process {handled:?}"))
        } else {
            match &request {
                Request::Verify { user_id, probe } => {
                    let matrix = deploy::matrix_for(*user_id);
                    let real = t.span("authenticator.verify", rid, |_| {
                        system.verify(*user_id, probe, &matrix)
                    });
                    let replay = t.span("decomposed", rid, |t| {
                        decomposer.verify(t, rid, *user_id, probe, &matrix)
                    });
                    match (real, replay) {
                        (Ok(real), Ok(distance))
                            if real.distance.to_bits() == distance.to_bits() =>
                        {
                            Verdict::Reproduced
                        }
                        (Err(_), Err(_)) => Verdict::Reproduced,
                        (real, replay) => {
                            Verdict::Mismatch(format!("verify {real:?} vs decomposed {replay:?}"))
                        }
                    }
                }
                Request::VerifyWithPolicy { user_id, probes } => {
                    let matrix = deploy::matrix_for(*user_id);
                    let real = t.span("authenticator.policy", rid, |_| {
                        system.verify_with_policy(*user_id, probes, &matrix, &policy)
                    });
                    let replay = t.span("decomposed", rid, |t| {
                        decomposer.policy(t, rid, *user_id, probes, &matrix, &policy)
                    });
                    policy_verdict(real, replay)
                }
                Request::Health => Verdict::Mismatch("planned a health request".to_string()),
            }
        };
        Decomposed {
            roundtrip_ns,
            handle_ns,
            verdict,
        }
    })
}

fn policy_verdict(
    real: Result<PolicyDecision, MandiPassError>,
    replay: Result<PolicyWalk, MandiPassError>,
) -> Verdict {
    match (real, replay) {
        (Ok(real), Ok(PolicyWalk::Unreproduced)) if real.degraded => Verdict::Unreproduced,
        (Ok(real), Ok(PolicyWalk::Decided { distance, attempts }))
            if !real.degraded
                && real.outcome.distance.to_bits() == distance.to_bits()
                && real.attempts == attempts =>
        {
            Verdict::Reproduced
        }
        (
            Err(MandiPassError::RetriesExhausted { attempts, .. }),
            Ok(PolicyWalk::Exhausted { attempts: a }),
        ) if attempts == a => Verdict::Reproduced,
        (real, replay) => Verdict::Mismatch(format!("policy {real:?} vs decomposed {replay:?}")),
    }
}
