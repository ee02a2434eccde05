//! The traced decomposition: replays a request through each layer's
//! public functions, with a span around every call, in the order the
//! authenticator runs them. Comparing the replay's result with the
//! real call's shows whether the spans describe what the call did.

use std::collections::{BTreeMap, BTreeSet};

use mandipass::prelude::*;
use mandipass::preprocess::preprocess;
use mandipass::quality;
use mandipass::similarity::cosine_distance;
use mandipass_imu_sim::Recording;

use crate::report::Report;
use crate::stats::Summary;
use crate::trace::{self, Span, Tracer};

/// Span names of the layer calls the decomposition makes.
const LAYERS: [&str; 8] = [
    "enclave.load",
    "quality.assess",
    "preprocess",
    "gradient_array",
    "extractor.extract",
    "extractor.batch",
    "template.transform",
    "similarity.cosine",
];

/// Span names of the real in-process entry points whose time the
/// layers should add up to.
const TOTALS: [&str; 2] = ["authenticator.verify", "authenticator.policy"];

/// Work and failure counts recorded at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Quality assessments run.
    pub assessed: u64,
    /// Quality assessments that rejected the probe.
    pub quality_rejects: u64,
    /// Preprocessing calls.
    pub preprocessed: u64,
    /// Preprocessing calls that failed.
    pub preprocess_errors: u64,
    /// Probes per batched forward.
    pub batch_sizes: Vec<f64>,
}

/// What a decomposed policy walk concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyWalk {
    /// A full-pipeline decision on the `attempts`-th probe.
    Decided {
        /// Cosine distance of the deciding probe.
        distance: f64,
        /// Probes consumed.
        attempts: usize,
    },
    /// Every considered probe was rejected.
    Exhausted {
        /// Probes consumed.
        attempts: usize,
    },
    /// The walk reached a path the decomposition does not replay (the
    /// degraded accelerometer-only fallback, or a failed batch).
    Unreproduced,
}

/// Replays requests layer by layer against one deployment.
pub struct Decomposer<'a> {
    system: &'a MandiPass,
    extractor: &'a BiometricExtractor,
    /// Counts gathered so far.
    pub counts: Counts,
}

impl<'a> Decomposer<'a> {
    /// Decomposes calls into `system`, whose extractor `extractor`
    /// copies (prepared for inference).
    pub fn new(system: &'a MandiPass, extractor: &'a BiometricExtractor) -> Self {
        Decomposer {
            system,
            extractor,
            counts: Counts::default(),
        }
    }

    fn print_of(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        probe: &Recording,
        config: &PipelineConfig,
    ) -> Result<MandiblePrint, MandiPassError> {
        let grad = self.gradient(t, rid, probe, config)?;
        let prints = t.span("extractor.extract", rid, |_| {
            self.extractor.extract(&[&grad])
        })?;
        prints
            .into_iter()
            .next()
            .ok_or(MandiPassError::DimensionMismatch {
                expected: 1,
                got: 0,
            })
    }

    fn gradient(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        probe: &Recording,
        config: &PipelineConfig,
    ) -> Result<GradientArray, MandiPassError> {
        self.counts.preprocessed += 1;
        let array = t.span("preprocess", rid, |_| preprocess(probe, config));
        let array = array.inspect_err(|_| self.counts.preprocess_errors += 1)?;
        t.span("gradient_array", rid, |_| {
            GradientArray::from_signal_array(&array, config.half_n())
        })
    }

    fn assess(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        probe: &Recording,
        policy: &VerifyPolicy,
    ) -> quality::QualityReport {
        let report = t.span("quality.assess", rid, |_| {
            quality::assess(probe, &policy.quality)
        });
        self.counts.assessed += 1;
        self.counts.quality_rejects += u64::from(!report.ok());
        report
    }

    /// The tail of a verification once the print exists: load the
    /// template, transform the print, compare.
    fn decide(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        user: u32,
        print: &MandiblePrint,
        matrix: &GaussianMatrix,
    ) -> Result<f64, MandiPassError> {
        let template = t.span("enclave.load", rid, |_| self.system.enclave().load(user))?;
        compare(t, rid, &template, print, matrix)
    }

    /// [`MandiPass::verify`]: load the template, extract the print,
    /// transform it, compare. Returns the distance.
    ///
    /// # Errors
    ///
    /// The pipeline error the real call would return.
    pub fn verify(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        user: u32,
        probe: &Recording,
        matrix: &GaussianMatrix,
    ) -> Result<f64, MandiPassError> {
        let template = t.span("enclave.load", rid, |_| self.system.enclave().load(user))?;
        let print = self.print_of(t, rid, probe, self.system.config())?;
        compare(t, rid, &template, &print, matrix)
    }

    /// [`MandiPass::verify_with_policy`]: the quality gate, the batched
    /// forward when two or more probes pass it, and the in-order walk.
    ///
    /// # Errors
    ///
    /// `NotEnrolled` when the user has no template.
    pub fn policy(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        user: u32,
        probes: &[Recording],
        matrix: &GaussianMatrix,
        policy: &VerifyPolicy,
    ) -> Result<PolicyWalk, MandiPassError> {
        t.span("enclave.load", rid, |_| self.system.enclave().load(user))?;
        let considered = &probes[..probes.len().min(policy.max_attempts.max(1))];
        if considered.len() >= 2 {
            let reports: Vec<_> = considered
                .iter()
                .map(|p| self.assess(t, rid, p, policy))
                .collect();
            if reports.iter().filter(|r| r.ok()).count() >= 2 {
                return Ok(self.policy_batched(t, rid, user, considered, &reports, matrix, policy));
            }
        }
        for (i, probe) in considered.iter().enumerate() {
            let report = self.assess(t, rid, probe, policy);
            if report.ok() {
                if let Ok(distance) = self.verify(t, rid, user, probe, matrix) {
                    return Ok(PolicyWalk::Decided {
                        distance,
                        attempts: i + 1,
                    });
                }
                continue;
            }
            if policy.allow_degraded && report.degraded_viable() {
                return Ok(PolicyWalk::Unreproduced);
            }
        }
        Ok(PolicyWalk::Exhausted {
            attempts: considered.len(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn policy_batched(
        &mut self,
        t: &mut Tracer,
        rid: u64,
        user: u32,
        considered: &[Recording],
        reports: &[quality::QualityReport],
        matrix: &GaussianMatrix,
        policy: &VerifyPolicy,
    ) -> PolicyWalk {
        let config = self.system.config().clone();
        let preps: Vec<Option<Result<GradientArray, MandiPassError>>> = considered
            .iter()
            .zip(reports)
            .map(|(probe, report)| report.ok().then(|| self.gradient(t, rid, probe, &config)))
            .collect();
        let grads: Vec<&GradientArray> = preps
            .iter()
            .filter_map(|p| p.as_ref().and_then(|r| r.as_ref().ok()))
            .collect();
        self.counts.batch_sizes.push(grads.len() as f64);
        let batch = t.span("extractor.batch", rid, |_| {
            self.extractor.extract_prints_batch(&grads)
        });
        let Ok(prints) = batch else {
            return PolicyWalk::Unreproduced;
        };
        let mut prints = prints.into_iter();
        for (i, prep) in preps.iter().enumerate() {
            match prep {
                Some(Ok(_)) => {
                    let Some(print) = prints.next() else {
                        return PolicyWalk::Unreproduced;
                    };
                    if let Ok(distance) = self.decide(t, rid, user, &print, matrix) {
                        return PolicyWalk::Decided {
                            distance,
                            attempts: i + 1,
                        };
                    }
                }
                // The real walk loads the template before skipping a
                // probe whose preprocessing failed.
                Some(Err(_)) => {
                    let _ = t.span("enclave.load", rid, |_| self.system.enclave().load(user));
                }
                None => {
                    if policy.allow_degraded && reports[i].degraded_viable() {
                        return PolicyWalk::Unreproduced;
                    }
                }
            }
        }
        PolicyWalk::Exhausted {
            attempts: considered.len(),
        }
    }
}

/// Transforms `print` and returns its distance to `template`.
fn compare(
    t: &mut Tracer,
    rid: u64,
    template: &CancelableTemplate,
    print: &MandiblePrint,
    matrix: &GaussianMatrix,
) -> Result<f64, MandiPassError> {
    let cancelable = t.span("template.transform", rid, |_| matrix.transform(print))?;
    Ok(t.span("similarity.cosine", rid, |_| {
        cosine_distance(template.as_slice(), cancelable.as_slice())
    }))
}

/// Durations in microseconds per span name.
fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Summary> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, Summary::new(v)))
        .collect()
}

/// Total self time per layer name over the requests not in
/// `uncovered`, in nanoseconds, ranked by the time they take.
fn self_time_by_layer(spans: &[Span], uncovered: &BTreeSet<u64>) -> Vec<(&'static str, u64)> {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if LAYERS.contains(&s.name) && !uncovered.contains(&s.request) {
            *by_name.entry(s.name).or_default() += own;
        }
    }
    let mut ranked: Vec<_> = by_name.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    ranked
}

/// Per-layer samples measured outside the decomposition spans.
pub struct ExtraSamples {
    /// TCP round trip minus in-process handling, µs.
    pub transport_us: Vec<f64>,
    /// Request frame sizes, bytes.
    pub frame_bytes: Vec<f64>,
    /// Enrolment call latencies, µs.
    pub enroll_us: Vec<f64>,
    /// Enclave template storage after the measured phases, bytes.
    pub storage_bytes: f64,
    /// Generator lateness at the high rate, ms.
    pub late_ms: Summary,
    /// Traced and untraced `p50_ms.low`.
    pub overhead: (f64, f64),
    /// Impostor accept share and its n.
    pub impostor_accept: (f64, usize),
}

/// Timed per-layer metrics: metric name and the span it times.
const TIMED: [(&str, &str); 12] = [
    ("protocol.request_encode_us", "protocol.request_encode"),
    ("protocol.request_decode_us", "protocol.request_decode"),
    ("service.handle_us", "service.handle"),
    ("quality.assess_us", "quality.assess"),
    ("preprocess.us", "preprocess"),
    ("gradient_array.us", "gradient_array"),
    ("extractor.extract_us", "extractor.extract"),
    ("template.transform_us", "template.transform"),
    ("similarity.cosine_us", "similarity.cosine"),
    ("enclave.load_us", "enclave.load"),
    ("authenticator.verify_us", "authenticator.verify"),
    ("authenticator.policy_us", "authenticator.policy"),
];

/// Prints the per-layer metrics of a traced decomposition. Requests in
/// `uncovered` were not reproduced: their authenticator time counts,
/// their layer time does not. A layer the workload never calls reads 0
/// with `n=0`.
pub fn metrics(
    report: &mut Report,
    tracer: &Tracer,
    counts: &Counts,
    uncovered: &BTreeSet<u64>,
    extra: &ExtraSamples,
) {
    let spans = tracer.spans();
    let coverage = trace::coverage(spans, &TOTALS, &LAYERS, uncovered);
    let durations = durations_us(spans);
    let empty = Summary::default();
    let timed = |report: &mut Report, name: &str, summary: &Summary, unit: &'static str| {
        if summary.n() == 0 {
            report.metric(name, 0.0, unit, "not exercised by this workload (n=0)");
            report.metric(&format!("{name}.tail"), 0.0, unit, "n=0");
        } else {
            report.figure(name, summary.median(), unit);
            report.figure(&format!("{name}.tail"), summary.tail(), unit);
        }
    };
    for (name, span) in TIMED {
        timed(report, name, durations.get(span).unwrap_or(&empty), "us");
    }
    timed(
        report,
        "authenticator.enroll_us",
        &Summary::new(extra.enroll_us.clone()),
        "us",
    );
    timed(
        report,
        "server.transport_us",
        &Summary::new(extra.transport_us.clone()),
        "us",
    );
    let per_probe: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "extractor.batch")
        .zip(&counts.batch_sizes)
        .map(|(s, &n)| s.duration_ns() as f64 / 1e3 / n.max(1.0))
        .collect();
    timed(
        report,
        "extractor.batch_us_per_probe",
        &Summary::new(per_probe),
        "us",
    );

    let median = |v: &[f64]| {
        let s = Summary::new(v.to_vec());
        if s.n() == 0 {
            (0.0, "n=0".to_string())
        } else {
            (s.median().value, s.median().label())
        }
    };
    let (v, note) = median(&counts.batch_sizes);
    report.metric("extractor.batch_size", v, "count", note);
    let (v, note) = median(&extra.frame_bytes);
    report.metric("protocol.frame_bytes", v, "bytes", note);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.metric(
        "quality.reject_ratio",
        ratio(counts.quality_rejects, counts.assessed),
        "ratio",
        format!(
            "{} of {} assessments",
            counts.quality_rejects, counts.assessed
        ),
    );
    report.metric(
        "preprocess.err_ratio",
        ratio(counts.preprocess_errors, counts.preprocessed),
        "ratio",
        format!(
            "{} of {} calls",
            counts.preprocess_errors, counts.preprocessed
        ),
    );
    report.metric(
        "enclave.storage_bytes",
        extra.storage_bytes,
        "bytes",
        "templates sealed after the measured phases",
    );
    report.figure("loadgen.late_tail_ms", extra.late_ms.tail(), "ms");
    let (accept, n) = extra.impostor_accept;
    report.metric(
        "similarity.impostor_accept_ratio",
        accept,
        "ratio",
        format!("n={n}"),
    );

    // Where the in-process time goes: each layer's self time over the
    // authenticator totals, ranked.
    let ranked = self_time_by_layer(spans, uncovered);
    for layer in LAYERS {
        let own = ranked
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0, |(_, ns)| *ns);
        report.metric(
            &format!("{layer}.self_share"),
            ratio(own, coverage.total_ns),
            "ratio",
            format!(
                "self time over authenticator total, {} requests",
                coverage.requests
            ),
        );
    }
    report.note(format!(
        "layers ranked by self time: {}",
        ranked
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * ratio(*ns, coverage.total_ns)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.metric(
        "trace.coverage",
        coverage.ratio(),
        "ratio",
        format!(
            "{} requests ({} not replayable, counted as uncovered)",
            coverage.requests, coverage.uncovered_requests
        ),
    );
    report.metric(
        "trace.uncovered_us",
        coverage.uncovered_ns_per_request() / 1e3,
        "us",
        "authenticator time per request no named layer accounts for",
    );
    let (traced, untraced) = extra.overhead;
    report.metric(
        "trace.overhead_ratio",
        if untraced > 0.0 {
            traced / untraced
        } else {
            0.0
        },
        "ratio",
        format!("traced p50_ms.low {traced:.4} over untraced {untraced:.4}"),
    );
}
