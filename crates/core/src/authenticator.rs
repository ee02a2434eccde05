//! The registration/verification API (§III system overview).
//!
//! Registration: the user hums "EMM", the probe runs through
//! preprocessing and the extractor, the MandiblePrint is transformed by
//! the user's Gaussian matrix, and the cancelable template is stored in
//! the secure enclave. Verification repeats the pipeline on a fresh probe
//! and accepts when the cosine distance to the stored template falls
//! below the operating threshold.

use mandipass_imu_sim::Recording;
use mandipass_telemetry::flight::{FlightOutcome, VerifyFlight};
use mandipass_telemetry::monitor::Monitor;
use mandipass_telemetry::span::SpanTree;
use mandipass_util::json::Value;

use crate::config::PipelineConfig;
use crate::enclave::SecureEnclave;
use crate::error::MandiPassError;
use crate::extractor::BiometricExtractor;
use crate::gradient_array::GradientArray;
use crate::preprocess::preprocess;
use crate::quality::{self, QualityConfig, QualityReport};
use crate::similarity::{accepts, cosine_distance};
use crate::template::{CancelableTemplate, GaussianMatrix, MandiblePrint};

/// Result of one verification request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// Whether the request was accepted as the genuine user.
    pub accepted: bool,
    /// Cosine distance between the probe's cancelable print and the
    /// stored template (lower = more similar).
    pub distance: f64,
    /// The threshold the decision was made against.
    pub threshold: f64,
}

/// Retry/degradation policy for multi-probe verification.
///
/// Each candidate probe is scored by the quality gate first; a clean
/// probe verifies normally, a probe whose only faults are gyro-axis
/// failures may verify in *degraded* accelerometer-only mode under a
/// tightened threshold, and anything else consumes an attempt. The
/// policy is exhausted when `max_attempts` probes have been rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyPolicy {
    /// Maximum number of probes considered (further probes are ignored).
    pub max_attempts: usize,
    /// Quality-gate thresholds applied to every probe.
    pub quality: QualityConfig,
    /// Whether gyro-fault probes may verify accelerometer-only.
    pub allow_degraded: bool,
    /// Multiplier on the accept threshold in degraded mode. Below 1.0
    /// tightens the decision to compensate for the lost gyro evidence.
    pub degraded_threshold_scale: f64,
}

impl Default for VerifyPolicy {
    fn default() -> Self {
        VerifyPolicy {
            max_attempts: 3,
            quality: QualityConfig::default(),
            allow_degraded: true,
            degraded_threshold_scale: 0.8,
        }
    }
}

/// The outcome of a policy-driven verification.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The accept/reject decision of the probe that finally verified.
    pub outcome: VerifyOutcome,
    /// Probes consumed, including the one that verified.
    pub attempts: usize,
    /// Whether the decision was made in degraded accel-only mode.
    pub degraded: bool,
    /// Reject labels of the probes consumed before the decision.
    pub rejects: Vec<String>,
}

/// A pipeline-stage result whose error carries the span tree captured
/// while the stage ran, when one was.
type Traced<T> = Result<T, (MandiPassError, Option<SpanTree>)>;

/// A complete MandiPass deployment: trained extractor + pipeline
/// configuration + secure enclave.
#[derive(Debug)]
pub struct MandiPass {
    extractor: BiometricExtractor,
    config: PipelineConfig,
    enclave: SecureEnclave,
    /// Live health monitor fed by every verify decision, quality
    /// rejection, and enclave access (the global monitor unless rebound
    /// via [`MandiPass::set_monitor`]).
    monitor: &'static Monitor,
}

impl MandiPass {
    /// Assembles a deployment around a (typically VSP-trained) extractor.
    /// Pre-packs the extractor's weights for the inference fast path
    /// (bit-exact; no behaviour change).
    pub fn new(mut extractor: BiometricExtractor, config: PipelineConfig) -> Self {
        extractor.prepare_inference();
        MandiPass {
            extractor,
            config,
            enclave: SecureEnclave::new(),
            monitor: mandipass_telemetry::monitor::global(),
        }
    }

    /// Redirects this deployment's live-monitoring feed (decisions,
    /// rejects, flights, enclave audit) to `monitor`. The default is the
    /// process-wide global monitor.
    pub fn set_monitor(&mut self, monitor: &'static Monitor) {
        self.monitor = monitor;
        self.enclave.set_monitor(monitor);
    }

    /// The monitor this deployment feeds.
    pub fn monitor(&self) -> &'static Monitor {
        self.monitor
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Mutable pipeline configuration (e.g. to recalibrate the threshold).
    pub fn config_mut(&mut self) -> &mut PipelineConfig {
        &mut self.config
    }

    /// The MandiblePrint dimensionality of the deployed extractor.
    pub fn embedding_dim(&self) -> usize {
        self.extractor.embedding_dim()
    }

    /// The template store.
    pub fn enclave(&self) -> &SecureEnclave {
        &self.enclave
    }

    /// Extracts the (pre-transform) MandiblePrint of one raw recording.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and extraction failures.
    pub fn extract_print(&self, recording: &Recording) -> Result<MandiblePrint, MandiPassError> {
        self.extract_print_with_config(recording, &self.config)
    }

    fn extract_print_with_config(
        &self,
        recording: &Recording,
        config: &PipelineConfig,
    ) -> Result<MandiblePrint, MandiPassError> {
        let _span = mandipass_telemetry::span("extract_print");
        let array = preprocess(recording, config)?;
        let grad = GradientArray::from_signal_array(&array, config.half_n())?;
        let prints = self.extractor.extract(&[&grad])?;
        // The extractor contract is one print per input; an empty batch
        // result is a model-shape failure, not a panic-worthy state.
        prints
            .into_iter()
            .next()
            .ok_or(MandiPassError::DimensionMismatch {
                expected: 1,
                got: 0,
            })
    }

    /// Registers `user_id` from one or more enrolment recordings under
    /// the user's Gaussian matrix. The MandiblePrints are averaged, then
    /// transformed, then sealed in the enclave.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NoEnrolmentData`] when every recording
    /// fails preprocessing, and propagates transform dimension errors.
    pub fn enroll(
        &mut self,
        user_id: u32,
        recordings: &[Recording],
        matrix: &GaussianMatrix,
    ) -> Result<(), MandiPassError> {
        let _span = mandipass_telemetry::span("enroll");
        let mut prints = Vec::with_capacity(recordings.len());
        for rec in recordings {
            match self.extract_print(rec) {
                Ok(p) => prints.push(p),
                // Unusable probes are skipped; enrolment only fails when
                // nothing survives (NoEnrolmentData below).
                Err(
                    MandiPassError::Dsp(_)
                    | MandiPassError::EmptyRecording
                    | MandiPassError::AllOutlierSegment { .. }
                    | MandiPassError::ZeroVariance { .. },
                ) => continue,
                Err(e) => return Err(e),
            }
        }
        let mean = MandiblePrint::mean(&prints)?;
        let template = matrix.transform(&mean)?;
        // Feed the drift detector its enrolment-time baseline: the
        // genuine distances of this user's own enrolment probes against
        // the freshly sealed template. Freezing replaces the paper's
        // default operating-point prior with measured calibration.
        let baseline: Vec<f64> = prints
            .iter()
            .filter_map(|p| matrix.transform(p).ok())
            .map(|c| cosine_distance(template.as_slice(), c.as_slice()))
            .collect();
        self.enclave.store(user_id, template);
        self.monitor.extend_baseline(&baseline);
        self.monitor.freeze_baseline();
        // Also seal an accelerometer-only fallback template, so a later
        // gyro failure can be verified like-for-like in degraded mode.
        // Best-effort: enrolment succeeds without one (degraded
        // verification then falls back to the primary template).
        let degraded_cfg = self.degraded_config(1.0);
        let degraded_prints: Vec<MandiblePrint> = recordings
            .iter()
            .filter_map(|rec| self.extract_print_with_config(rec, &degraded_cfg).ok())
            .collect();
        if let Ok(mean) = MandiblePrint::mean(&degraded_prints) {
            if let Ok(template) = matrix.transform(&mean) {
                self.enclave.store_degraded(user_id, template);
            }
        }
        Ok(())
    }

    /// Verifies a probe recording against `user_id`'s stored template.
    ///
    /// # Errors
    ///
    /// * [`MandiPassError::NotEnrolled`] when no template exists.
    /// * [`MandiPassError::Dsp`] when the probe contains no detectable
    ///   vibration (e.g. a zero-effort attacker who does not hum).
    pub fn verify(
        &self,
        user_id: u32,
        probe: &Recording,
        matrix: &GaussianMatrix,
    ) -> Result<VerifyOutcome, MandiPassError> {
        self.verify_with(user_id, || matrix.transform(&self.extract_print(probe)?))
    }

    /// Compares a raw cancelable vector against the stored template —
    /// the code path a replay attacker exercises by exhibiting a stolen
    /// template directly.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NotEnrolled`] when no template exists.
    pub fn verify_cancelable(
        &self,
        user_id: u32,
        presented: &CancelableTemplate,
    ) -> Result<VerifyOutcome, MandiPassError> {
        self.verify_with(user_id, || Ok(presented.clone()))
    }

    /// The verification tail every path shares: load the stored
    /// template, build the probe's cancelable print (after the load, so
    /// a missing template is reported before any probe error), decide,
    /// and record the decision.
    fn verify_with(
        &self,
        user_id: u32,
        cancelable: impl FnOnce() -> Result<CancelableTemplate, MandiPassError>,
    ) -> Result<VerifyOutcome, MandiPassError> {
        let _span = mandipass_telemetry::span("verify");
        let template = {
            let _span = mandipass_telemetry::span("enclave_load");
            self.enclave.load(user_id)?
        };
        let outcome = self.decide(&template, &cancelable()?);
        self.finish_verify(user_id, outcome);
        Ok(outcome)
    }

    /// Verifies under a [`VerifyPolicy`]: each probe in `probes` (up to
    /// `policy.max_attempts`) passes the quality gate before the
    /// pipeline runs. Gyro-only faults may fall back to degraded
    /// accelerometer-only verification with a tightened threshold.
    ///
    /// Every probe that passes the gate is preprocessed up front and all
    /// of their MandiblePrints come out of one batched CNN forward
    /// ([`BiometricExtractor::extract_prints_batch`]); a single clean
    /// probe is a batch of one. The probes are then walked in order and
    /// the first one that reaches a decision ends the walk.
    ///
    /// Every rejected probe is recorded in the enclave audit trail and
    /// in per-reason telemetry counters (`quality.reject.<label>`); the
    /// retry depth lands in the `verify.retry_depth` histogram. Flight
    /// records emitted along the way inherit the thread's active
    /// request trace id ([`mandipass_telemetry::trace::current`]), so a
    /// serve-layer trace and the flights it produced cross-reference.
    ///
    /// # Errors
    ///
    /// * [`MandiPassError::NotEnrolled`] when no template exists.
    /// * [`MandiPassError::RetriesExhausted`] when every considered
    ///   probe was rejected, carrying one label per attempt.
    pub fn verify_with_policy(
        &self,
        user_id: u32,
        probes: &[Recording],
        matrix: &GaussianMatrix,
        policy: &VerifyPolicy,
    ) -> Result<PolicyDecision, MandiPassError> {
        let _span = mandipass_telemetry::span("verify_with_policy");
        // Fail fast on a missing template: no number of probes fixes it.
        {
            let _span = mandipass_telemetry::span("enclave_load");
            self.enclave.load(user_id)?;
        }
        let considered = &probes[..probes.len().min(policy.max_attempts.max(1))];
        let reports: Vec<QualityReport> = considered
            .iter()
            .map(|p| quality::assess(p, &policy.quality))
            .collect();
        let prints = self.extract_clean_prints(considered, &reports);

        let mut rejects: Vec<String> = Vec::new();
        for (i, ((probe, report), print)) in considered.iter().zip(&reports).zip(prints).enumerate()
        {
            // Capture each attempt's span tree for the flight recorder;
            // inside an outer capture (benchmarks, the determinism
            // suite) this yields and records nothing.
            let (result, spans) = match print {
                Some(Ok(print)) => mandipass_telemetry::try_capture(|| {
                    self.verify_with(user_id, || matrix.transform(&print))
                }),
                Some(Err((e, spans))) => {
                    // `verify` loads the template before its pipeline
                    // fails; load it here too, so the audit trail is the
                    // same whether the probe came alone or in a batch.
                    let _ = self.enclave.load(user_id);
                    (Err(e), spans)
                }
                None if policy.allow_degraded && report.degraded_viable() => {
                    mandipass_telemetry::try_capture(|| {
                        self.verify_degraded(user_id, probe, matrix, policy)
                    })
                }
                None => {
                    let labels: Vec<&'static str> =
                        report.reasons.iter().map(|r| r.label()).collect();
                    self.reject(user_id, "quality", &labels, report, None, &mut rejects);
                    continue;
                }
            };
            match result {
                Ok(outcome) => {
                    let degraded = !report.ok();
                    if degraded {
                        mandipass_telemetry::counter!("verify.degraded").inc();
                    }
                    self.finish_policy(i + 1, degraded);
                    return Ok(PolicyDecision {
                        outcome,
                        attempts: i + 1,
                        degraded,
                        rejects,
                    });
                }
                Err(e) => self.reject(
                    user_id,
                    "pipeline",
                    &[e.label()],
                    report,
                    spans,
                    &mut rejects,
                ),
            }
        }
        let attempts = considered.len();
        self.finish_policy(attempts, false);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Exhausted);
        flight.attempts = attempts;
        flight.rejects = rejects.clone();
        self.monitor.record_flight(flight);
        Err(MandiPassError::RetriesExhausted {
            attempts,
            reasons: rejects,
        })
    }

    /// Preprocesses every probe whose report passed the quality gate and
    /// extracts all their MandiblePrints with one batched CNN forward.
    /// Returns one entry per probe: `None` when the gate rejected it, else
    /// its print, or the error (with the span tree of its preprocessing,
    /// when one was captured) that stopped it. A batch-level extraction
    /// failure is each clean probe's own error, as it would be for
    /// [`MandiPass::verify`].
    fn extract_clean_prints(
        &self,
        probes: &[Recording],
        reports: &[QualityReport],
    ) -> Vec<Option<Traced<MandiblePrint>>> {
        let grads: Vec<Option<Traced<GradientArray>>> = probes
            .iter()
            .zip(reports)
            .map(|(probe, report)| {
                report.ok().then(|| {
                    let (result, spans) = mandipass_telemetry::try_capture(|| {
                        let _span = mandipass_telemetry::span("extract_print");
                        let array = preprocess(probe, &self.config)?;
                        GradientArray::from_signal_array(&array, self.config.half_n())
                    });
                    result.map_err(|e| (e, spans))
                })
            })
            .collect();
        let batch: Vec<&GradientArray> = grads.iter().flatten().flatten().collect();
        let mut prints = self
            .extractor
            .extract_prints_batch(&batch)
            .map(Vec::into_iter);
        grads
            .into_iter()
            .map(|grad| {
                grad.map(|grad| {
                    grad?;
                    match &mut prints {
                        Ok(prints) => prints.next().ok_or(MandiPassError::DimensionMismatch {
                            expected: 1,
                            got: 0,
                        }),
                        Err(e) => Err(e.clone()),
                    }
                    .map_err(|e| (e, None))
                })
            })
            .collect()
    }

    /// Books one rejected policy attempt under `family` (`quality` or
    /// `pipeline`): a counter and an audit event per reason, then the
    /// combined label on the monitor, in a flight record (with the
    /// quality report and, when one was captured, the attempt's span
    /// tree as detail), and in `rejects`.
    fn reject(
        &self,
        user_id: u32,
        family: &str,
        reasons: &[&'static str],
        report: &QualityReport,
        spans: Option<SpanTree>,
        rejects: &mut Vec<String>,
    ) {
        for reason in reasons {
            // Dynamically named: the `counter!` macro caches one handle
            // per call site, which cannot key on the reason.
            mandipass_telemetry::metrics()
                .counter(&format!("{family}.reject.{reason}"))
                .inc();
            self.enclave.record_quality_reject(user_id, reason);
        }
        let label = format!("{family}:{}", reasons.join("+"));
        self.monitor.observe_reject(&label);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Rejected);
        flight.rejects.push(label.clone());
        let mut detail = vec![("quality".to_string(), report.to_json())];
        if let Some(tree) = spans {
            detail.push(("spans".to_string(), tree.to_json()));
        }
        flight.detail = Value::Object(detail);
        self.monitor.record_flight(flight);
        rejects.push(label);
    }

    /// Accelerometer-only verification under a tightened threshold: the
    /// gyro axes are masked out of the pipeline and the accept threshold
    /// is scaled by `policy.degraded_threshold_scale`.
    fn verify_degraded(
        &self,
        user_id: u32,
        probe: &Recording,
        matrix: &GaussianMatrix,
        policy: &VerifyPolicy,
    ) -> Result<VerifyOutcome, MandiPassError> {
        let _span = mandipass_telemetry::span("verify_degraded");
        // Prefer the accelerometer-only template sealed at enrolment —
        // the like-for-like comparison — and only fall back to the
        // primary (six-axis) template for enrolments that predate it.
        let template = {
            let _span = mandipass_telemetry::span("enclave_load");
            match self.enclave.load_degraded(user_id) {
                Some(t) => t,
                None => self.enclave.load(user_id)?,
            }
        };
        let config = self.degraded_config(policy.degraded_threshold_scale);
        let print = self.extract_print_with_config(probe, &config)?;
        let cancelable = matrix.transform(&print)?;
        let distance = cosine_distance(template.as_slice(), cancelable.as_slice());
        let outcome = VerifyOutcome {
            accepted: accepts(distance, config.threshold),
            distance,
            threshold: config.threshold,
        };
        self.enclave
            .record_degraded_verify(user_id, outcome.accepted, outcome.distance);
        self.monitor
            .observe_decision(outcome.distance, outcome.accepted, true);
        let mut flight = VerifyFlight::new(user_id, FlightOutcome::Degraded);
        flight.distance = Some(outcome.distance);
        flight.threshold = Some(outcome.threshold);
        self.monitor.record_flight(flight);
        if outcome.accepted {
            mandipass_telemetry::counter!("verify.accept").inc();
        } else {
            mandipass_telemetry::counter!("verify.reject").inc();
        }
        Ok(outcome)
    }

    /// The accelerometer-only pipeline configuration used for both the
    /// degraded enrolment template and degraded verification; the accept
    /// threshold is scaled by `threshold_scale`.
    fn degraded_config(&self, threshold_scale: f64) -> PipelineConfig {
        PipelineConfig {
            axis_mask: [true, true, true, false, false, false],
            threshold: self.config.threshold * threshold_scale,
            ..self.config.clone()
        }
    }

    fn finish_policy(&self, attempts: usize, degraded: bool) {
        mandipass_telemetry::histogram!("verify.retry_depth").observe(attempts as f64);
        if degraded {
            mandipass_telemetry::counter!("verify.degraded_decisions").inc();
        }
    }

    /// Revokes `user_id`'s template, returning the old template (the
    /// artefact a replay attacker may have stolen before revocation).
    pub fn revoke(&mut self, user_id: u32) -> Option<CancelableTemplate> {
        self.enclave.revoke(user_id)
    }

    fn decide(&self, template: &CancelableTemplate, probe: &CancelableTemplate) -> VerifyOutcome {
        let _span = mandipass_telemetry::span("similarity");
        let distance = cosine_distance(template.as_slice(), probe.as_slice());
        VerifyOutcome {
            accepted: accepts(distance, self.config.threshold),
            distance,
            threshold: self.config.threshold,
        }
    }

    /// Common verify epilogue: audit-trail entry + accept/reject
    /// counters + monitor decision window (and a flight record when the
    /// probe was rejected).
    fn finish_verify(&self, user_id: u32, outcome: VerifyOutcome) {
        self.enclave
            .record_verify(user_id, outcome.accepted, outcome.distance);
        self.monitor
            .observe_decision(outcome.distance, outcome.accepted, false);
        if outcome.accepted {
            mandipass_telemetry::counter!("verify.accept").inc();
        } else {
            mandipass_telemetry::counter!("verify.reject").inc();
            let mut flight = VerifyFlight::new(user_id, FlightOutcome::Rejected);
            flight.distance = Some(outcome.distance);
            flight.threshold = Some(outcome.threshold);
            self.monitor.record_flight(flight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainingConfig, VspTrainer};
    use mandipass_imu_sim::{Condition, Population, Recorder};

    /// The serving layer shares one enrolled `MandiPass` read-only
    /// across worker threads, so the deployed type must stay `Send +
    /// Sync` — this compile-time audit pins it (the `nn::Layer` trait
    /// carries the bounds the boxed extractor layers need).
    #[test]
    fn deployment_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MandiPass>();
        assert_send_sync::<SecureEnclave>();
        assert_send_sync::<VerifyPolicy>();
    }

    /// A small trained deployment shared by the tests in this module.
    fn trained_system() -> (MandiPass, Population, Recorder) {
        let pop = Population::generate(6, 77);
        let recorder = Recorder::default();
        let trainer = VspTrainer::new(TrainingConfig {
            seconds_per_person: 4.0,
            epochs: 6,
            ..TrainingConfig::fast_demo()
        });
        // Users 2.. are "hired people"; users 0 and 1 stay unseen.
        let extractor = trainer.train(&pop.users()[2..], &recorder).unwrap();
        (
            MandiPass::new(extractor, PipelineConfig::default()),
            pop,
            recorder,
        )
    }

    #[test]
    fn enroll_verify_accepts_genuine_user() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(1, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 1000 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();
        assert!(system.enclave().contains(user.id));

        let mut accepted = 0;
        for s in 0..10 {
            let probe = recorder.record(user, Condition::Normal, 2000 + s);
            let outcome = system.verify(user.id, &probe, &matrix).unwrap();
            if outcome.accepted {
                accepted += 1;
            }
        }
        assert!(accepted >= 8, "only {accepted}/10 genuine probes accepted");
    }

    #[test]
    fn impostor_distance_exceeds_genuine_distance() {
        let (mut system, pop, recorder) = trained_system();
        let victim = &pop.users()[0];
        let attacker = &pop.users()[1];
        let matrix = GaussianMatrix::generate(2, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(victim, Condition::Normal, 3000 + s))
            .collect();
        system.enroll(victim.id, &enrolment, &matrix).unwrap();

        let genuine: f64 = (0..5)
            .map(|s| {
                let probe = recorder.record(victim, Condition::Normal, 4000 + s);
                system.verify(victim.id, &probe, &matrix).unwrap().distance
            })
            .sum::<f64>()
            / 5.0;
        let impostor: f64 = (0..5)
            .map(|s| {
                let probe = recorder.record(attacker, Condition::Normal, 5000 + s);
                system.verify(victim.id, &probe, &matrix).unwrap().distance
            })
            .sum::<f64>()
            / 5.0;
        assert!(
            genuine < impostor,
            "genuine mean {genuine:.3} not below impostor mean {impostor:.3}"
        );
    }

    #[test]
    fn unenrolled_user_is_rejected_with_error() {
        let (system, pop, recorder) = trained_system();
        let probe = recorder.record(&pop.users()[0], Condition::Normal, 1);
        let matrix = GaussianMatrix::generate(3, system.embedding_dim());
        assert!(matches!(
            system.verify(9, &probe, &matrix),
            Err(MandiPassError::NotEnrolled { user_id: 9 })
        ));
    }

    #[test]
    fn enrolment_with_no_usable_recordings_fails() {
        let (mut system, pop, recorder) = trained_system();
        let matrix = GaussianMatrix::generate(4, system.embedding_dim());
        // Make detection impossible, so every probe is unusable.
        system.config_mut().detector_start_threshold = 1e12;
        let recs = vec![recorder.record(&pop.users()[0], Condition::Normal, 1)];
        assert!(matches!(
            system.enroll(0, &recs, &matrix),
            Err(MandiPassError::NoEnrolmentData)
        ));
    }

    #[test]
    fn revocation_removes_template() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(5, system.embedding_dim());
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 6000 + s))
            .collect();
        system.enroll(user.id, &recs, &matrix).unwrap();
        let stolen = system.revoke(user.id);
        assert!(stolen.is_some());
        let probe = recorder.record(user, Condition::Normal, 6100);
        assert!(matches!(
            system.verify(user.id, &probe, &matrix),
            Err(MandiPassError::NotEnrolled { .. })
        ));
    }

    #[test]
    fn policy_accepts_genuine_user_on_first_clean_probe() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(11, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8000 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();
        let probes: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 8100 + s))
            .collect();
        let decision = system
            .verify_with_policy(user.id, &probes, &matrix, &VerifyPolicy::default())
            .unwrap();
        assert_eq!(decision.attempts, 1);
        assert!(!decision.degraded);
        assert!(decision.rejects.is_empty());
    }

    #[test]
    fn policy_retries_past_bad_probe_and_audits_reason() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(12, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8200 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let good = recorder.record(user, Condition::Normal, 8300);
        let bad = {
            let axes = vec![vec![f64::NAN; good.len()]; 6];
            Recording::from_parts(
                good.sample_rate_hz(),
                axes,
                good.condition(),
                good.user_id(),
            )
            .unwrap()
        };
        let decision = system
            .verify_with_policy(user.id, &[bad, good], &matrix, &VerifyPolicy::default())
            .unwrap();
        assert_eq!(decision.attempts, 2);
        assert_eq!(decision.rejects.len(), 1);
        assert!(decision.rejects[0].starts_with("quality:"));
        // The rejection is visible in the audit trail with its reason.
        let rejections: Vec<_> = system
            .enclave()
            .audit_events_for(user.id)
            .into_iter()
            .filter(|e| e.kind == crate::enclave::AuditKind::QualityReject)
            .collect();
        assert!(!rejections.is_empty());
        assert!(rejections.iter().any(|e| e.reason == Some("non_finite")));
    }

    #[test]
    fn policy_degrades_to_accel_only_for_stuck_gyro() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(13, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8400 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let clean = recorder.record(user, Condition::Normal, 8500);
        let mut axes = clean.axes().to_vec();
        let frozen = axes[3][0];
        for v in axes[3].iter_mut() {
            *v = frozen;
        }
        let gyro_fault = Recording::from_parts(
            clean.sample_rate_hz(),
            axes,
            clean.condition(),
            clean.user_id(),
        )
        .unwrap();
        let decision = system
            .verify_with_policy(user.id, &[gyro_fault], &matrix, &VerifyPolicy::default())
            .unwrap();
        assert!(decision.degraded);
        // Degraded mode tightens the threshold.
        assert!(decision.outcome.threshold < system.config().threshold);
        let trail = system.enclave().audit_events_for(user.id);
        assert!(trail
            .iter()
            .any(|e| e.kind == crate::enclave::AuditKind::DegradedVerify));
    }

    #[test]
    fn policy_exhausts_retries_with_typed_reasons() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(14, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8600 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let template = recorder.record(user, Condition::Normal, 8700);
        let garbage: Vec<Recording> = (0..4)
            .map(|_| {
                let axes = vec![vec![f64::INFINITY; template.len()]; 6];
                Recording::from_parts(template.sample_rate_hz(), axes, template.condition(), 0)
                    .unwrap()
            })
            .collect();
        let err = system
            .verify_with_policy(user.id, &garbage, &matrix, &VerifyPolicy::default())
            .unwrap_err();
        match err {
            MandiPassError::RetriesExhausted { attempts, reasons } => {
                assert_eq!(attempts, 3); // default max_attempts caps at 3
                assert_eq!(reasons.len(), 3);
                assert!(reasons.iter().all(|r| r.contains("non_finite")));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn policy_flights_inherit_the_active_trace_id() {
        let (mut system, pop, recorder) = trained_system();
        let monitor: &'static mandipass_telemetry::Monitor =
            Box::leak(Box::new(mandipass_telemetry::Monitor::default()));
        system.set_monitor(monitor);
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(16, system.embedding_dim());
        let enrolment: Vec<_> = (0..4)
            .map(|s| recorder.record(user, Condition::Normal, 8900 + s))
            .collect();
        system.enroll(user.id, &enrolment, &matrix).unwrap();

        let template = recorder.record(user, Condition::Normal, 8950);
        let axes = vec![vec![f64::INFINITY; template.len()]; 6];
        let garbage =
            Recording::from_parts(template.sample_rate_hz(), axes, template.condition(), 0)
                .unwrap();
        let trace_id = 0xfeed_0000_0000_0042_u64;
        {
            let _scope = mandipass_telemetry::trace::scope(trace_id);
            let _ =
                system.verify_with_policy(user.id, &[garbage], &matrix, &VerifyPolicy::default());
        }
        let flights = monitor.flights();
        assert!(!flights.is_empty(), "exhausted policy run records flights");
        assert!(
            flights.iter().all(|f| f.trace_id == Some(trace_id)),
            "policy-path flights must carry the active trace id"
        );
        // Outside any scope, fresh flights stay untagged.
        assert!(mandipass_telemetry::trace::current().is_none());
    }

    #[test]
    fn policy_requires_enrolment_before_consuming_probes() {
        let (system, pop, recorder) = trained_system();
        let matrix = GaussianMatrix::generate(15, system.embedding_dim());
        let probe = recorder.record(&pop.users()[0], Condition::Normal, 8800);
        assert!(matches!(
            system.verify_with_policy(42, &[probe], &matrix, &VerifyPolicy::default()),
            Err(MandiPassError::NotEnrolled { user_id: 42 })
        ));
    }

    #[test]
    fn verify_cancelable_accepts_matching_template() {
        let (mut system, pop, recorder) = trained_system();
        let user = &pop.users()[0];
        let matrix = GaussianMatrix::generate(6, system.embedding_dim());
        let recs: Vec<_> = (0..3)
            .map(|s| recorder.record(user, Condition::Normal, 7000 + s))
            .collect();
        system.enroll(user.id, &recs, &matrix).unwrap();
        // Presenting the enclave's own template verbatim: a replay before
        // revocation, which trivially matches (distance 0).
        let template = system.enclave().load(user.id).unwrap();
        let outcome = system.verify_cancelable(user.id, &template).unwrap();
        assert!(outcome.accepted);
        assert!(outcome.distance < 1e-9);
    }
}
