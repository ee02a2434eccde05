//! The transport-free request handler.
//!
//! [`VerifyService`] owns an enrolled [`MandiPass`] deployment plus the
//! per-user Gaussian matrices and answers [`Request`] values directly.
//! Both fronts go through [`VerifyService::handle`] /
//! [`VerifyService::handle_traced`] — the TCP workers in
//! [`crate::server`] and in-process callers like the bench load
//! generator — so decisions, telemetry (`serve.requests` /
//! `serve.errors` counters, the `serve.request_seconds` and
//! per-endpoint `serve.latency.*` histograms, a `serve_request` span
//! per request), and the drift-monitor feed are identical regardless of
//! transport.
//!
//! Every request runs under a trace id (client-supplied or freshly
//! minted), inside a [`mandipass_telemetry::trace::scope`] so flight
//! records in the policy path pick the id up, and wrapped in
//! `span::try_capture` so the pipeline's span tree lands in the
//! [`RequestTrace`] the handler offers to the monitor's sampled trace
//! store. The TCP front measures the wire stages (queue wait, frame
//! decode, response write) around the handler via [`WireTiming`] and
//! [`PendingTrace::commit`]; in-process callers get a verify-only
//! stage breakdown for free.
//!
//! All request handling is `&self`: enrolment happens before the
//! service is shared, then worker threads verify concurrently against
//! the same templates (the enclave serialises its own audit trail; the
//! extractor's inference path is read-only).

use std::collections::BTreeMap;
use std::time::Instant;

use mandipass::prelude::*;
use mandipass_imu_sim::Recording;
use mandipass_telemetry::{trace, Monitor, RequestTrace};
use mandipass_util::json::Value;

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker, RequestClass};
use crate::protocol::{self, Request, Response};

/// Wire-stage timings the TCP front measured before the handler ran;
/// in-process callers use the zeroed [`Default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTiming {
    /// Time the connection waited between `accept()` and a worker
    /// picking it up (first request on a connection only).
    pub queue_wait_nanos: u64,
    /// Time spent parsing the request frame.
    pub decode_nanos: u64,
}

/// A [`RequestTrace`] the handler built but has not recorded yet: the
/// TCP front still owes the response encode+write timing. Committing
/// appends the `write` stage, fixes the total, and offers the trace to
/// the monitor's sampled store.
#[derive(Debug)]
#[must_use = "an uncommitted trace is never recorded"]
pub struct PendingTrace {
    trace: RequestTrace,
}

impl PendingTrace {
    /// A trace for a frame that never parsed into a [`Request`]; the
    /// decision is `error:bad_request`, so the sampler always keeps it.
    pub fn bad_request(trace_id: u64, timing: WireTiming) -> Self {
        let mut trace = RequestTrace::new(trace_id, "bad_request", "error:bad_request");
        if timing.queue_wait_nanos > 0 {
            trace.stage("queue_wait", timing.queue_wait_nanos);
        }
        trace.stage("decode", timing.decode_nanos);
        PendingTrace { trace }
    }

    /// A trace for a request shed before dispatch (blown deadline,
    /// shutdown drain); the decision is `error:{kind}`, so the sampler
    /// always keeps it.
    pub fn shed(trace_id: u64, kind: &str, timing: WireTiming) -> Self {
        let mut trace = RequestTrace::new(trace_id, "shed", &format!("error:{kind}"));
        if timing.queue_wait_nanos > 0 {
            trace.stage("queue_wait", timing.queue_wait_nanos);
        }
        trace.stage("decode", timing.decode_nanos);
        PendingTrace { trace }
    }

    /// The trace id this pending record carries.
    pub fn trace_id(&self) -> u64 {
        self.trace.trace_id
    }

    /// Appends the `write` stage, sets the end-to-end total (clamped so
    /// stage sums never exceed it), and offers the trace to `monitor`'s
    /// store; returns whether the sampler kept it.
    pub fn commit(mut self, monitor: &Monitor, write_nanos: u64, total_nanos: u64) -> bool {
        self.trace.stage("write", write_nanos);
        self.trace.total_nanos = total_nanos.max(self.trace.stage_nanos());
        monitor.record_trace(self.trace)
    }
}

/// The stable endpoint label of a request.
fn endpoint_label(request: &Request) -> &'static str {
    match request {
        Request::Health => "health",
        Request::Verify { .. } => "verify",
        Request::VerifyWithPolicy { .. } => "verify_policy",
    }
}

/// The breaker admission class of a request.
fn request_class(request: &Request) -> RequestClass {
    match request {
        Request::Health => RequestClass::Health,
        Request::Verify { .. } => RequestClass::Verify,
        Request::VerifyWithPolicy { .. } => RequestClass::VerifyPolicy,
    }
}

/// The stable decision label of a response (degraded decisions label as
/// `degraded` whichever way they went — the sampler always keeps them).
fn decision_label(response: &Response) -> String {
    match response {
        Response::Health { .. } => "ok".to_string(),
        Response::Decision { degraded: true, .. } => "degraded".to_string(),
        Response::Decision { accepted: true, .. } => "accepted".to_string(),
        Response::Decision { .. } => "rejected".to_string(),
        Response::Error { kind, .. } => format!("error:{kind}"),
    }
}

/// The enrolled deployment behind the server.
#[derive(Debug)]
pub struct VerifyService {
    system: MandiPass,
    matrices: BTreeMap<u32, GaussianMatrix>,
    policy: VerifyPolicy,
    breaker: CircuitBreaker,
}

impl VerifyService {
    /// Wraps a deployment with the default circuit-breaker
    /// configuration. Enrol users with [`VerifyService::enroll`] before
    /// sharing the service with workers.
    pub fn new(system: MandiPass, policy: VerifyPolicy) -> Self {
        Self::with_breaker(system, policy, BreakerConfig::default())
    }

    /// Wraps a deployment with an explicit breaker configuration
    /// ([`BreakerConfig::disabled`] for raw-shedding benches).
    pub fn with_breaker(system: MandiPass, policy: VerifyPolicy, breaker: BreakerConfig) -> Self {
        VerifyService {
            system,
            matrices: BTreeMap::new(),
            policy,
            breaker: CircuitBreaker::new(breaker),
        }
    }

    /// The service's circuit breaker (the server's shed paths feed it
    /// failures via `record_shed`; benches read its transition
    /// history).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Flushes breaker transitions recorded since the last flush to the
    /// `serve.breaker.state` gauge, the `serve.breaker.transitions`
    /// counter, the flight recorder, and the monitor's published
    /// breaker state (surfaced on `GET /health`).
    fn flush_breaker_events(&self) {
        for transition in self.breaker.take_transitions() {
            mandipass_telemetry::gauge!("serve.breaker.state").set(transition.to.gauge_value());
            mandipass_telemetry::counter!("serve.breaker.transitions").inc();
            self.system.monitor().observe_breaker_transition(
                transition.from.label(),
                transition.to.label(),
                transition.reason,
                self.breaker.state_json(),
            );
        }
    }

    /// Enrols `user_id` and retains the Gaussian matrix the server will
    /// apply to that user's future probes (the cancelable-template
    /// secret stays server-side, like the templates themselves).
    ///
    /// # Errors
    ///
    /// Propagates enrolment failures; the matrix is only retained on
    /// success.
    pub fn enroll(
        &mut self,
        user_id: u32,
        recordings: &[Recording],
        matrix: GaussianMatrix,
    ) -> Result<(), MandiPassError> {
        self.system.enroll(user_id, recordings, &matrix)?;
        self.matrices.insert(user_id, matrix);
        // Publish the (closed) breaker state so `GET /health` shows it
        // from the first request on, not only after a transition.
        if self.breaker.config().enabled {
            self.system
                .monitor()
                .set_breaker_state(self.breaker.state_json());
        }
        Ok(())
    }

    /// The wrapped deployment.
    pub fn system(&self) -> &MandiPass {
        &self.system
    }

    /// Mutable deployment access for pre-share set-up (threshold
    /// calibration, monitor rebinding).
    pub fn system_mut(&mut self) -> &mut MandiPass {
        &mut self.system
    }

    /// Number of enrolled identities.
    pub fn enrolled(&self) -> usize {
        self.matrices.len()
    }

    /// Answers one request. Never panics; failures become
    /// [`Response::Error`] with a stable `kind`. Mints a fresh trace id
    /// and commits the trace immediately (no wire stages) — the
    /// in-process front.
    pub fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let (response, pending) =
            self.handle_traced(request, trace::mint_id(), WireTiming::default());
        pending.commit(
            self.system.monitor(),
            0,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        response
    }

    /// Answers one request under `trace_id`, returning the response
    /// together with the [`PendingTrace`] the caller must commit once
    /// it knows the response write timing. The id is active as the
    /// thread's [`trace::current`] for the duration, and the dispatch
    /// runs inside `span::try_capture`, so flight records pick up the
    /// id and the trace picks up the pipeline span tree.
    pub fn handle_traced(
        &self,
        request: &Request,
        trace_id: u64,
        timing: WireTiming,
    ) -> (Response, PendingTrace) {
        let _scope = trace::scope(trace_id);
        mandipass_telemetry::counter!("serve.requests").inc();
        if timing.queue_wait_nanos > 0 {
            mandipass_telemetry::histogram!("serve.queue_wait_seconds")
                .observe(timing.queue_wait_nanos as f64 / 1e9);
        }
        let start = Instant::now();
        let class = request_class(request);
        let admission = if self.breaker.config().enabled {
            // The health probe is cheap relative to a forward pass and
            // the overlay must react to the *live* drift verdict.
            let health = self.system.monitor().health().status;
            self.breaker.admit(health, class)
        } else {
            Admission::Admit
        };
        let (response, spans) = match admission {
            Admission::Admit | Admission::Probe => {
                let captured = mandipass_telemetry::try_capture(|| {
                    let _span = mandipass_telemetry::span("serve_request");
                    self.dispatch(request)
                });
                // Any produced response is successful service — system
                // faults (sheds) reach the breaker through the server's
                // `record_shed`, not through biometric outcomes.
                if class != RequestClass::Health {
                    self.breaker
                        .record_outcome(admission == Admission::Probe, false);
                }
                captured
            }
            Admission::RejectOpen { retry_after_ms } => {
                mandipass_telemetry::counter!("serve.shed.breaker").inc();
                (
                    Response::overloaded("circuit breaker open", retry_after_ms),
                    None,
                )
            }
            Admission::RejectDegraded => {
                mandipass_telemetry::counter!("serve.shed.breaker").inc();
                (
                    Response::error(
                        protocol::KIND_DEGRADED_ONLY,
                        "drift alarm: only verify_policy (accel-only fallback) is served",
                    ),
                    None,
                )
            }
        };
        self.flush_breaker_events();
        let verify_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let elapsed_secs = verify_nanos as f64 / 1e9;
        mandipass_telemetry::histogram!("serve.request_seconds").observe(elapsed_secs);
        let endpoint = endpoint_label(request);
        match endpoint {
            "health" => mandipass_telemetry::histogram!("serve.latency.health"),
            "verify" => mandipass_telemetry::histogram!("serve.latency.verify"),
            _ => mandipass_telemetry::histogram!("serve.latency.verify_policy"),
        }
        .observe(elapsed_secs);
        if matches!(response, Response::Error { .. }) {
            mandipass_telemetry::counter!("serve.errors").inc();
        }
        let mut trace = RequestTrace::new(trace_id, endpoint, &decision_label(&response));
        if timing.queue_wait_nanos > 0 {
            trace.stage("queue_wait", timing.queue_wait_nanos);
        }
        if timing.decode_nanos > 0 {
            trace.stage("decode", timing.decode_nanos);
        }
        trace.stage("verify", verify_nanos);
        trace.spans = spans;
        (response, PendingTrace { trace })
    }

    fn dispatch(&self, request: &Request) -> Response {
        match request {
            Request::Health => {
                let mut health = self.system.monitor().health().to_json();
                if let Value::Object(members) = &mut health {
                    members.push(("breaker".to_string(), self.breaker.state_json()));
                }
                Response::Health {
                    health,
                    enrolled: self.enrolled(),
                }
            }
            Request::Verify { user_id, probe } => {
                let Some(matrix) = self.matrices.get(user_id) else {
                    return not_enrolled(*user_id);
                };
                match self.system.verify(*user_id, probe, matrix) {
                    Ok(outcome) => Response::Decision {
                        accepted: outcome.accepted,
                        distance: outcome.distance,
                        threshold: outcome.threshold,
                        degraded: false,
                        attempts: 1,
                        rejects: Vec::new(),
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::VerifyWithPolicy { user_id, probes } => {
                let Some(matrix) = self.matrices.get(user_id) else {
                    return not_enrolled(*user_id);
                };
                match self
                    .system
                    .verify_with_policy(*user_id, probes, matrix, &self.policy)
                {
                    Ok(decision) => Response::Decision {
                        accepted: decision.outcome.accepted,
                        distance: decision.outcome.distance,
                        threshold: decision.outcome.threshold,
                        degraded: decision.degraded,
                        attempts: decision.attempts,
                        rejects: decision.rejects,
                    },
                    Err(e) => error_response(&e),
                }
            }
        }
    }
}

fn not_enrolled(user_id: u32) -> Response {
    Response::error("not_enrolled", format!("user {user_id} has no template"))
}

fn error_response(error: &MandiPassError) -> Response {
    Response::error(error.label(), error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::shared_service;

    #[test]
    fn health_reports_enrolment_count() {
        let service = shared_service();
        match service.handle(&Request::Health) {
            Response::Health { enrolled, health } => {
                assert!(enrolled >= 1);
                assert!(health.get("status").is_some());
            }
            other => panic!("expected health, got {other:?}"),
        }
    }

    #[test]
    fn verify_accepts_a_genuine_probe_and_rejects_unknown_users() {
        let service = shared_service();
        let (user, probe) = crate::test_support::genuine_probe(17);
        match service.handle(&Request::Verify {
            user_id: user,
            probe: probe.clone(),
        }) {
            Response::Decision {
                distance, attempts, ..
            } => {
                assert!(distance.is_finite());
                assert_eq!(attempts, 1);
            }
            other => panic!("expected a decision, got {other:?}"),
        }
        match service.handle(&Request::Verify {
            user_id: 9999,
            probe,
        }) {
            Response::Error { kind, .. } => assert_eq!(kind, "not_enrolled"),
            other => panic!("expected not_enrolled, got {other:?}"),
        }
    }

    #[test]
    fn handle_traced_records_a_sampled_trace_with_spans() {
        let service = shared_service();
        let monitor = service.system().monitor();
        let (user, probe) = crate::test_support::genuine_probe(61);
        let trace_id = trace::mint_id();
        let (response, pending) = service.handle_traced(
            &Request::Verify {
                user_id: user,
                probe,
            },
            trace_id,
            WireTiming {
                queue_wait_nanos: 1_000,
                decode_nanos: 2_000,
            },
        );
        assert!(matches!(response, Response::Decision { .. }));
        assert_eq!(pending.trace_id(), trace_id);
        assert!(
            pending.commit(monitor, 500, 10_000_000),
            "default sampler keeps every trace"
        );
        let trace = monitor
            .find_trace(trace_id)
            .unwrap_or_else(|| panic!("committed trace must be findable"));
        assert_eq!(trace.endpoint, "verify");
        assert!(trace.stage_nanos() <= trace.total_nanos);
        let stages: Vec<&str> = trace.stages.iter().map(|s| s.name).collect();
        assert_eq!(stages, ["queue_wait", "decode", "verify", "write"]);
        let spans = trace
            .spans
            .as_ref()
            .unwrap_or_else(|| panic!("an untraced worker thread must capture the pipeline spans"));
        assert_eq!(spans.count("serve_request"), 1);
        assert!(spans.count("verify") >= 1, "pipeline spans missing");
    }

    #[test]
    fn error_requests_are_always_traced_and_tag_no_spans_gap() {
        let service = shared_service();
        let monitor = service.system().monitor();
        let trace_id = trace::mint_id();
        let (_, probe) = crate::test_support::genuine_probe(62);
        let (response, pending) = service.handle_traced(
            &Request::Verify {
                user_id: 424_242,
                probe,
            },
            trace_id,
            WireTiming::default(),
        );
        assert!(matches!(response, Response::Error { .. }));
        assert!(pending.commit(monitor, 0, 0), "errors are always sampled");
        let trace = monitor.find_trace(trace_id).unwrap();
        assert_eq!(trace.decision, "error:not_enrolled");
        assert_eq!(trace.reason, Some(mandipass_telemetry::SampleReason::Error));
        assert!(trace.spans.is_some());
    }

    #[test]
    fn policy_verify_accepts_over_multiple_probes() {
        let service = shared_service();
        let (user, probes) = crate::test_support::genuine_probes(23, 3);
        match service.handle(&Request::VerifyWithPolicy {
            user_id: user,
            probes,
        }) {
            Response::Decision {
                accepted, attempts, ..
            } => {
                assert!(accepted, "three genuine probes must verify");
                assert!(attempts >= 1);
            }
            other => panic!("expected a decision, got {other:?}"),
        }
    }
}
