//! A simulated secure enclave: the template store at rest.
//!
//! The real system keeps the cancelable MandiblePrint template in the
//! earphone's secure enclave. We reproduce the enclave's *protocol role*:
//! templates at rest, keyed by user, revocable, with access accounting —
//! the hardware isolation itself is out of scope (documented in
//! DESIGN.md).
//!
//! Every operation is additionally recorded in a bounded ring-buffer
//! **audit trail** of typed [`AuditEvent`]s, sequenced by a per-enclave
//! logical timestamp, so the access history is observable (and, with a
//! fixed seed upstream, bit-identical across runs) without any wall-clock
//! dependence.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mandipass_telemetry::monitor::Monitor;

use crate::error::MandiPassError;
use crate::template::CancelableTemplate;

/// Default number of audit events retained before the oldest are evicted.
pub const DEFAULT_AUDIT_CAPACITY: usize = 256;

/// The operation class of one audit event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// A template was stored (or replaced).
    Store,
    /// A template load was attempted (`outcome` says whether it existed).
    Load,
    /// A template was revoked (`outcome` says whether one existed).
    Revoke,
    /// A verification against the stored template was accepted.
    VerifyHit,
    /// A verification against the stored template was rejected.
    VerifyMiss,
    /// A probe was rejected by the signal-quality gate before any
    /// template comparison (`reason` carries the gate's label).
    QualityReject,
    /// A verification ran in degraded accelerometer-only mode
    /// (`outcome`/`distance` as for the verify events).
    DegradedVerify,
}

impl AuditKind {
    /// Stable lower-case label, used by reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::Store => "store",
            AuditKind::Load => "load",
            AuditKind::Revoke => "revoke",
            AuditKind::VerifyHit => "verify_hit",
            AuditKind::VerifyMiss => "verify_miss",
            AuditKind::QualityReject => "quality_reject",
            AuditKind::DegradedVerify => "degraded_verify",
        }
    }
}

/// One entry in the enclave audit trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditEvent {
    /// Monotonic per-enclave logical timestamp (never reused, even after
    /// the ring evicts older events).
    pub seq: u64,
    /// What happened.
    pub kind: AuditKind,
    /// The user the operation targeted.
    pub user_id: u32,
    /// Operation success: template present for load/revoke, probe
    /// accepted for verify events, always `true` for store.
    pub outcome: bool,
    /// Cosine distance of the decision, for verify events only.
    pub distance: Option<f64>,
    /// Machine-readable reject reason, for quality-reject events only.
    pub reason: Option<&'static str>,
}

/// Named monotonic access counters, derived from the full operation
/// history (not the bounded ring, so eviction never loses counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Number of [`SecureEnclave::store`] calls.
    pub stores: u64,
    /// Number of [`SecureEnclave::load`] calls (hits and misses).
    pub loads: u64,
}

/// A thread-safe sealed template store with a bounded audit trail.
#[derive(Debug)]
pub struct SecureEnclave {
    inner: Mutex<EnclaveInner>,
    /// Live-monitoring sink: every audit event also feeds the monitor's
    /// sliding windows (the global monitor unless rebound via
    /// [`SecureEnclave::set_monitor`]).
    monitor: &'static Monitor,
}

#[derive(Debug)]
struct EnclaveInner {
    templates: HashMap<u32, CancelableTemplate>,
    /// Secondary accelerometer-only templates backing degraded-mode
    /// verification (sealed at enrolment when available).
    degraded: HashMap<u32, CancelableTemplate>,
    counts: AccessCounts,
    trail: VecDeque<AuditEvent>,
    capacity: usize,
    next_seq: u64,
}

impl EnclaveInner {
    fn record(&mut self, kind: AuditKind, user_id: u32, outcome: bool, distance: Option<f64>) {
        self.record_with_reason(kind, user_id, outcome, distance, None);
    }

    fn record_with_reason(
        &mut self,
        kind: AuditKind,
        user_id: u32,
        outcome: bool,
        distance: Option<f64>,
        reason: Option<&'static str>,
    ) {
        if self.trail.len() == self.capacity {
            self.trail.pop_front();
        }
        self.trail.push_back(AuditEvent {
            seq: self.next_seq,
            kind,
            user_id,
            outcome,
            distance,
            reason,
        });
        self.next_seq += 1;
    }
}

impl Default for SecureEnclave {
    fn default() -> Self {
        Self::with_audit_capacity(DEFAULT_AUDIT_CAPACITY)
    }
}

impl SecureEnclave {
    /// Creates an empty enclave with the default audit capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Poison-tolerant lock: a panic in another thread mid-operation
    /// must not take the whole template store down with it — the
    /// enclave's invariants hold after every individual mutation.
    fn lock(&self) -> MutexGuard<'_, EnclaveInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates an empty enclave retaining at most `capacity` audit
    /// events (minimum 1).
    pub fn with_audit_capacity(capacity: usize) -> Self {
        SecureEnclave {
            inner: Mutex::new(EnclaveInner {
                templates: HashMap::new(),
                degraded: HashMap::new(),
                counts: AccessCounts::default(),
                trail: VecDeque::new(),
                capacity: capacity.max(1),
                next_seq: 0,
            }),
            monitor: mandipass_telemetry::monitor::global(),
        }
    }

    /// Redirects the enclave's windowed audit feed to `monitor` (tests
    /// and multi-tenant deployments; the default is the global monitor).
    pub fn set_monitor(&mut self, monitor: &'static Monitor) {
        self.monitor = monitor;
    }

    /// Stores (or replaces) the template of `user_id`.
    pub fn store(&self, user_id: u32, template: CancelableTemplate) {
        let mut inner = self.lock();
        inner.counts.stores += 1;
        inner.record(AuditKind::Store, user_id, true, None);
        inner.templates.insert(user_id, template);
        self.monitor.observe_audit(AuditKind::Store.label());
    }

    /// Loads the template of `user_id`.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NotEnrolled`] when no template exists.
    pub fn load(&self, user_id: u32) -> Result<CancelableTemplate, MandiPassError> {
        let mut inner = self.lock();
        inner.counts.loads += 1;
        let found = inner.templates.get(&user_id).cloned();
        inner.record(AuditKind::Load, user_id, found.is_some(), None);
        self.monitor.observe_audit(AuditKind::Load.label());
        found.ok_or(MandiPassError::NotEnrolled { user_id })
    }

    /// Stores (or replaces) the accelerometer-only fallback template of
    /// `user_id`, used by degraded-mode verification when the gyro has
    /// failed.
    pub fn store_degraded(&self, user_id: u32, template: CancelableTemplate) {
        let mut inner = self.lock();
        inner.counts.stores += 1;
        inner.record_with_reason(AuditKind::Store, user_id, true, None, Some("degraded"));
        inner.degraded.insert(user_id, template);
        self.monitor.observe_audit(AuditKind::Store.label());
    }

    /// Loads the accelerometer-only fallback template of `user_id`, if
    /// one was sealed at enrolment.
    pub fn load_degraded(&self, user_id: u32) -> Option<CancelableTemplate> {
        let mut inner = self.lock();
        inner.counts.loads += 1;
        let found = inner.degraded.get(&user_id).cloned();
        inner.record_with_reason(
            AuditKind::Load,
            user_id,
            found.is_some(),
            None,
            Some("degraded"),
        );
        self.monitor.observe_audit(AuditKind::Load.label());
        found
    }

    /// Deletes the template of `user_id` (revocation step 1; step 2 is
    /// enrolling again under a fresh Gaussian matrix). The degraded
    /// fallback template is removed with it. Returns the old primary
    /// template if one existed — e.g. for the replay-attack experiments,
    /// which *steal* the template at this point.
    pub fn revoke(&self, user_id: u32) -> Option<CancelableTemplate> {
        let mut inner = self.lock();
        let removed = inner.templates.remove(&user_id);
        inner.degraded.remove(&user_id);
        inner.record(AuditKind::Revoke, user_id, removed.is_some(), None);
        self.monitor.observe_audit(AuditKind::Revoke.label());
        removed
    }

    /// Appends a verification decision to the audit trail. Called by the
    /// authenticator after the accept/reject decision is made.
    pub fn record_verify(&self, user_id: u32, accepted: bool, distance: f64) {
        let mut inner = self.lock();
        let kind = if accepted {
            AuditKind::VerifyHit
        } else {
            AuditKind::VerifyMiss
        };
        inner.record(kind, user_id, accepted, Some(distance));
        self.monitor.observe_audit(kind.label());
    }

    /// Appends a quality-gate rejection to the audit trail, carrying
    /// the machine-readable reason label.
    pub fn record_quality_reject(&self, user_id: u32, reason: &'static str) {
        let mut inner = self.lock();
        inner.record_with_reason(AuditKind::QualityReject, user_id, false, None, Some(reason));
        self.monitor.observe_audit(AuditKind::QualityReject.label());
    }

    /// Appends a degraded (accelerometer-only) verification decision to
    /// the audit trail.
    pub fn record_degraded_verify(&self, user_id: u32, accepted: bool, distance: f64) {
        let mut inner = self.lock();
        inner.record_with_reason(
            AuditKind::DegradedVerify,
            user_id,
            accepted,
            Some(distance),
            Some("gyro_fault"),
        );
        self.monitor
            .observe_audit(AuditKind::DegradedVerify.label());
    }

    /// Whether `user_id` has a template enrolled.
    pub fn contains(&self, user_id: u32) -> bool {
        self.lock().templates.contains_key(&user_id)
    }

    /// Number of enrolled templates.
    pub fn len(&self) -> usize {
        self.lock().templates.len()
    }

    /// Whether the enclave holds no templates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic access counters — observable side channel used by tests
    /// and the overhead experiment. Unlike the bounded [`audit_trail`],
    /// these never lose history to ring eviction.
    ///
    /// [`audit_trail`]: SecureEnclave::audit_trail
    pub fn access_counts(&self) -> AccessCounts {
        self.lock().counts
    }

    /// A snapshot of the retained audit events, oldest first.
    pub fn audit_trail(&self) -> Vec<AuditEvent> {
        let inner = self.lock();
        inner.trail.iter().copied().collect()
    }

    /// The retained audit events that target `user_id`, oldest first.
    pub fn audit_events_for(&self, user_id: u32) -> Vec<AuditEvent> {
        let inner = self.lock();
        inner
            .trail
            .iter()
            .filter(|e| e.user_id == user_id)
            .copied()
            .collect()
    }

    /// Number of retained audit events (capped at the ring capacity).
    pub fn audit_len(&self) -> usize {
        self.lock().trail.len()
    }

    /// Maximum number of audit events retained.
    pub fn audit_capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Total number of audited operations ever performed, including those
    /// already evicted from the ring.
    pub fn audit_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Total bytes of template storage currently held (primary plus
    /// degraded fallback templates).
    pub fn storage_bytes(&self) -> usize {
        let inner = self.lock();
        inner
            .templates
            .values()
            .chain(inner.degraded.values())
            .map(|t| t.storage_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{GaussianMatrix, MandiblePrint};

    fn template(seed: u64) -> CancelableTemplate {
        let g = GaussianMatrix::generate(seed, 16);
        g.transform(&MandiblePrint::new(vec![0.5; 16])).unwrap()
    }

    #[test]
    fn store_then_load_round_trips() {
        let enclave = SecureEnclave::new();
        let t = template(1);
        enclave.store(7, t.clone());
        assert_eq!(enclave.load(7).unwrap(), t);
        assert!(enclave.contains(7));
        assert_eq!(enclave.len(), 1);
    }

    #[test]
    fn missing_user_yields_not_enrolled() {
        let enclave = SecureEnclave::new();
        assert!(matches!(
            enclave.load(3),
            Err(MandiPassError::NotEnrolled { user_id: 3 })
        ));
    }

    #[test]
    fn revoke_removes_and_returns_template() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(2));
        let stolen = enclave.revoke(1);
        assert!(stolen.is_some());
        assert!(!enclave.contains(1));
        assert!(enclave.revoke(1).is_none());
        assert!(enclave.is_empty());
    }

    #[test]
    fn replacement_overwrites() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(3));
        let newer = template(4);
        enclave.store(1, newer.clone());
        assert_eq!(enclave.load(1).unwrap(), newer);
        assert_eq!(enclave.len(), 1);
    }

    #[test]
    fn access_counters_track_operations() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(5));
        let _ = enclave.load(1);
        let _ = enclave.load(2);
        assert_eq!(
            enclave.access_counts(),
            AccessCounts {
                stores: 1,
                loads: 2
            }
        );
    }

    #[test]
    fn audit_trail_records_typed_events_in_order() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(8));
        let _ = enclave.load(1);
        let _ = enclave.load(9); // miss
        enclave.record_verify(1, true, 0.12);
        enclave.record_verify(1, false, 0.81);
        let _ = enclave.revoke(1);

        let trail = enclave.audit_trail();
        let kinds: Vec<_> = trail.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AuditKind::Store,
                AuditKind::Load,
                AuditKind::Load,
                AuditKind::VerifyHit,
                AuditKind::VerifyMiss,
                AuditKind::Revoke,
            ]
        );
        // Sequence numbers are dense and monotonic.
        assert_eq!(
            trail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        // Miss-load outcome is false; verify events carry distances.
        assert!(!trail[2].outcome);
        assert_eq!(trail[2].user_id, 9);
        assert_eq!(trail[3].distance, Some(0.12));
        assert!(trail[3].outcome);
        assert_eq!(trail[4].distance, Some(0.81));
        assert!(!trail[4].outcome);
        assert!(trail[5].outcome);
    }

    #[test]
    fn audit_ring_is_bounded_but_seq_and_counts_survive_eviction() {
        let enclave = SecureEnclave::with_audit_capacity(4);
        for i in 0..10 {
            enclave.store(i, template(u64::from(i)));
        }
        assert_eq!(enclave.audit_len(), 4);
        assert_eq!(enclave.audit_capacity(), 4);
        assert_eq!(enclave.audit_seq(), 10);
        // The ring holds the newest four events, seqs 6..10.
        let seqs: Vec<_> = enclave.audit_trail().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Totals saw all ten stores despite eviction.
        assert_eq!(enclave.access_counts().stores, 10);
    }

    #[test]
    fn audit_ring_capacity_one_keeps_only_newest_event() {
        let enclave = SecureEnclave::with_audit_capacity(1);
        assert_eq!(enclave.audit_capacity(), 1);
        enclave.store(1, template(1));
        let _ = enclave.load(1);
        let _ = enclave.load(2);
        // Only the newest event survives, every seq was still assigned.
        assert_eq!(enclave.audit_len(), 1);
        let trail = enclave.audit_trail();
        assert_eq!(trail[0].kind, AuditKind::Load);
        assert_eq!(trail[0].user_id, 2);
        assert_eq!(trail[0].seq, 2);
        assert_eq!(enclave.audit_seq(), 3);
        // AccessCounts never lose history to eviction.
        assert_eq!(
            enclave.access_counts(),
            AccessCounts {
                stores: 1,
                loads: 2
            }
        );
    }

    #[test]
    fn audit_ring_default_capacity_boundary_evicts_exactly_one() {
        let enclave = SecureEnclave::new();
        assert_eq!(enclave.audit_capacity(), DEFAULT_AUDIT_CAPACITY);
        // Fill to exactly capacity: nothing evicted yet.
        enclave.store(0, template(0));
        for _ in 1..DEFAULT_AUDIT_CAPACITY {
            let _ = enclave.load(0);
        }
        assert_eq!(enclave.audit_len(), DEFAULT_AUDIT_CAPACITY);
        assert_eq!(enclave.audit_trail()[0].seq, 0);
        // One past capacity: exactly the oldest event is gone.
        let _ = enclave.load(0);
        assert_eq!(enclave.audit_len(), DEFAULT_AUDIT_CAPACITY);
        let trail = enclave.audit_trail();
        assert_eq!(trail[0].seq, 1);
        assert_eq!(trail[trail.len() - 1].seq, DEFAULT_AUDIT_CAPACITY as u64);
        assert_eq!(enclave.audit_seq(), DEFAULT_AUDIT_CAPACITY as u64 + 1);
        // Totals still count the evicted store and every load.
        assert_eq!(
            enclave.access_counts(),
            AccessCounts {
                stores: 1,
                loads: DEFAULT_AUDIT_CAPACITY as u64
            }
        );
    }

    #[test]
    fn audit_query_filters_by_user() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(1));
        enclave.store(2, template(2));
        enclave.record_verify(2, true, 0.2);
        let for_two = enclave.audit_events_for(2);
        assert_eq!(for_two.len(), 2);
        assert!(for_two.iter().all(|e| e.user_id == 2));
        assert!(enclave.audit_events_for(3).is_empty());
    }

    #[test]
    fn audit_kind_labels_are_stable() {
        assert_eq!(AuditKind::Store.label(), "store");
        assert_eq!(AuditKind::Load.label(), "load");
        assert_eq!(AuditKind::Revoke.label(), "revoke");
        assert_eq!(AuditKind::VerifyHit.label(), "verify_hit");
        assert_eq!(AuditKind::VerifyMiss.label(), "verify_miss");
        assert_eq!(AuditKind::QualityReject.label(), "quality_reject");
        assert_eq!(AuditKind::DegradedVerify.label(), "degraded_verify");
    }

    #[test]
    fn quality_reject_and_degraded_events_carry_reasons() {
        let enclave = SecureEnclave::new();
        enclave.record_quality_reject(4, "dead_axis");
        enclave.record_degraded_verify(4, true, 0.31);
        let trail = enclave.audit_events_for(4);
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[0].kind, AuditKind::QualityReject);
        assert_eq!(trail[0].reason, Some("dead_axis"));
        assert!(!trail[0].outcome);
        assert_eq!(trail[1].kind, AuditKind::DegradedVerify);
        assert_eq!(trail[1].distance, Some(0.31));
        assert!(trail[1].outcome);
    }

    #[test]
    fn degraded_slot_stores_loads_and_revokes_with_primary() {
        let enclave = SecureEnclave::new();
        assert!(enclave.load_degraded(5).is_none());
        enclave.store(5, template(10));
        let fallback = template(11);
        enclave.store_degraded(5, fallback.clone());
        assert_eq!(enclave.load_degraded(5), Some(fallback));
        // Storage accounts for both slots.
        assert_eq!(enclave.storage_bytes(), 2 * 16 * 4);
        // Revocation removes the fallback along with the primary.
        assert!(enclave.revoke(5).is_some());
        assert!(enclave.load_degraded(5).is_none());
        assert_eq!(enclave.storage_bytes(), 0);
        // The degraded store/load events are tagged in the trail: the
        // initial miss, the store, the hit, and the post-revoke miss.
        let tagged = enclave
            .audit_events_for(5)
            .iter()
            .filter(|e| e.reason == Some("degraded"))
            .count();
        assert_eq!(tagged, 4);
    }

    #[test]
    fn storage_accounts_all_templates() {
        let enclave = SecureEnclave::new();
        enclave.store(1, template(6));
        enclave.store(2, template(7));
        assert_eq!(enclave.storage_bytes(), 2 * 16 * 4);
    }

    #[test]
    fn enclave_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SecureEnclave>();
    }
}
