//! Cross-crate integration tests for the zero-alloc inference fast
//! path: parity between the deployed im2col+GEMM path and the naive
//! tensor-per-layer oracle on a *trained* extractor, batch invariance,
//! scratch-arena steady state, the hot-path bench timing the deployed
//! GEMM kernel, and equivalence of the batched policy walk with direct
//! single-probe verification and with single-probe policy requests.

use mandipass::extractor::{arena_stats, reset_arena_growth};
use mandipass::gradient_array::GradientArray;
use mandipass::prelude::*;
use mandipass::preprocess::preprocess;
use mandipass::quality;
use mandipass_bench::{EvalScale, TrainedStack};
use mandipass_imu_sim::{Condition, Recording, UserProfile};
use mandipass_util::json::Value;

fn assert_bitwise(a: &MandiblePrint, b: &MandiblePrint, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what}: dimensions diverged");
    for (i, (va, vb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{what}: element {i} diverged");
    }
}

fn grads_for(stack: &TrainedStack, user: &UserProfile, n: u64) -> Vec<GradientArray> {
    let config = PipelineConfig::default();
    (0..n)
        .map(|s| {
            let rec = stack.recorder.record(user, Condition::Normal, 0xf00d ^ s);
            let arr = preprocess(&rec, &config).expect("probe preprocesses");
            GradientArray::from_signal_array(&arr, config.half_n()).expect("probe gradients")
        })
        .collect()
}

#[test]
fn trained_fast_path_matches_naive_oracle_bit_for_bit() {
    let mut stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 3);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    let naive = stack
        .extractor
        .extract_naive(&refs)
        .expect("naive extracts");
    let fast = stack
        .extractor
        .extract_prints_batch(&refs)
        .expect("fast extracts");
    assert_eq!(naive.len(), fast.len());
    for (i, (n, f)) in naive.iter().zip(&fast).enumerate() {
        assert_bitwise(n, f, &format!("probe {i} fast vs naive"));
    }
}

#[test]
fn batched_extraction_is_invariant_to_batch_size() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 3);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    let batched = stack
        .extractor
        .extract_prints_batch(&refs)
        .expect("batch extracts");
    for (i, grad) in grads.iter().enumerate() {
        let single = stack
            .extractor
            .extract_prints_batch(&[grad])
            .expect("single extracts");
        assert_bitwise(
            &batched[i],
            &single[0],
            &format!("probe {i} batched vs single"),
        );
    }
}

/// Serialising the model exposes its parameters mutably, which drops
/// the packed linear weights; the hot-path bench that runs after it on
/// the same stack must still time the deployed GEMM head, not the
/// scalar fallback.
#[test]
fn hotpath_bench_times_the_gemm_head_after_serialization() {
    let mut stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let _ = mandipass_nn::serialize::serialized_size(&mut stack.extractor);
    let (_, doc) = mandipass_bench::experiments::exp_hotpath(&mut stack).expect("bench runs");
    let frames = doc
        .get("profile")
        .and_then(|p| p.get("frames"))
        .expect("document embeds profile frames");
    let Value::Object(frames) = frames else {
        panic!("profile.frames is not an object: {frames:?}");
    };
    assert!(
        frames
            .iter()
            .any(|(path, _)| path.ends_with("cnn_forward.embedding_head.gemm")),
        "no embedding-head GEMM frame: {:?}",
        frames.iter().map(|(path, _)| path).collect::<Vec<_>>()
    );
}

#[test]
fn arena_reaches_steady_state_across_extractions() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.held_out_users()[0].clone();
    let grads = grads_for(&stack, &user, 2);
    let refs: Vec<&GradientArray> = grads.iter().collect();
    // Two warm-up passes size the pool; after that the arena must stop
    // growing — that is the zero-alloc claim at integration level.
    for _ in 0..2 {
        let _ = stack.extractor.extract_prints_batch(&refs).expect("warms");
    }
    reset_arena_growth();
    for _ in 0..4 {
        let _ = stack
            .extractor
            .extract_prints_batch(&refs)
            .expect("extracts");
    }
    let stats = arena_stats();
    assert_eq!(
        stats.growth_events, 0,
        "arena grew after warm-up: {stats:?}"
    );
    assert!(stats.high_water_bytes > 0);
}

/// The policy walk over two clean probes (one [2,…] forward) must reach the exact decision direct single-probe verification
/// reaches: same accept bit, bit-identical distance, same attempt count.
#[test]
fn multi_probe_policy_walk_matches_direct_verification() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.population.users()[0].clone();
    let recorder = stack.recorder.clone();
    for threshold in [1.5, 1e-9] {
        // 1.5 accepts any probe (cosine distance < 2), 1e-9 rejects any;
        // both decide on attempt 1, so the two paths must agree bit for
        // bit whichever way the decision goes.
        let config = PipelineConfig {
            threshold,
            ..PipelineConfig::default()
        };
        let mut sys = MandiPass::new(stack.extractor.clone(), config);
        let matrix = GaussianMatrix::generate(7, sys.embedding_dim());
        let enrolment: Vec<Recording> = (0..3u64)
            .map(|s| recorder.record(&user, Condition::Normal, 600 + s))
            .collect();
        sys.enroll(user.id, &enrolment, &matrix).expect("enrols");

        let p1 = recorder.record(&user, Condition::Normal, 901);
        let p2 = recorder.record(&user, Condition::Normal, 902);
        let direct = sys.verify(user.id, &p1, &matrix).expect("verifies");

        let policy = VerifyPolicy::default();
        let multi = sys
            .verify_with_policy(user.id, &[p1.clone(), p2.clone()], &matrix, &policy)
            .expect("decides");
        assert_eq!(multi.attempts, 1, "first quality-ok probe decides");
        assert_eq!(multi.outcome.accepted, direct.accepted);
        assert_eq!(
            multi.outcome.distance.to_bits(),
            direct.distance.to_bits(),
            "policy walk diverged from direct verification"
        );
        assert!(multi.rejects.is_empty());
        assert_eq!(multi.outcome.accepted, threshold > 1.0);
    }
}

/// The probe kinds the policy walk branches on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ProbeKind {
    /// Passes the quality gate and verifies normally.
    Clean,
    /// Non-finite samples: a quality reject.
    NonFinite,
    /// A stuck gyro axis: verifies in degraded accelerometer-only mode.
    StuckGyro,
    /// Passes the quality gate but fails preprocessing (the capture ends
    /// before the vibration segment does).
    Truncated,
}

const PROBE_KINDS: [ProbeKind; 4] = [
    ProbeKind::Clean,
    ProbeKind::NonFinite,
    ProbeKind::StuckGyro,
    ProbeKind::Truncated,
];

fn probe_of(kind: ProbeKind, clean: &Recording, config: &PipelineConfig) -> Recording {
    let rebuild = |axes: Vec<Vec<f64>>| {
        Recording::from_parts(
            clean.sample_rate_hz(),
            axes,
            clean.condition(),
            clean.user_id(),
        )
        .expect("rebuilds the probe")
    };
    match kind {
        ProbeKind::Clean => clean.clone(),
        ProbeKind::NonFinite => rebuild(vec![vec![f64::NAN; clean.len()]; 6]),
        ProbeKind::StuckGyro => {
            let mut axes = clean.axes().to_vec();
            let frozen = axes[3][0];
            axes[3].iter_mut().for_each(|v| *v = frozen);
            rebuild(axes)
        }
        ProbeKind::Truncated => {
            let start =
                mandipass_dsp::detect::detect_vibration_start(clean.az(), &config.detector())
                    .expect("clean probe has a vibration start");
            let keep = start + config.n - 1;
            rebuild(clean.axes().iter().map(|a| a[..keep].to_vec()).collect())
        }
    }
}

/// Everything a policy request decides and leaves in the audit trail,
/// in bit-comparable form.
#[derive(Debug, PartialEq)]
struct WalkRecord {
    /// `(accepted, distance bits, degraded)` of the deciding probe, or
    /// `None` when the retry budget was exhausted.
    decision: Option<(bool, u64, bool)>,
    attempts: usize,
    rejects: Vec<String>,
    /// Non-`Load` audit events: `(kind, outcome, distance bits, reason)`.
    events: Vec<(AuditKind, bool, Option<u64>, Option<&'static str>)>,
}

fn walk(
    sys: &MandiPass,
    user_id: u32,
    probes: &[Recording],
    matrix: &GaussianMatrix,
) -> WalkRecord {
    let from = sys.enclave().audit_seq();
    let result = sys.verify_with_policy(user_id, probes, matrix, &VerifyPolicy::default());
    let events = sys
        .enclave()
        .audit_events_for(user_id)
        .into_iter()
        .filter(|e| e.seq >= from && e.kind != AuditKind::Load)
        .map(|e| (e.kind, e.outcome, e.distance.map(f64::to_bits), e.reason))
        .collect();
    match result {
        Ok(d) => WalkRecord {
            decision: Some((d.outcome.accepted, d.outcome.distance.to_bits(), d.degraded)),
            attempts: d.attempts,
            rejects: d.rejects,
            events,
        },
        Err(MandiPassError::RetriesExhausted { attempts, reasons }) => WalkRecord {
            decision: None,
            attempts,
            rejects: reasons,
            events,
        },
        Err(other) => panic!("policy walk failed outright: {other:?}"),
    }
}

/// Property: for every probe list of length 1–3 over {clean, quality
/// reject, degraded, preprocessing failure}, a policy request decides
/// exactly as the first deciding single-probe request taken in order,
/// with the earlier single-probe rejects concatenated — same accept bit,
/// distance bits, attempt count, degraded flag, reject labels, and
/// non-`Load` audit events.
#[test]
fn policy_walk_equals_first_deciding_single_probe_walk() {
    let stack = TrainedStack::build(EvalScale::smoke_test()).expect("training succeeds");
    let user = stack.population.users()[0].clone();
    let recorder = stack.recorder.clone();
    let config = PipelineConfig::default();
    let mut sys = MandiPass::new(stack.extractor.clone(), config.clone());
    let matrix = GaussianMatrix::generate(17, sys.embedding_dim());
    let enrolment: Vec<Recording> = (0..3u64)
        .map(|s| recorder.record(&user, Condition::Normal, 700 + s))
        .collect();
    sys.enroll(user.id, &enrolment, &matrix).expect("enrols");

    // One clean capture per list position, so a batch holds distinct
    // prints and the walk must pair each probe with its own.
    let cleans: Vec<Recording> = (0..3u64)
        .map(|s| recorder.record(&user, Condition::Normal, 950 + s))
        .collect();
    for clean in &cleans {
        let truncated = probe_of(ProbeKind::Truncated, clean, &config);
        assert!(quality::assess(&truncated, &QualityConfig::default()).ok());
        assert!(preprocess(&truncated, &config).is_err());
    }

    // Anchor the single-probe walks the property is built on: a clean
    // probe decides as plain `verify` does, a truncated one is rejected
    // with `verify`'s pipeline error, a NaN probe with its quality-gate
    // reasons, and a stuck gyro decides in degraded mode.
    let clean = &cleans[0];
    let single = |kind| walk(&sys, user.id, &[probe_of(kind, clean, &config)], &matrix);
    let direct = sys.verify(user.id, clean, &matrix).expect("verifies");
    assert_eq!(
        single(ProbeKind::Clean).decision,
        Some((direct.accepted, direct.distance.to_bits(), false))
    );
    let truncated = probe_of(ProbeKind::Truncated, clean, &config);
    let err = sys
        .verify(user.id, &truncated, &matrix)
        .expect_err("a truncated probe fails preprocessing");
    assert_eq!(
        single(ProbeKind::Truncated).rejects,
        [format!("pipeline:{}", err.label())]
    );
    let nan = probe_of(ProbeKind::NonFinite, clean, &config);
    let reasons: Vec<&str> = quality::assess(&nan, &QualityConfig::default())
        .reasons
        .iter()
        .map(|r| r.label())
        .collect();
    assert_eq!(
        single(ProbeKind::NonFinite).rejects,
        [format!("quality:{}", reasons.join("+"))]
    );
    assert!(single(ProbeKind::StuckGyro)
        .decision
        .is_some_and(|(_, _, degraded)| degraded));

    let mut lists: Vec<Vec<ProbeKind>> = PROBE_KINDS.iter().map(|&k| vec![k]).collect();
    for len in 2..=3 {
        let shorter: Vec<Vec<ProbeKind>> = lists
            .iter()
            .filter(|l| l.len() == len - 1)
            .cloned()
            .collect();
        for prefix in shorter {
            for &k in &PROBE_KINDS {
                let mut list = prefix.clone();
                list.push(k);
                lists.push(list);
            }
        }
    }
    assert_eq!(lists.len(), 4 + 16 + 64);

    for kinds in &lists {
        let probes: Vec<Recording> = kinds
            .iter()
            .zip(&cleans)
            .map(|(&k, clean)| probe_of(k, clean, &config))
            .collect();
        let multi = walk(&sys, user.id, &probes, &matrix);

        let mut expected = WalkRecord {
            decision: None,
            attempts: 0,
            rejects: Vec::new(),
            events: Vec::new(),
        };
        for probe in &probes {
            let single = walk(&sys, user.id, std::slice::from_ref(probe), &matrix);
            expected.attempts += 1;
            expected.rejects.extend(single.rejects);
            expected.events.extend(single.events);
            if single.decision.is_some() {
                expected.decision = single.decision;
                break;
            }
        }
        assert_eq!(multi, expected, "probe list {kinds:?}");
    }
}
