//! The deployments the workloads run against, and their set-up.
//!
//! The deployment is fixed: population, training, enrolment and
//! threshold calibration use constant seeds, so every run measures the
//! same trained system and only the workload seed varies the traffic.

use std::time::Instant;

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder, Recording, UserProfile};

/// Seed of the population, training, enrolment and calibration.
const DEPLOY_SEED: u64 = 0x6d61_6e64_6970_6173;

/// Recordings per enrolment (§VI: the print is averaged over them).
const ENROL_RECORDINGS: u64 = 4;

/// Genuine probes per cohort user that calibrate the threshold.
const CALIBRATION_PROBES: u64 = 2;

/// The paper's architecture: a 512-d print from channels `[8, 16, 32]`.
const DIM: usize = 512;
const CHANNELS: [usize; 3] = [8, 16, 32];
/// Reduced training: weights do not change the cost of a forward pass,
/// so training is cut to what separates genuine from impostor probes.
const HIRED: usize = 16;
const SECONDS_PER_PERSON: f64 = 3.0;
const EPOCHS: usize = 2;
/// Enrolled users, disjoint from the hired people.
const COHORT: usize = 20;

/// A trained, not yet enrolled deployment.
pub struct Trained {
    /// The deployment (default telemetry, global monitor).
    pub system: MandiPass,
    /// A copy of the deployed extractor, prepared for inference, for
    /// the traced decomposition.
    pub extractor: BiometricExtractor,
    /// The enrolled cohort (disjoint from the hired people).
    pub cohort: Vec<UserProfile>,
    /// Probe synthesiser.
    pub recorder: Recorder,
}

/// Trains the extractor on the hired people and returns the deployment
/// with its cohort.
///
/// # Panics
///
/// Panics when training fails — the constant configuration trains.
pub fn train() -> Trained {
    let population = Population::generate(HIRED + COHORT, DEPLOY_SEED);
    let recorder = Recorder::default();
    let config = TrainingConfig {
        seconds_per_person: SECONDS_PER_PERSON,
        epochs: EPOCHS,
        embedding_dim: DIM,
        channels: CHANNELS,
        seed: DEPLOY_SEED,
        ..TrainingConfig::default()
    };
    let mut extractor = VspTrainer::new(config)
        .train(&population.users()[..HIRED], &recorder)
        .expect("training the benchmark model");
    let system = MandiPass::new(extractor.clone(), PipelineConfig::default());
    extractor.prepare_inference();
    Trained {
        system,
        extractor,
        cohort: population.users()[HIRED..].to_vec(),
        recorder,
    }
}

/// The user's Gaussian matrix.
pub fn matrix_for(user: u32) -> GaussianMatrix {
    GaussianMatrix::generate(DEPLOY_SEED ^ (u64::from(user) << 16), DIM)
}

/// The user's enrolment recordings.
fn enrolment(recorder: &Recorder, user: &UserProfile) -> Vec<Recording> {
    (0..ENROL_RECORDINGS)
        .map(|s| recorder.record(user, Condition::Normal, DEPLOY_SEED ^ 0xe0 ^ (s << 8)))
        .collect()
}

/// Enrols every cohort user through `enrol`, returning each call's
/// latency in nanoseconds.
pub fn enrol_cohort(
    cohort: &[UserProfile],
    recorder: &Recorder,
    mut enrol: impl FnMut(&UserProfile, &[Recording], GaussianMatrix),
) -> Vec<u64> {
    cohort
        .iter()
        .map(|user| {
            let recordings = enrolment(recorder, user);
            let matrix = matrix_for(user.id);
            let start = Instant::now();
            enrol(user, &recordings, matrix);
            elapsed_ns(start)
        })
        .collect()
}

/// Calibrates the accept threshold on the enrolled cohort: the
/// nearest-rank 95th percentile of the distances of
/// [`CALIBRATION_PROBES`] fresh genuine probes per user, so the
/// threshold accepts about 95 % of genuine attempts (a usability-first
/// operating point).
///
/// # Panics
///
/// Panics when a calibration probe fails to verify.
pub fn calibrate(system: &MandiPass, cohort: &[UserProfile], recorder: &Recorder) -> f64 {
    let mut distances: Vec<f64> = cohort
        .iter()
        .flat_map(|user| {
            let matrix = matrix_for(user.id);
            (0..CALIBRATION_PROBES).map(move |s| {
                let probe =
                    recorder.record(user, Condition::Normal, DEPLOY_SEED ^ 0xca1 ^ (s << 8));
                system
                    .verify(user.id, &probe, &matrix)
                    .expect("calibration probe verifies")
                    .distance
            })
        })
        .collect();
    distances.sort_by(f64::total_cmp);
    let rank = (0.95 * distances.len() as f64).ceil() as usize;
    distances[rank.clamp(1, distances.len()) - 1]
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Resident set size of this process in MiB (Linux `VmRSS`).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Usable cores, which size the load: server workers, client threads
/// and connections.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
