//! Replay attack and template revocation (§VI): the cancelable-template
//! lifecycle end to end.
//!
//! ```text
//! cargo run --release --example template_revocation
//! ```
//!
//! 1. The user enrols under Gaussian matrix G₁.
//! 2. An attacker steals the cancelable template from the enclave.
//! 3. Replaying the stolen template verifies — until the user revokes.
//! 4. The user switches to G₂ and re-enrols; the stolen template now
//!    scores far above the threshold, while the genuine user still
//!    verifies.

use mandipass::prelude::*;
use mandipass_imu_sim::{Condition, Population, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = Population::generate(20, 13);
    let recorder = Recorder::default();
    let trainer = VspTrainer::new(TrainingConfig::example_demo());
    let extractor = trainer.train(&population.users()[1..], &recorder)?;
    let mut mandipass = MandiPass::new(extractor, PipelineConfig::default());

    let user = &population.users()[0];
    let matrix_one = GaussianMatrix::generate(0xaaaa, mandipass.embedding_dim());

    println!(
        "== enrolment under matrix G1 (seed {:#x}) ==",
        matrix_one.seed()
    );
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 400 + s))
        .collect();
    mandipass.enroll(user.id, &enrolment, &matrix_one)?;

    println!("\n== the attacker steals the template from the enclave ==");
    let stolen = mandipass.enclave().load(user.id)?;
    println!(
        "stolen template: {} bytes (the matrix seed is not stored with it)",
        stolen.storage_bytes()
    );

    let replay = mandipass.verify_cancelable(user.id, &stolen)?;
    println!(
        "replay before revocation: distance {:.4} → {}",
        replay.distance,
        if replay.accepted {
            "ACCEPTED (stolen templates replay until revoked)"
        } else {
            "rejected"
        }
    );

    println!("\n== the user revokes and re-enrols under matrix G2 ==");
    mandipass.revoke(user.id);
    let matrix_two = GaussianMatrix::generate(0xbbbb, mandipass.embedding_dim());
    let enrolment: Vec<_> = (0..4)
        .map(|s| recorder.record(user, Condition::Normal, 500 + s))
        .collect();
    mandipass.enroll(user.id, &enrolment, &matrix_two)?;

    let replay = mandipass.verify_cancelable(user.id, &stolen)?;
    println!(
        "replay after revocation:  distance {:.4} → {}",
        replay.distance,
        if replay.accepted {
            "ACCEPTED (!)"
        } else {
            "rejected — the stolen template is dead"
        }
    );

    // The genuine user is unaffected: same hum, new matrix.
    let probe = recorder.record(user, Condition::Normal, 600);
    let genuine = mandipass.verify(user.id, &probe, &matrix_two)?;
    println!(
        "genuine user after revocation: distance {:.4} → {}",
        genuine.distance,
        if genuine.distance < replay.distance {
            "closer than the replay, as designed"
        } else {
            "(!)"
        }
    );
    Ok(())
}
