//! MandiblePrints and cancelable templates (§VI).
//!
//! Replay defence: before a MandiblePrint is stored, it is multiplied by
//! a user-chosen **Gaussian matrix** `G`. The stored value `x' = x·G` is
//! *cancelable*: if it leaks, the user switches to a fresh matrix and the
//! leaked template no longer matches anything the verifier computes —
//! while genuine verification is unaffected because random projection
//! approximately preserves angles (Johnson–Lindenstrauss), so the cosine
//! distance between two prints transformed by the *same* matrix stays
//! close to the original.

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::SeedableRng;
use mandipass_util::rand_distr::{Distribution, StandardNormal};

use crate::error::MandiPassError;

/// A biometric vector produced by the extractor (sigmoid outputs, each
/// component in `(0, 1)`; paper default dimension 512).
#[derive(Debug, Clone, PartialEq)]
pub struct MandiblePrint(Vec<f32>);

impl MandiblePrint {
    /// Wraps an extractor output vector.
    pub fn new(values: Vec<f32>) -> Self {
        MandiblePrint(values)
    }

    /// The vector components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Mean of several prints (used to enrol from multiple probes).
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::NoEnrolmentData`] for an empty slice and
    /// [`MandiPassError::DimensionMismatch`] for ragged inputs.
    pub fn mean(prints: &[MandiblePrint]) -> Result<MandiblePrint, MandiPassError> {
        let first = prints.first().ok_or(MandiPassError::NoEnrolmentData)?;
        let d = first.dim();
        let mut acc = vec![0.0f32; d];
        for p in prints {
            if p.dim() != d {
                return Err(MandiPassError::DimensionMismatch {
                    expected: d,
                    got: p.dim(),
                });
            }
            for (a, &v) in acc.iter_mut().zip(p.as_slice()) {
                *a += v;
            }
        }
        let n = prints.len() as f32;
        for a in &mut acc {
            *a /= n;
        }
        Ok(MandiblePrint(acc))
    }
}

/// Mixed into a matrix seed before it seeds the entry stream.
const MATRIX_SALT: u64 = 0x6761_7573_7373;

/// A user-revocable Gaussian projection matrix, stored compactly as its
/// generation seed. Entries are `N(0, 1/√dim)`, drawn in row-major order
/// from the salted seed with the ziggurat [`StandardNormal`] sampler.
///
/// `G` is never materialised: [`GaussianMatrix::transform`] streams it
/// one row at a time straight into the template accumulator, so a
/// transform costs `dim²` ziggurat draws and O(dim) memory, not a
/// `dim × dim` buffer (1 MiB at the paper's 512-d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaussianMatrix {
    seed: u64,
    dim: usize,
}

impl GaussianMatrix {
    /// Creates the matrix identity for `(seed, dim)`. A square `dim×dim`
    /// projection keeps the template the same size as the print (the
    /// paper's ≈ 1.8 KB template is 512 fp values, with some metadata).
    pub fn generate(seed: u64, dim: usize) -> Self {
        GaussianMatrix { seed, dim }
    }

    /// The generation seed (the user's revocable secret).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Projection dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Transforms a print into a cancelable template: `x' = x·G`.
    ///
    /// Row `i` of `G` is drawn and folded in as `x'_j += x_i·g_ij`, for
    /// `i` ascending — the same additions, in the same order, as the
    /// column-wise product over a materialised `G`, so the result is bit
    /// for bit that product.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::DimensionMismatch`] when the print's
    /// dimension differs from the matrix dimension.
    pub fn transform(&self, print: &MandiblePrint) -> Result<CancelableTemplate, MandiPassError> {
        let _span = mandipass_telemetry::span("template_transform");
        if print.dim() != self.dim {
            return Err(MandiPassError::DimensionMismatch {
                expected: self.dim,
                got: print.dim(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ MATRIX_SALT);
        let scale = 1.0 / (self.dim as f64).sqrt();
        let mut row = vec![0.0f32; self.dim];
        let mut out = vec![0.0f32; self.dim];
        for &xi in print.as_slice() {
            for g in &mut row {
                *g = (StandardNormal.sample(&mut rng) * scale) as f32;
            }
            for (o, &g) in out.iter_mut().zip(&row) {
                *o += xi * g;
            }
        }
        Ok(CancelableTemplate {
            values: out,
            matrix_seed: self.seed,
        })
    }
}

/// A Gaussian-transformed MandiblePrint — safe to store at rest; revoked
/// by switching to a new [`GaussianMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct CancelableTemplate {
    values: Vec<f32>,
    matrix_seed: u64,
}

impl CancelableTemplate {
    /// The transformed vector.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Seed of the matrix that produced this template (metadata used to
    /// detect stale templates after revocation).
    pub fn matrix_seed(&self) -> u64 {
        self.matrix_seed
    }

    /// Serialised size in bytes (values + seed). The paper reports
    /// ≈ 1.8 KB per template at 512 dimensions.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>() + std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_distance;
    use mandipass_util::rand::Rng;

    fn random_print(seed: u64, dim: usize) -> MandiblePrint {
        let mut rng = StdRng::seed_from_u64(seed);
        MandiblePrint::new((0..dim).map(|_| rng.gen_range(0.0f32..1.0)).collect())
    }

    fn perturbed(print: &MandiblePrint, seed: u64, sigma: f32) -> MandiblePrint {
        let mut rng = StdRng::seed_from_u64(seed);
        MandiblePrint::new(
            print
                .as_slice()
                .iter()
                .map(|&v| (v + rng.gen_range(-sigma..sigma)).clamp(0.0, 1.0))
                .collect(),
        )
    }

    #[test]
    fn same_matrix_preserves_genuine_similarity() {
        let g = GaussianMatrix::generate(42, 256);
        let a = random_print(1, 256);
        let b = perturbed(&a, 2, 0.05);
        let raw = cosine_distance(a.as_slice(), b.as_slice());
        let ta = g.transform(&a).unwrap();
        let tb = g.transform(&b).unwrap();
        let transformed = cosine_distance(ta.as_slice(), tb.as_slice());
        // Random projection approximately preserves angles.
        assert!(
            (transformed - raw).abs() < 0.15,
            "raw {raw:.3} vs transformed {transformed:.3}"
        );
        assert!(transformed < 0.2, "genuine pair too distant: {transformed}");
    }

    #[test]
    fn different_matrices_break_similarity() {
        // The §VI replay defence: the same print under two different
        // matrices must be far apart (the stolen template fails).
        let g1 = GaussianMatrix::generate(1, 256);
        let g2 = GaussianMatrix::generate(2, 256);
        let p = random_print(3, 256);
        let t1 = g1.transform(&p).unwrap();
        let t2 = g2.transform(&p).unwrap();
        let d = cosine_distance(t1.as_slice(), t2.as_slice());
        assert!(d > 0.5485, "cross-matrix distance {d} below threshold");
    }

    /// Test oracle: materialises the whole `dim × dim` G from the
    /// canonical stream (salted seed, ziggurat draws scaled by `1/√dim`,
    /// row-major) and takes `x·G` column by column.
    fn materialised_transform(g: &GaussianMatrix, print: &MandiblePrint) -> Vec<f32> {
        let dim = g.dim();
        let mut rng = StdRng::seed_from_u64(g.seed() ^ MATRIX_SALT);
        let scale = 1.0 / (dim as f64).sqrt();
        let entries: Vec<f32> = (0..dim * dim)
            .map(|_| (StandardNormal.sample(&mut rng) * scale) as f32)
            .collect();
        let x = print.as_slice();
        (0..dim)
            .map(|j| {
                let mut acc = 0.0f32;
                for (i, &xv) in x.iter().enumerate() {
                    acc += xv * entries[i * dim + j];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn streamed_transform_matches_materialised_oracle_bitwise() {
        for dim in [1, 2, 63, 64, 512] {
            for seed in [0u64, 7, 0x5e12, u64::MAX] {
                let g = GaussianMatrix::generate(seed, dim);
                let p = random_print(seed.wrapping_add(dim as u64), dim);
                let streamed = g.transform(&p).unwrap();
                let oracle = materialised_transform(&g, &p);
                for (j, (s, o)) in streamed.as_slice().iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        o.to_bits(),
                        "dim {dim} seed {seed} component {j}: {s} vs {o}"
                    );
                }
                assert_eq!(streamed.dim(), dim);
            }
        }
    }

    #[test]
    fn transform_is_deterministic() {
        let g = GaussianMatrix::generate(9, 64);
        let p = random_print(4, 64);
        assert_eq!(g.transform(&p).unwrap(), g.transform(&p).unwrap());
    }

    #[test]
    fn impostor_separation_survives_projection() {
        let g = GaussianMatrix::generate(5, 256);
        let a = random_print(10, 256);
        let b = random_print(11, 256);
        let raw = cosine_distance(a.as_slice(), b.as_slice());
        let ta = g.transform(&a).unwrap();
        let tb = g.transform(&b).unwrap();
        let transformed = cosine_distance(ta.as_slice(), tb.as_slice());
        assert!(
            (transformed - raw).abs() < 0.25,
            "raw {raw} vs {transformed}"
        );
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let g = GaussianMatrix::generate(6, 64);
        let p = random_print(12, 32);
        assert!(matches!(
            g.transform(&p),
            Err(MandiPassError::DimensionMismatch {
                expected: 64,
                got: 32
            })
        ));
    }

    #[test]
    fn template_storage_matches_paper_ballpark() {
        let g = GaussianMatrix::generate(7, 512);
        let p = random_print(13, 512);
        let t = g.transform(&p).unwrap();
        // 512 × 4 bytes + seed = 2056 bytes ≈ the paper's "about 1.8 KB".
        assert_eq!(t.storage_bytes(), 512 * 4 + 8);
        assert_eq!(t.matrix_seed(), 7);
    }

    #[test]
    fn mean_of_prints_averages_componentwise() {
        let a = MandiblePrint::new(vec![0.0, 1.0]);
        let b = MandiblePrint::new(vec![1.0, 0.0]);
        let m = MandiblePrint::mean(&[a, b]).unwrap();
        assert_eq!(m.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn mean_rejects_empty_and_ragged() {
        assert!(matches!(
            MandiblePrint::mean(&[]),
            Err(MandiPassError::NoEnrolmentData)
        ));
        let a = MandiblePrint::new(vec![0.0, 1.0]);
        let b = MandiblePrint::new(vec![1.0]);
        assert!(matches!(
            MandiblePrint::mean(&[a, b]),
            Err(MandiPassError::DimensionMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::similarity::cosine_distance;
    use mandipass_util::proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn projection_roughly_preserves_distance(
            seed_a in 0u64..1000,
            seed_b in 1000u64..2000,
            mseed in 0u64..100,
        ) {
            let dim = 128;
            let mut ra = mandipass_util::rand::rngs::StdRng::seed_from_u64(seed_a);
            let mut rb = mandipass_util::rand::rngs::StdRng::seed_from_u64(seed_b);
            use mandipass_util::rand::Rng;
            let a = MandiblePrint::new((0..dim).map(|_| ra.gen_range(0.0f32..1.0)).collect());
            let b = MandiblePrint::new((0..dim).map(|_| rb.gen_range(0.0f32..1.0)).collect());
            let g = GaussianMatrix::generate(mseed, dim);
            let raw = cosine_distance(a.as_slice(), b.as_slice());
            let t = cosine_distance(
                g.transform(&a).unwrap().as_slice(),
                g.transform(&b).unwrap().as_slice(),
            );
            prop_assert!((raw - t).abs() < 0.35, "raw {} vs transformed {}", raw, t);
        }
    }
}
