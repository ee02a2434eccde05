//! MandiblePrints and cancelable templates (§VI).
//!
//! Replay defence: before a MandiblePrint is stored, it is multiplied by
//! a user-chosen random matrix `G` (the paper's Gaussian matrix; here a
//! seeded structured orthogonal projection, see [`GaussianMatrix`]). The
//! stored value `x' = G·x` is *cancelable*: if it leaks, the user
//! switches to a fresh matrix and the leaked template no longer matches
//! anything the verifier computes — while genuine verification is
//! unaffected because an orthogonal projection preserves angles, so the
//! cosine distance between two prints transformed by the *same* matrix
//! equals the original (exactly at power-of-two dims, up to rounding).

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::{Rng, SeedableRng};

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

/// Mixed into a matrix seed before it seeds the sign stream.
const MATRIX_SALT: u64 = 0x6761_7573_7373;

/// Sign-flip + Walsh–Hadamard rounds in the projection.
const ROUNDS: u32 = 3;

/// A user-revocable random projection, stored compactly as its seed.
///
/// The projection is the structured orthogonal transform
/// `G = m^{-3/2}·H·D₃·H·D₂·H·D₁` over `m = dim.next_power_of_two()`
/// (Ailon & Chazelle's fast JL transform, with the three rounds of Yu
/// et al.'s "Orthogonal Random Features"): each `Dₖ` is a diagonal of
/// random signs and `H` the `m × m` Walsh–Hadamard matrix, entries
/// `(-1)^popcount(i & j)`. The print is zero-padded to `m` and the first
/// `dim` outputs are kept, so at power-of-two dims `G` is exactly
/// orthonormal. The sign bits are the only randomness: round `k` takes
/// one `u64` per 64 entries from `StdRng::seed_from_u64(seed ^
/// MATRIX_SALT)`, entry `i` of the round using bit `i % 64` (24 draws
/// at 512-d). A transform costs `3·m·log₂ m` additions and O(dim)
/// memory; neither `G` nor `H` is ever built.
///
/// The name is the paper's (§VI multiplies by a Gaussian matrix); the
/// revocation property it relies on — a fresh seed sends the same print
/// to a nearly orthogonal template — holds for this projection too.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaussianMatrix {
    seed: u64,
    dim: usize,
}

/// Redacts the seed: it is the user's revocation secret, and with it an
/// orthonormal projection inverts by one transposed pass.
impl std::fmt::Debug for GaussianMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaussianMatrix")
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl GaussianMatrix {
    /// Creates the projection identity for `(seed, dim)`. A square
    /// `dim×dim` projection keeps the template the same size as the print
    /// (the paper's ≈ 1.8 KB template is 512 fp values).
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

    /// Transforms a print into a cancelable template: `x' = G·x`.
    ///
    /// Works in f64 over one `m`-long buffer: three rounds of sign flips
    /// followed by an in-place fast Walsh–Hadamard transform, then one
    /// `m^{-3/2}` scale as the first `dim` entries narrow to f32.
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
        let m = self.dim.next_power_of_two();
        let mut v = vec![0.0f64; m];
        for (vi, &x) in v.iter_mut().zip(print.as_slice()) {
            *vi = f64::from(x);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ MATRIX_SALT);
        for _ in 0..ROUNDS {
            flip_signs(&mut v, &mut rng);
            walsh_hadamard(&mut v);
        }
        let scale = (m as f64).powi(-3).sqrt();
        Ok(CancelableTemplate {
            values: v[..self.dim].iter().map(|&x| (x * scale) as f32).collect(),
        })
    }
}

/// Multiplies `v` by one random sign diagonal: entry `i` is negated
/// when bit `i % 64` of the `(i / 64)`-th draw is set.
fn flip_signs(v: &mut [f64], rng: &mut StdRng) {
    for chunk in v.chunks_mut(64) {
        let bits = rng.next_u64();
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = f64::from_bits(x.to_bits() ^ (((bits >> j) & 1) << 63));
        }
    }
}

/// In-place unnormalised fast Walsh–Hadamard transform,
/// `v ← H·v` with `H_ij = (-1)^popcount(i & j)`; `v.len()` is a power
/// of two.
fn walsh_hadamard(v: &mut [f64]) {
    let mut h = 1;
    while h < v.len() {
        for block in v.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi) {
                let (x, y) = (*a, *b);
                *a = x + y;
                *b = x - y;
            }
        }
        h *= 2;
    }
}

/// A projected MandiblePrint — safe to store at rest; revoked by
/// switching to a new [`GaussianMatrix`]. It carries no trace of the
/// matrix seed: the seed together with the template would give the raw
/// print back.
#[derive(Debug, Clone, PartialEq)]
pub struct CancelableTemplate {
    values: Vec<f32>,
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

    /// Serialised size in bytes (the f32 values). The paper reports
    /// ≈ 1.8 KB per template at 512 dimensions.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_distance;

    pub(super) fn random_print(seed: u64, dim: usize) -> MandiblePrint {
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

    /// Test oracle: applies `G = m^{-3/2}·H·D₃·H·D₂·H·D₁` in f64 as
    /// dense matrix–vector products, from the explicit Hadamard entries
    /// `(-1)^popcount(i & j)` and the documented sign stream (round `k`,
    /// entry `i`: bit `i % 64` of the round's `(i / 64)`-th draw).
    fn dense_oracle(g: &GaussianMatrix, print: &MandiblePrint) -> Vec<f64> {
        let dim = g.dim();
        let m = dim.next_power_of_two();
        let hadamard = |i: usize, j: usize| {
            if (i & j).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        };
        let mut rng = StdRng::seed_from_u64(g.seed() ^ MATRIX_SALT);
        let mut v: Vec<f64> = (0..m)
            .map(|i| print.as_slice().get(i).map_or(0.0, |&x| f64::from(x)))
            .collect();
        for _ in 0..3 {
            let words: Vec<u64> = (0..m.div_ceil(64)).map(|_| rng.next_u64()).collect();
            let signed: Vec<f64> = (0..m)
                .map(|j| {
                    if (words[j / 64] >> (j % 64)) & 1 == 1 {
                        -v[j]
                    } else {
                        v[j]
                    }
                })
                .collect();
            v = (0..m)
                .map(|i| {
                    (0..m).map(|j| hadamard(i, j) * signed[j]).sum::<f64>() / (m as f64).sqrt()
                })
                .collect();
        }
        v.truncate(dim);
        v
    }

    #[test]
    fn fast_transform_matches_dense_hadamard_oracle() {
        for dim in [1, 2, 63, 64, 512] {
            for seed in [0u64, 7, 0x5e12, u64::MAX] {
                let g = GaussianMatrix::generate(seed, dim);
                let p = random_print(seed.wrapping_add(dim as u64), dim);
                let fast = g.transform(&p).unwrap();
                let oracle = dense_oracle(&g, &p);
                assert_eq!(fast.dim(), dim);
                for (j, (&f, &o)) in fast.as_slice().iter().zip(&oracle).enumerate() {
                    assert!(
                        (f64::from(f) - o).abs() <= 1e-5 * o.abs(),
                        "dim {dim} seed {seed} component {j}: {f} vs {o}"
                    );
                }
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
        // 512 × 4 bytes = 2048 bytes ≈ the paper's "about 1.8 KB".
        assert_eq!(t.storage_bytes(), 512 * 4);
    }

    #[test]
    fn debug_output_redacts_the_seed() {
        let seed = 0x5eed_c0de_1234_abcd_u64;
        let g = GaussianMatrix::generate(seed, 64);
        let shown = format!("{g:?}");
        assert!(shown.contains("64"), "{shown}");
        for secret in [format!("{seed}"), format!("{seed:x}"), format!("{seed:X}")] {
            assert!(!shown.contains(&secret), "{shown} leaks the seed");
        }
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
    use super::tests::random_print;
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

    fn norm(v: &[f32]) -> f64 {
        v.iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt()
    }

    proptest! {
        #[test]
        fn power_of_two_projection_preserves_norm_and_cosine(
            log_dim in 0u32..10,
            mseed in 0u64..u64::MAX,
            pseed in 0u64..u64::MAX,
        ) {
            let dim = 1usize << log_dim;
            let g = GaussianMatrix::generate(mseed, dim);
            let a = random_print(pseed, dim);
            let b = random_print(pseed ^ 0x9e37, dim);
            let ta = g.transform(&a).unwrap();
            let tb = g.transform(&b).unwrap();
            let (na, nta) = (norm(a.as_slice()), norm(ta.as_slice()));
            prop_assert!((nta - na).abs() <= 1e-5 * na, "dim {}: norm {} -> {}", dim, na, nta);
            let raw = cosine_distance(a.as_slice(), b.as_slice());
            let t = cosine_distance(ta.as_slice(), tb.as_slice());
            prop_assert!((raw - t).abs() <= 1e-5, "dim {}: cosine {} -> {}", dim, raw, t);
        }

        #[test]
        fn distinct_seeds_send_one_print_far_apart(
            seed in 0u64..u64::MAX,
            delta in 1u64..u64::MAX,
            pseed in 0u64..u64::MAX,
        ) {
            // The §VI replay defence at the paper's 512-d: a template
            // stolen under one seed is far from the same print under any
            // other.
            let dim = 512;
            let p = random_print(pseed, dim);
            let t1 = GaussianMatrix::generate(seed, dim).transform(&p).unwrap();
            let t2 = GaussianMatrix::generate(seed ^ delta, dim).transform(&p).unwrap();
            let d = cosine_distance(t1.as_slice(), t2.as_slice());
            prop_assert!(d > 0.5485, "seeds {} / {}: distance {}", seed, seed ^ delta, d);
        }
    }
}
