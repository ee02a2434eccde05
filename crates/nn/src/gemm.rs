//! Blocked GEMM accumulation kernel for the inference fast path.
//!
//! `C[m×n] += A[m×k] · B[k×n]` over row-major slices, with `C`
//! pre-initialised by the caller (to the layer bias, matching the naive
//! kernels' `acc = bias` start).
//!
//! * **Row blocking.** Rows of `A`/`C` are walked in blocks of four
//!   (a leftover 3, 2 or 1 rows get their own const-generic block). Each
//!   row of `B` is read once and applied to every row of the block, so
//!   `B` streams from memory once per four rows instead of once per
//!   row — a batched forward pays for the weights once. Within a block
//!   `k` is unrolled by four, so each group of `C` values is loaded and
//!   stored once per four products.
//! * **Column tile.** `j` is tiled at [`GEMM_TILE`] columns, wide enough
//!   that the 512-wide embedding head takes one contiguous pass over
//!   each `B` row; a tile of four `C` rows (16 KiB) stays in L1.
//! * **Runtime dispatch.** On x86-64 CPUs with AVX2 the same body runs
//!   from a `#[target_feature(enable = "avx2")]` copy; elsewhere it is
//!   the baseline build of that body.
//!
//! `k` ascends and every step is a separate multiply and add (never an
//! FMA), so each output element accumulates its products in exactly
//! the order the naive convolution/linear loop nests use: the fast path
//! is bit-exact against them on every CPU.

use std::ops::Range;

/// Column-tile width: 1024 floats = 4 KiB per row strip, so the
/// 512-wide head runs untiled and a four-row `C` block stays in L1.
pub const GEMM_TILE: usize = 1024;

/// Rows of `A`/`C` that share one read of each `B` row.
const ROW_BLOCK: usize = 4;

/// Depth of the `k` unroll: `B` rows applied per load/store of `C`.
const K_BLOCK: usize = 4;

/// Columns updated as one fixed-size group: one AVX2 register (two SSE
/// ones). A fixed group keeps short rows (the conv GEMMs' 24-wide
/// output planes) vectorized, where a variable-length loop unrolled for
/// 32 lanes would fall through to its scalar tail.
const LANES: usize = 8;

/// Accumulates `c += a · b` for row-major `a: [m, k]`, `b: [k, n]`,
/// `c: [m, n]`.
///
/// # Panics
///
/// Panics (in debug builds) when a slice is shorter than its shape
/// implies; release builds would panic on the out-of-range index.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert!(a.len() >= m * k, "A is {} < {m}x{k}", a.len());
    debug_assert!(b.len() >= k * n, "B is {} < {k}x{n}", b.len());
    debug_assert!(c.len() >= m * n, "C is {} < {m}x{n}", c.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` only requires the AVX2 target feature, which
        // the runtime check above just confirmed this CPU has.
        return unsafe { avx2(m, k, n, a, b, c) };
    }
    gemm_body(m, k, n, a, b, c);
}

/// [`gemm_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_body(m, k, n, a, b, c);
}

/// The one kernel body; inlined into each dispatch target so it is
/// compiled once per instruction set.
#[inline(always)]
fn gemm_body(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (a, b, c) = (&a[..m * k], &b[..k * n], &mut c[..m * n]);
    for jb in (0..n).step_by(GEMM_TILE) {
        let cols = jb..(jb + GEMM_TILE).min(n);
        let a_blocks = a.chunks(ROW_BLOCK * k);
        for (a_block, c_block) in a_blocks.zip(c.chunks_mut(ROW_BLOCK * n)) {
            match c_block.len() / n {
                4 => block::<4>(k, n, &cols, a_block, b, c_block),
                3 => block::<3>(k, n, &cols, a_block, b, c_block),
                2 => block::<2>(k, n, &cols, a_block, b, c_block),
                _ => block::<1>(k, n, &cols, a_block, b, c_block),
            }
        }
    }
}

/// `C[R rows, cols] += A[R rows, :] · B[:, cols]`, reading each `B` row
/// once for all `R` rows (it stays in L1 between them).
#[inline(always)]
fn block<const R: usize>(
    k: usize,
    n: usize,
    cols: &Range<usize>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut c_rows = c.chunks_exact_mut(n);
    let mut c_rows: [&mut [f32]; R] =
        std::array::from_fn(|_| &mut c_rows.next().expect("R rows of C")[cols.clone()]);
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let whole = k - k % K_BLOCK;
    for kk in (0..whole).step_by(K_BLOCK) {
        step::<R, K_BLOCK>(kk, n, cols, &a_rows, b, &mut c_rows);
    }
    for kk in whole..k {
        step::<R, 1>(kk, n, cols, &a_rows, b, &mut c_rows);
    }
}

/// Applies `B` rows `kk..kk + KB` to each of the `R` rows: every group
/// of [`LANES`] `C` values is loaded once, takes its `KB` products in
/// ascending `k` (multiply, then add), and is stored once.
#[inline(always)]
fn step<const R: usize, const KB: usize>(
    kk: usize,
    n: usize,
    cols: &Range<usize>,
    a_rows: &[&[f32]; R],
    b: &[f32],
    c_rows: &mut [&mut [f32]; R],
) {
    let b_rows: [(&[[f32; LANES]], &[f32]); KB] =
        std::array::from_fn(|t| b[(kk + t) * n..][cols.clone()].as_chunks::<LANES>());
    for (c_row, a_row) in c_rows.iter_mut().zip(a_rows) {
        let a_k: [f32; KB] = std::array::from_fn(|t| a_row[kk + t]);
        let (c_lanes, c_tail) = c_row.as_chunks_mut::<LANES>();
        for (j, cv) in c_lanes.iter_mut().enumerate() {
            let mut acc = *cv;
            for (&ak, (b_lanes, _)) in a_k.iter().zip(&b_rows) {
                for (acc, &bv) in acc.iter_mut().zip(&b_lanes[j]) {
                    *acc += ak * bv;
                }
            }
            *cv = acc;
        }
        for (j, cv) in c_tail.iter_mut().enumerate() {
            for (&ak, (_, b_tail)) in a_k.iter().zip(&b_rows) {
                *cv += ak * b_tail[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mandipass_util::proptest::prelude::*;
    use mandipass_util::rand::rngs::StdRng;
    use mandipass_util::rand::{Rng, SeedableRng};

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_naive_matmul() {
        let (m, k, n) = (3, 5, 7);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut c_fast = vec![0.5; m * n];
        let mut c_ref = vec![0.5; m * n];
        gemm_acc(m, k, n, &a, &b, &mut c_fast);
        naive(m, k, n, &a, &b, &mut c_ref);
        assert_eq!(c_fast, c_ref);
    }

    #[test]
    fn tiling_boundary_is_exact() {
        // n spans multiple tiles including a ragged tail.
        let (m, k, n) = (2, 3, GEMM_TILE * 2 + 17);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32) * 0.25).collect();
        let mut c_fast = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        gemm_acc(m, k, n, &a, &b, &mut c_fast);
        naive(m, k, n, &a, &b, &mut c_ref);
        assert_eq!(c_fast, c_ref);
    }

    #[test]
    fn accumulates_onto_existing_c() {
        let mut c = vec![1.0, 2.0];
        gemm_acc(1, 1, 2, &[3.0], &[10.0, 20.0], &mut c);
        assert_eq!(c, vec![31.0, 62.0]);
    }

    #[test]
    fn degenerate_dims_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm_acc(0, 4, 0, &[], &[], &mut c);
        let mut c = vec![7.0];
        gemm_acc(1, 0, 1, &[], &[], &mut c);
        assert_eq!(c, vec![7.0]);
    }

    proptest! {
        // Every 4-row block and each 3/2/1 remainder, ragged lane tails
        // and multi-tile widths, through both compiled copies of the
        // body: the baseline one called directly and, where the CPU
        // has it, the AVX2 one — dispatch forced off and on.
        #[test]
        fn both_kernel_builds_match_naive_bitwise(
            m in 0usize..10,
            k in 0usize..40,
            n in 0usize..2 * GEMM_TILE + 18,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fill = |len: usize| -> Vec<f32> {
                (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
            };
            let (a, b, c0) = (fill(m * k), fill(k * n), fill(m * n));
            let mut c_ref = c0.clone();
            naive(m, k, n, &a, &b, &mut c_ref);

            let mut c_body = c0.clone();
            gemm_body(m, k, n, &a, &b, &mut c_body);
            prop_assert_eq!(bits(&c_body), bits(&c_ref), "baseline m={m} k={k} n={n}");

            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut c_avx2 = c0.clone();
                // SAFETY: the runtime check above confirmed AVX2.
                unsafe { avx2(m, k, n, &a, &b, &mut c_avx2) };
                prop_assert_eq!(bits(&c_avx2), bits(&c_ref), "avx2 m={m} k={k} n={n}");
            }
        }
    }
}
