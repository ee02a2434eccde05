//! Zero-dependency in-tree utilities for the MandiPass workspace.
//!
//! The reproduction targets an on-earphone deployment and must build and
//! test hermetically — no network, no crates.io. This crate replaces
//! every external dependency the workspace previously pulled in:
//!
//! | module        | replaces                | provides |
//! |---------------|-------------------------|----------|
//! | [`rand`]      | `rand`                  | xoshiro256++ `StdRng`, `Rng`, `SeedableRng`, `seq::SliceRandom` |
//! | [`rand_distr`]| `rand_distr`            | `Normal` (Box–Muller), `Uniform`, `Distribution` |
//! | [`json`]      | `serde_json`            | JSON value, writer, parser |
//! | [`bytebuf`]   | `bytes`                 | little-endian `ByteWriter` / `ByteReader` |
//! | [`bench`]     | `criterion`             | `Criterion`, `criterion_group!`, `criterion_main!` |
//! | [`proptest`]  | `proptest`              | deterministic `proptest!` macro and strategies |
//!
//! The `rand`/`rand_distr` modules keep the upstream call-site spelling
//! (`StdRng::seed_from_u64`, `rng.gen_range(..)`, `Normal::new(..)`) so
//! swapping `use rand::…` for `use mandipass_util::rand::…` is the whole
//! migration. All generators are fully deterministic per seed — identical
//! across runs, platforms, and compilers — which the workspace's
//! cross-run reproducibility tests rely on.

pub mod bench;
pub mod bytebuf;
pub mod json;
pub mod proptest;
pub mod rand;
pub mod rand_distr;
