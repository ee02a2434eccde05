//! The projection's memory claim, enforced by a counting global
//! allocator: a 512-d template transform allocates O(dim) bytes (the
//! template and one f64 working vector), never a `dim × dim` matrix.

use mandipass::prelude::*;
use mandipass_telemetry as telemetry;
use mandipass_telemetry::alloc;

#[global_allocator]
static ALLOC: alloc::ProfilingAlloc = alloc::ProfilingAlloc;

#[test]
fn template_transform_allocates_o_dim_bytes() {
    telemetry::set_mode(telemetry::Mode::Silent);
    let dim = 512;
    let g = GaussianMatrix::generate(7, dim);
    let print = MandiblePrint::new(
        (0..dim)
            .map(|i| (i as f32 * 0.37).sin() * 0.5 + 0.5)
            .collect(),
    );
    // Warm-up: initialise lazy telemetry state outside the measured
    // window.
    let warm = g.transform(&print).unwrap();

    let (allocs_before, _, bytes_before) = alloc::totals();
    let template = g.transform(&print).unwrap();
    let (allocs_after, _, bytes_after) = alloc::totals();

    let bytes = bytes_after - bytes_before;
    assert!(
        bytes < 16 * 1024,
        "a {dim}-d transform allocated {bytes} bytes in {} allocations",
        allocs_after - allocs_before
    );
    assert!(
        bytes >= (dim * std::mem::size_of::<f32>()) as u64,
        "{bytes} bytes"
    );
    assert_eq!(template, warm);
}
