//! Allocation-profiler end-to-end coverage and the disabled-profiler
//! zero-overhead guard.
//!
//! This binary installs [`telemetry::alloc::ProfilingAlloc`] as its
//! global allocator — the promoted counting-allocator idiom from the
//! zero-alloc hot-path tests — so it can prove, rather than assert,
//! that a disabled profiler adds zero steady-state allocations to the
//! span fast path, and that attribution charges heap traffic to the
//! innermost span path.
//!
//! The zero-allocation windows read per-thread counts: the test harness
//! spawns and reports other tests on other threads while a window is
//! open, and the allocator's process-wide totals would count those.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use mandipass_telemetry as telemetry;
use mandipass_telemetry::{alloc, profile};

/// [`alloc::ProfilingAlloc`] plus a count of the calling thread's own
/// allocations and bytes.
struct ThreadCountingAlloc;

thread_local! {
    // Const-initialised and destructor-free, so the allocator can touch
    // it at any point of a thread's life without allocating.
    static THREAD_TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: delegates every call verbatim to `ProfilingAlloc`; the extra
// bookkeeping only updates a thread-local counter.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_TOTALS.with(|t| {
            let (n, bytes) = t.get();
            t.set((n + 1, bytes + layout.size() as u64));
        });
        unsafe { alloc::ProfilingAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { alloc::ProfilingAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// `(allocations, bytes)` made by the calling thread so far.
fn thread_totals() -> (u64, u64) {
    THREAD_TOTALS.with(Cell::get)
}

/// Serialises tests that mutate the process-global profiler state.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn disabled_profiler_adds_zero_steady_state_allocations() {
    let _lock = lock();
    profile::set_enabled(false);
    alloc::set_enabled(false);
    telemetry::set_mode(telemetry::Mode::Silent);
    // Warm-up: initialise the lazy mode/profiler flags and any
    // thread-local state outside the measured window.
    for _ in 0..8 {
        let _span = telemetry::span("steady_state_probe");
    }
    let (allocs_before, bytes_before) = thread_totals();
    for _ in 0..10_000 {
        let _span = telemetry::span("steady_state_probe");
    }
    let (allocs_after, bytes_after) = thread_totals();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "disabled profiler allocated on the span fast path"
    );
    assert_eq!(bytes_after - bytes_before, 0);
}

#[test]
fn enabled_profiler_reaches_steady_state_without_allocating() {
    let _lock = lock();
    telemetry::set_deterministic(true);
    profile::reset();
    profile::set_enabled(true);
    profile::set_thread_root("overhead_worker");
    // Warm-up: populate the frame table and grow the path/key scratch
    // buffers to their steady-state capacity.
    for _ in 0..16 {
        let _outer = telemetry::span("warm_outer");
        let _inner = telemetry::span("warm_inner");
    }
    let (allocs_before, _) = thread_totals();
    for _ in 0..1_000 {
        let _outer = telemetry::span("warm_outer");
        let _inner = telemetry::span("warm_inner");
    }
    let (allocs_after, _) = thread_totals();
    profile::clear_thread_root();
    profile::set_enabled(false);
    let snapshot = profile::snapshot();
    profile::reset();
    telemetry::set_deterministic(false);
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "profiling a known frame set allocated in the steady state"
    );
    assert_eq!(snapshot.frames()["overhead_worker.warm_outer"].count, 1_016);
    assert_eq!(
        snapshot.frames()["overhead_worker.warm_outer.warm_inner"].count,
        1_016
    );
}

#[test]
fn allocations_attribute_to_the_innermost_span_path() {
    let _lock = lock();
    profile::set_enabled(true);
    alloc::reset();
    alloc::set_enabled(true);
    {
        let _outer = telemetry::span("attr_verify");
        let _inner = telemetry::span("attr_extract");
        // A deliberate heap escape inside the innermost span.
        let escape: Vec<u8> = Vec::with_capacity(4096);
        drop(escape);
    }
    alloc::set_enabled(false);
    profile::set_enabled(false);
    let snapshot = alloc::snapshot();
    alloc::reset();
    let stats = snapshot
        .sites()
        .get("attr_verify.attr_extract")
        .copied()
        .unwrap_or_else(|| panic!("no attribution for the inner span: {:?}", snapshot.sites()));
    assert!(stats.allocs >= 1, "missing the Vec allocation");
    assert!(stats.bytes_allocated >= 4096);
    assert!(stats.frees >= 1, "missing the Vec free");
    // The folded export is byte-weighted and uses semicolon stacks.
    let folded = snapshot.folded();
    assert!(folded.contains("attr_verify;attr_extract "), "{folded}");
}

#[test]
fn attribution_disabled_skips_the_site_table() {
    let _lock = lock();
    alloc::set_enabled(false);
    alloc::reset();
    let v: Vec<u8> = Vec::with_capacity(1024);
    drop(v);
    assert!(
        alloc::snapshot().is_empty(),
        "sites recorded while attribution was off"
    );
}
