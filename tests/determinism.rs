//! Repeated-run bit-identity under the parallel executor.
//!
//! The simulator's contract is that results, memory traces, and sanitizer
//! findings are byte-stable across runs and across worker counts: blocks
//! may execute on any OS thread in any order, but every cross-thread
//! combination (float reductions, trace merges, diagnostic ordering)
//! happens in canonical block-linear order. These tests pin the contract
//! with workloads chosen to expose ordering bugs — non-associative float
//! sums over catastrophic-cancellation inputs, and a barrier-heavy
//! benchmark cell traced end to end.
//!
//! Every test runs its devices at the same fixed worker count through
//! the run context, so the tests need no serialising and may run
//! concurrently; serial references use the per-device knob.

use ompx_hecbench::{run_app, with_mem_trace_full, ProgVersion, System, WorkScale};
use ompx_klang::blaslib::{sdot, BlasVendor};
use ompx_klang::cuda::cuda_context_clang;
use ompx_sanitizer::fixtures;
use ompx_sim::context::RunContext;
use ompx_sim::memtrace::{BarrierEvent, MemEvent};

/// Bit-identity is claimed for *every* run, so probe more than once or
/// twice: scheduling races are flaky by nature.
const RUNS: usize = 5;

/// Worker count every test in this binary runs under. More workers than
/// this host has cores is fine — oversubscription only makes the OS
/// interleaving less predictable, which is the point.
const WORKERS: usize = 4;

/// Run `f` with every device it creates on [`WORKERS`] executor workers.
fn at_full_width<R>(f: impl FnOnce() -> R) -> R {
    RunContext { workers: Some(WORKERS), ..Default::default() }.scope(f)
}

/// Bytes of a trace, allocation ids included: each traced run numbers its
/// allocations from its own run context, so they repeat run to run.
fn canonical_trace(events: Vec<MemEvent>, barriers: Vec<BarrierEvent>) -> String {
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!("{e:?}\n"));
    }
    for b in &barriers {
        out.push_str(&format!("{b:?}\n"));
    }
    out
}

/// Large-magnitude, sign-alternating inputs: the f64 partial sums lose
/// different low bits under every re-association, so any scheduler-order
/// dependence in the reduction shows up as checksum drift.
fn cancellation_inputs(n: usize) -> (Vec<f32>, Vec<f32>) {
    let xs: Vec<f32> = (0..n)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sign * (1.0e8 + (i as f32) * 0.731)
        })
        .collect();
    let ys: Vec<f32> = (0..n).map(|i| 1.0 + (i % 13) as f32 * 0.0625).collect();
    (xs, ys)
}

#[test]
fn sdot_is_bit_identical_across_runs_and_worker_counts() {
    at_full_width(sdot_runs);
}

fn sdot_runs() {
    let n = 8192;
    let (xs, ys) = cancellation_inputs(n);

    // Reference serial run: the per-device knob beats the run context.
    let reference = {
        let ctx = cuda_context_clang();
        ctx.device().set_sim_workers(Some(1));
        let x = ctx.malloc_from(&xs);
        let y = ctx.malloc_from(&ys);
        sdot(BlasVendor::Cublas, &ctx, &x, &y).0
    };

    for run in 0..RUNS {
        let ctx = cuda_context_clang();
        let x = ctx.malloc_from(&xs);
        let y = ctx.malloc_from(&ys);
        let (dot, _) = sdot(BlasVendor::Cublas, &ctx, &x, &y);
        assert_eq!(
            dot.to_bits(),
            reference.to_bits(),
            "run {run} at {WORKERS} workers: {dot:?} != serial reference {reference:?}"
        );
    }
}

#[test]
fn barrier_heavy_cell_trace_and_checksum_are_bit_identical() {
    let mut reference: Option<(u64, String)> = None;
    for run in 0..RUNS {
        // The native stencil is the barrier-heavy version: a shared-memory
        // tile staged behind `sync_threads`, so the trace has all three
        // event kinds (global, shared, barrier) crossing the merge.
        let (outcome, events, barriers) = at_full_width(|| {
            with_mem_trace_full(|| {
                run_app("stencil", System::Nvidia, ProgVersion::Native, WorkScale::Test)
            })
        });
        assert!(!events.is_empty(), "trace hook recorded nothing");
        assert!(!barriers.is_empty(), "expected a barrier-heavy kernel");
        let bytes = canonical_trace(events, barriers);
        match &reference {
            None => reference = Some((outcome.checksum, bytes)),
            Some((checksum, trace)) => {
                assert_eq!(outcome.checksum, *checksum, "checksum drift on run {run}");
                assert_eq!(&bytes, trace, "memtrace byte drift on run {run}");
            }
        }
    }
}

#[test]
fn sanitizer_finding_order_is_bit_identical() {
    let (run_fixture, _) = fixtures::by_name("shared-race").expect("known fixture");
    let reference = at_full_width(|| run_fixture().to_json());
    assert!(reference.contains("racecheck"), "fixture produced no findings");
    for run in 1..RUNS {
        let report = at_full_width(|| run_fixture().to_json());
        assert_eq!(report, reference, "finding-order drift on run {run}");
    }
}
