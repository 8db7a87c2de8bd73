//! Shared benchmark infrastructure: systems, versions, checksums, scaling.

use ompx_hostrt::OpenMp;
use ompx_klang::cuda::{cuda_context_clang, cuda_context_nvcc};
use ompx_klang::hip::{hip_context_clang, hip_context_hipcc};
use ompx_klang::runtime::NativeCtx;
use ompx_sim::context::{IdSpace, RunContext};
use ompx_sim::fault::{FaultPlan, FaultSnapshot, FaultState};
use ompx_sim::memtrace::{BarrierEvent, MemEvent, MemTrace};
use ompx_sim::san::{Diagnostic, SanState, ToolMask};
use ompx_sim::span::{Span, SpanCategory, SpanLog};
use ompx_sim::timing::ModeledTime;
use ompx_telemetry::MetricRegistry;
use std::sync::Arc;

/// The two evaluation systems of the paper's Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// NVIDIA A100 (40 GB), CUDA 11.8.
    Nvidia,
    /// AMD MI250, ROCm 5.5.
    Amd,
}

impl System {
    /// Human label ("nvidia"/"amd").
    pub fn label(&self) -> &'static str {
        match self {
            System::Nvidia => "nvidia",
            System::Amd => "amd",
        }
    }
}

/// The four program versions compared per system (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgVersion {
    /// OpenMP kernel language, compiled with the prototype ("ompx").
    Ompx,
    /// Traditional OpenMP target offloading, LLVM/Clang ("omp").
    Omp,
    /// Native kernel language compiled with LLVM/Clang ("cuda"/"hip").
    Native,
    /// Native kernel language compiled with the vendor compiler
    /// ("cuda-nvcc"/"hip-hipcc").
    NativeVendor,
}

impl ProgVersion {
    /// The bar label used in Figure 8 for this version on `sys`.
    pub fn label(&self, sys: System) -> &'static str {
        match (self, sys) {
            (ProgVersion::Ompx, _) => "ompx",
            (ProgVersion::Omp, _) => "omp",
            (ProgVersion::Native, System::Nvidia) => "cuda",
            (ProgVersion::Native, System::Amd) => "hip",
            (ProgVersion::NativeVendor, System::Nvidia) => "cuda-nvcc",
            (ProgVersion::NativeVendor, System::Amd) => "hip-hipcc",
        }
    }

    /// All four versions in the figure's bar order.
    pub fn all() -> [ProgVersion; 4] {
        [ProgVersion::Ompx, ProgVersion::Omp, ProgVersion::Native, ProgVersion::NativeVendor]
    }
}

/// Simulated workload size selector. The *paper* workload is fixed; this
/// only chooses how much of it is functionally simulated before counters
/// are extrapolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkScale {
    /// Tiny inputs for unit tests (sub-second in debug builds).
    Test,
    /// The harness default (seconds in release builds).
    Default,
}

/// Benchmark metadata — one row of the paper's Figure 6.
#[derive(Debug, Clone)]
pub struct BenchInfo {
    pub name: &'static str,
    pub description: &'static str,
    /// The command line the paper ran (Figure 6).
    pub paper_cmdline: &'static str,
    /// How Figure 8 reports time for this app.
    pub reported_metric: &'static str,
}

/// The outcome of running one program version of one app on one system.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Bar label ("ompx", "cuda-nvcc", …).
    pub label: String,
    /// Order-independent checksum over the program's results; must agree
    /// across versions of the same app.
    pub checksum: u64,
    /// Modeled time, extrapolated to the paper's workload, in the unit the
    /// benchmark reports (seconds).
    pub reported_seconds: f64,
    /// Per-kernel modeled breakdown (of the last/representative kernel).
    pub kernel_model: ModeledTime,
    /// Counted events of the representative kernel, extrapolated to the
    /// paper workload.
    pub stats: ompx_sim::counters::StatsSnapshot,
    /// The paper excluded this series (XSBench `omp`'s invalid checksum).
    pub excluded: bool,
    /// Free-form note shown by the harness.
    pub note: Option<String>,
}

// ---- contexts -------------------------------------------------------------

/// Native context for (system, vendor-compiler?) — the `cuda`/`hip` and
/// `cuda-nvcc`/`hip-hipcc` bars.
pub fn native_ctx(sys: System, vendor_cc: bool) -> NativeCtx {
    match (sys, vendor_cc) {
        (System::Nvidia, false) => cuda_context_clang(),
        (System::Nvidia, true) => cuda_context_nvcc(),
        (System::Amd, false) => hip_context_clang(),
        (System::Amd, true) => hip_context_hipcc(),
    }
}

/// Traditional OpenMP runtime for a system (ClangOpenmp + the paper's
/// observed LLVM quirks).
pub fn omp_runtime(sys: System) -> OpenMp {
    match sys {
        System::Nvidia => OpenMp::nvidia_system(),
        System::Amd => OpenMp::amd_system(),
    }
}

/// Prototype (`ompx`) runtime for a system.
pub fn ompx_runtime(sys: System) -> OpenMp {
    match sys {
        System::Nvidia => ompx::runtime_nvidia(),
        System::Amd => ompx::runtime_amd(),
    }
}

// ---- tooled runs -----------------------------------------------------------
//
// Each harness below runs its closure inside a `RunContext` scope, so the
// devices the benchmark builds inside `run` report into the harness's
// sinks. Scopes nest (an inner one inherits what it does not set) and are
// per thread, so tooled runs compose and run side by side in one process.

/// Run one (app, system, version) cell under a fresh sanitizer session with
/// the tools in `mask`, returning the benchmark outcome plus everything the
/// enabled tools found. This is what `sanitize` (ompx-bench) runs per cell.
pub fn run_app_sanitized(
    app: &str,
    sys: System,
    version: ProgVersion,
    scale: WorkScale,
    mask: ToolMask,
) -> (RunOutcome, Vec<Diagnostic>) {
    let state = SanState::new(mask);
    let ctx = RunContext { sanitizer: Some(Arc::clone(&state)), ..Default::default() };
    let outcome = ctx.scope(|| crate::run_app(app, sys, version, scale));
    (outcome, state.diagnostics())
}

/// Run a benchmark closure with a fresh memory trace in its run context,
/// returning its result plus every recorded access event. This is the
/// analyzer's replay data plane.
pub fn with_mem_trace<R>(f: impl FnOnce() -> R) -> (R, Vec<MemEvent>) {
    let (result, events, _) = with_mem_trace_full(f);
    (result, events)
}

/// Like [`with_mem_trace`], but also returns the recorded barrier events.
/// Summary extraction needs both streams: accesses to fit index
/// expressions, barriers to delimit and order phases.
pub fn with_mem_trace_full<R>(f: impl FnOnce() -> R) -> (R, Vec<MemEvent>, Vec<BarrierEvent>) {
    let trace = MemTrace::new();
    let ctx = RunContext { mem_trace: Some(Arc::clone(&trace)), ..Default::default() };
    let result = ctx.scope(f);
    (result, trace.events(), trace.barrier_events())
}

/// Run a benchmark closure with a fresh profiler [`SpanLog`] in its run
/// context, returning its result plus every recorded timeline span. This
/// is `ompx-prof`'s timeline data plane.
pub fn with_span_log<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    let log = SpanLog::new();
    let ctx = RunContext { span_log: Some(Arc::clone(&log)), ..Default::default() };
    let result = ctx.scope(f);
    (result, log.spans())
}

/// What fault injection did to one chaos run, alongside the outcome.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Everything the fault state recorded: injections, recoveries,
    /// fallbacks, degradations, sticky errors, device loss.
    pub snapshot: FaultSnapshot,
    /// Retry spans on the profiler timeline (retries + recoveries).
    pub retry_spans: usize,
    /// Fallback spans on the profiler timeline.
    pub fallback_spans: usize,
}

/// A chaos-run session: one [`SpanLog`], one metric registry (with the
/// base families pre-declared) and one id space shared by every cell the
/// session runs, with a per-cell fault state and write-set hints.
///
/// [`run_app_chaos`] uses one session per cell; `ompx-serve` holds a single
/// session across thousands of requests so each pool member's persistent
/// [`FaultState`] (with its sticky device-loss flag) is attached for
/// exactly the requests routed to it, while every request's spans land on
/// one timeline. Sessions are plain values: any number may be live at
/// once, on one thread or many, inside or around the other tooled runs.
pub struct ChaosSession {
    log: Arc<SpanLog>,
    metrics: Arc<MetricRegistry>,
    ids: Arc<IdSpace>,
}

impl ChaosSession {
    /// A fresh span log and metric registry, so every chaos and serve run
    /// is metered without further wiring.
    pub fn begin() -> ChaosSession {
        let metrics = MetricRegistry::new();
        ompx_telemetry::describe_base_families(&metrics);
        ChaosSession { log: SpanLog::new(), metrics, ids: Arc::default() }
    }

    /// The session's metric registry.
    pub fn metrics(&self) -> Arc<MetricRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The session's span log, e.g. for recording per-device pool timeline
    /// spans alongside the run spans.
    pub fn span_log(&self) -> Arc<SpanLog> {
        Arc::clone(&self.log)
    }

    /// Everything recorded on the session timeline so far.
    pub fn spans(&self) -> Vec<Span> {
        self.log.spans()
    }

    /// Run one (app, system, version) cell with `faults` in its run
    /// context (plus the cell's analyzer write-set hints, which let a
    /// watchdog checkpoint snapshot only the buffers the killed kernel
    /// could have dirtied), catching panics so callers can assert the
    /// chaos trichotomy. With `faults: None` the cell runs fault-free
    /// (e.g. to establish expected checksums). The fault state is the
    /// *caller's*: sticky errors and the device-loss flag persist across
    /// calls that reuse it, which is how a serving pool models a lost
    /// member.
    pub fn run_cell(
        &self,
        app: &str,
        sys: System,
        version: ProgVersion,
        scale: WorkScale,
        faults: Option<&Arc<FaultState>>,
    ) -> Result<RunOutcome, String> {
        let write_sets = crate::summaries::write_set(app, version).into_iter().collect();
        let ctx = RunContext {
            faults: faults.map(Arc::clone),
            write_sets: Some(Arc::new(write_sets)),
            span_log: Some(Arc::clone(&self.log)),
            metrics: Some(Arc::clone(&self.metrics)),
            ids: Some(Arc::clone(&self.ids)),
            ..Default::default()
        };
        ctx.scope(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::run_app(app, sys, version, scale)
            }))
        })
        .map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic with non-string payload".to_string()
            }
        })
    }
}

/// Run one (app, system, version) cell under a seeded [`FaultPlan`],
/// catching panics so the chaos harness can assert the trichotomy —
/// success, clean typed error, or validated fallback — and returning what
/// the injection did plus the full span timeline (where retries and
/// fallbacks are visible). One-shot wrapper over [`ChaosSession`].
pub fn run_app_chaos(
    app: &str,
    sys: System,
    version: ProgVersion,
    scale: WorkScale,
    plan: FaultPlan,
) -> (Result<RunOutcome, String>, FaultReport, Vec<Span>) {
    let session = ChaosSession::begin();
    let faults = FaultState::new(plan);
    let result = session.run_cell(app, sys, version, scale, Some(&faults));
    let spans = session.spans();
    let count = |cat| spans.iter().filter(|s| s.cat == cat).count();
    let report = FaultReport {
        snapshot: faults.snapshot(),
        retry_spans: count(SpanCategory::Retry),
        fallback_spans: count(SpanCategory::Fallback),
    };
    (result, report, spans)
}

// ---- checksums ------------------------------------------------------------

/// splitmix64 — the standard 64-bit finalizer, used to decorrelate items.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Order-independent checksum over per-item f64 results: versions that
/// compute identical per-item values produce identical checksums no matter
/// which thread computed which item.
pub fn checksum_f64_items(items: &[f64]) -> u64 {
    items
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, v)| acc.wrapping_add(splitmix64(v.to_bits() ^ (i as u64))))
}

/// Same, single precision.
pub fn checksum_f32_items(items: &[f32]) -> u64 {
    items
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, v)| acc.wrapping_add(splitmix64(v.to_bits() as u64 ^ (i as u64))))
}

/// Deterministic per-item "random" f64 in [0, 1): all program versions
/// derive identical inputs for item `i` without sharing generator state
/// (the event-based RNG trick XSBench itself uses).
#[inline]
pub fn item_uniform(seed: u64, i: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(i)) >> 11) as f64 / (1u64 << 53) as f64
}

// ---- launch-accounting conventions ----------------------------------------

/// Host-side cost of *issuing* one asynchronous kernel launch (the rate at
/// which back-to-back launches can be pushed into a stream). A kernel whose
/// body is shorter than this is issue-bound.
pub const LAUNCH_ISSUE_S: f64 = 1.2e-6;

/// Per-runtime launch-issue cost. The prototype's bare-launch path skips
/// the OpenMP kernel-state setup and is measurably leaner than ROCm's HIP
/// dispatch (cf. the near-zero-overhead launch work in the paper's ref
/// \[5\]) — the residual difference behind Adam's 16.6 % on the MI250, where
/// every kernel is shorter than the issue cost itself.
pub fn launch_issue_s(sys: System, version: ProgVersion) -> f64 {
    match (sys, version) {
        (System::Amd, ProgVersion::Ompx) => 1.0e-6,
        _ => LAUNCH_ISSUE_S,
    }
}

/// Total wall seconds of `launches` identical kernels issued
/// asynchronously back-to-back (native/ompx style): launch latencies
/// pipeline behind execution, so only one is exposed — but the host cannot
/// issue faster than `issue_s` per launch.
pub fn pipelined_total_at(per_kernel: &ModeledTime, launches: u64, issue_s: f64) -> f64 {
    (per_kernel.seconds - per_kernel.t_launch).max(issue_s) * launches as f64 + per_kernel.t_launch
}

/// Total wall seconds of `launches` synchronous kernels (traditional
/// `target` semantics: the host blocks after each region).
pub fn sync_total(per_kernel: &ModeledTime, launches: u64) -> f64 {
    per_kernel.seconds * launches as f64
}

/// Kernel-only seconds (what event-based timers report): no launch latency.
pub fn kernel_only(per_kernel: &ModeledTime) -> f64 {
    per_kernel.seconds - per_kernel.t_launch
}

// ---- per-thread scratch, version-dependent placement -----------------------

/// Per-thread f64 scratch whose *placement* differs between program
/// versions while the arithmetic stays identical — the storage class
/// behind the RSBench §4.2.2 result:
///
/// * CUDA/HIP/ompx versions: a dynamically indexed thread-local array →
///   **local memory** (global-memory traffic), via
///   [`ompx_sim::thread::LocalArray`];
/// * `omp` version: globalized storage, heap (global traffic) or shared
///   memory when LLVM's heap-to-shared optimization fires, via
///   [`ompx_hostrt::target::Scratch`].
pub trait F64Scratch {
    fn put(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize, v: f64);
    fn at(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize) -> f64;
}

/// Local-memory scratch (native and ompx program versions).
pub struct LocalScratch(pub ompx_sim::thread::LocalArray<f64>);

impl F64Scratch for LocalScratch {
    #[inline]
    fn put(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize, v: f64) {
        tc.lwrite(&mut self.0, j, v);
    }
    #[inline]
    fn at(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize) -> f64 {
        tc.lread(&self.0, j)
    }
}

/// Globalized scratch (`omp` program version).
pub struct OmpScratch<'a>(pub &'a ompx_hostrt::target::Scratch);

impl F64Scratch for OmpScratch<'_> {
    #[inline]
    fn put(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize, v: f64) {
        self.0.set(tc, j, v);
    }
    #[inline]
    fn at(&mut self, tc: &mut ompx_sim::thread::ThreadCtx<'_>, j: usize) -> f64 {
        self.0.get(tc, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure8() {
        assert_eq!(ProgVersion::Native.label(System::Nvidia), "cuda");
        assert_eq!(ProgVersion::Native.label(System::Amd), "hip");
        assert_eq!(ProgVersion::NativeVendor.label(System::Nvidia), "cuda-nvcc");
        assert_eq!(ProgVersion::NativeVendor.label(System::Amd), "hip-hipcc");
        assert_eq!(ProgVersion::Ompx.label(System::Amd), "ompx");
        assert_eq!(ProgVersion::Omp.label(System::Nvidia), "omp");
    }

    #[test]
    fn checksum_is_order_sensitive_by_index_not_position() {
        let a = checksum_f64_items(&[1.0, 2.0]);
        let b = checksum_f64_items(&[2.0, 1.0]);
        assert_ne!(a, b, "items are bound to their index");
        // But identical content gives identical sums.
        assert_eq!(a, checksum_f64_items(&[1.0, 2.0]));
    }

    #[test]
    fn item_uniform_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let v = item_uniform(42, i);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, item_uniform(42, i));
        }
        assert_ne!(item_uniform(1, 7), item_uniform(2, 7));
    }

    #[test]
    fn launch_accounting_conventions() {
        let m = ModeledTime { seconds: 10e-6, t_launch: 2e-6, ..Default::default() };
        assert!((pipelined_total_at(&m, 100, LAUNCH_ISSUE_S) - (8e-4 + 2e-6)).abs() < 1e-12);
        // Issue-bound: a 0.1 us body cannot launch faster than the issue
        // rate.
        let tiny = ModeledTime { seconds: 2.1e-6, t_launch: 2.0e-6, ..Default::default() };
        assert!(
            (pipelined_total_at(&tiny, 100, LAUNCH_ISSUE_S) - (100.0 * LAUNCH_ISSUE_S + 2e-6))
                .abs()
                < 1e-12
        );
        assert!(launch_issue_s(System::Amd, ProgVersion::Ompx) < LAUNCH_ISSUE_S);
        assert_eq!(launch_issue_s(System::Nvidia, ProgVersion::Ompx), LAUNCH_ISSUE_S);
        assert!((sync_total(&m, 100) - 1e-3).abs() < 1e-12);
        assert!((kernel_only(&m) - 8e-6).abs() < 1e-15);
    }

    #[test]
    fn contexts_bind_expected_vendors() {
        use ompx_sim::Vendor;
        assert_eq!(native_ctx(System::Nvidia, false).device().profile().vendor, Vendor::Nvidia);
        assert_eq!(native_ctx(System::Amd, true).device().profile().vendor, Vendor::Amd);
        assert_eq!(omp_runtime(System::Amd).device().profile().vendor, Vendor::Amd);
        assert_eq!(ompx_runtime(System::Nvidia).device().profile().vendor, Vendor::Nvidia);
    }
}
