//! The kernel executor: runs every simulated GPU thread, really.
//!
//! Host worker threads claim blocks from a shared counter; every block
//! runs start to finish on the worker that claimed it, and the workers'
//! results meet only in merges that are canonical by block (the cost
//! counters, the trace and sanitizer logs, the race folds), so a launch is
//! bit-identical at any worker count. Worker 0 is the calling thread: a
//! launch one worker covers spawns no thread at all.
//!
//! Within a block, the kernel's declared [`KernelFlags`] choose how lanes
//! run:
//!
//! * **Barrier-free kernels** (the default flags) call the body lane by
//!   lane. Most HeCBench kernels (XSBench, RSBench, Adam, SU3) are
//!   barrier-free.
//! * **Kernels flagged `uses_block_sync` or `uses_warp_ops`** run each lane
//!   as a fiber (a stack of its own, see `sim::fiber`) on the worker's
//!   thread, polled round robin. A lane that reaches `sync_threads`,
//!   `sync_warp`, a shuffle or a ballot arrives at a phase counter and
//!   suspends until the last live lane arrives; lanes that returned count
//!   as arrived. A shuffle or ballot is a single rendezvous through slots
//!   double-buffered by the warp phase's parity (see `sim::warp`).
//!
//! This is the work-group execution of pocl and the "deep fission" of the
//! MCUDA line of work (cited in the paper's related work), done at run
//! time with stacks instead of at compile time with region formation:
//! kernels stay unmodified blocking closures. Fibers are stackful rather
//! than `async` so that the blocking `Fn(&mut ThreadCtx)` kernel API, which
//! every front end and benchmark probe calls, stays as it is.
//!
//! When no live lane of a fibered block can run (a warp split between
//! `sync_warp` and `sync_threads`, say), the launch fails instead of
//! hanging: each suspended lane is resumed once more and unwound, running
//! its destructors, and the launch panics with a message naming the block
//! and the waiting lanes.

use crate::counters::{CostCounters, StatsSnapshot};
use crate::dim::LaunchConfig;
use crate::fiber::{Body, Fiber};
use crate::memtrace::LaunchMemTrace;
use crate::san::{AccessSite, DiagLog, LaunchSan, ToolMask};
use crate::shared::BlockShared;
use crate::thread::ThreadCtx;
use crate::warp::{Phaser, WarpGroup};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A panic payload carried out of a worker so the launch can finish its
/// deterministic merges before the panic resumes.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// Static properties of a kernel that the executor must know up front.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelFlags {
    /// Kernel calls `sync_threads` (block-wide barrier).
    pub uses_block_sync: bool,
    /// Kernel calls `sync_warp`, shuffles, or ballots.
    pub uses_warp_ops: bool,
}

impl KernelFlags {
    /// Does this kernel synchronise its lanes, so that they must run as
    /// fibers?
    pub fn needs_fibers(&self) -> bool {
        self.uses_block_sync || self.uses_warp_ops
    }
}

/// A device kernel: a name (for diagnostics and codegen-profile lookup),
/// executor-relevant flags, and the per-thread body.
#[derive(Clone)]
pub struct Kernel {
    name: String,
    flags: KernelFlags,
    body: Arc<dyn Fn(&mut ThreadCtx) + Send + Sync>,
}

impl Kernel {
    /// A barrier-free kernel (its lanes run one after another).
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&mut ThreadCtx) + Send + Sync + 'static,
    ) -> Self {
        Kernel { name: name.into(), flags: KernelFlags::default(), body: Arc::new(body) }
    }

    /// A kernel with explicit executor flags.
    pub fn with_flags(
        name: impl Into<String>,
        flags: KernelFlags,
        body: impl Fn(&mut ThreadCtx) + Send + Sync + 'static,
    ) -> Self {
        Kernel { name: name.into(), flags, body: Arc::new(body) }
    }

    /// Mark the kernel as using block-wide barriers.
    pub fn with_block_sync(mut self) -> Self {
        self.flags.uses_block_sync = true;
        self
    }

    /// Mark the kernel as using warp-level collectives.
    pub fn with_warp_ops(mut self) -> Self {
        self.flags.uses_warp_ops = true;
        self
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executor flags.
    pub fn flags(&self) -> KernelFlags {
        self.flags
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({}, {:?})", self.name, self.flags)
    }
}

/// Execute `kernel` over the whole grid and return aggregated statistics.
/// `san` is the launch's sanitizer context when a session is attached to
/// the device. `workers` is the host worker-thread budget (see
/// [`default_workers`]); `1` is the reference serial mode.
pub fn run(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    workers: usize,
) -> StatsSnapshot {
    run_bounded(kernel, cfg, warp_size, san, mem, workers, cfg.num_blocks())
}

/// Execute only the first `limit` blocks (in grid-linearization order) —
/// the committed prefix of a watchdog-killed launch. Semantics within the
/// prefix are identical to [`run`]: sanitizer and memtrace hooks observe
/// exactly the blocks that committed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_prefix(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    workers: usize,
    limit: usize,
) -> StatsSnapshot {
    run_bounded(kernel, cfg, warp_size, san, mem, workers, limit.min(cfg.num_blocks()))
}

fn run_bounded(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    warp_size: u32,
    san: Option<&LaunchSan>,
    mem: Option<&LaunchMemTrace>,
    workers: usize,
    num_blocks: usize,
) -> StatsSnapshot {
    let launch = Launch {
        kernel,
        cfg,
        warp_size,
        san,
        mem,
        num_blocks,
        next_block: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
    };
    let workers = workers.clamp(1, num_blocks.max(1));
    let (stats, payload) = std::thread::scope(|s| {
        let others: Vec<_> = (1..workers).map(|_| s.spawn(|| launch.worker())).collect();
        let (mut stats, mut payload) = launch.worker();
        // Join every worker so a simulated-program panic surfaces with its
        // original message instead of "a scoped thread panicked". Integer
        // sums commute, so the stats are the same at any worker count.
        for h in others {
            let (part, failed) = h.join().unwrap_or_else(|p| (StatsSnapshot::default(), Some(p)));
            stats = stats.merged(&part);
            payload = payload.or(failed);
        }
        (stats, payload)
    });
    // Deterministic merges happen even when the launch panicked, so a
    // failing kernel still leaves canonically ordered partial evidence.
    if let Some(san) = san {
        san.finish();
    }
    if let Some(mem) = mem {
        mem.finish();
    }
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
    stats
}

/// Shared-memory tooling configuration for a launch: an attached sanitizer
/// session with racecheck turns the per-cell race fold on, one with
/// initcheck turns the init bitmap on.
fn block_shared(cfg: &LaunchConfig, san: Option<&LaunchSan>) -> BlockShared {
    let session_race = san.is_some_and(|s| s.state().tool_on(ToolMask::RACECHECK));
    let session_init = san.is_some_and(|s| s.state().tool_on(ToolMask::INITCHECK));
    BlockShared::with_tools(&cfg.shared_slots, session_race, session_init)
}

/// The launch worker-thread budget when a device sets none (see
/// [`crate::device::Device::set_sim_workers`] and
/// [`crate::context::RunContext::workers`]): the `OMPX_SIM_WORKERS`
/// environment variable, then the host's available parallelism, read once
/// per process (the parallelism probe reads cgroup files and would
/// otherwise dominate a small launch). `1` selects the reference serial
/// mode (one worker claims every block); results are bit-identical at any
/// setting.
pub fn default_workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("OMPX_SIM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// One launch as its workers see it.
struct Launch<'a> {
    kernel: &'a Kernel,
    cfg: &'a LaunchConfig,
    warp_size: u32,
    san: Option<&'a LaunchSan>,
    mem: Option<&'a LaunchMemTrace>,
    num_blocks: usize,
    next_block: AtomicUsize,
    /// Sticky poison: once any lane panicked, no worker claims another
    /// block, so sanitizer and memtrace state never include post-failure
    /// blocks.
    poisoned: AtomicBool,
}

impl Launch<'_> {
    /// Claim and run blocks until none are left or a lane panicked;
    /// returns the sum of the blocks this worker committed and its first
    /// panic.
    fn worker(&self) -> (StatsSnapshot, Option<PanicPayload>) {
        let fibered = self.kernel.flags.needs_fibers() && self.cfg.threads_per_block() > 1;
        // Fibers are reused across the worker's blocks.
        let mut fibers = Vec::new();
        let mut stats = StatsSnapshot::default();
        loop {
            if self.poisoned.load(Ordering::Acquire) {
                return (stats, None);
            }
            let b = self.next_block.fetch_add(1, Ordering::Relaxed);
            if b >= self.num_blocks {
                return (stats, None);
            }
            let failed = if fibered {
                self.run_fibers(b, &mut fibers, &mut stats)
            } else {
                self.run_lanes(b, &mut stats)
            };
            if failed.is_some() {
                self.poisoned.store(true, Ordering::Release);
                return (stats, failed);
            }
        }
    }

    fn lane_ctx<'s>(
        &'s self,
        block: (u32, u32, u32),
        lane: usize,
        shared: &'s BlockShared,
        lanes: Option<&'s Lanes>,
    ) -> ThreadCtx<'s> {
        ThreadCtx {
            block,
            thread: self.cfg.block.delinear(lane),
            grid_dim: self.cfg.grid,
            block_dim: self.cfg.block,
            warp_size: self.warp_size,
            counters: CostCounters::default(),
            shared,
            lanes,
            san: self.san,
            mem: self.mem,
            trace_log: Default::default(),
            diag_log: Default::default(),
        }
    }

    /// A barrier-free block: lanes run one after another; the first lane
    /// panic stops the block.
    fn run_lanes(&self, b: usize, stats: &mut StatsSnapshot) -> Option<PanicPayload> {
        let tpb = self.cfg.threads_per_block();
        let shared = block_shared(self.cfg, self.san);
        let block = self.cfg.grid.delinear(b);
        let mut counters = CostCounters::default();
        let mut failed = None;
        for lane in 0..tpb {
            let mut ctx = self.lane_ctx(block, lane, &shared, None);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.kernel.body)(&mut ctx)
            }));
            counters.merge(&ctx.counters);
            ctx.stage_logs();
            if let Err(p) = outcome {
                failed = Some(p);
                break;
            }
        }
        stage_block_scan(self.san, self.cfg, block, b, &shared, None);
        self.commit(failed, &counters, stats)
    }

    /// A synchronising block: every lane a fiber on this thread. A lane
    /// panic retires that lane; the others run to completion and the
    /// block's first panic, in round-robin order, fails it.
    fn run_fibers(
        &self,
        b: usize,
        fibers: &mut Vec<Fiber>,
        stats: &mut StatsSnapshot,
    ) -> Option<PanicPayload> {
        let tpb = self.cfg.threads_per_block();
        if fibers.len() < tpb {
            fibers.resize_with(tpb, Fiber::new);
        }
        let lanes = Lanes::new(std::mem::take(fibers), tpb, self.warp_size as usize);
        let shared = block_shared(self.cfg, self.san);
        let block = self.cfg.grid.delinear(b);
        let counters = RefCell::new(CostCounters::default());
        // Each lane's final `sync_threads` count, for synccheck's
        // barrier-divergence scan.
        let barrier_counts: Vec<Cell<u64>> = (0..tpb).map(|_| Cell::new(0)).collect();
        let failed: Cell<Option<PanicPayload>> = Cell::new(None);
        let body = |lane: usize| {
            let mut ctx = self.lane_ctx(block, lane, &shared, Some(&lanes));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.kernel.body)(&mut ctx)
            }));
            lanes.exit(lane);
            barrier_counts[lane].set(ctx.counters.barriers);
            counters.borrow_mut().merge(&ctx.counters);
            ctx.stage_logs();
            if let Err(p) = outcome {
                let first = failed.take().or_else(|| (!p.is::<Cancelled>()).then_some(p));
                failed.set(first);
            }
        };
        let stuck = lanes.run(&body);
        *fibers = lanes.into_fibers();
        stage_block_scan(self.san, self.cfg, block, b, &shared, Some(&barrier_counts));
        let failed = failed.take().or_else(|| stuck.map(|s| self.deadlock(block, &s)));
        self.commit(failed, &counters.into_inner(), stats)
    }

    /// The failure of a block none of whose live lanes could proceed,
    /// raised as a real panic so the panic hook reports it like a lane's.
    fn deadlock(&self, (bx, by, bz): (u32, u32, u32), stuck: &Stuck) -> PanicPayload {
        let waits = [(&stuck.at_barrier, "sync_threads"), (&stuck.at_warp, "a warp collective")];
        let waits: Vec<String> = waits
            .iter()
            .filter(|(lanes, _)| !lanes.is_empty())
            .map(|(lanes, at)| format!("lanes {} wait at {at}", lane_list(lanes)))
            .collect();
        let msg = format!(
            "kernel `{}` deadlocked in block ({bx}, {by}, {bz}): no lane can proceed ({})",
            self.kernel.name,
            waits.join("; "),
        );
        std::panic::catch_unwind::<_, ()>(|| panic!("{msg}")).expect_err("panic! unwinds")
    }

    /// Fold a finished block into the worker's stats, unless it failed.
    fn commit(
        &self,
        failed: Option<PanicPayload>,
        counters: &CostCounters,
        stats: &mut StatsSnapshot,
    ) -> Option<PanicPayload> {
        if failed.is_none() {
            let block = StatsSnapshot::from_block(counters, self.cfg.threads_per_block() as u64);
            *stats = stats.merged(&block);
        }
        failed
    }
}

/// `0-15, 17, 19-20`: a sorted lane list with runs collapsed.
fn lane_list(lanes: &[usize]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < lanes.len() {
        let mut j = i;
        while j + 1 < lanes.len() && lanes[j + 1] == lanes[j] + 1 {
            j += 1;
        }
        parts.push(if i == j {
            lanes[i].to_string()
        } else {
            format!("{}-{}", lanes[i], lanes[j])
        });
        i = j + 1;
    }
    parts.join(", ")
}

/// The payload a cancelled lane unwinds with.
struct Cancelled;

/// Where a lane of a fibered block is.
#[derive(Clone, Copy)]
enum LaneState {
    /// Not started yet.
    Ready,
    /// Suspended at `sync_threads` until the block barrier leaves this phase.
    AtBarrier(u64),
    /// Suspended at a warp barrier or collective until its warp leaves
    /// this phase.
    AtWarp(u64),
    /// The body returned or unwound.
    Exited,
}

/// Lanes left suspended when a block deadlocked.
struct Stuck {
    at_barrier: Vec<usize>,
    at_warp: Vec<usize>,
}

/// One block's lanes as fibers, and the rendezvous state they meet at.
/// Everything a lane or the scheduler reads after a switch is a `Cell`.
pub(crate) struct Lanes {
    fibers: Vec<Fiber>,
    state: Box<[Cell<LaneState>]>,
    barrier: Phaser,
    warps: Box<[WarpGroup]>,
    warp_size: usize,
    /// Set once the block deadlocked: a resumed lane unwinds.
    cancel: Cell<bool>,
}

impl Lanes {
    fn new(fibers: Vec<Fiber>, tpb: usize, warp_size: usize) -> Lanes {
        let warps = (0..tpb.div_ceil(warp_size))
            .map(|w| WarpGroup::new(warp_size.min(tpb - w * warp_size) as u32))
            .collect();
        Lanes {
            fibers,
            state: (0..tpb).map(|_| Cell::new(LaneState::Ready)).collect(),
            barrier: Phaser::new(tpb),
            warps,
            warp_size,
            cancel: Cell::new(false),
        }
    }

    /// Start every lane on `body` and poll the lanes round robin until all
    /// exited. When none can run, cancel the suspended ones and report
    /// where they waited.
    fn run(&self, body: Body<'_>) -> Option<Stuck> {
        let tpb = self.state.len();
        for (lane, fiber) in self.fibers[..tpb].iter().enumerate() {
            // SAFETY: fibers are idle between blocks (`into_fibers` keeps
            // only idle ones); `self` and `body` stay in place until this
            // function returns, and by then every lane exited or was left
            // suspended for good.
            unsafe { fiber.start(&body, lane) };
        }
        loop {
            let mut ran = false;
            for lane in 0..tpb {
                if self.runnable(lane) {
                    // SAFETY: started above on this thread, and suspended.
                    unsafe { self.fibers[lane].resume() };
                    ran = true;
                }
            }
            if self.barrier.live() == 0 {
                return None;
            }
            if !ran {
                break;
            }
        }
        let mut stuck = Stuck { at_barrier: Vec::new(), at_warp: Vec::new() };
        for (lane, state) in self.state.iter().enumerate() {
            match state.get() {
                LaneState::AtBarrier(_) => stuck.at_barrier.push(lane),
                LaneState::AtWarp(_) => stuck.at_warp.push(lane),
                LaneState::Ready | LaneState::Exited => {}
            }
        }
        self.cancel.set(true);
        for lane in stuck.at_barrier.iter().chain(&stuck.at_warp) {
            // SAFETY: as above; the lane unwinds to its body's base.
            unsafe { self.fibers[*lane].resume() };
        }
        Some(stuck)
    }

    /// The fibers back, minus any left with live frames.
    fn into_fibers(self) -> Vec<Fiber> {
        let mut fibers = self.fibers;
        fibers.retain(Fiber::is_idle);
        fibers
    }

    fn runnable(&self, lane: usize) -> bool {
        match self.state[lane].get() {
            LaneState::Ready => true,
            LaneState::AtBarrier(phase) => self.barrier.phase() != phase,
            LaneState::AtWarp(phase) => self.warp(lane).phase() != phase,
            LaneState::Exited => false,
        }
    }

    fn warp(&self, lane: usize) -> &WarpGroup {
        &self.warps[lane / self.warp_size]
    }

    /// Suspend the running lane `lane` until the scheduler finds `state`
    /// satisfied; unwind instead when the block was cancelled.
    fn park(&self, lane: usize, state: LaneState) {
        self.state[lane].set(state);
        // SAFETY: only lane `lane`'s own context calls in here, on its
        // own fiber.
        unsafe { self.fibers[lane].suspend() };
        if self.cancel.get() {
            std::panic::resume_unwind(Box::new(Cancelled));
        }
    }

    fn exit(&self, lane: usize) {
        self.state[lane].set(LaneState::Exited);
        self.barrier.retire();
        self.warp(lane).retire((lane % self.warp_size) as u32);
    }

    /// `sync_threads` for lane `lane`.
    pub(crate) fn sync_threads(&self, lane: usize) {
        if let Some(phase) = self.barrier.arrive() {
            self.park(lane, LaneState::AtBarrier(phase));
        }
    }

    /// `sync_warp` for lane `lane`; also the rendezvous of every warp
    /// collective.
    pub(crate) fn sync_warp(&self, lane: usize) {
        if let Some(phase) = self.warp(lane).arrive() {
            self.park(lane, LaneState::AtWarp(phase));
        }
    }

    /// Lane `lane` contributes `word` and receives the word of lane
    /// `src_lane` of its warp.
    pub(crate) fn shfl(&self, lane: usize, word: u64, src_lane: u32) -> u64 {
        let parity = self.warp(lane).publish((lane % self.warp_size) as u32, word);
        self.sync_warp(lane);
        self.warp(lane).word(parity, src_lane)
    }

    /// Lane `lane` votes `pred` and receives the warp's ballot mask.
    pub(crate) fn ballot(&self, lane: usize, pred: bool) -> u64 {
        let parity = self.warp(lane).vote((lane % self.warp_size) as u32, pred);
        self.sync_warp(lane);
        self.warp(lane).mask(parity)
    }

    /// Lanes in lane `lane`'s warp.
    pub(crate) fn warp_lanes(&self, lane: usize) -> u32 {
        self.warp(lane).lanes()
    }
}

/// Block-end deterministic scans, staged as the block's final diagnostic
/// group: the shared-memory race folds in (slot, cell, epoch) order, then
/// synccheck's barrier-divergence scan (fibered blocks only).
fn stage_block_scan(
    san: Option<&LaunchSan>,
    cfg: &LaunchConfig,
    block: (u32, u32, u32),
    block_rank: usize,
    shared: &BlockShared,
    barrier_counts: Option<&[Cell<u64>]>,
) {
    let Some(san) = san else { return };
    let mut log = DiagLog::default();
    for (slot, race) in shared.collect_races() {
        let (tx, ty, tz) = cfg.block.delinear(race.this_lane);
        let site = AccessSite { kernel: san.kernel(), block, thread: (tx, ty, tz), block_rank };
        san.state().shared_race(site, slot, race, &mut log);
    }
    if let Some(counts) = barrier_counts {
        scan_barrier_divergence(san, cfg, block, block_rank, counts, &mut log);
    }
    san.stage_block_scan(block_rank, log);
}

/// Synccheck's deterministic barrier-divergence scan, run once per block
/// after all lanes retired. A lane that executed some `sync_threads` calls
/// but fewer than the block's maximum abandoned its siblings at a barrier
/// it never reached. Lanes with a zero count never entered the barrier
/// protocol — the blessed guarded-early-return pattern (exited threads
/// count as arrived) — and are not flagged.
fn scan_barrier_divergence(
    san: &LaunchSan,
    cfg: &LaunchConfig,
    block: (u32, u32, u32),
    block_rank: usize,
    counts: &[Cell<u64>],
    log: &mut DiagLog,
) {
    if !san.state().tool_on(ToolMask::SYNCCHECK) {
        return;
    }
    let vals: Vec<u64> = counts.iter().map(Cell::get).collect();
    let Some(&maxc) = vals.iter().max() else { return };
    for (lane, &c) in vals.iter().enumerate() {
        if c > 0 && c < maxc {
            let (tx, ty, tz) = cfg.block.delinear(lane);
            san.state().barrier_divergence(
                AccessSite { kernel: san.kernel(), block, thread: (tx, ty, tz), block_rank },
                c,
                maxc,
                log,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};
    use crate::mem::DBuf;

    fn dev() -> Device {
        Device::new(DeviceProfile::test_small())
    }

    #[test]
    fn every_thread_runs_exactly_once_lane_by_lane() {
        let d = dev();
        let hits = d.alloc::<u32>(4 * 32);
        let k = Kernel::new("mark", {
            let hits = hits.clone();
            move |ctx: &mut ThreadCtx| {
                let i = ctx.global_rank();
                ctx.atomic_add(&hits, i, 1);
            }
        });
        let stats = d.launch(&k, LaunchConfig::new(4u32, 32u32)).unwrap();
        assert_eq!(stats.threads_executed, 128);
        assert_eq!(stats.blocks_executed, 4);
        assert!(hits.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn every_thread_runs_exactly_once_on_fibers() {
        let d = dev();
        let hits = d.alloc::<u32>(6 * 16);
        let k = Kernel::with_flags(
            "mark_sync",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let hits = hits.clone();
                move |ctx: &mut ThreadCtx| {
                    ctx.sync_threads();
                    let i = ctx.global_rank();
                    ctx.atomic_add(&hits, i, 1);
                    ctx.sync_threads();
                }
            },
        );
        let stats = d.launch(&k, LaunchConfig::new(6u32, 16u32)).unwrap();
        assert_eq!(stats.threads_executed, 96);
        assert_eq!(stats.blocks_executed, 6);
        assert!(hits.to_vec().iter().all(|&v| v == 1));
        assert_eq!(stats.barriers, 2 * 96);
    }

    #[test]
    fn shared_memory_tile_pattern() {
        // The canonical use of shared memory: stage, barrier, read others'
        // elements. Each thread writes its id, then reads its neighbour's.
        let d = dev();
        let tpb = 16usize;
        let out: DBuf<u32> = d.alloc(3 * tpb);
        let mut cfg = LaunchConfig::new(3u32, tpb as u32);
        let slot = cfg.shared_array::<u32>(tpb);
        let k = Kernel::with_flags(
            "tile",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let tile = ctx.shared::<u32>(slot);
                    let t = ctx.thread_rank();
                    ctx.swrite(&tile, t, (ctx.global_rank() * 10) as u32);
                    ctx.sync_threads();
                    let neighbour = (t + 1) % ctx.block_dim_x();
                    let v = ctx.sread(&tile, neighbour);
                    ctx.write(&out, ctx.global_rank(), v);
                }
            },
        );
        d.launch(&k, cfg).unwrap();
        let got = out.to_vec();
        for b in 0..3usize {
            for t in 0..tpb {
                let neighbour_global = b * tpb + (t + 1) % tpb;
                assert_eq!(got[b * tpb + t], (neighbour_global * 10) as u32);
            }
        }
    }

    #[test]
    fn early_return_does_not_hang_barriers() {
        // Half the lanes return before the barrier (the guarded-if pattern);
        // CUDA semantics: exited threads count as arrived.
        let d = dev();
        let out = d.alloc::<u32>(16);
        let k = Kernel::with_flags(
            "early",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let t = ctx.thread_rank();
                    if t >= 8 {
                        return;
                    }
                    ctx.sync_threads();
                    ctx.write(&out, t, 1);
                }
            },
        );
        d.launch(&k, LaunchConfig::new(1u32, 16u32)).unwrap();
        assert_eq!(out.to_vec()[..8], vec![1u32; 8][..]);
    }

    #[test]
    fn warp_shuffle_inside_kernel() {
        let d = dev(); // warp_size = 4
        let out = d.alloc::<u32>(8);
        let k = Kernel::with_flags(
            "shfl",
            KernelFlags { uses_block_sync: false, uses_warp_ops: true },
            {
                let out = out.clone();
                move |ctx: &mut ThreadCtx| {
                    let v = ctx.thread_rank() as u32;
                    let got = ctx.shfl(v, 0); // broadcast lane 0 of each warp
                    ctx.write(&out, ctx.thread_rank(), got);
                }
            },
        );
        d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        // warps of width 4: lanes 0-3 get 0, lanes 4-7 get 4.
        assert_eq!(out.to_vec(), vec![0, 0, 0, 0, 4, 4, 4, 4]);
    }

    #[test]
    fn multidim_identity_is_consistent() {
        let d = dev();
        let cfg = LaunchConfig::new([2u32, 3, 1], [4u32, 2, 1]);
        let total = cfg.total_threads();
        let seen = d.alloc::<u32>(total);
        let k = Kernel::new("ident", {
            let seen = seen.clone();
            move |ctx: &mut ThreadCtx| {
                assert_eq!(
                    ctx.global_thread_id_x(),
                    ctx.block_id_x() * ctx.block_dim_x() + ctx.thread_id_x()
                );
                assert!(ctx.thread_id_y() < ctx.block_dim_y());
                assert!(ctx.block_id_y() < ctx.grid_dim_y());
                ctx.atomic_add(&seen, ctx.global_rank(), 1);
            }
        });
        let stats = d.launch(&k, cfg).unwrap();
        assert_eq!(stats.threads_executed as usize, total);
        assert!(seen.to_vec().iter().all(|&v| v == 1));
    }

    #[test]
    fn stats_count_memory_traffic() {
        let d = dev();
        let a = d.alloc_from(&[1.0f32; 64]);
        let b = d.alloc::<f32>(64);
        let k = Kernel::new("copy", {
            let (a, b) = (a.clone(), b.clone());
            move |ctx: &mut ThreadCtx| {
                let i = ctx.global_thread_id_x();
                let v = ctx.read(&a, i);
                ctx.flops(1);
                ctx.write(&b, i, v + 1.0);
            }
        });
        let stats = d.launch(&k, LaunchConfig::linear(64, 32)).unwrap();
        assert_eq!(stats.global_load_bytes, 64 * 4);
        assert_eq!(stats.global_store_bytes, 64 * 4);
        assert_eq!(stats.flops, 64);
        assert_eq!(b.to_vec(), vec![2.0f32; 64]);
    }

    #[test]
    fn flags_drift_is_reported_and_degraded_under_synccheck() {
        use crate::san::{DiagKind, SanState, ToolMask};
        let d = dev();
        let out = d.alloc::<u32>(8);
        // Uses sync_threads and a shuffle without declaring either flag:
        // the executor runs lanes one by one, and the session must surface
        // that as a structured KernelFlagsDrift finding instead of a panic.
        let k = Kernel::new("drifted", {
            let out = out.clone();
            move |ctx: &mut ThreadCtx| {
                let t = ctx.thread_rank();
                ctx.sync_threads();
                let v = ctx.shfl(t as u32, 0);
                ctx.write(&out, t, v);
            }
        });
        let san = SanState::new(ToolMask::SYNCCHECK);
        d.attach_sanitizer(Arc::clone(&san));
        d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        d.detach_sanitizer();
        let diags = san.diagnostics();
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|g| g.kind == DiagKind::KernelFlagsDrift));
        assert!(diags[0].message.contains("uses_block_sync"));
        // Degraded shuffle: every lane received its own value.
        assert_eq!(out.to_vec(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "uses_block_sync")]
    fn flags_drift_panics_without_a_session() {
        let d = dev();
        let k = Kernel::new("drifted", |ctx: &mut ThreadCtx| {
            ctx.sync_threads();
        });
        let _ = d.launch(&k, LaunchConfig::new(1u32, 8u32));
    }

    #[test]
    fn single_thread_block_sync_is_a_noop() {
        let d = dev();
        let k = Kernel::new("solo", |ctx: &mut ThreadCtx| {
            ctx.sync_threads(); // block of one: trivially fine
        });
        let stats = d.launch(&k, LaunchConfig::new(4u32, 1u32)).unwrap();
        assert_eq!(stats.barriers, 4);
    }

    #[test]
    fn barrier_is_a_total_order_point() {
        // Each lane bumps a shared counter before the barrier; after it,
        // every lane must observe the full count, round after round.
        let d = dev();
        let tpb = 16usize;
        let ok = d.alloc::<u32>(2 * tpb);
        let mut cfg = LaunchConfig::new(2u32, tpb as u32);
        let slot = cfg.shared_array::<u32>(1);
        let k = Kernel::new("total_order", {
            let ok = ok.clone();
            move |ctx: &mut ThreadCtx| {
                let counter = ctx.shared::<u32>(slot);
                let mut pass = true;
                for round in 1..=50u32 {
                    ctx.satomic_add(&counter, 0, 1);
                    ctx.sync_threads();
                    pass &= ctx.sread(&counter, 0) == round * tpb as u32;
                    ctx.sync_threads(); // nobody races ahead into the next round
                }
                ctx.write(&ok, ctx.global_rank(), u32::from(pass));
            }
        })
        .with_block_sync();
        let stats = d.launch(&k, cfg).unwrap();
        assert_eq!(ok.to_vec(), vec![1; 2 * tpb]);
        assert_eq!(stats.barriers, 2 * 100 * tpb as u64);
    }

    #[test]
    fn retired_lanes_do_not_block_later_phases() {
        // Even lanes return at once; odd lanes run ten barrier phases, and
        // the last of them returns while lane 1 still waits at the tenth.
        let d = dev();
        let k = Kernel::new("retire", |ctx: &mut ThreadCtx| {
            let t = ctx.thread_rank();
            if t.is_multiple_of(2) {
                return;
            }
            for _ in 0..if t == 7 { 9 } else { 10 } {
                ctx.sync_threads();
            }
        })
        .with_block_sync();
        let stats = d.launch(&k, LaunchConfig::new(1u32, 8u32)).unwrap();
        assert_eq!(stats.barriers, 3 * 10 + 9);
    }

    #[test]
    fn lane_list_collapses_runs() {
        assert_eq!(lane_list(&[0, 1, 2, 3, 5, 7, 8]), "0-3, 5, 7-8");
        assert_eq!(lane_list(&[4]), "4");
    }
}
