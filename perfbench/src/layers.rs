//! The traced run's per-layer suite: probe kernels through the simulator,
//! no-op launches through each runtime layer, the 24 cells one by one, the
//! tools, and the serve layers. Every timing is a span recorded around a
//! public call, and every metric is derived from those spans.

use crate::cells::{self, Reference, Tool, SYSTEM};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{serve_setup, Params};
use crate::{Metric, Tally};
use ompx::BareTarget;
use ompx_hecbench::common::splitmix64;
use ompx_hecbench::common::{native_ctx, omp_runtime, ompx_runtime};
use ompx_hecbench::{ChaosSession, ProgVersion, System, WorkScale};
use ompx_hostrt::QuirkSet;
use ompx_serve::{build_report, loadgen, render_json, serve};
use ompx_sim::dim::LaunchConfig;
use ompx_sim::exec::Kernel;
use ompx_sim::fault::{FaultPlan, FaultState};
use ompx_sim::memtrace::MemTrace;
use ompx_sim::san::{SanState, ToolMask};
use ompx_sim::{DBuf, Device, DeviceProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub fn suite(
    t: &mut Tracer,
    p: &Params,
    seed: u64,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut m = Vec::new();
    probes(t, tally, &mut m);
    runtime_layers(t, &mut m);
    cell_times(t, reference, tally, &mut m);
    tooled(t, reference, tally, &mut m);
    serve_layers(t, p, seed, tally, &mut m);
    m
}

fn metric(m: &mut Vec<Metric>, name: &str, unit: &'static str, value: f64) {
    m.push(Metric { name: name.to_string(), unit, value });
}

/// Median duration in seconds of the spans named `name`.
fn med(t: &Tracer, name: &str) -> f64 {
    median(&t.seconds_of(name))
}

// ---- probe kernels (ompx-sim) ----------------------------------------------

/// Lanes per probe block.
const LANES: usize = 256;
/// Blocks of the barrier-free probe: enough lanes to time lane execution.
const FLAT_BLOCKS: usize = 512;
/// Blocks of the barrier and warp probes, and of the flat probe they are
/// compared with; each barrier block costs milliseconds on the team path.
const SYNC_BLOCKS: usize = 8;
/// Blocks of the sanitizer and memtrace overhead probes, which run tens
/// of times slower than the bare probe.
const TOOL_BLOCKS: usize = 128;
const PROBE_REPS: usize = 7;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Global read, shared write, neighbour read (global), global write.
    Flat,
    /// The same with one `sync_threads`, the neighbour read from shared.
    Barrier,
    /// A `shfl_xor` butterfly sum plus one `ballot` per lane.
    Warp,
}

struct Probe {
    device: Device,
    host: Vec<u32>,
    x: DBuf<u32>,
    y: DBuf<u32>,
    blocks: usize,
}

/// Global index of the next lane in the same block, wrapping.
fn neighbour(gid: usize) -> usize {
    gid - gid % LANES + (gid % LANES + 1) % LANES
}

impl Probe {
    fn new(device: Device, blocks: usize) -> Probe {
        let host: Vec<u32> =
            (0..blocks * LANES).map(|i| (splitmix64(i as u64) & 0xffff) as u32).collect();
        let x = device.alloc_from(&host);
        let y = device.alloc::<u32>(host.len());
        Probe { device, host, x, y, blocks }
    }

    fn kernel(&self, kind: Kind) -> (Kernel, LaunchConfig) {
        let mut cfg = LaunchConfig::new(self.blocks as u32, LANES as u32);
        let slot = cfg.shared_array::<u32>(LANES);
        let (x, y) = (self.x.clone(), self.y.clone());
        let kernel = match kind {
            Kind::Flat => Kernel::new("probe_flat", move |tc| {
                let tile = tc.shared::<u32>(slot);
                let (tid, gid) = (tc.thread_rank(), tc.global_thread_id_x());
                let v = tc.read(&x, gid);
                tc.swrite(&tile, tid, v);
                let nb = tc.read(&x, neighbour(gid));
                let own = tc.sread(&tile, tid);
                tc.write(&y, gid, own.wrapping_add(nb));
            }),
            Kind::Barrier => Kernel::new("probe_barrier", move |tc| {
                let tile = tc.shared::<u32>(slot);
                let (tid, gid) = (tc.thread_rank(), tc.global_thread_id_x());
                let v = tc.read(&x, gid);
                tc.swrite(&tile, tid, v);
                tc.sync_threads();
                let nb = tc.sread(&tile, (tid + 1) % LANES);
                tc.write(&y, gid, v.wrapping_add(nb));
            })
            .with_block_sync(),
            Kind::Warp => Kernel::new("probe_warp", move |tc| {
                let gid = tc.global_thread_id_x();
                let v = tc.read(&x, gid);
                let mut sum = v;
                let mut mask = tc.warp_size() / 2;
                while mask > 0 {
                    sum = sum.wrapping_add(tc.shfl_xor(sum, mask));
                    mask /= 2;
                }
                let odd = tc.ballot(v & 1 == 1);
                tc.write(&y, gid, sum.wrapping_add(odd.count_ones()));
            })
            .with_warp_ops(),
        };
        (kernel, cfg)
    }

    /// Collective ops per lane of the warp probe: the butterfly's shuffles
    /// plus one ballot.
    fn warp_ops(&self) -> usize {
        self.device.profile().warp_size.trailing_zeros() as usize + 1
    }

    fn expected(&self, kind: Kind) -> Vec<u32> {
        let x = &self.host;
        match kind {
            Kind::Flat | Kind::Barrier => {
                (0..x.len()).map(|i| x[i].wrapping_add(x[neighbour(i)])).collect()
            }
            Kind::Warp => {
                let ws = self.device.profile().warp_size as usize;
                x.chunks(ws)
                    .flat_map(|w| {
                        let sum = w.iter().fold(0u32, |a, &v| a.wrapping_add(v));
                        let odd = w.iter().filter(|&&v| v & 1 == 1).count() as u32;
                        std::iter::repeat_n(sum.wrapping_add(odd), w.len())
                    })
                    .collect()
            }
        }
    }

    /// Time `reps` launches as spans named `name` after one untimed
    /// launch, checking every output against the host computation. A probe
    /// that computes the wrong thing reports no speed.
    fn time(
        &self,
        t: &mut Tracer,
        name: &str,
        kind: Kind,
        reps: usize,
        tally: &mut Tally,
    ) -> Option<f64> {
        let (kernel, cfg) = self.kernel(kind);
        let want = self.expected(kind);
        for rep in 0..=reps {
            self.y.fill(0);
            let launched = if rep == 0 {
                self.device.launch(&kernel, cfg.clone())
            } else {
                t.span(name, |_| self.device.launch(&kernel, cfg.clone()))
            };
            let checked = launched.map_err(|e| e.to_string()).and_then(|_| {
                (self.y.to_vec() == want).then_some(()).ok_or_else(|| "wrong output".to_string())
            });
            if !tally.record(name, checked) {
                return None;
            }
            // Every rep records into an empty trace.
            if let Some(trace) = self.device.mem_trace() {
                trace.take_events();
            }
        }
        Some(med(t, name))
    }
}

fn a100() -> Device {
    Device::new(DeviceProfile::a100())
}

fn probes(t: &mut Tracer, tally: &mut Tally, m: &mut Vec<Metric>) {
    const EMPTY_BATCH: usize = 100;
    let device = a100();
    let empty = Kernel::new("probe_empty", |_| {});
    for batch in 0..=20 {
        let run = |_: &mut Tracer| {
            for _ in 0..EMPTY_BATCH {
                device.launch(&empty, LaunchConfig::new(1u32, 1u32)).expect("empty launch");
            }
        };
        if batch == 0 {
            run(t);
        } else {
            t.span("sim.launch.empty", run);
        }
    }
    metric(m, "sim.launch.empty_us", "us", med(t, "sim.launch.empty") / EMPTY_BATCH as f64 * 1e6);

    let big = Probe::new(a100(), FLAT_BLOCKS);
    let lanes = (FLAT_BLOCKS * LANES) as f64;
    if let Some(s) = big.time(t, "sim.exec.flat", Kind::Flat, PROBE_REPS, tally) {
        metric(m, "sim.exec.flat_ns_per_lane", "ns", s / lanes * 1e9);
    }

    let small = Probe::new(a100(), SYNC_BLOCKS);
    let lanes = (SYNC_BLOCKS * LANES) as f64;
    let flat = small.time(t, "sim.exec.flat_small", Kind::Flat, PROBE_REPS, tally);
    let barrier = small.time(t, "sim.barrier", Kind::Barrier, PROBE_REPS, tally);
    let warp = small.time(t, "sim.warp", Kind::Warp, PROBE_REPS, tally);
    if let (Some(f), Some(b)) = (flat, barrier) {
        metric(m, "sim.barrier.ns_per_lane", "ns", (b - f) / lanes * 1e9);
    }
    if let (Some(f), Some(w)) = (flat, warp) {
        let ops = small.warp_ops() as f64;
        metric(m, "sim.warp.ns_per_lane_op", "ns", (w - f) / (lanes * ops) * 1e9);
    }

    let san = SanState::new(ToolMask::ALL);
    let device = a100();
    device.attach_sanitizer(san.clone());
    if let Some(x) = overhead(t, tally, "sim.san", device, TOOL_BLOCKS) {
        metric(m, "sim.san.overhead_x", "x", x);
    }
    let clean = san.diagnostics().is_empty();
    tally
        .record("sim.san", clean.then_some(()).ok_or_else(|| "sanitizer flagged the probe".into()));
    let device = a100();
    device.attach_mem_trace(MemTrace::new());
    if let Some(x) = overhead(t, tally, "sim.memtrace", device, TOOL_BLOCKS) {
        metric(m, "sim.memtrace.overhead_x", "x", x);
    }
    let device = a100();
    device.attach_faults(FaultState::new(FaultPlan::none()));
    if let Some(x) = overhead(t, tally, "sim.fault", device, FLAT_BLOCKS) {
        metric(m, "sim.fault.overhead_x", "x", x);
    }
}

/// A tool's overhead: the flat probe on `device`, which had the tool
/// attached before the probe's buffers were allocated, over the same probe
/// on a bare device. Launches alternate between the two so that host
/// drift falls on both alike.
fn overhead(
    t: &mut Tracer,
    tally: &mut Tally,
    name: &str,
    device: Device,
    blocks: usize,
) -> Option<f64> {
    let bare = Probe::new(a100(), blocks);
    let tooled = Probe::new(device, blocks);
    let detached = format!("{name}.detached");
    for _ in 0..PROBE_REPS {
        bare.time(t, &detached, Kind::Flat, 1, tally)?;
        tooled.time(t, name, Kind::Flat, 1, tally)?;
    }
    Some(med(t, name) / med(t, &detached))
}

// ---- runtime layers (klang, core, hostrt/devicert, hecbench) ---------------

const LAYER_BATCH: usize = 50;
const LAYER_BATCHES: usize = 15;

/// Time `f` in batches of `batch` calls, one untimed batch first; the
/// value is the median batch divided by `batch`, in µs.
fn per_call_us(t: &mut Tracer, name: &str, batch: usize, mut f: impl FnMut()) -> f64 {
    for b in 0..=LAYER_BATCHES {
        let mut run = |_: &mut Tracer| (0..batch).for_each(|_| f());
        if b == 0 {
            run(t);
        } else {
            t.span(name, run);
        }
    }
    med(t, name) / batch as f64 * 1e6
}

fn runtime_layers(t: &mut Tracer, m: &mut Vec<Metric>) {
    let noop = Kernel::new("probe_noop", |_| {});
    let ctx = native_ctx(SYSTEM, false);
    let v = per_call_us(t, "klang.launch_cfg", LAYER_BATCH, || {
        ctx.launch_cfg(&noop, LaunchConfig::new(1u32, 1u32)).expect("native no-op launch");
    });
    metric(m, "klang.launch_us", "us", v);

    let ompx = ompx_runtime(SYSTEM);
    let v = per_call_us(t, "core.BareTarget.launch", LAYER_BATCH, || {
        BareTarget::new(&ompx, "probe_noop")
            .num_teams([1])
            .thread_limit([1])
            .launch(|_| {})
            .expect("bare no-op launch");
    });
    metric(m, "core.bare_launch_us", "us", v);

    let omp = omp_runtime(SYSTEM);
    omp.quirks().set("probe_generic", QuirkSet { force_generic: true, ..QuirkSet::default() });
    for (name, kernel, metric_name) in [
        ("hostrt.target.spmd", "probe_noop", "hostrt.target_spmd_us"),
        ("hostrt.target.generic", "probe_generic", "hostrt.target_generic_us"),
    ] {
        let v = per_call_us(t, name, LAYER_BATCH, || {
            omp.target(kernel)
                .num_teams(1)
                .thread_limit(1)
                .run_distribute_parallel_for(1, |_, _, _| {})
                .expect("target no-op region");
        });
        metric(m, metric_name, "us", v);
    }

    const CTX_BATCH: usize = 20;
    let v = per_call_us(t, "hecbench.native_ctx", CTX_BATCH, || {
        drop(black_box(native_ctx(SYSTEM, false)))
    });
    metric(m, "hecbench.ctx_us.native", "us", v);
    let v =
        per_call_us(t, "hecbench.omp_runtime", CTX_BATCH, || drop(black_box(omp_runtime(SYSTEM))));
    metric(m, "hecbench.ctx_us.omp", "us", v);
    let v = per_call_us(t, "hecbench.ompx_runtime", CTX_BATCH, || {
        drop(black_box(ompx_runtime(SYSTEM)))
    });
    metric(m, "hecbench.ctx_us.ompx", "us", v);
}

// ---- cells ------------------------------------------------------------------

/// Samples per cell: at least one, then more until this many or until
/// the cell has used [`CELL_BUDGET_S`].
const CELL_SAMPLES: usize = 5;
const CELL_BUDGET_S: f64 = 0.3;

fn cell_times(t: &mut Tracer, reference: &Reference, tally: &mut Tally, m: &mut Vec<Metric>) {
    for cell in cells::matrix(WorkScale::Default) {
        let name = format!("cell.{}", cell.name);
        let start = Instant::now();
        for _ in 0..CELL_SAMPLES {
            let ok =
                t.span(&name, |_| cell.run(Tool::None)).and_then(|r| reference.check(&cell, &r));
            if !tally.record(&name, ok) || start.elapsed().as_secs_f64() >= CELL_BUDGET_S {
                break;
            }
        }
        metric(m, &format!("{name}_ms"), "ms", med(t, &name) * 1e3);
    }
}

// ---- tools --------------------------------------------------------------------

fn tooled(t: &mut Tracer, reference: &Reference, tally: &mut Tally, m: &mut Vec<Metric>) {
    let cells = cells::tooled_cells();
    // Events of the last round, which is a memtraced one.
    let mut events = 0;
    for (name, tool, rounds) in [
        ("tooled.plain", Tool::None, 9),
        ("tooled.san", Tool::Sanitizer, 5),
        ("tooled.memtrace", Tool::MemTrace, 5),
    ] {
        for _ in 0..rounds {
            let runs: Vec<_> = t.span(name, |_| cells.iter().map(|c| c.run(tool)).collect());
            events = 0;
            for (c, run) in cells.iter().zip(runs) {
                let ok = run.and_then(|r| {
                    events += r.trace.map_or(0, |(e, b)| e + b);
                    reference.check(c, &r)
                });
                tally.record(name, ok);
            }
        }
    }
    let plain = med(t, "tooled.plain");
    let traced = med(t, "tooled.memtrace");
    metric(m, "tooled.san_x", "x", med(t, "tooled.san") / plain);
    metric(m, "tooled.memtrace_x", "x", traced / plain);
    metric(m, "sim.memtrace.events", "count", events as f64);
    metric(m, "sim.memtrace.ns_per_event", "ns", (traced - plain) / events as f64 * 1e9);
}

// ---- serve ------------------------------------------------------------------

fn serve_layers(t: &mut Tracer, p: &Params, seed: u64, tally: &mut Tally, m: &mut Vec<Metric>) {
    let (cfg, spec) = serve_setup(seed, p.serve_clients);
    for _ in 0..20 {
        t.span("serve.loadgen", |_| black_box(loadgen::offered(&spec)));
    }
    metric(m, "serve.loadgen_ms", "ms", med(t, "serve.loadgen") * 1e3);

    let out = match t.span("serve.replay", |_| serve(&cfg, &spec)) {
        Ok(out) => out,
        Err(e) => {
            tally.record("serve.replay", Err(e.to_string()));
            return;
        }
    };
    tally.record("serve.replay", Ok(()));
    let replay_s = med(t, "serve.replay");
    metric(m, "serve.replay_s", "s", replay_s);
    for _ in 0..10 {
        t.span("serve.report", |_| {
            black_box(render_json(&build_report(
                cfg.seed,
                spec.clients,
                spec.tenants,
                &out.responses,
                &out.pool,
                &out.stats,
            )))
        });
    }
    metric(m, "serve.report_ms", "ms", med(t, "serve.report") * 1e3);

    let batches: u64 = out.pool.members.iter().map(|mb| mb.batches).sum();
    let warmups = out.expected.len() as u64;
    metric(m, "serve.cells_run", "count", (batches + out.stats.hedges_launched + warmups) as f64);

    // Every execution in the replay: one per batch (responses of a batch
    // share its trace id), one per hedge (charged like its batch), and
    // one fault-free A100 `ompx` warmup per app.
    let mut runs: BTreeMap<(&str, &str), (ProgVersion, System, u64)> = BTreeMap::new();
    let mut count = |app, version: ProgVersion, sys: System, n| {
        runs.entry((app, version.label(sys))).or_insert((version, sys, 0)).2 += n;
    };
    let mut batch_of = BTreeMap::new();
    for r in out.responses.iter().filter(|r| r.trace.is_some()) {
        batch_of.entry(r.trace).or_insert(r);
    }
    for r in batch_of.values() {
        let sys = r.member.map_or(SYSTEM, |mb| out.pool.members[mb].kind.system());
        count(r.app, r.version, sys, 1 + u64::from(r.hedged));
    }
    for app in out.expected.keys() {
        count(app, ProgVersion::Ompx, SYSTEM, 1);
    }
    let session = ChaosSession::begin();
    let mut estimate = 0.0;
    for ((app, label), (version, sys, n)) in runs {
        let name = format!("serve.run_cell.{app}.{label}");
        for _ in 0..3 {
            let r = t.span(&name, |_| session.run_cell(app, sys, version, cfg.scale, None));
            tally.record(&name, r.map(drop));
        }
        estimate += med(t, &name) * n as f64;
    }
    drop(session);
    metric(m, "serve.cell_share_est", "ratio", estimate / replay_s);
}
