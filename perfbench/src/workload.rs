//! The four workloads: what one op is, how it is set up, and how its
//! outputs are checked.

use crate::cells::{self, Cell, Reference, Run, Tool};
use crate::procfs::ProcSample;
use crate::trace::Tracer;
use ompx_hecbench::common::splitmix64;
use ompx_hecbench::WorkScale;
use ompx_serve::{build_report, render_json, serve, LoadSpec, ServeConfig, Verdict};
use ompx_sim::fault::FaultPlan;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six barrier cells; where executor, rendezvous and barrier work
    /// shows.
    Barrier,
    /// The 18 barrier-free cells: the same executor without barriers.
    Flat,
    /// Replays of CI's serve configuration under a seeded fault schedule:
    /// short cells with faults and telemetry attached, and the only MI250
    /// traffic.
    Serve,
    /// The barrier-free cells under every sanitizer tool and under a full
    /// memory trace.
    Tooled,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Barrier, Workload::Flat, Workload::Serve, Workload::Tooled];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Barrier => "barrier",
            Workload::Flat => "flat",
            Workload::Serve => "serve",
            Workload::Tooled => "tooled",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The barrier cells run at test scale: at default scale one round takes
/// 8–21 s on a 2-core host, one op per run; the per-block barrier work
/// that dominates it is the same at both scales.
pub const BARRIER_SCALE: WorkScale = WorkScale::Test;

/// Input sizes. [`Params::FULL`] is what the benchmark measures;
/// [`Params::SMOKE`] runs every workload in under a second for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub flat_scale: WorkScale,
    pub serve_clients: u32,
}

impl Params {
    pub const FULL: Params = Params { flat_scale: WorkScale::Default, serve_clients: 200 };
    #[cfg(test)]
    pub const SMOKE: Params = Params { flat_scale: WorkScale::Test, serve_clients: 40 };
}

/// Tenants of the serve configuration.
pub const SERVE_TENANTS: u32 = 4;

/// The seed of CI's serve legs, which fixes the client mix and sharding.
const SERVE_LOAD_SEED: u64 = 20260808;

/// The replay of CI's metrics-determinism leg: 200 clients over 4 tenants
/// on 2 × A100 + 2 × MI250, load factor 1.3, test scale, with `seed`
/// driving the fault schedule (rate 0.02, member 0 lost at op 40).
///
/// The client mix stays on CI's seed: replay cost follows the number of
/// expensive stencil and aidw batches in the mix, and letting the seed pick
/// the mix moved a run's median by 15% between seeds. CI's 1000-client
/// replay takes 1.5–2.2 s, which leaves ten or fewer ops in a run on a busy
/// host and so no tail percentile with ten ops beyond it; 200 clients take
/// ~0.8 s.
pub fn serve_setup(seed: u64, clients: u32) -> (ServeConfig, LoadSpec) {
    let mut cfg = ServeConfig::new(SERVE_LOAD_SEED);
    cfg.plan = Some(FaultPlan::seeded(seed, 0.02).with_device_loss_at(40));
    (cfg, LoadSpec { seed: SERVE_LOAD_SEED, clients, tenants: SERVE_TENANTS })
}

/// What ops are checked against: the recorded cell reference, and the
/// first serve report of the run, which every later replay must reproduce
/// byte for byte.
pub struct Checker {
    pub reference: Reference,
    serve_report: Option<String>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker { reference: Reference::embedded(), serve_report: None }
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX` parameter.
const M_ARENA_MAX: i32 = -8;

/// Make every thread allocate from one malloc arena. With glibc's default
/// per-thread arenas the tooled workload's peak RSS depends on which
/// arena each short-lived worker thread lands in: 126–240 MiB between
/// identical runs, against 75–81 MiB with one arena. Call before the
/// process starts any thread.
pub fn use_one_malloc_arena() {
    // SAFETY: mallopt takes two integers and touches only the allocator's
    // own settings; no other thread exists yet to race with the change.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "glibc accepts M_ARENA_MAX");
}

/// Wall time and process counters of one op's execution (checks excluded).
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub wall_s: f64,
    pub proc: ProcSample,
}

struct Meter {
    start: Instant,
    proc: ProcSample,
}

impl Meter {
    fn start() -> Meter {
        Meter { proc: ProcSample::now(), start: Instant::now() }
    }

    fn stop(self) -> OpSample {
        let wall_s = self.start.elapsed().as_secs_f64();
        OpSample { wall_s, proc: ProcSample::now().since(&self.proc) }
    }
}

/// A set-up workload, ready to run ops.
pub enum State {
    Cells { cells: Vec<Cell>, tooled: bool, seed: u64 },
    Serve { cfg: Box<ServeConfig>, spec: LoadSpec },
}

impl State {
    pub fn new(w: Workload, p: &Params, seed: u64) -> State {
        let cells = |cells, tooled| State::Cells { cells, tooled, seed };
        match w {
            Workload::Barrier => cells(cells::barrier_cells(BARRIER_SCALE), false),
            Workload::Flat => cells(cells::flat_cells(p.flat_scale), false),
            Workload::Tooled => cells(cells::tooled_cells(), true),
            Workload::Serve => {
                let (cfg, spec) = serve_setup(seed, p.serve_clients);
                State::Serve { cfg: Box::new(cfg), spec }
            }
        }
    }

    /// Run op number `index` of the run and check its outputs. A cells op
    /// is one round over the cells in an order shuffled by the run's seed
    /// and `index`; a serve op is one replay.
    pub fn op(
        &self,
        index: u64,
        checker: &mut Checker,
        tracer: &mut Tracer,
    ) -> (OpSample, Result<(), String>) {
        match self {
            State::Cells { cells, tooled, seed } => {
                let order = shuffled(cells, splitmix64(*seed ^ splitmix64(index)));
                let meter = Meter::start();
                let tools: &[Tool] =
                    if *tooled { &[Tool::Sanitizer, Tool::MemTrace] } else { &[Tool::None] };
                let runs: Vec<Vec<_>> = tracer.span("op", |t| {
                    order
                        .iter()
                        .map(|c| tools.iter().map(|&tool| run_cell(c, tool, t)).collect())
                        .collect()
                });
                let sample = meter.stop();
                (sample, check_cells(&order, &runs, &checker.reference))
            }
            State::Serve { cfg, spec } => {
                let meter = Meter::start();
                let out = tracer.span("op", |t| {
                    t.span("serve", |_| {
                        std::panic::catch_unwind(|| serve(cfg, spec))
                            .map_err(|_| "serve panicked".to_string())
                    })
                });
                let sample = meter.stop();
                let checked =
                    out.and_then(|r| r.map_err(|e| format!("ServeError: {e}"))).and_then(|out| {
                        if let Some(r) =
                            out.responses.iter().find(|r| matches!(r.verdict, Verdict::Corrupt(_)))
                        {
                            return Err(format!("request {} returned {:?}", r.id, r.verdict));
                        }
                        let report = render_json(&build_report(
                            cfg.seed,
                            spec.clients,
                            spec.tenants,
                            &out.responses,
                            &out.pool,
                            &out.stats,
                        ));
                        let first = checker.serve_report.get_or_insert_with(|| report.clone());
                        (*first == report)
                            .then_some(())
                            .ok_or_else(|| "replay report differs from the run's first".to_string())
                    });
                (sample, checked)
            }
        }
    }
}

fn run_cell(c: &Cell, tool: Tool, t: &mut Tracer) -> Result<Run, String> {
    let call = match tool {
        Tool::None => "run_app",
        Tool::Sanitizer => "run_app_sanitized",
        Tool::MemTrace => "with_mem_trace_full",
    };
    t.span(&format!("{call}.{}", c.name), |_| c.run(tool))
}

/// Check every run against the reference, then that the versions of each
/// app agree.
fn check_cells(
    order: &[Cell],
    runs: &[Vec<Result<Run, String>>],
    reference: &Reference,
) -> Result<(), String> {
    let mut outcomes = Vec::new();
    for (cell, runs) in order.iter().zip(runs) {
        for run in runs {
            let run = run.as_ref().map_err(|e| format!("{}: panicked: {e}", cell.name))?;
            reference.check(cell, run)?;
            outcomes.push((cell, &run.outcome));
        }
    }
    cells::check_versions_agree(outcomes)
}

/// Fisher–Yates shuffle driven by splitmix64 from `seed`.
fn shuffled(cells: &[Cell], seed: u64) -> Vec<Cell> {
    let mut v = cells.to_vec();
    let mut s = seed;
    for i in (1..v.len()).rev() {
        s = splitmix64(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        let _gate = cells::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let mut checker = Checker::new();
        for w in Workload::ALL {
            let state = State::new(w, &Params::SMOKE, 7);
            for index in [0, 0, 1] {
                let (sample, checked) = state.op(index, &mut checker, &mut Tracer::new(index == 1));
                assert!(checked.is_ok(), "{}: {checked:?}", w.name());
                assert!(sample.wall_s > 0.0);
            }
        }
    }

    #[test]
    fn shuffles_follow_the_seed() {
        let cells = cells::flat_cells(WorkScale::Test);
        let names = |v: Vec<Cell>| v.into_iter().map(|c| c.name).collect::<Vec<_>>();
        assert_eq!(names(shuffled(&cells, 3)), names(shuffled(&cells, 3)));
        assert_ne!(names(shuffled(&cells, 3)), names(shuffled(&cells, 4)));
    }
}
