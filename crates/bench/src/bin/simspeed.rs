//! `simspeed` — wall-clock speed and determinism gate for the parallel
//! simulator:
//!
//! ```text
//! simspeed                                  # full matrix, report only
//! simspeed --runs 5 --test-scale
//! simspeed --bench-out results/BENCH_simspeed.json --csv-out results/BENCH_simspeed.csv
//! simspeed --baseline results/BENCH_simspeed.json   # gate: exit 1 on drift
//! ```
//!
//! Every (app, program version) cell of the HeCBench matrix runs twice:
//! once in reference serial mode (one worker) and once with the full host
//! worker budget. The gate holds the simulator to its contract:
//!
//! * **bit identity** — the parallel checksum must equal the serial
//!   checksum for every cell, on every run;
//! * **trace identity** — the memory trace of a barrier-heavy cell and the
//!   sanitizer report of a racy fixture must serialize to the same bytes
//!   under one worker and under the full budget;
//! * **speed** — on a multi-core host the parallel matrix must complete at
//!   least `MIN_SPEEDUP` times faster than serial mode. On a single-core
//!   host (or `OMPX_SIM_WORKERS=1`) the speedup is reported but not
//!   enforced — identity always is.
//!
//! `--baseline` compares per-cell checksums against a committed
//! `BENCH_simspeed.json` under the `gate::SIMSPEED` rule table (the
//! baseline's `scale` must match the run's) and exits non-zero on any
//! mismatch; wall-clock numbers are machine-dependent and deliberately not
//! part of the baseline diff.

use ompx_bench::cli::{self, Args, CliError};
use ompx_bench::gate;
use ompx_hecbench::{run_app, with_mem_trace_full, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_sanitizer::fixtures;
use ompx_sim::context::RunContext;
use ompx_sim::exec;
use std::time::Instant;

/// Speedup the parallel executor must reach over serial mode on hosts
/// where it actually has more than one worker.
const MIN_SPEEDUP: f64 = 1.5;

fn usage(e: &CliError) -> ! {
    eprintln!(
        "simspeed: {e}\n\
         usage: simspeed [--runs N] [--test-scale] [--system nvidia|amd]\n\
         \x20               [--bench-out FILE] [--csv-out FILE] [--baseline FILE]"
    );
    std::process::exit(2);
}

struct Opts {
    runs: usize,
    scale: WorkScale,
    system: System,
    bench_out: Option<String>,
    csv_out: Option<String>,
    baseline: Option<String>,
}

fn parse(mut a: Args) -> Result<Opts, CliError> {
    let mut o = Opts {
        runs: 3,
        scale: WorkScale::Default,
        system: System::Nvidia,
        bench_out: None,
        csv_out: None,
        baseline: None,
    };
    while let Some(flag) = a.next_flag() {
        match flag.as_str() {
            "--runs" => o.runs = a.parse_with(|s| s.parse().ok().filter(|&n| n >= 1))?,
            "--test-scale" => o.scale = WorkScale::Test,
            "--system" => o.system = a.system()?,
            "--bench-out" => o.bench_out = Some(a.value()?),
            "--csv-out" => o.csv_out = Some(a.value()?),
            "--baseline" => o.baseline = Some(a.value()?),
            _ => return Err(a.unknown()),
        }
    }
    Ok(o)
}

struct Cell {
    app: String,
    version: String,
    checksum: u64,
    wall_s_serial: f64,
    wall_s_parallel: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        if self.wall_s_parallel > 0.0 {
            self.wall_s_serial / self.wall_s_parallel
        } else {
            1.0
        }
    }
}

/// Run `f` with every device it creates on `workers` executor workers
/// (`None`: the default budget), in a fresh allocation id space.
fn with_workers<R>(workers: Option<usize>, f: impl FnOnce() -> R) -> R {
    RunContext { workers, ..Default::default() }.scope(f)
}

/// Best-of-`runs` wall time for one cell under the *current* worker
/// setting, with the checksum of every run (they must all agree).
fn time_cell(
    app: &str,
    sys: System,
    version: ProgVersion,
    scale: WorkScale,
    runs: usize,
) -> (f64, Vec<u64>) {
    let mut best = f64::INFINITY;
    let mut checksums = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let outcome = run_app(app, sys, version, scale);
        best = best.min(t0.elapsed().as_secs_f64());
        checksums.push(outcome.checksum);
    }
    (best, checksums)
}

/// Canonical bytes of a traced barrier-heavy cell: every memory event and
/// barrier event in merged order. Identical bytes across worker counts is
/// the memtrace half of the determinism contract; allocation ids are
/// included raw, since each traced run starts a fresh id space.
fn trace_bytes(sys: System, scale: WorkScale) -> String {
    let (_, events, barriers) = with_mem_trace_full(|| {
        run_app("stencil", sys, ProgVersion::Native, scale);
    });
    let mut out = String::new();
    for e in &events {
        out.push_str(&format!("{e:?}\n"));
    }
    for b in &barriers {
        out.push_str(&format!("{b:?}\n"));
    }
    out
}

/// Canonical bytes of a racy fixture's sanitizer report: finding order is
/// part of the determinism contract.
fn findings_bytes(fixture: &str) -> String {
    let (run, _) = fixtures::by_name(fixture).expect("known fixture");
    run().to_json()
}

#[allow(clippy::too_many_arguments)]
fn bench_json(
    cells: &[Cell],
    host_cores: usize,
    workers: usize,
    enforced: bool,
    runs: usize,
    scale: WorkScale,
    total_serial: f64,
    total_parallel: f64,
    identity_ok: bool,
) -> String {
    let mut lines = Vec::new();
    for c in cells {
        lines.push(format!(
            "    {{\"app\":\"{}\",\"version\":\"{}\",\"checksum\":\"{:#018x}\",\"wall_s_serial\":{:e},\"wall_s_parallel\":{:e},\"speedup\":{:.4}}}",
            c.app, c.version, c.checksum, c.wall_s_serial, c.wall_s_parallel, c.speedup()
        ));
    }
    let total_speedup = if total_parallel > 0.0 { total_serial / total_parallel } else { 1.0 };
    format!(
        "{{\n  \"schema\": \"ompx-bench-simspeed-v1\",\n  \"host_cores\": {host_cores},\n  \"workers\": {workers},\n  \"enforced\": {enforced},\n  \"runs\": {runs},\n  \"scale\": \"{}\",\n  \"identity_ok\": {identity_ok},\n  \"total_serial_s\": {total_serial:e},\n  \"total_parallel_s\": {total_parallel:e},\n  \"speedup\": {total_speedup:.4},\n  \"cells\": [\n{}\n  ]\n}}\n",
        match scale {
            WorkScale::Test => "test",
            _ => "default",
        },
        lines.join(",\n")
    )
}

fn bench_csv(cells: &[Cell]) -> String {
    let mut out = String::from("app,version,checksum,wall_s_serial,wall_s_parallel,speedup\n");
    for c in cells {
        out.push_str(&format!(
            "{},{},{:#018x},{:e},{:e},{:.4}\n",
            c.app,
            c.version,
            c.checksum,
            c.wall_s_serial,
            c.wall_s_parallel,
            c.speedup()
        ));
    }
    out
}

fn main() {
    let o = parse(Args::from_env()).unwrap_or_else(|e| usage(&e));

    let host_cores = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
    let workers = exec::default_workers();
    // The >=1.5x requirement only means something when the parallel
    // executor actually has parallelism to spend.
    let enforced = workers >= 2 && host_cores >= 2;

    let mut cells: Vec<Cell> = Vec::new();
    let mut identity_failures: Vec<String> = Vec::new();

    eprintln!(
        "simspeed: {} apps x {} versions, {} run(s)/cell, workers 1 vs {} ({} host cores)",
        APP_NAMES.len(),
        ProgVersion::all().len(),
        o.runs,
        workers,
        host_cores
    );

    for app in APP_NAMES {
        for version in ProgVersion::all() {
            let cell = || time_cell(app, o.system, version, o.scale, o.runs);
            let (wall_serial, serial_sums) = with_workers(Some(1), cell);
            let (wall_parallel, parallel_sums) = with_workers(None, cell);

            let label = version.label(o.system).to_string();
            let reference = serial_sums[0];
            for (mode, sums) in [("serial", &serial_sums), ("parallel", &parallel_sums)] {
                for (run, &sum) in sums.iter().enumerate() {
                    if sum != reference {
                        identity_failures.push(format!(
                            "{app}/{label}: {mode} run {run} checksum {sum:#018x} != reference {reference:#018x}"
                        ));
                    }
                }
            }
            let cell = Cell {
                app: app.to_string(),
                version: label,
                checksum: reference,
                wall_s_serial: wall_serial,
                wall_s_parallel: wall_parallel,
            };
            eprintln!(
                "  {:10} {:8} {:>9.4}s -> {:>9.4}s  ({:.2}x)  {:#018x}",
                cell.app,
                cell.version,
                cell.wall_s_serial,
                cell.wall_s_parallel,
                cell.speedup(),
                cell.checksum
            );
            cells.push(cell);
        }
    }

    // Byte-identity probes: a barrier-heavy traced cell and a racy
    // sanitizer fixture, serial vs parallel (twice, to also catch
    // run-to-run drift at full width). Always probed at test scale —
    // byte identity is a property of the merge, not of the workload size,
    // and the default-scale trace is hundreds of megabytes.
    let trace_ref = with_workers(Some(1), || trace_bytes(o.system, WorkScale::Test));
    let findings_ref = with_workers(Some(1), || findings_bytes("shared-race"));
    for round in 0..2 {
        let t = with_workers(None, || trace_bytes(o.system, WorkScale::Test));
        if t != trace_ref {
            identity_failures
                .push(format!("memtrace bytes differ from serial reference (round {round})"));
        }
        let f = with_workers(None, || findings_bytes("shared-race"));
        if f != findings_ref {
            identity_failures.push(format!(
                "sanitizer report bytes differ from serial reference (round {round})"
            ));
        }
    }
    let identity_ok = identity_failures.is_empty();
    eprintln!(
        "simspeed: identity probes ({} trace bytes, {} report bytes): {}",
        trace_ref.len(),
        findings_ref.len(),
        if identity_ok { "byte-identical" } else { "FAILED" }
    );

    let total_serial: f64 = cells.iter().map(|c| c.wall_s_serial).sum();
    let total_parallel: f64 = cells.iter().map(|c| c.wall_s_parallel).sum();
    let speedup = if total_parallel > 0.0 { total_serial / total_parallel } else { 1.0 };
    eprintln!(
        "simspeed: matrix {total_serial:.3}s serial -> {total_parallel:.3}s parallel ({speedup:.2}x, gate {})",
        if enforced { "enforced" } else { "not enforced: single-core host or single worker" }
    );

    let json = bench_json(
        &cells,
        host_cores,
        workers,
        enforced,
        o.runs,
        o.scale,
        total_serial,
        total_parallel,
        identity_ok,
    );
    if let Some(path) = &o.bench_out {
        cli::write_file("simspeed", path, &json);
        eprintln!("simspeed: wrote {path}");
    }
    if let Some(path) = &o.csv_out {
        cli::write_file("simspeed", path, &bench_csv(&cells));
        eprintln!("simspeed: wrote {path}");
    }

    let mut exit = 0;
    if !identity_ok {
        eprintln!("simspeed: DETERMINISM GATE FAILED, {} violation(s):", identity_failures.len());
        for f in &identity_failures {
            eprintln!("  {f}");
        }
        exit = 1;
    }
    if enforced && speedup < MIN_SPEEDUP {
        eprintln!(
            "simspeed: SPEED GATE FAILED: {speedup:.2}x < {MIN_SPEEDUP}x with {workers} workers"
        );
        exit = 1;
    }
    if let Some(path) = &o.baseline {
        exit = exit.max(gate::check(&gate::SIMSPEED, &json, path));
    }
    std::process::exit(exit);
}
