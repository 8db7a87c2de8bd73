//! `serve` — replay a deterministic multi-tenant load against the
//! simulated device pool and assert the chaos trichotomy under load:
//!
//! ```text
//! serve --seed 20260808 --clients 1000 --tenants 8
//! serve --clients 200 --rate 0.05 --lose-at 10
//! serve --clients 1000 --bench-out results/BENCH_serve.json
//! serve --clients 1000 --baseline results/BENCH_serve.json
//! ```
//!
//! Every request must end as success, a typed error, a bit-identical
//! validated fallback, or a backpressure rejection — a corrupt response
//! (wrong checksum) is a finding in the same `{tool, kernel, location,
//! severity, message}` schema the other CLIs emit and drives a non-zero
//! exit. `--baseline` diffs the run's report against a committed
//! `BENCH_serve.json` (integer fields exact, floats to 1e-9 relative)
//! and fails on drift, mirroring the profile gate.
//!
//! `--sweep` replays the same seeded load at a ladder of load factors
//! (`--sweep-factors`, default 0.5..3.0, 7 points) and emits the
//! throughput / p50/p95/p99-vs-load curve as `BENCH_sweep.json`
//! (`--bench-out`) and CSV (`--csv-out`); `--baseline` then gates the
//! sweep document instead of the single-point report. `--metrics-out` /
//! `--metrics-json` dump the run's deterministic metric snapshot in
//! Prometheus text / JSON form — identical seeded runs produce
//! bit-identical files, which CI diffs directly.
//!
//! `--escalate` runs the chaos-escalation campaign instead: the same
//! seeded load replayed at a ladder of fault-rate multipliers
//! (`--multipliers`, default 1,2,4,8,16), asserting the per-rung SLO
//! contract (interactive p99 within deadline, zero corrupt verdicts,
//! shed fraction monotone in pressure) and emitting
//! `BENCH_resilience.json` (`--bench-out`) and CSV (`--csv-out`);
//! contract breaches are findings and drive a non-zero exit. `--spares N`
//! benches N warm spares that promote on device loss in any mode.

use ompx_prof::chrome::to_chrome_trace;
use ompx_prof::jsonio;
use ompx_sanitizer::report::{exit_code, render_json as findings_json, render_text};
use ompx_sanitizer::{Finding, Severity};
use ompx_serve::{
    build_report, escalate, render_escalate_csv, render_escalate_json, render_json,
    render_sweep_csv, render_sweep_json, serve, sweep, DeviceKind, EscalateResult, LoadSpec,
    ServeConfig, ServeError, ServeReport, SweepResult, Verdict,
};
use ompx_sim::fault::FaultPlan;
use ompx_telemetry::{to_json as metrics_json, to_prometheus};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--seed N] [--clients N] [--tenants N]\n\
         \x20           [--devices a100,a100,mi250,mi250] [--spares N] [--max-batch N]\n\
         \x20           [--queue-cap N] [--load-factor F] [--rate F] [--lose-at N]\n\
         \x20           [--no-faults] [--default-scale] [--json] [--bench-out FILE]\n\
         \x20           [--trace FILE] [--baseline FILE] [--write-baseline FILE]\n\
         \x20           [--metrics-out FILE] [--metrics-json FILE]\n\
         \x20           [--sweep] [--sweep-factors F,F,...] [--csv-out FILE]\n\
         \x20           [--escalate] [--multipliers F,F,...]"
    );
    std::process::exit(2);
}

struct Opts {
    cfg: ServeConfig,
    spec: LoadSpec,
    json: bool,
    bench_out: Option<String>,
    trace: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
    sweep: bool,
    sweep_factors: Vec<f64>,
    escalate: bool,
    multipliers: Vec<f64>,
    csv_out: Option<String>,
}

/// A serve-layer failure rendered as a finding, so every error path
/// exits through the same reporting machinery (and non-zero).
fn error_findings(e: &ServeError) -> Vec<Finding> {
    vec![Finding {
        tool: "serve".to_string(),
        kernel: "-".to_string(),
        location: "serve".to_string(),
        severity: Severity::Error,
        message: e.to_string(),
    }]
}

fn fail(o: &Opts, e: &ServeError) -> ! {
    let findings = error_findings(e);
    if o.json {
        print!("{}", findings_json(&findings));
    } else {
        print!("{}", render_text(&findings));
    }
    std::process::exit(exit_code(&findings));
}

fn parse(args: &[String]) -> Opts {
    let mut cfg = ServeConfig::new(20260808);
    let mut spec = LoadSpec { seed: 20260808, clients: 1000, tenants: 8 };
    // Default chaos: a low fault rate everywhere plus one scheduled
    // device loss (member 0 only, per FaultPlan::for_pool_member).
    let mut rate = 0.02;
    let mut lose_at = Some(40);
    let mut faults = true;
    let mut o = Opts {
        cfg: cfg.clone(),
        spec,
        json: false,
        bench_out: None,
        trace: None,
        baseline: None,
        write_baseline: None,
        metrics_out: None,
        metrics_json: None,
        sweep: false,
        sweep_factors: ompx_serve::DEFAULT_FACTORS.to_vec(),
        escalate: false,
        multipliers: ompx_serve::DEFAULT_MULTIPLIERS.to_vec(),
        csv_out: None,
    };
    let mut i = 0;
    macro_rules! val {
        () => {{
            i += 1;
            match args.get(i) {
                Some(v) => v,
                None => usage(),
            }
        }};
    }
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v: u64 = val!().parse().unwrap_or_else(|_| usage());
                cfg.seed = v;
                spec.seed = v;
            }
            "--clients" => spec.clients = val!().parse().unwrap_or_else(|_| usage()),
            "--tenants" => spec.tenants = val!().parse().unwrap_or_else(|_| usage()),
            "--devices" => {
                cfg.devices = val!()
                    .split(',')
                    .map(|d| match d.trim() {
                        "a100" => DeviceKind::A100,
                        "mi250" => DeviceKind::Mi250,
                        _ => usage(),
                    })
                    .collect();
            }
            "--spares" => {
                let n: usize = val!().parse().unwrap_or_else(|_| usage());
                // Alternate profiles starting with A100 so a mixed bench
                // can cover either side of the pool.
                cfg.spares = (0..n)
                    .map(|i| if i % 2 == 0 { DeviceKind::A100 } else { DeviceKind::Mi250 })
                    .collect();
            }
            "--max-batch" => cfg.max_batch = val!().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => cfg.queue_cap = val!().parse().unwrap_or_else(|_| usage()),
            "--load-factor" => cfg.load_factor = val!().parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = val!().parse().unwrap_or_else(|_| usage()),
            "--lose-at" => lose_at = Some(val!().parse().unwrap_or_else(|_| usage())),
            "--no-faults" => faults = false,
            "--default-scale" => cfg.scale = ompx_hecbench::WorkScale::Default,
            "--json" => o.json = true,
            "--bench-out" => o.bench_out = Some(val!().clone()),
            "--trace" => o.trace = Some(val!().clone()),
            "--baseline" => o.baseline = Some(val!().clone()),
            "--write-baseline" => o.write_baseline = Some(val!().clone()),
            "--metrics-out" => o.metrics_out = Some(val!().clone()),
            "--metrics-json" => o.metrics_json = Some(val!().clone()),
            "--sweep" => o.sweep = true,
            "--sweep-factors" => {
                o.sweep_factors = val!()
                    .split(',')
                    .map(|f| f.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if o.sweep_factors.is_empty() {
                    usage();
                }
            }
            "--escalate" => o.escalate = true,
            "--multipliers" => {
                o.multipliers = val!()
                    .split(',')
                    .map(|f| f.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if o.multipliers.is_empty() {
                    usage();
                }
            }
            "--csv-out" => o.csv_out = Some(val!().clone()),
            _ => usage(),
        }
        i += 1;
    }
    if faults {
        let mut plan = FaultPlan::seeded(cfg.seed, rate);
        if let Some(n) = lose_at {
            plan = plan.with_device_loss_at(n);
        }
        cfg.plan = Some(plan);
    }
    if spec.tenants == 0 || spec.clients == 0 {
        usage();
    }
    o.cfg = cfg;
    o.spec = spec;
    o
}

fn write_file(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("serve: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);
    if o.escalate {
        run_escalate(&o);
        return;
    }
    if o.sweep {
        run_sweep(&o);
        return;
    }

    let start = std::time::Instant::now();
    let out = match serve(&o.cfg, &o.spec) {
        Ok(out) => out,
        Err(e) => fail(&o, &e),
    };
    let wall = start.elapsed();
    let report = build_report(
        o.cfg.seed,
        o.spec.clients,
        o.spec.tenants,
        &out.responses,
        &out.pool,
        &out.stats,
    );

    // The trichotomy assertion: corrupt responses are findings.
    let findings: Vec<Finding> = out
        .responses
        .iter()
        .filter_map(|r| match &r.verdict {
            Verdict::Corrupt(msg) => Some(Finding {
                tool: "serve".to_string(),
                kernel: format!("{}@{:?}", r.app, r.member),
                location: format!("request {} tenant {}", r.id, r.tenant),
                severity: Severity::Error,
                message: format!("trichotomy violation: {msg}"),
            }),
            _ => None,
        })
        .collect();

    let json = render_json(&report);
    if o.json {
        print!("{json}");
    } else {
        print_text(&report);
    }
    eprintln!(
        "serve: {} clients over {} tenants on {} devices in {:.2}s wall ({:.3}s modeled)",
        o.spec.clients,
        o.spec.tenants,
        o.cfg.devices.len(),
        wall.as_secs_f64(),
        report.makespan_s
    );
    if !findings.is_empty() {
        if o.json {
            print!("{}", findings_json(&findings));
        } else {
            print!("{}", render_text(&findings));
        }
    }

    if let Some(path) = &o.bench_out {
        write_file(path, &json);
        eprintln!("serve: report written to {path}");
    }
    if let Some(path) = &o.write_baseline {
        write_file(path, &json);
        eprintln!("serve: baseline written to {path}");
    }
    if let Some(path) = &o.trace {
        write_file(path, &to_chrome_trace(&out.spans));
        eprintln!("serve: timeline trace written to {path} ({} spans)", out.spans.len());
    }
    if let Some(path) = &o.metrics_out {
        write_file(path, &to_prometheus(&out.metrics));
        eprintln!("serve: Prometheus metrics written to {path}");
    }
    if let Some(path) = &o.metrics_json {
        write_file(path, &metrics_json(&out.metrics));
        eprintln!("serve: JSON metrics written to {path}");
    }
    if let Some(path) = &o.baseline {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("serve: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
            Ok(text) => {
                let drifts = diff_baseline(&report, &text);
                match drifts {
                    Err(e) => {
                        eprintln!("serve: bad baseline {path}: {e}");
                        std::process::exit(2);
                    }
                    Ok(drifts) if drifts.is_empty() => {
                        eprintln!("serve: baseline gate PASSED");
                    }
                    Ok(drifts) => {
                        eprintln!("serve: baseline gate FAILED, {} drift(s):", drifts.len());
                        for d in &drifts {
                            eprintln!("  {d}");
                        }
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    std::process::exit(exit_code(&findings));
}

/// The `--sweep` mode: one seeded run per load factor, curve outputs,
/// and the sweep-document baseline gate.
fn run_sweep(o: &Opts) {
    let start = std::time::Instant::now();
    let s = match sweep(&o.cfg, &o.spec, &o.sweep_factors) {
        Ok(s) => s,
        Err(e) => fail(o, &e),
    };
    let wall = start.elapsed();
    let json = render_sweep_json(&s);
    if o.json {
        print!("{json}");
    } else {
        println!("serve sweep (seed {}, {} clients, {} tenants)", s.seed, s.clients, s.tenants);
        println!(
            "  {:>11} {:>10} {:>9} {:>12} {:>10} {:>10} {:>10}",
            "load_factor", "completed", "rejected", "rps", "p50_s", "p95_s", "p99_s"
        );
        for p in &s.points {
            println!(
                "  {:>11.2} {:>10} {:>9} {:>12.1} {:>10.4} {:>10.4} {:>10.4}",
                p.load_factor,
                p.completed,
                p.rejected,
                p.throughput_rps,
                p.latency_p50_s,
                p.latency_p95_s,
                p.latency_p99_s
            );
        }
    }
    eprintln!("serve: swept {} load factors in {:.2}s wall", s.points.len(), wall.as_secs_f64());
    if let Some(path) = &o.bench_out {
        write_file(path, &json);
        eprintln!("serve: sweep report written to {path}");
    }
    if let Some(path) = &o.write_baseline {
        write_file(path, &json);
        eprintln!("serve: sweep baseline written to {path}");
    }
    if let Some(path) = &o.csv_out {
        write_file(path, &render_sweep_csv(&s));
        eprintln!("serve: sweep CSV written to {path}");
    }
    if let Some(path) = &o.baseline {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("serve: cannot read sweep baseline {path}: {e}");
                std::process::exit(2);
            }
            Ok(text) => match diff_sweep_baseline(&s, &text) {
                Err(e) => {
                    eprintln!("serve: bad sweep baseline {path}: {e}");
                    std::process::exit(2);
                }
                Ok(drifts) if drifts.is_empty() => {
                    eprintln!("serve: sweep baseline gate PASSED");
                }
                Ok(drifts) => {
                    eprintln!("serve: sweep baseline gate FAILED, {} drift(s):", drifts.len());
                    for d in &drifts {
                        eprintln!("  {d}");
                    }
                    std::process::exit(1);
                }
            },
        }
    }
}

/// The `--escalate` mode: one seeded chaos run per fault-rate
/// multiplier, the per-rung SLO contract, campaign outputs, and the
/// resilience-document baseline gate.
fn run_escalate(o: &Opts) {
    let start = std::time::Instant::now();
    let e = match escalate(&o.cfg, &o.spec, &o.multipliers) {
        Ok(e) => e,
        Err(err) => fail(o, &err),
    };
    let wall = start.elapsed();
    let json = render_escalate_json(&e);
    if o.json {
        print!("{json}");
    } else {
        println!(
            "serve escalation (seed {}, {} clients, {} tenants, base rate {:.4})",
            e.seed, e.clients, e.tenants, e.base_rate
        );
        println!(
            "  {:>10} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7}",
            "multiplier",
            "completed",
            "rejected",
            "corrupt",
            "shed_frac",
            "int_p99r",
            "hedges",
            "breakers",
            "spares"
        );
        for r in &e.rungs {
            println!(
                "  {:>10.1} {:>9} {:>9} {:>8} {:>9.4} {:>9.4} {:>7} {:>8} {:>7}",
                r.multiplier,
                r.completed,
                r.rejected,
                r.corrupt,
                r.shed_frac,
                r.interactive_p99_ratio,
                r.hedges_launched,
                r.breaker_opens,
                r.spares_promoted
            );
        }
    }
    eprintln!("serve: escalated over {} rungs in {:.2}s wall", e.rungs.len(), wall.as_secs_f64());
    // SLO contract breaches are findings: same schema, non-zero exit.
    let findings: Vec<Finding> = e
        .violations
        .iter()
        .map(|v| Finding {
            tool: "serve".to_string(),
            kernel: "-".to_string(),
            location: "escalate".to_string(),
            severity: Severity::Error,
            message: format!("SLO contract breach: {v}"),
        })
        .collect();
    if !findings.is_empty() {
        if o.json {
            print!("{}", findings_json(&findings));
        } else {
            print!("{}", render_text(&findings));
        }
    }
    if let Some(path) = &o.bench_out {
        write_file(path, &json);
        eprintln!("serve: resilience report written to {path}");
    }
    if let Some(path) = &o.write_baseline {
        write_file(path, &json);
        eprintln!("serve: resilience baseline written to {path}");
    }
    if let Some(path) = &o.csv_out {
        write_file(path, &render_escalate_csv(&e));
        eprintln!("serve: resilience CSV written to {path}");
    }
    if let Some(path) = &o.baseline {
        match std::fs::read_to_string(path) {
            Err(err) => {
                eprintln!("serve: cannot read resilience baseline {path}: {err}");
                std::process::exit(2);
            }
            Ok(text) => match diff_resilience_baseline(&e, &text) {
                Err(err) => {
                    eprintln!("serve: bad resilience baseline {path}: {err}");
                    std::process::exit(2);
                }
                Ok(drifts) if drifts.is_empty() => {
                    eprintln!("serve: resilience baseline gate PASSED");
                }
                Ok(drifts) => {
                    eprintln!("serve: resilience baseline gate FAILED, {} drift(s):", drifts.len());
                    for d in &drifts {
                        eprintln!("  {d}");
                    }
                    std::process::exit(1);
                }
            },
        }
    }
    std::process::exit(exit_code(&findings));
}

fn print_text(r: &ServeReport) {
    println!("serve report (seed {})", r.seed);
    println!(
        "  requests: {} total, {} completed ({} success / {} fallback / {} typed-error), {} rejected, {} corrupt",
        r.total, r.completed, r.success, r.fallback, r.typed_error, r.rejected, r.corrupt
    );
    println!(
        "  modeled: makespan {:.3}s, throughput {:.1} req/s, latency p50 {:.3}s p99 {:.3}s",
        r.makespan_s, r.throughput_rps, r.latency_p50_s, r.latency_p99_s
    );
    println!("  batches: {} (max {}, mean {:.2})", r.batch_count, r.batch_max, r.batch_mean);
    for c in &r.classes {
        println!(
            "  class {}: {} completed, {} shed, {} deadline misses (lateness p99 {:.3})",
            c.class, c.completed, c.shed, c.deadline_misses, c.lateness_p99
        );
    }
    let s = &r.resilience;
    println!(
        "  resilience: {} hedges ({} won, {} skipped), {} breaker opens, {} spares promoted",
        s.hedges_launched, s.hedges_won, s.hedges_skipped, s.breaker_opens, s.spares_promoted
    );
    for d in &r.devices {
        println!(
            "  device {} [{}]: served {} in {} batches, busy {:.3}s{}{}",
            d.member,
            d.kind,
            d.served,
            d.batches,
            d.busy_s,
            if d.lost { " — LOST" } else { "" },
            if d.standby { " — SPARE" } else { "" }
        );
    }
    for t in &r.fairness {
        println!(
            "  tenant {}: served {} ({:.1}% share), rejected {}",
            t.tenant,
            t.served,
            100.0 * t.share,
            t.rejected
        );
    }
}

/// Integer fields must match exactly, floats to 1e-9 relative: the run is
/// deterministic, so any drift is a real behavior change.
fn diff_baseline(report: &ServeReport, baseline: &str) -> Result<Vec<String>, String> {
    let b = jsonio::parse(baseline)?;
    if b.get("schema").and_then(|s| s.as_str()) != Some("ompx-bench-serve-v2") {
        return Err("missing or wrong schema tag".to_string());
    }
    let mut drifts = Vec::new();
    let int = |name: &str| -> Result<i64, String> {
        b.get(name)
            .and_then(|v| v.as_f64())
            .map(|f| f as i64)
            .ok_or_else(|| format!("baseline missing {name}"))
    };
    let fl = |name: &str| -> Result<f64, String> {
        b.get(name).and_then(|v| v.as_f64()).ok_or_else(|| format!("baseline missing {name}"))
    };
    let mut check_int = |name: &str, got: i64| -> Result<(), String> {
        let want = int(name)?;
        if want != got {
            drifts.push(format!("{name}: baseline {want}, run {got}"));
        }
        Ok(())
    };
    check_int("seed", report.seed as i64)?;
    check_int("clients", i64::from(report.clients))?;
    check_int("tenants", i64::from(report.tenants))?;
    check_int("total", report.total as i64)?;
    check_int("completed", report.completed as i64)?;
    let verdicts = b.get("verdicts").ok_or("baseline missing verdicts")?;
    for (name, got) in [
        ("success", report.success),
        ("fallback", report.fallback),
        ("typed_error", report.typed_error),
        ("rejected", report.rejected),
        ("corrupt", report.corrupt),
    ] {
        let want = verdicts
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline missing verdicts.{name}"))? as u64;
        if want != got {
            drifts.push(format!("verdicts.{name}: baseline {want}, run {got}"));
        }
    }
    let mut check_float = |name: &str, got: f64| -> Result<(), String> {
        let want = fl(name)?;
        let tol = want.abs().max(1e-12) * 1e-9;
        if (want - got).abs() > tol {
            drifts.push(format!("{name}: baseline {want:e}, run {got:e}"));
        }
        Ok(())
    };
    check_float("makespan_s", report.makespan_s)?;
    check_float("throughput_rps", report.throughput_rps)?;
    check_float("latency_p50_s", report.latency_p50_s)?;
    check_float("latency_p95_s", report.latency_p95_s)?;
    check_float("latency_p99_s", report.latency_p99_s)?;
    let batches = b.get("batches").ok_or("baseline missing batches")?;
    for (name, got) in [("count", report.batch_count), ("max", report.batch_max)] {
        let want = batches
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline missing batches.{name}"))? as u64;
        if want != got {
            drifts.push(format!("batches.{name}: baseline {want}, run {got}"));
        }
    }
    let resilience = b.get("resilience").ok_or("baseline missing resilience")?;
    for (name, got) in [
        ("hedges_launched", report.resilience.hedges_launched),
        ("hedges_won", report.resilience.hedges_won),
        ("breaker_opens", report.resilience.breaker_opens),
        ("spares_promoted", report.resilience.spares_promoted),
        ("deadline_misses", report.resilience.deadline_misses),
    ] {
        let want = resilience
            .get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline missing resilience.{name}"))?
            as u64;
        if want != got {
            drifts.push(format!("resilience.{name}: baseline {want}, run {got}"));
        }
    }
    let devs = b.get("devices").and_then(|d| d.as_arr()).ok_or("baseline missing devices")?;
    if devs.len() != report.devices.len() {
        drifts.push(format!(
            "devices: baseline has {}, run has {}",
            devs.len(),
            report.devices.len()
        ));
    } else {
        for (want, got) in devs.iter().zip(&report.devices) {
            let served = want.get("served").and_then(|v| v.as_f64()).unwrap_or(-1.0);
            if served as i64 != got.served as i64 {
                drifts.push(format!(
                    "devices[{}].served: baseline {served}, run {}",
                    got.member, got.served
                ));
            }
            let lost = want.get("lost") == Some(&jsonio::Json::Bool(true));
            if lost != got.lost {
                drifts.push(format!(
                    "devices[{}].lost: baseline {lost}, run {}",
                    got.member, got.lost
                ));
            }
            let standby = want.get("standby") == Some(&jsonio::Json::Bool(true));
            if standby != got.standby {
                drifts.push(format!(
                    "devices[{}].standby: baseline {standby}, run {}",
                    got.member, got.standby
                ));
            }
        }
    }
    Ok(drifts)
}

/// Resilience drift gate: the campaign is deterministic, so integer
/// fields must match exactly and floats to 1e-9 relative.
fn diff_resilience_baseline(e: &EscalateResult, baseline: &str) -> Result<Vec<String>, String> {
    let b = jsonio::parse(baseline)?;
    if b.get("schema").and_then(|v| v.as_str()) != Some("ompx-bench-resilience-v1") {
        return Err("missing or wrong schema tag".to_string());
    }
    let mut drifts = Vec::new();
    for (name, got) in [
        ("seed", e.seed as i64),
        ("clients", i64::from(e.clients)),
        ("tenants", i64::from(e.tenants)),
    ] {
        let want = b
            .get(name)
            .and_then(|v| v.as_f64())
            .map(|f| f as i64)
            .ok_or_else(|| format!("baseline missing {name}"))?;
        if want != got {
            drifts.push(format!("{name}: baseline {want}, run {got}"));
        }
    }
    let rungs = b.get("rungs").and_then(|r| r.as_arr()).ok_or("baseline missing rungs")?;
    if rungs.len() != e.rungs.len() {
        drifts.push(format!("rungs: baseline has {}, run has {}", rungs.len(), e.rungs.len()));
        return Ok(drifts);
    }
    for (k, (want, got)) in rungs.iter().zip(&e.rungs).enumerate() {
        for (name, got_v) in [
            ("completed", got.completed),
            ("deadline_misses", got.deadline_misses),
            ("hedges_launched", got.hedges_launched),
            ("hedges_won", got.hedges_won),
            ("breaker_opens", got.breaker_opens),
            ("spares_promoted", got.spares_promoted),
        ] {
            let want_v = want
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline missing rungs[{k}].{name}"))?
                as u64;
            if want_v != got_v {
                drifts.push(format!("rungs[{k}].{name}: baseline {want_v}, run {got_v}"));
            }
        }
        let verdicts =
            want.get("verdicts").ok_or_else(|| format!("rungs[{k}] missing verdicts"))?;
        for (name, got_v) in [
            ("success", got.success),
            ("fallback", got.fallback),
            ("typed_error", got.typed_error),
            ("rejected", got.rejected),
            ("corrupt", got.corrupt),
        ] {
            let want_v = verdicts
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline missing rungs[{k}].verdicts.{name}"))?
                as u64;
            if want_v != got_v {
                drifts.push(format!("rungs[{k}].verdicts.{name}: baseline {want_v}, run {got_v}"));
            }
        }
        for (name, got_v) in [
            ("multiplier", got.multiplier),
            ("fault_rate", got.fault_rate),
            ("shed_frac", got.shed_frac),
            ("interactive_p99_ratio", got.interactive_p99_ratio),
            ("throughput_rps", got.throughput_rps),
            ("latency_p99_s", got.latency_p99_s),
        ] {
            let want_v = want
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline missing rungs[{k}].{name}"))?;
            let tol = want_v.abs().max(1e-12) * 1e-9;
            if (want_v - got_v).abs() > tol {
                drifts.push(format!("rungs[{k}].{name}: baseline {want_v:e}, run {got_v:e}"));
            }
        }
    }
    let want_violations =
        b.get("violations").and_then(|v| v.as_arr()).map(|v| v.len()).unwrap_or(0);
    if want_violations != e.violations.len() {
        drifts.push(format!(
            "violations: baseline has {want_violations}, run has {}",
            e.violations.len()
        ));
    }
    Ok(drifts)
}

/// Sweep drift gate: same contract as [`diff_baseline`] — the curve is
/// deterministic, so integer fields must match exactly and floats to
/// 1e-9 relative.
fn diff_sweep_baseline(s: &SweepResult, baseline: &str) -> Result<Vec<String>, String> {
    let b = jsonio::parse(baseline)?;
    if b.get("schema").and_then(|v| v.as_str()) != Some("ompx-bench-sweep-v1") {
        return Err("missing or wrong schema tag".to_string());
    }
    let mut drifts = Vec::new();
    for (name, got) in [
        ("seed", s.seed as i64),
        ("clients", i64::from(s.clients)),
        ("tenants", i64::from(s.tenants)),
    ] {
        let want = b
            .get(name)
            .and_then(|v| v.as_f64())
            .map(|f| f as i64)
            .ok_or_else(|| format!("baseline missing {name}"))?;
        if want != got {
            drifts.push(format!("{name}: baseline {want}, run {got}"));
        }
    }
    let points = b.get("points").and_then(|p| p.as_arr()).ok_or("baseline missing points")?;
    if points.len() != s.points.len() {
        drifts.push(format!("points: baseline has {}, run has {}", points.len(), s.points.len()));
        return Ok(drifts);
    }
    for (k, (want, got)) in points.iter().zip(&s.points).enumerate() {
        for (name, got_v) in [("completed", got.completed), ("rejected", got.rejected)] {
            let want_v = want
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline missing points[{k}].{name}"))?
                as u64;
            if want_v != got_v {
                drifts.push(format!("points[{k}].{name}: baseline {want_v}, run {got_v}"));
            }
        }
        for (name, got_v) in [
            ("load_factor", got.load_factor),
            ("makespan_s", got.makespan_s),
            ("throughput_rps", got.throughput_rps),
            ("latency_p50_s", got.latency_p50_s),
            ("latency_p95_s", got.latency_p95_s),
            ("latency_p99_s", got.latency_p99_s),
        ] {
            let want_v = want
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline missing points[{k}].{name}"))?;
            let tol = want_v.abs().max(1e-12) * 1e-9;
            if (want_v - got_v).abs() > tol {
                drifts.push(format!("points[{k}].{name}: baseline {want_v:e}, run {got_v:e}"));
            }
        }
    }
    Ok(drifts)
}
