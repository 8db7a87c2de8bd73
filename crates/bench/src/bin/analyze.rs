//! `analyze` — static kernel verifier over the hand-written symbolic
//! access summaries in `ompx-hecbench/src/summaries.rs`:
//!
//! ```text
//! analyze                                 # all six apps x four versions
//! analyze --app stencil --version omp
//! analyze --app su3 --replay              # + replay validation on the simulator
//! analyze --fixture race-global           # demonstrate one diagnostic
//! analyze --list-fixtures
//! analyze extract                         # auto-extract all 24 cells from traces
//! analyze extract --app su3 --emit-rust   # print the summaries.rs-style literal
//! analyze extract --diff                  # diff extracted vs hand-written
//! ```
//!
//! Emits the same unified finding schema as `sanitize` (tool, kernel,
//! location, severity, message) as text or `--json`, and exits non-zero
//! when any error-severity finding is reported — wire it straight into CI.
//! `--replay` additionally runs each kernel on the simulator with the
//! memory-trace hooks attached, on each valuation's concrete grid, and
//! cross-checks every observed access against the summary's predictions;
//! its JSON output lists the concrete grid shapes that validated clean.
//!
//! The `extract` subcommand inverts the pipeline: it traces each kernel
//! on small fit grids, fits an affine access summary to the observations
//! (`ompx_analyzer::extract`), replay-validates the draft on a larger
//! unseen grid, and diffs it against the hand-written registry entry.
//! Non-affine behavior degrades to opaque whole-buffer accesses that
//! surface as `SummaryImprecise` warnings. Exit is non-zero on any
//! validation failure or unexplained divergence from the registry.

use ompx_analyzer::{
    analyze, describe, fixtures, to_rust_literal, validate_events, warp_size_for, DiffClass,
};
use ompx_hecbench::extraction::extract_cell;
use ompx_hecbench::summaries::{replay_events, summary_for, version_str};
use ompx_hecbench::{ProgVersion, System, APP_NAMES};
use ompx_sanitizer::report::{exit_code, record_findings_metrics, render_json, render_text};
use ompx_sanitizer::Finding;
use ompx_sim::context::RunContext;
use ompx_telemetry::{json_escape, MetricRegistry};

fn usage() -> ! {
    eprintln!(
        "usage: analyze [extract] [--app <name>] [--version ompx|omp|native|vendor]\n\
         \x20              [--system nvidia|amd] [--replay] [--emit-rust] [--diff]\n\
         \x20              [--fixture <name> | --list-fixtures] [--json] [--out FILE]\n\
         \x20              [--metrics-out FILE]\n\
         apps: {}\n\
         fixtures: {}",
        APP_NAMES.join(", "),
        fixtures::ALL.iter().map(|f| f.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    extract: bool,
    apps: Vec<String>,
    versions: Vec<ProgVersion>,
    system: System,
    replay: bool,
    emit_rust: bool,
    diff: bool,
    fixture: Option<String>,
    json: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        extract: false,
        apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
        versions: ProgVersion::all().to_vec(),
        system: System::Nvidia,
        replay: false,
        emit_rust: false,
        diff: false,
        fixture: None,
        json: false,
        out: None,
        metrics_out: None,
    };
    let mut i = 0;
    if args.first().map(String::as_str) == Some("extract") {
        o.extract = true;
        i = 1;
    }
    while i < args.len() {
        match args[i].as_str() {
            "--app" => {
                i += 1;
                match args.get(i) {
                    Some(a) if APP_NAMES.contains(&a.as_str()) => o.apps = vec![a.clone()],
                    _ => usage(),
                }
            }
            "--version" => {
                i += 1;
                o.versions = match args.get(i).map(String::as_str) {
                    Some("ompx") => vec![ProgVersion::Ompx],
                    Some("omp") => vec![ProgVersion::Omp],
                    Some("native") => vec![ProgVersion::Native],
                    Some("vendor") => vec![ProgVersion::NativeVendor],
                    _ => usage(),
                };
            }
            "--system" => {
                i += 1;
                o.system = match args.get(i).map(String::as_str) {
                    Some("nvidia") => System::Nvidia,
                    Some("amd") => System::Amd,
                    _ => usage(),
                };
            }
            "--replay" => o.replay = true,
            "--emit-rust" if o.extract => o.emit_rust = true,
            "--diff" if o.extract => o.diff = true,
            "--fixture" if !o.extract => {
                i += 1;
                match args.get(i) {
                    Some(f) if fixtures::by_name(f).is_some() => o.fixture = Some(f.clone()),
                    _ => usage(),
                }
            }
            "--list-fixtures" => {
                for f in &fixtures::ALL {
                    println!("{:24} -> {}", f.name, f.tool);
                }
                std::process::exit(0);
            }
            "--json" => o.json = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.out = Some(p.clone()),
                    None => usage(),
                }
            }
            "--metrics-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => o.metrics_out = Some(p.clone()),
                    None => usage(),
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    o
}

/// Splice extra top-level fields (a pre-rendered `"key": value,` block)
/// into the unified findings document.
fn with_fields(findings: &[Finding], extra: &str) -> String {
    let doc = render_json(findings);
    match doc.strip_prefix("{\n") {
        Some(rest) => format!("{{\n{extra}{rest}"),
        None => doc,
    }
}

fn write_out(o: &Opts, doc: &str) -> i32 {
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("analyze: cannot write {path}: {e}");
            return 2;
        }
    }
    0
}

/// Write the run's metrics snapshot (if `--metrics-out` asked for one) as
/// Prometheus text.
fn flush_metrics(o: &Opts, reg: Option<&MetricRegistry>) -> i32 {
    let (Some(path), Some(reg)) = (&o.metrics_out, reg) else { return 0 };
    let text = ompx_telemetry::to_prometheus(&reg.snapshot());
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("analyze: cannot write {path}: {e}");
        return 2;
    }
    0
}

fn emit(
    findings: &[Finding],
    header: &str,
    extra_json: &str,
    o: &Opts,
    reg: Option<&MetricRegistry>,
) -> i32 {
    if let Some(reg) = reg {
        record_findings_metrics(reg, findings);
    }
    let doc = with_fields(findings, extra_json);
    if o.json {
        print!("{doc}");
    } else {
        println!("========= {header}");
        print!("{}", render_text(findings));
    }
    let w = write_out(o, &doc);
    if w != 0 {
        return w;
    }
    exit_code(findings)
}

/// The per-valuation grid shapes that replayed clean, as a JSON field.
fn grids_field(grids: &[String]) -> String {
    let items: Vec<String> = grids.iter().map(|g| format!("    \"{}\"", json_escape(g))).collect();
    if items.is_empty() {
        "  \"validated_grids\": [],\n".into()
    } else {
        format!("  \"validated_grids\": [\n{}\n  ],\n", items.join(",\n"))
    }
}

fn run_extract(o: &Opts, reg: Option<&MetricRegistry>) -> i32 {
    let mut exit = 0;
    for app in &o.apps {
        for version in &o.versions {
            let header =
                format!("extract {app} / {} / {}", o.system.label(), version_str(*version));
            let report = match extract_cell(app, o.system, *version) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("========= {header}\nextraction failed: {e}");
                    exit = exit.max(1);
                    continue;
                }
            };
            let failures = report.failures();
            let grids = report.validated_grids();
            let mut findings: Vec<Finding> = report.analysis.clone();
            for (_, fs) in &report.validation {
                findings.extend(fs.iter().cloned());
            }
            if let Some(reg) = reg {
                record_findings_metrics(reg, &findings);
            }

            if o.json {
                let mut extra = String::new();
                extra.push_str(&format!(
                    "  \"cell\": {{\"app\": \"{}\", \"version\": \"{}\", \"system\": \"{}\"}},\n",
                    json_escape(app),
                    json_escape(&report.version),
                    json_escape(&report.system),
                ));
                extra.push_str(&format!("  \"phases\": {},\n", report.extraction.phases));
                let imp: Vec<String> = report
                    .extraction
                    .imprecise
                    .iter()
                    .map(|n| format!("    \"{}\"", json_escape(n)))
                    .collect();
                extra.push_str(&format!(
                    "  \"imprecise\": [{}],\n",
                    if imp.is_empty() {
                        String::new()
                    } else {
                        format!("\n{}\n  ", imp.join(",\n"))
                    }
                ));
                extra.push_str(&grids_field(&grids));
                let diffs: Vec<String> = report
                    .diff
                    .iter()
                    .map(|d| {
                        format!(
                            "    {{\"space\": \"{}\", \"mode\": \"{:?}\", \"class\": \"{:?}\", \"detail\": \"{}\"}}",
                            json_escape(&d.space),
                            d.mode,
                            d.class,
                            json_escape(&d.detail)
                        )
                    })
                    .collect();
                extra.push_str(&format!(
                    "  \"diff\": [{}],\n",
                    if diffs.is_empty() {
                        String::new()
                    } else {
                        format!("\n{}\n  ", diffs.join(",\n"))
                    }
                ));
                extra.push_str(&format!("  \"accepted\": {},\n", failures.is_empty()));
                let doc = with_fields(&findings, &extra);
                print!("{doc}");
                let w = write_out(o, &doc);
                if w != 0 {
                    return w;
                }
            } else {
                println!("========= {header}");
                if o.emit_rust {
                    println!("{}", to_rust_literal(&report.extraction.summary));
                } else {
                    print!("{}", describe(&report.extraction.summary));
                }
                for note in &report.extraction.imprecise {
                    println!("  imprecise: {note}");
                }
                for g in &grids {
                    println!("  validated: {g}");
                }
                if o.diff {
                    for d in &report.diff {
                        println!("  diff {} {:?}: {:?} — {}", d.space, d.mode, d.class, d.detail);
                    }
                } else if report.diff.iter().any(|d| d.class != DiffClass::Equal) {
                    let n = report.diff.iter().filter(|d| d.class != DiffClass::Equal).count();
                    println!("  diff: {n} non-equal bucket(s) vs hand-written (--diff for detail)");
                }
                print!("{}", render_text(&findings));
                for f in &failures {
                    println!("  FAILURE: {f}");
                }
            }
            if !failures.is_empty() {
                exit = exit.max(1);
            }
            exit = exit.max(exit_code(&findings));
        }
    }
    exit
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args);
    // With --metrics-out, every device the run builds counts into one
    // registry, alongside the report-time `findings_total` rollup.
    let registry = o.metrics_out.as_ref().map(|_| {
        let reg = MetricRegistry::new();
        ompx_telemetry::describe_base_families(&reg);
        reg
    });
    let ctx = RunContext { metrics: registry.clone(), ..Default::default() };
    let code = ctx.scope(|| run(&o, registry.as_deref()));
    std::process::exit(flush_metrics(&o, registry.as_deref()).max(code));
}

fn run(o: &Opts, reg: Option<&MetricRegistry>) -> i32 {
    if o.extract {
        return run_extract(o, reg);
    }
    let warp = warp_size_for(o.system.label());

    if let Some(name) = &o.fixture {
        let fx = fixtures::by_name(name).unwrap();
        let findings = fx.run();
        return emit(&findings, &format!("fixture {name} [{}]", fx.tool), "", o, reg);
    }

    let mut exit = 0;
    for app in &o.apps {
        for version in &o.versions {
            let s = summary_for(app, *version);
            let mut findings = analyze(&s, warp);
            let mut grids = Vec::new();
            if o.replay {
                for val in &s.valuations {
                    let events = replay_events(app, o.system, *version, val);
                    let fs = validate_events(&s, val, &events);
                    let clean = exit_code(&fs) == 0;
                    findings.extend(fs);
                    if clean {
                        if let Ok(g) = s.ground(val) {
                            grids.push(format!(
                                "{}: grid ({},{},{}) x block ({},{},{})",
                                val.name,
                                g.grid.0,
                                g.grid.1,
                                g.grid.2,
                                s.launch.block.0,
                                s.launch.block.1,
                                s.launch.block.2,
                            ));
                        }
                    }
                }
            }
            let header = format!(
                "{app} / {} / {}{}",
                o.system.label(),
                s.version,
                if o.replay { " (+replay)" } else { "" }
            );
            let extra = if o.replay { grids_field(&grids) } else { String::new() };
            exit = exit.max(emit(&findings, &header, &extra, o, reg));
        }
    }
    exit
}
