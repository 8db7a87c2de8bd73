//! `sanitize` — run a benchmark app (or a buggy fixture kernel) under the
//! sanitizer, `compute-sanitizer --tool <T>` style:
//!
//! ```text
//! sanitize --tool racecheck --app stencil --version omp
//! sanitize --tool all --app xsbench --test-scale --json
//! sanitize --tool memcheck --fixture oob-write
//! sanitize --list-fixtures
//! ```
//!
//! Prints one line per finding (tool, kernel, block/thread coordinates,
//! address, allocation label) plus a summary tail, and exits non-zero when
//! anything was found — wire it straight into CI. `--json` emits the
//! machine-readable report instead (exportable alongside the Chrome-trace
//! output); `--out FILE` writes that JSON to a file as well.
//! `--metrics-out FILE` meters the run — `sanitizer_findings_total` by
//! tool at detection time, `findings_total` by tool and severity at
//! report time — and writes the Prometheus text snapshot.

use ompx_bench::cli::{write_file, Args, CliError};
use ompx_hecbench::{run_app_sanitized, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_sanitizer::report::record_findings_metrics;
use ompx_sanitizer::{fixtures, Report, Tool};
use ompx_sim::context::RunContext;
use ompx_telemetry::MetricRegistry;

fn usage(e: &CliError) -> ! {
    eprintln!(
        "sanitize: {e}\n\
         usage: sanitize --tool memcheck|racecheck|synccheck|initcheck|leakcheck|all\n\
         \x20               (--app <name> | --fixture <name> | --list-fixtures)\n\
         \x20               [--system nvidia|amd] [--version ompx|omp|native|vendor]\n\
         \x20               [--test-scale] [--json] [--out FILE] [--metrics-out FILE]\n\
         apps: {}\n\
         fixtures: {}",
        APP_NAMES.join(", "),
        fixtures::ALL.iter().map(|(n, _, _)| *n).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

struct Opts {
    tool: Tool,
    app: Option<String>,
    fixture: Option<String>,
    system: System,
    versions: Vec<ProgVersion>,
    scale: WorkScale,
    json: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse(mut a: Args) -> Result<Opts, CliError> {
    let mut o = Opts {
        tool: Tool::All,
        app: None,
        fixture: None,
        system: System::Nvidia,
        versions: ProgVersion::all().to_vec(),
        scale: WorkScale::Default,
        json: false,
        out: None,
        metrics_out: None,
    };
    while let Some(flag) = a.next_flag() {
        match flag.as_str() {
            "--tool" => o.tool = a.parse()?,
            "--app" => o.app = Some(a.app()?.to_string()),
            "--fixture" => {
                o.fixture = Some(a.parse_with(|f| fixtures::by_name(f).map(|_| f.to_string()))?)
            }
            "--list-fixtures" => {
                for (name, _, kind) in fixtures::ALL {
                    println!("{name:20} -> {} ({})", kind.label(), kind.tool());
                }
                std::process::exit(0);
            }
            "--system" => o.system = a.system()?,
            "--version" => o.versions = vec![a.version()?],
            "--test-scale" => o.scale = WorkScale::Test,
            "--json" => o.json = true,
            "--out" => o.out = Some(a.value()?),
            "--metrics-out" => o.metrics_out = Some(a.value()?),
            _ => return Err(a.unknown()),
        }
    }
    if o.app.is_none() && o.fixture.is_none() {
        return Err(CliError::Usage("one of --app or --fixture is required"));
    }
    Ok(o)
}

fn emit(report: &Report, header: &str, o: &Opts) -> i32 {
    if o.json {
        print!("{}", report.to_json());
    } else {
        println!("========= {header}");
        print!("{}", report.to_text());
    }
    if let Some(path) = &o.out {
        write_file("sanitize", path, &report.to_json());
    }
    report.exit_code()
}

fn main() {
    let o = parse(Args::from_env()).unwrap_or_else(|e| usage(&e));

    // With --metrics-out, every device the run builds counts into one
    // registry, so detection-time counters (`sanitizer_findings_total`)
    // land alongside the report-time `findings_total` rollup.
    let registry = o.metrics_out.as_ref().map(|_| {
        let reg = MetricRegistry::new();
        ompx_telemetry::describe_base_families(&reg);
        reg
    });
    let ctx = RunContext { metrics: registry.clone(), ..Default::default() };
    let exit = ctx.scope(|| run(&o, registry.as_deref()));
    if let (Some(path), Some(reg)) = (&o.metrics_out, registry) {
        write_file("sanitize", path, &ompx_telemetry::to_prometheus(&reg.snapshot()));
        eprintln!("sanitize: Prometheus metrics written to {path}");
    }
    std::process::exit(exit);
}

fn run(o: &Opts, reg: Option<&MetricRegistry>) -> i32 {
    let mask = o.tool.mask();
    let mut exit = 0;
    if let Some(fixture) = &o.fixture {
        let (run, _kind) = fixtures::by_name(fixture).unwrap();
        let report = run();
        if let Some(reg) = reg {
            record_findings_metrics(reg, &report.findings());
        }
        exit = exit.max(emit(&report, &format!("fixture {fixture} [{}]", o.tool), o));
    }
    if let Some(app) = &o.app {
        for version in &o.versions {
            let (outcome, findings) = run_app_sanitized(app, o.system, *version, o.scale, mask);
            let report = Report::from_findings(mask, findings);
            if let Some(reg) = reg {
                record_findings_metrics(reg, &report.findings());
            }
            let header = format!("{app} / {} / {} [{}]", o.system.label(), outcome.label, o.tool);
            exit = exit.max(emit(&report, &header, o));
        }
    }
    exit
}
