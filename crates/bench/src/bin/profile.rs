//! `profile` — Nsight/rocprof-style profiling over the HeCBench matrix:
//!
//! ```text
//! profile                                   # all apps x versions x both systems
//! profile --app xsbench --system nvidia
//! profile --format csv                      # or json; default is a text table
//! profile --out-dir results/profile         # roofline.csv + per-cell Chrome traces
//! profile --write-baseline results/profile_baseline.json
//! profile --baseline results/profile_baseline.json   # gate: exit 1 on drift
//! profile --bench-out results/BENCH_prof.json
//! ```
//!
//! Each cell (app, program version, system) runs inside a span-log run
//! context (`with_span_log`); alongside the app itself the stream-overlap probe executes the
//! §3.5 `depend(interopobj:)` idiom, so every exported Chrome trace has
//! the host track, the hidden-helper-thread track when `nowait` target
//! tasks ran, and two genuine stream tracks with flow arrows. Metrics are
//! derived from the run's extrapolated counters and modeled-time
//! breakdown; `--baseline` diffs the rendered baseline document against a
//! committed one under the `gate::PROFILE` rule table and exits non-zero
//! past tolerance — the repo's perf-regression gate.

use ompx_bench::cli::{self, Args, CliError};
use ompx_bench::gate;
use ompx_hecbench::{run_app, with_span_log, ProgVersion, System, WorkScale, APP_NAMES};
use ompx_hostrt::{KnownIssues, OpenMp};
use ompx_klang::toolchain::Toolchain;
use ompx_prof::probe::{overlap_probe, OverlapReport};
use ompx_prof::{
    derive_metrics, roofline, table_csv, table_text, to_chrome_trace, to_json, CellProfile,
};
use ompx_sim::device::{Device, DeviceProfile};

fn usage(e: &CliError) -> ! {
    eprintln!(
        "profile: {e}\n\
         usage: profile [--app <name>] [--version ompx|omp|native|vendor]\n\
         \x20              [--system nvidia|amd|both] [--test-scale]\n\
         \x20              [--format text|csv|json] [--out-dir DIR]\n\
         \x20              [--baseline FILE] [--write-baseline FILE]\n\
         \x20              [--bench-out FILE]\n\
         apps: {}",
        APP_NAMES.join(", ")
    );
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
    Json,
}

struct Opts {
    apps: Vec<String>,
    versions: Vec<ProgVersion>,
    systems: Vec<System>,
    scale: WorkScale,
    format: Format,
    out_dir: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    bench_out: Option<String>,
}

fn parse(mut a: Args) -> Result<Opts, CliError> {
    let mut o = Opts {
        apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
        versions: ProgVersion::all().to_vec(),
        systems: vec![System::Nvidia, System::Amd],
        scale: WorkScale::Default,
        format: Format::Text,
        out_dir: None,
        baseline: None,
        write_baseline: None,
        bench_out: None,
    };
    while let Some(flag) = a.next_flag() {
        match flag.as_str() {
            "--app" => o.apps = vec![a.app()?.to_string()],
            "--version" => o.versions = vec![a.version()?],
            "--system" => {
                o.systems = a.parse_with(|s| match s {
                    "both" => Some(vec![System::Nvidia, System::Amd]),
                    _ => cli::system_named(s).map(|sys| vec![sys]),
                })?
            }
            "--test-scale" => o.scale = WorkScale::Test,
            "--format" => {
                o.format = a.parse_with(|s| match s {
                    "text" => Some(Format::Text),
                    "csv" => Some(Format::Csv),
                    "json" => Some(Format::Json),
                    _ => None,
                })?
            }
            "--out-dir" => o.out_dir = Some(a.value()?),
            "--baseline" => o.baseline = Some(a.value()?),
            "--write-baseline" => o.write_baseline = Some(a.value()?),
            "--bench-out" => o.bench_out = Some(a.value()?),
            _ => return Err(a.unknown()),
        }
    }
    Ok(o)
}

fn device_profile(sys: System) -> DeviceProfile {
    match sys {
        System::Nvidia => DeviceProfile::a100(),
        System::Amd => DeviceProfile::mi250(),
    }
}

fn write_file(path: &str, content: &str) {
    cli::write_file("profile", path, content);
}

fn main() {
    let o = parse(Args::from_env()).unwrap_or_else(|e| usage(&e));

    let mut cells: Vec<CellProfile> = Vec::new();
    let mut roofline_points = Vec::new();
    let mut probes: Vec<(System, OverlapReport)> = Vec::new();

    for &sys in &o.systems {
        let dev_profile = device_profile(sys);
        for app in &o.apps {
            for &version in &o.versions {
                // The span log captures the app's host-side activity plus
                // the overlap probe's two stream timelines, so every
                // cell's trace is genuinely multi-track.
                let ((outcome, probe), spans) = with_span_log(|| {
                    let outcome = run_app(app, sys, version, o.scale);
                    let omp = OpenMp::with_device(
                        Device::new(device_profile(sys)),
                        Toolchain::OmpxPrototype,
                        KnownIssues::new(),
                    );
                    let probe = overlap_probe(&omp);
                    (outcome, probe)
                });
                let metrics = derive_metrics(&dev_profile, &outcome.stats, &outcome.kernel_model);
                let cell = CellProfile {
                    app: app.clone(),
                    version: version.label(sys).to_string(),
                    system: sys.label().to_string(),
                    checksum: outcome.checksum,
                    reported_seconds: outcome.reported_seconds,
                    excluded: outcome.excluded,
                    metrics,
                };
                roofline_points.push(roofline::place(&dev_profile, &cell.key(), &cell.metrics));
                if let Some(dir) = &o.out_dir {
                    write_file(
                        &format!("{dir}/trace_{}_{}_{}.json", app, version.label(sys), sys.label()),
                        &to_chrome_trace(&spans),
                    );
                }
                cells.push(cell);
                probes.push((sys, probe));
            }
        }
    }

    // The JSON report is also the baseline document the gate compares.
    let doc = to_json(&cells);
    match o.format {
        Format::Text => print!("{}", table_text(&cells)),
        Format::Csv => print!("{}", table_csv(&cells)),
        Format::Json => print!("{doc}"),
    }

    if let Some(dir) = &o.out_dir {
        write_file(&format!("{dir}/roofline.csv"), &roofline::to_csv(&roofline_points));
        write_file(&format!("{dir}/profile.json"), &doc);
    }
    if let Some(path) = &o.write_baseline {
        write_file(path, &doc);
        eprintln!("profile: baseline written to {path} ({} cells)", cells.len());
    }
    if let Some(path) = &o.bench_out {
        write_file(path, &bench_summary(&cells, &probes));
    }
    if let Some(path) = &o.baseline {
        std::process::exit(gate::check(&gate::PROFILE, &doc, path));
    }
}

/// The `BENCH_prof.json` artifact: per-cell modeled seconds plus the
/// stream-overlap canary, i.e. the numbers a perf trajectory tracks.
fn bench_summary(cells: &[CellProfile], probes: &[(System, OverlapReport)]) -> String {
    let mut lines = Vec::new();
    for c in cells {
        lines.push(format!(
            "    {{\"cell\":\"{}\",\"seconds\":{:e},\"occupancy_pct\":{:.3},\"bottleneck\":\"{}\"}}",
            c.key(),
            c.reported_seconds,
            c.metrics.occupancy_pct,
            c.metrics.bottleneck.label()
        ));
    }
    // One representative probe per system (they are deterministic).
    let mut probe_lines = Vec::new();
    for sys in [System::Nvidia, System::Amd] {
        if let Some((_, p)) = probes.iter().find(|(s, _)| *s == sys) {
            probe_lines.push(format!(
                "    {{\"system\":\"{}\",\"serial_s\":{:e},\"overlap_s\":{:e},\"speedup\":{:.4}}}",
                sys.label(),
                p.serial_s,
                p.overlap_s,
                p.speedup
            ));
        }
    }
    format!(
        "{{\n  \"schema\": \"ompx-bench-prof-v1\",\n  \"cells\": [\n{}\n  ],\n  \"stream_overlap_probe\": [\n{}\n  ]\n}}\n",
        lines.join(",\n"),
        probe_lines.join(",\n")
    )
}
