//! Tooled runs carry their sinks in a run context, not in process-wide
//! statics: a sanitized run nests inside a span-logged one and feeds both,
//! and four different tooled runs on four threads of one process each
//! produce exactly the bytes they produce alone.

use ompx_hecbench::extraction::extract_cell;
use ompx_hecbench::{
    run_app, run_app_chaos, run_app_sanitized, with_span_log, ProgVersion, System, WorkScale,
};
use ompx_sanitizer::{fixtures, report, Report};
use ompx_serve::{build_report, serve, LoadSpec, ServeConfig};
use ompx_sim::fault::FaultPlan;
use ompx_sim::san::ToolMask;

const SYS: System = System::Nvidia;

/// One tooled run: a name and the call rendering its output.
type Job = (&'static str, fn() -> String);

/// (a) Findings JSON of stencil `ompx` under every tool, then of the
/// `shared-race` fixture (which must fire).
fn sanitized() -> String {
    let (outcome, diags) =
        run_app_sanitized("stencil", SYS, ProgVersion::Ompx, WorkScale::Test, ToolMask::ALL);
    let (fixture, _) = fixtures::by_name("shared-race").expect("fixture exists");
    let race = fixture();
    assert!(!race.is_empty(), "shared-race fixture reported nothing");
    format!(
        "{:#x}\n{}{}",
        outcome.checksum,
        Report::from_findings(ToolMask::ALL, diags).to_json(),
        race.to_json()
    )
}

/// (b) Summary extraction of stencil `omp`: findings, validated grids and
/// the diff against the hand-written summary.
fn extracted() -> String {
    let r = extract_cell("stencil", SYS, ProgVersion::Omp).expect("stencil omp extracts");
    let mut findings = r.analysis.clone();
    for (_, fs) in &r.validation {
        findings.extend(fs.iter().cloned());
    }
    format!("{}{:?}\n{:?}\n", report::render_json(&findings), r.validated_grids(), r.diff)
}

/// (c) A chaos run under a seeded plan: outcome, fault snapshot, spans.
fn chaos() -> String {
    let plan = FaultPlan::seeded(20260807, 0.3);
    let (result, report, spans) =
        run_app_chaos("su3", SYS, ProgVersion::Ompx, WorkScale::Test, plan);
    assert!(!report.snapshot.injected.is_empty(), "the seeded plan injected nothing");
    format!(
        "{result:?}\n{:?}\nretry {} fallback {}\n{spans:?}\n",
        report.snapshot, report.retry_spans, report.fallback_spans
    )
}

/// (d) CI's metrics-leg serve: 200 clients over 4 tenants with seeded
/// faults and a device loss; report JSON plus Prometheus snapshot.
fn served() -> String {
    let seed = 20260808;
    let mut cfg = ServeConfig::new(seed);
    cfg.plan = Some(FaultPlan::seeded(seed, 0.02).with_device_loss_at(40));
    let spec = LoadSpec { seed, clients: 200, tenants: 4 };
    let out = serve(&cfg, &spec).expect("seeded serve completes");
    let r = build_report(seed, spec.clients, spec.tenants, &out.responses, &out.pool, &out.stats);
    format!("{}{}", ompx_serve::render_json(&r), ompx_telemetry::to_prometheus(&out.metrics))
}

#[test]
fn four_tooled_runs_side_by_side_match_their_solo_runs() {
    let jobs: [Job; 4] =
        [("sanitize", sanitized), ("extract", extracted), ("chaos", chaos), ("serve", served)];
    let alone: Vec<String> = jobs.iter().map(|(_, job)| job()).collect();
    let together: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs.iter().map(|(_, job)| s.spawn(job)).collect();
        handles.into_iter().map(|h| h.join().expect("tooled run panicked")).collect()
    });
    for ((name, _), (a, b)) in jobs.iter().zip(alone.iter().zip(&together)) {
        assert!(a == b, "{name}: side-by-side output differs from the solo run");
    }
}

#[test]
fn a_sanitized_run_inside_a_span_log_feeds_both() {
    let (v, scale, mask) = (ProgVersion::Ompx, WorkScale::Test, ToolMask::ALL);
    let ((outcome, diags), spans) =
        with_span_log(|| run_app_sanitized("stencil", SYS, v, scale, mask));
    let (solo_outcome, solo_diags) = run_app_sanitized("stencil", SYS, v, scale, mask);
    let (_, solo_spans) = with_span_log(|| run_app("stencil", SYS, v, scale));
    assert!(!spans.is_empty(), "the outer log recorded nothing");
    assert_eq!(format!("{spans:?}"), format!("{solo_spans:?}"));
    assert_eq!(format!("{diags:?}"), format!("{solo_diags:?}"));
    assert_eq!(outcome.checksum, solo_outcome.checksum);
}
