//! The baseline gate every bench binary shares.
//!
//! A gate compares the document a run renders — the bytes `--bench-out`
//! or `--write-baseline` would write — against a committed baseline file.
//! Both sides are parsed with [`ompx_prof::jsonio`]; what is compared and
//! how closely is a declarative rule table, one [`Gate`] per document:
//!
//! * the schema tag the baseline must carry;
//! * precondition fields that must agree before anything is compared
//!   (simspeed's `scale`) — a mismatch means the baseline does not apply;
//! * field paths with an `Exact`, `Rel(x)` (fraction of the baseline
//!   value) or `Abs(x)` comparison;
//! * arrays whose elements are paired by position or by key fields, with
//!   elements present on one side only reported as drift.
//!
//! [`check`] reads the baseline, prints the verdict, and returns the exit
//! code: 0 pass, 1 drift, 2 unreadable, malformed, wrong schema or
//! failed precondition.

use ompx_prof::jsonio::{self, Json};
use std::fmt;

/// How one gated field is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    /// Any change is drift (numbers, strings and booleans alike).
    Exact,
    /// A number may move by this fraction of its baseline value.
    Rel(f64),
    /// A number may move by this absolute amount.
    Abs(f64),
}

impl Cmp {
    /// The largest move from `base` this comparison admits.
    fn tolerance(self, base: f64) -> f64 {
        match self {
            Cmp::Exact => 0.0,
            Cmp::Rel(x) => x * base.abs(),
            Cmp::Abs(x) => x,
        }
    }
}

/// One gated field: a dotted path (`verdicts.success`) and its comparison.
type Field = (&'static str, Cmp);

/// How the elements of a gated array are paired between run and baseline.
enum Match {
    /// Element `k` against element `k`; a length change is one drift and
    /// skips the element comparison.
    Position,
    /// By the string values of these fields, joined with `/`.
    Key(&'static [&'static str]),
}

/// A gated array: its path, how elements pair up, and the fields gated
/// inside each element (empty = only the element count is gated).
struct Array {
    path: &'static str,
    by: Match,
    fields: &'static [Field],
}

/// The rule table of one baseline document.
pub struct Gate {
    /// Prefix of every line the gate prints (`serve sweep`, …).
    name: &'static str,
    schema: &'static str,
    preconditions: &'static [&'static str],
    fields: &'static [Field],
    arrays: &'static [Array],
}

/// One gate violation.
#[derive(Debug, PartialEq)]
pub struct Drift {
    /// Path of the field or element that moved (`rungs[2].shed_frac`).
    pub path: String,
    /// What moved, human-readable.
    pub what: String,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.what)
    }
}

// ---- the five committed baselines ------------------------------------------

/// Integers exact, floats to 1e-9 relative: the serve loop is
/// deterministic, so any drift is a behavior change.
const SERVE_FLOAT: Cmp = Cmp::Rel(1e-9);

/// `profile --baseline results/profile_baseline.json`.
pub const PROFILE: Gate = Gate {
    name: "profile",
    schema: "ompx-prof-baseline-v1",
    preconditions: &[],
    fields: &[],
    arrays: &[Array {
        path: "cells",
        by: Match::Key(&["app", "version", "system"]),
        fields: &[
            ("checksum", Cmp::Exact),
            ("reported_seconds", Cmp::Rel(0.05)),
            ("occupancy_pct", Cmp::Abs(1.0)),
            ("bottleneck", Cmp::Exact),
            ("excluded", Cmp::Exact),
        ],
    }],
};

/// `simspeed --baseline results/BENCH_simspeed.json`. Wall-clock numbers
/// are machine-dependent and deliberately not gated.
pub const SIMSPEED: Gate = Gate {
    name: "simspeed",
    schema: "ompx-bench-simspeed-v1",
    preconditions: &["scale"],
    fields: &[],
    arrays: &[Array {
        path: "cells",
        by: Match::Key(&["app", "version"]),
        fields: &[("checksum", Cmp::Exact)],
    }],
};

/// `serve --baseline results/BENCH_serve.json`.
pub const SERVE: Gate = Gate {
    name: "serve",
    schema: "ompx-bench-serve-v2",
    preconditions: &[],
    fields: &[
        ("seed", Cmp::Exact),
        ("clients", Cmp::Exact),
        ("tenants", Cmp::Exact),
        ("total", Cmp::Exact),
        ("completed", Cmp::Exact),
        ("verdicts.success", Cmp::Exact),
        ("verdicts.fallback", Cmp::Exact),
        ("verdicts.typed_error", Cmp::Exact),
        ("verdicts.rejected", Cmp::Exact),
        ("verdicts.corrupt", Cmp::Exact),
        ("makespan_s", SERVE_FLOAT),
        ("throughput_rps", SERVE_FLOAT),
        ("latency_p50_s", SERVE_FLOAT),
        ("latency_p95_s", SERVE_FLOAT),
        ("latency_p99_s", SERVE_FLOAT),
        ("batches.count", Cmp::Exact),
        ("batches.max", Cmp::Exact),
        ("resilience.hedges_launched", Cmp::Exact),
        ("resilience.hedges_won", Cmp::Exact),
        ("resilience.breaker_opens", Cmp::Exact),
        ("resilience.spares_promoted", Cmp::Exact),
        ("resilience.deadline_misses", Cmp::Exact),
    ],
    arrays: &[Array {
        path: "devices",
        by: Match::Position,
        fields: &[("served", Cmp::Exact), ("lost", Cmp::Exact), ("standby", Cmp::Exact)],
    }],
};

/// `serve --sweep --baseline results/BENCH_sweep.json`.
pub const SWEEP: Gate = Gate {
    name: "serve sweep",
    schema: "ompx-bench-sweep-v1",
    preconditions: &[],
    fields: &[("seed", Cmp::Exact), ("clients", Cmp::Exact), ("tenants", Cmp::Exact)],
    arrays: &[Array {
        path: "points",
        by: Match::Position,
        fields: &[
            ("completed", Cmp::Exact),
            ("rejected", Cmp::Exact),
            ("load_factor", SERVE_FLOAT),
            ("makespan_s", SERVE_FLOAT),
            ("throughput_rps", SERVE_FLOAT),
            ("latency_p50_s", SERVE_FLOAT),
            ("latency_p95_s", SERVE_FLOAT),
            ("latency_p99_s", SERVE_FLOAT),
        ],
    }],
};

/// `serve --escalate --baseline results/BENCH_resilience.json`.
pub const ESCALATE: Gate = Gate {
    name: "serve escalate",
    schema: "ompx-bench-resilience-v1",
    preconditions: &[],
    fields: &[("seed", Cmp::Exact), ("clients", Cmp::Exact), ("tenants", Cmp::Exact)],
    arrays: &[
        Array {
            path: "rungs",
            by: Match::Position,
            fields: &[
                ("completed", Cmp::Exact),
                ("deadline_misses", Cmp::Exact),
                ("hedges_launched", Cmp::Exact),
                ("hedges_won", Cmp::Exact),
                ("breaker_opens", Cmp::Exact),
                ("spares_promoted", Cmp::Exact),
                ("verdicts.success", Cmp::Exact),
                ("verdicts.fallback", Cmp::Exact),
                ("verdicts.typed_error", Cmp::Exact),
                ("verdicts.rejected", Cmp::Exact),
                ("verdicts.corrupt", Cmp::Exact),
                ("multiplier", SERVE_FLOAT),
                ("fault_rate", SERVE_FLOAT),
                ("shed_frac", SERVE_FLOAT),
                ("interactive_p99_ratio", SERVE_FLOAT),
                ("throughput_rps", SERVE_FLOAT),
                ("latency_p99_s", SERVE_FLOAT),
            ],
        },
        Array { path: "violations", by: Match::Position, fields: &[] },
    ],
};

// ---- comparison ------------------------------------------------------------

/// Look up a dotted path (`batches.count`) in a document.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |v, k| v.get(k))
}

fn show(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(_) => "[..]".into(),
        Json::Obj(_) => "{..}".into(),
    }
}

/// Compare one field. A field the baseline lacks is a malformed baseline;
/// one the run lacks is drift.
fn compare(
    at: &str,
    cmp: Cmp,
    run: Option<&Json>,
    base: Option<&Json>,
    drifts: &mut Vec<Drift>,
) -> Result<(), String> {
    let base = base.ok_or_else(|| format!("baseline missing {at}"))?;
    let Some(run) = run else {
        drifts.push(Drift { path: at.into(), what: "missing from this run".into() });
        return Ok(());
    };
    let moved = match cmp {
        Cmp::Exact => run != base,
        Cmp::Rel(_) | Cmp::Abs(_) => {
            let b = base.as_f64().ok_or_else(|| format!("baseline {at} is not a number"))?;
            run.as_f64().is_none_or(|r| (r - b).abs() > cmp.tolerance(b))
        }
    };
    if moved {
        let bound = match cmp {
            Cmp::Exact => String::new(),
            Cmp::Rel(x) => format!(" (tolerance ±{x:e} relative)"),
            Cmp::Abs(x) => format!(" (tolerance ±{x})"),
        };
        drifts.push(Drift {
            path: at.into(),
            what: format!("baseline {}, run {}{bound}", show(base), show(run)),
        });
    }
    Ok(())
}

fn compare_fields(
    prefix: &str,
    fields: &[Field],
    run: &Json,
    base: &Json,
    drifts: &mut Vec<Drift>,
) -> Result<(), String> {
    for &(path, cmp) in fields {
        let at = if prefix.is_empty() { path.to_string() } else { format!("{prefix}.{path}") };
        compare(&at, cmp, lookup(run, path), lookup(base, path), drifts)?;
    }
    Ok(())
}

fn element_key(keys: &[&str], e: &Json) -> Option<String> {
    let parts: Option<Vec<&str>> = keys.iter().map(|k| e.get(k)?.as_str()).collect();
    parts.map(|p| p.join("/"))
}

fn compare_array(
    a: &Array,
    run: &Json,
    base: &Json,
    drifts: &mut Vec<Drift>,
) -> Result<(), String> {
    let base = lookup(base, a.path)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("baseline has no {} array", a.path))?;
    let Some(run) = lookup(run, a.path).and_then(Json::as_arr) else {
        drifts.push(Drift { path: a.path.into(), what: "array missing from this run".into() });
        return Ok(());
    };
    match a.by {
        Match::Position => {
            if base.len() != run.len() {
                drifts.push(Drift {
                    path: a.path.into(),
                    what: format!("baseline has {}, run has {}", base.len(), run.len()),
                });
                return Ok(());
            }
            for (k, (r, b)) in run.iter().zip(base).enumerate() {
                compare_fields(&format!("{}[{k}]", a.path), a.fields, r, b, drifts)?;
            }
        }
        Match::Key(keys) => {
            let base_keys = base
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    element_key(keys, b)
                        .ok_or_else(|| format!("baseline {}[{i}] lacks a key field", a.path))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let run_keys: Vec<Option<String>> = run.iter().map(|r| element_key(keys, r)).collect();
            for (i, (r, key)) in run.iter().zip(&run_keys).enumerate() {
                let Some(key) = key else {
                    drifts.push(Drift {
                        path: format!("{}[{i}]", a.path),
                        what: "run element lacks a key field".into(),
                    });
                    continue;
                };
                let at = format!("{}[{key}]", a.path);
                match base_keys.iter().position(|k| k == key) {
                    Some(j) => compare_fields(&at, a.fields, r, &base[j], drifts)?,
                    None => drifts.push(Drift {
                        path: at,
                        what: "not present in baseline (new element? re-record the baseline)"
                            .into(),
                    }),
                }
            }
            for key in &base_keys {
                if !run_keys.iter().any(|k| k.as_ref() == Some(key)) {
                    drifts.push(Drift {
                        path: format!("{}[{key}]", a.path),
                        what: "present in baseline but missing from this run".into(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Apply `gate`'s rule table to a parsed run document and baseline.
/// `Err` means the baseline cannot be used at all (exit 2); an empty
/// drift list means the gate passes.
pub fn diff(gate: &Gate, run: &Json, base: &Json) -> Result<Vec<Drift>, String> {
    match base.get("schema").and_then(Json::as_str) {
        Some(s) if s == gate.schema => {}
        other => return Err(format!("schema {other:?}, expected {:?}", gate.schema)),
    }
    for &p in gate.preconditions {
        let b = lookup(base, p).ok_or_else(|| format!("baseline missing {p}"))?;
        let r = lookup(run, p).map_or_else(|| "nothing".into(), show);
        if lookup(run, p) != Some(b) {
            return Err(format!("baseline was recorded with {p} {}, this run has {r}", show(b)));
        }
    }
    let mut drifts = Vec::new();
    compare_fields("", gate.fields, run, base, &mut drifts)?;
    for a in gate.arrays {
        compare_array(a, run, base, &mut drifts)?;
    }
    Ok(drifts)
}

/// Gate the rendered run document `run_doc` against the baseline file at
/// `path`: print the verdict to stderr and return the exit code (0 pass,
/// 1 drift, 2 unusable baseline).
pub fn check(gate: &Gate, run_doc: &str, path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{}: cannot read baseline {path}: {e}", gate.name);
            return 2;
        }
    };
    let verdict = jsonio::parse(&text).and_then(|base| {
        let run = jsonio::parse(run_doc).map_err(|e| format!("run document: {e}"))?;
        diff(gate, &run, &base)
    });
    match verdict {
        Err(e) => {
            eprintln!("{}: bad baseline {path}: {e}", gate.name);
            2
        }
        Ok(drifts) if drifts.is_empty() => {
            eprintln!("{}: baseline gate PASSED against {path}", gate.name);
            0
        }
        Ok(drifts) => {
            eprintln!("{}: baseline gate FAILED, {} drift(s):", gate.name, drifts.len());
            for d in &drifts {
                eprintln!("  {d}");
            }
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_prof::{to_json, Bottleneck, CellProfile, KernelMetrics};

    const BASELINES: [(&Gate, &str); 5] = [
        (&PROFILE, include_str!("../../../results/profile_baseline.json")),
        (&SIMSPEED, include_str!("../../../results/BENCH_simspeed.json")),
        (&SERVE, include_str!("../../../results/BENCH_serve.json")),
        (&SWEEP, include_str!("../../../results/BENCH_sweep.json")),
        (&ESCALATE, include_str!("../../../results/BENCH_resilience.json")),
    ];

    fn slot<'a>(mut doc: &'a mut Json, path: &str) -> &'a mut Json {
        for k in path.split('.') {
            doc = match doc {
                Json::Obj(m) => m.get_mut(k).unwrap_or_else(|| panic!("no field {k} in {path}")),
                _ => panic!("{path}: {k} is not inside an object"),
            };
        }
        doc
    }

    fn elements<'a>(doc: &'a mut Json, path: &str) -> &'a mut Vec<Json> {
        match slot(doc, path) {
            Json::Arr(v) => v,
            _ => panic!("{path} is not an array"),
        }
    }

    /// Every gated leaf: top-level fields, and array fields located in
    /// the array's first element.
    fn sites(gate: &Gate) -> Vec<(Option<&Array>, &'static str, Cmp)> {
        let top = gate.fields.iter().map(|&(f, c)| (None, f, c));
        let nested =
            gate.arrays.iter().flat_map(|a| a.fields.iter().map(move |&(f, c)| (Some(a), f, c)));
        top.chain(nested).collect()
    }

    fn leaf<'a>(doc: &'a mut Json, array: Option<&Array>, field: &str) -> &'a mut Json {
        match array {
            Some(a) => slot(&mut elements(doc, a.path)[0], field),
            None => slot(doc, field),
        }
    }

    /// The drift path a change to `field` in the first element reports.
    fn site_path(base: &Json, array: Option<&Array>, field: &str) -> String {
        match array {
            None => field.to_string(),
            Some(a @ Array { by: Match::Position, .. }) => format!("{}[0].{field}", a.path),
            Some(a @ Array { by: Match::Key(keys), .. }) => {
                let first = &lookup(base, a.path).and_then(Json::as_arr).unwrap()[0];
                format!("{}[{}].{field}", a.path, element_key(keys, first).unwrap())
            }
        }
    }

    fn changed(v: &Json) -> Json {
        match v {
            Json::Num(n) => Json::Num(n + 1.0),
            Json::Str(s) => Json::Str(format!("{s}x")),
            Json::Bool(b) => Json::Bool(!b),
            other => panic!("unexpected gated value {other:?}"),
        }
    }

    fn only_drift(gate: &Gate, run: &Json, base: &Json) -> Drift {
        let drifts = diff(gate, run, base).expect("usable baseline");
        assert_eq!(drifts.len(), 1, "{}: expected one drift, got {drifts:?}", gate.name);
        drifts.into_iter().next().unwrap()
    }

    fn exercise(gate: &Gate, text: &str) {
        let base = jsonio::parse(text).unwrap();
        assert_eq!(diff(gate, &base, &base), Ok(vec![]), "{} self-diff", gate.name);

        // Every rule path resolves, so a typo in a table fails here.
        for &p in gate.preconditions {
            assert!(lookup(&base, p).is_some(), "{}: precondition {p}", gate.name);
        }
        for &(f, _) in gate.fields {
            assert!(lookup(&base, f).is_some(), "{}: field {f}", gate.name);
        }
        for a in gate.arrays {
            let elems = lookup(&base, a.path).and_then(Json::as_arr);
            let elems = elems.unwrap_or_else(|| panic!("{}: array {}", gate.name, a.path));
            assert!(a.fields.is_empty() || !elems.is_empty(), "{}: {} empty", gate.name, a.path);
            for e in elems {
                if let Match::Key(keys) = a.by {
                    assert!(element_key(keys, e).is_some(), "{}: {} key", gate.name, a.path);
                }
                for &(f, _) in a.fields {
                    assert!(lookup(e, f).is_some(), "{}: {}[].{f}", gate.name, a.path);
                }
            }
        }

        for (array, field, cmp) in sites(gate) {
            let expect = site_path(&base, array, field);
            let was = leaf(&mut base.clone(), array, field).clone();
            let mut run = base.clone();
            match (cmp, &was) {
                (Cmp::Exact, _) => {
                    *leaf(&mut run, array, field) = changed(&was);
                    assert_eq!(only_drift(gate, &run, &base).path, expect);
                }
                (_, &Json::Num(b)) => {
                    // The largest admitted value sits within two ulps of
                    // b + tolerance; the next float up is drift.
                    let tol = cmp.tolerance(b);
                    let mut at = b + tol;
                    while (at - b).abs() > tol {
                        at = at.next_down();
                    }
                    assert!(at >= (b + tol).next_down().next_down(), "{expect}: bound at {at}");
                    *leaf(&mut run, array, field) = Json::Num(at);
                    assert_eq!(diff(gate, &run, &base), Ok(vec![]), "{expect} at its bound");
                    *leaf(&mut run, array, field) = Json::Num(at.next_up());
                    assert_eq!(only_drift(gate, &run, &base).path, expect);
                }
                _ => panic!("{expect}: {cmp:?} on a non-number"),
            }
        }

        for a in gate.arrays {
            let mut run = base.clone();
            let elems = elements(&mut run, a.path);
            let drift = match a.by {
                Match::Position => {
                    elems.push(Json::Null);
                    a.path.to_string()
                }
                Match::Key(keys) => {
                    let gone = elems.remove(0);
                    format!("{}[{}]", a.path, element_key(keys, &gone).unwrap())
                }
            };
            assert_eq!(only_drift(gate, &run, &base).path, drift);
        }

        for &p in gate.preconditions {
            let mut run = base.clone();
            *slot(&mut run, p) = changed(lookup(&base, p).unwrap());
            assert!(diff(gate, &run, &base).is_err(), "{}: {p} mismatch is unusable", gate.name);
        }
        let mut wrong = base.clone();
        *slot(&mut wrong, "schema") = Json::Str("other".into());
        assert!(diff(gate, &base, &wrong).is_err(), "{}: wrong schema", gate.name);
    }

    #[test]
    fn profile_baseline_rules() {
        exercise(&PROFILE, BASELINES[0].1);
    }

    #[test]
    fn simspeed_baseline_rules() {
        exercise(&SIMSPEED, BASELINES[1].1);
    }

    #[test]
    fn serve_baseline_rules() {
        exercise(&SERVE, BASELINES[2].1);
    }

    #[test]
    fn sweep_baseline_rules() {
        exercise(&SWEEP, BASELINES[3].1);
    }

    #[test]
    fn escalate_baseline_rules() {
        exercise(&ESCALATE, BASELINES[4].1);
    }

    #[test]
    fn tolerances_are_the_documented_policy() {
        // The bound checks above read each bound from its table, so a
        // loosened bound has to show up here as well.
        let loose = |g: &Gate| -> Vec<(&str, Cmp)> {
            sites(g).into_iter().filter(|s| s.2 != Cmp::Exact).map(|(_, f, c)| (f, c)).collect()
        };
        assert_eq!(
            loose(&PROFILE),
            [("reported_seconds", Cmp::Rel(0.05)), ("occupancy_pct", Cmp::Abs(1.0))]
        );
        assert_eq!(loose(&SIMSPEED), []);
        for g in [&SERVE, &SWEEP, &ESCALATE] {
            assert!(loose(g).iter().all(|&(_, c)| c == Cmp::Rel(1e-9)), "{}", g.name);
        }
    }

    #[test]
    fn check_maps_every_outcome_to_its_exit_code() {
        let dir = std::env::temp_dir().join(format!("ompx-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (gate, text) in BASELINES {
            let file = dir.join(format!("{}.json", gate.name.replace(' ', "_")));
            let path = file.to_str().unwrap();
            std::fs::write(&file, text).unwrap();
            assert_eq!(check(gate, text, path), 0, "{}: committed baseline", gate.name);

            let (array, field, _) = sites(gate)[0];
            let mut run = jsonio::parse(text).unwrap();
            let moved = changed(leaf(&mut run.clone(), array, field));
            *leaf(&mut run, array, field) = moved;
            let run_doc = render(&run);
            assert_eq!(check(gate, &run_doc, path), 1, "{}: drifted run", gate.name);

            std::fs::write(&file, text.replacen(gate.schema, "ompx-other-v0", 1)).unwrap();
            assert_eq!(check(gate, text, path), 2, "{}: wrong schema", gate.name);
            std::fs::write(&file, "{").unwrap();
            assert_eq!(check(gate, text, path), 2, "{}: malformed", gate.name);
            std::fs::remove_file(&file).unwrap();
            assert_eq!(check(gate, text, path), 2, "{}: missing file", gate.name);
        }
        let simspeed = BASELINES[1].1;
        let other_scale = simspeed.replacen("\"scale\": \"default\"", "\"scale\": \"test\"", 1);
        assert_ne!(other_scale, simspeed);
        let file = dir.join("scale.json");
        std::fs::write(&file, simspeed).unwrap();
        assert_eq!(check(&SIMSPEED, &other_scale, file.to_str().unwrap()), 2, "scale mismatch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Test-only writer for a mutated document (the gate itself never
    /// writes JSON).
    fn render(v: &Json) -> String {
        match v {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => format!("{n:e}"),
            Json::Str(s) => format!("\"{}\"", ompx_telemetry::json_escape(s)),
            Json::Arr(items) => {
                format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(","))
            }
            Json::Obj(m) => format!(
                "{{{}}}",
                m.iter()
                    .map(|(k, v)| format!("\"{}\":{}", ompx_telemetry::json_escape(k), render(v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }

    // ---- profile cells rendered by `ompx_prof::to_json` ---------------------

    fn cell(app: &str, version: &str) -> CellProfile {
        CellProfile {
            app: app.into(),
            version: version.into(),
            system: "nvidia".into(),
            checksum: 0xdeadbeef,
            reported_seconds: 1.0e-3,
            excluded: false,
            metrics: KernelMetrics {
                occupancy_pct: 50.0,
                mem_throughput_pct: 40.0,
                arithmetic_intensity: 0.25,
                gflops: 120.0,
                coalescing_eff_pct: 80.0,
                warp_exec_eff_pct: 100.0,
                barrier_stall_pct: 1.0,
                atomic_stall_pct: 0.0,
                serialization_stall_pct: 2.0,
                divergence_stall_pct: 0.0,
                bottleneck: Bottleneck::MemoryBandwidth,
            },
        }
    }

    fn profile_diff(run: &[CellProfile], base: &[CellProfile]) -> Vec<Drift> {
        let parse = |cells: &[CellProfile]| jsonio::parse(&to_json(cells)).unwrap();
        diff(&PROFILE, &parse(run), &parse(base)).unwrap()
    }

    #[test]
    fn profile_drift_is_detected_and_described() {
        let cells = vec![cell("xsbench", "ompx"), cell("su3", "cuda-nvcc")];
        assert!(profile_diff(&cells, &cells).is_empty());

        let mut base = cells.clone();
        base[0].reported_seconds *= 1.5;
        base[0].checksum ^= 1;
        base[0].metrics.bottleneck = Bottleneck::Compute;
        let paths: Vec<String> = profile_diff(&cells, &base).into_iter().map(|d| d.path).collect();
        assert_eq!(
            paths,
            [
                "cells[xsbench/ompx/nvidia].checksum",
                "cells[xsbench/ompx/nvidia].reported_seconds",
                "cells[xsbench/ompx/nvidia].bottleneck",
            ]
        );
    }

    #[test]
    fn profile_missing_and_extra_cells_both_fail_the_gate() {
        let current = vec![cell("xsbench", "ompx")];
        let recorded = vec![cell("xsbench", "ompx"), cell("xsbench", "omp")];
        let drifts = profile_diff(&current, &recorded);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].to_string().contains("missing from this run"), "{}", drifts[0]);

        let drifts = profile_diff(&recorded, &current);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].to_string().contains("not present in baseline"), "{}", drifts[0]);
    }

    #[test]
    fn profile_tolerance_band_admits_small_drift() {
        let cells = vec![cell("adam", "omp")];
        let mut base = cells.clone();
        base[0].reported_seconds *= 1.02;
        base[0].metrics.occupancy_pct += 0.5;
        assert!(profile_diff(&cells, &base).is_empty());

        const TIGHT: Gate = Gate {
            arrays: &[Array {
                path: "cells",
                by: Match::Key(&["app", "version", "system"]),
                fields: &[("reported_seconds", Cmp::Rel(0.01)), ("occupancy_pct", Cmp::Abs(0.1))],
            }],
            ..PROFILE
        };
        let parse = |cells: &[CellProfile]| jsonio::parse(&to_json(cells)).unwrap();
        assert_eq!(diff(&TIGHT, &parse(&cells), &parse(&base)).unwrap().len(), 2);
    }
}
