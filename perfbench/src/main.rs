//! Host wall-clock benchmark of the ompx-rs stack.
//!
//! ```text
//! perfbench --workload <barrier|flat|serve|tooled> --seed N --seconds S --trace 0|1
//! perfbench --record-reference
//! ```
//!
//! A run sets its workload up three times (each set-up ends with one
//! untimed, checked warm-up op), then runs ops from this one thread for
//! `--seconds`, checking every op's outputs. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs (`--trace 0`) report the end-to-end metrics;
//! traced runs (`--trace 1`) alternate untraced and traced ops, then run
//! the per-layer suite, and report the per-layer metrics.
//! Modeled GPU seconds are checked against the recorded reference, never
//! timed. See README.md for the workloads and metrics.

mod cells;
mod layers;
mod procfs;
mod stats;
mod trace;
mod workload;

use stats::{median, tail};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Checker, OpSample, Params, State, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest timed ops per run, so that a tail percentile with
/// [`stats::TAIL_BEYOND`] ops beyond it always exists.
const MIN_OPS: usize = stats::TAIL_BEYOND + 1;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Checked operations: every op and every probe or cell check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; report a failure on stderr. Returns
    /// whether it passed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                false
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <barrier|flat|serve|tooled> --seed N \
                     --seconds S --trace 0|1\n       perfbench --record-reference";

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--record-reference"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    }))
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return record_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == Workload::Tooled {
        workload::use_one_malloc_arena();
    }
    let (tally, metrics) = run(&args, &Params::FULL, started);
    println!("{}", result_json(&tally, &metrics));
}

fn record_reference() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.txt");
    match cells::record() {
        Ok(text) => {
            std::fs::write(&path, text).expect("reference.txt is writable");
            eprintln!("perfbench: wrote {}", path.display());
        }
        Err(e) => {
            eprintln!("perfbench: refusing to record a reference: {e}");
            std::process::exit(1);
        }
    }
}

/// Run ops until `seconds` have passed and each tracer has had
/// [`MIN_OPS`] ops, cycling op by op through `tracers` so that host drift
/// falls on each alike. Returns each tracer's op samples.
fn measure(
    state: &State,
    seconds: f64,
    index: &mut u64,
    checker: &mut Checker,
    tracers: &mut [Tracer],
    tally: &mut Tally,
) -> Vec<Vec<OpSample>> {
    let start = Instant::now();
    let mut samples = vec![Vec::new(); tracers.len()];
    while samples[0].len() < MIN_OPS || start.elapsed() < Duration::from_secs_f64(seconds) {
        for (tracer, out) in tracers.iter_mut().zip(&mut samples) {
            let (sample, checked) = state.op(*index, checker, tracer);
            tally.record(&format!("op {index}"), checked);
            out.push(sample);
            *index += 1;
        }
    }
    samples
}

fn run(args: &Args, params: &Params, started: Instant) -> (Tally, Vec<Metric>) {
    let mut checker = Checker::new();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    // Every set-up's warm-up is op 0, so the three replay the same inputs
    // and a serve replay is checked for determinism before timing starts.
    for k in 0..SETUPS {
        let begun = if k == 0 { started } else { Instant::now() };
        let s = State::new(args.workload, params, args.seed);
        let (_, checked) = s.op(0, &mut checker, &mut Tracer::new(false));
        tally.record("warm-up op", checked);
        setup_s.push(begun.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.expect("SETUPS > 0");
    let mut index = 1;
    let name = args.workload.name();
    let seconds = args.seconds as f64;
    let mut m = Vec::new();
    let mut summary = format!(
        "perfbench: workload {name}, seed {}, sim workers {}, host cores {}\n",
        args.seed,
        ompx_sim::exec::default_workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    if !args.trace {
        let tracers = &mut [Tracer::new(false)];
        let ops = measure(&state, seconds, &mut index, &mut checker, tracers, &mut tally).remove(0);
        let wall: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
        let cpu: Vec<f64> = ops.iter().map(|o| o.proc.user_s + o.proc.sys_s).collect();
        let t = tail(&wall);
        m.push(Metric { name: "op_p50_s".into(), unit: "s", value: median(&wall) });
        m.push(Metric { name: "op_tail_s".into(), unit: "s", value: t.value });
        m.push(Metric { name: "cpu_s".into(), unit: "s", value: median(&cpu) });
        m.push(Metric { name: "peak_rss_mb".into(), unit: "MiB", value: procfs::peak_rss_mib() });
        m.push(Metric { name: "setup_s".into(), unit: "s", value: median(&setup_s) });
        writeln!(
            summary,
            "perfbench: {} timed ops; op_tail_s is p{:.0} with {} of {} ops beyond it",
            ops.len(),
            t.percentile,
            t.beyond,
            t.samples
        )
        .expect("writing to a String cannot fail");
    } else {
        let mut tracers = [Tracer::new(false), Tracer::new(true)];
        let ops = measure(&state, seconds, &mut index, &mut checker, &mut tracers, &mut tally);
        let (plain, traced) = (&ops[0], &ops[1]);
        let tracer = &mut tracers[1];
        let col = |f: fn(&OpSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        m.extend(layers::suite(tracer, params, args.seed, &checker.reference, &mut tally));
        m.push(Metric { name: "proc.user_s".into(), unit: "s", value: col(|o| o.proc.user_s) });
        m.push(Metric { name: "proc.sys_s".into(), unit: "s", value: col(|o| o.proc.sys_s) });
        m.push(Metric {
            name: "proc.ctx_switches".into(),
            unit: "count",
            value: col(|o| o.proc.ctx_switches as f64),
        });
        let plain_wall = median(&plain.iter().map(|o| o.wall_s).collect::<Vec<_>>());
        m.push(Metric {
            name: "trace.overhead_x".into(),
            unit: "x",
            value: col(|o| o.wall_s) / plain_wall,
        });
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = out.join(format!("spans-{name}-{}.jsonl", args.seed));
        match std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, tracer.to_jsonl())) {
            Ok(()) => writeln!(summary, "perfbench: {} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => writeln!(summary, "perfbench: cannot write spans to {}: {e}", path.display()),
        }
        .expect("writing to a String cannot fail");
    }
    writeln!(
        summary,
        "perfbench: error_rate {} ({} of {} checked ops failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    )
    .expect("writing to a String cannot fail");
    for metric in &m {
        writeln!(summary, "  {:<32} {:>16} {}", metric.name, metric.value, metric.unit)
            .expect("writing to a String cannot fail");
    }
    print!("{summary}");
    (tally, m)
}

/// The result line. A non-finite value cannot be written as JSON; it is
/// left out and the run marked incorrect.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut correct = tally.failed == 0;
    let mut body = Vec::new();
    for m in metrics {
        if m.value.is_finite() {
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        } else {
            eprintln!("perfbench: {} is not finite ({})", m.name, m.value);
            correct = false;
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv("--workload flat --seed 3 --seconds 10 --trace 1"))
            .expect("valid")
            .expect("a run");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Flat, 3, 10, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload flat --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload flat --seed 3 --seconds 10 --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let tally = Tally { attempted: 4, failed: 0 };
        let m = [Metric { name: "op_p50_s".into(), unit: "s", value: 0.25 }];
        assert_eq!(
            result_json(&tally, &m),
            r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"op_p50_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }

    /// The smoke configuration of every workload, untraced: every
    /// end-to-end metric, no failed op.
    #[test]
    fn smoke_runs_report_every_end_to_end_metric() {
        let _gate = cells::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        for w in Workload::ALL {
            let args = Args { workload: w, seed: 5, seconds: 0, trace: false };
            let (tally, m) = run(&args, &Params::SMOKE, Instant::now());
            assert_eq!(tally.failed, 0, "{}", w.name());
            let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, ["op_p50_s", "op_tail_s", "cpu_s", "peak_rss_mb", "setup_s"]);
        }
    }
}
