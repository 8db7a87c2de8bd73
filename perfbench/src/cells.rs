//! Figure-8 cells and the recorded reference their outputs are checked
//! against.
//!
//! The reference holds, per (app, version, scale) on the A100 system, the
//! checksum, the bit pattern of the modeled `reported_seconds`, and the
//! paper's exclusion flag; and, per memtraced cell, the access and barrier
//! event counts. It is recorded by `--record-reference` and embedded at
//! build time, so a change that moves any modeled number or checksum makes
//! every op that touches the cell fail.

use ompx_hecbench::{
    run_app, run_app_sanitized, with_mem_trace_full, ProgVersion, RunOutcome, System, WorkScale,
    APP_NAMES,
};
use ompx_sim::san::ToolMask;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every cell runs on the A100 system (the serve workload covers MI250).
pub const SYSTEM: System = System::Nvidia;

/// The recorded reference, embedded at build time.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug, Clone)]
pub struct Cell {
    pub app: &'static str,
    pub version: ProgVersion,
    pub scale: WorkScale,
    /// `<app>.<label>`, e.g. `stencil.cuda-nvcc`.
    pub name: String,
}

impl Cell {
    pub fn new(app: &'static str, version: ProgVersion, scale: WorkScale) -> Cell {
        Cell { app, version, scale, name: format!("{app}.{}", version.label(SYSTEM)) }
    }

    /// Cells whose kernels synchronise inside a block and so run on the
    /// simulator's one-OS-thread-per-lane team path.
    pub fn uses_barriers(&self) -> bool {
        matches!(self.app, "stencil" | "aidw") && self.version != ProgVersion::Omp
    }

    fn key(&self) -> String {
        format!("{} {}", self.name, scale_name(self.scale))
    }

    /// Run the cell with `tool` attached, catching panics.
    pub fn run(&self, tool: Tool) -> Result<Run, String> {
        let (app, version, scale) = (self.app, self.version, self.scale);
        catch(|| match tool {
            Tool::None => {
                Run { outcome: run_app(app, SYSTEM, version, scale), diags: 0, trace: None }
            }
            Tool::Sanitizer => {
                let (outcome, diags) =
                    run_app_sanitized(app, SYSTEM, version, scale, ToolMask::ALL);
                Run { outcome, diags: diags.len(), trace: None }
            }
            Tool::MemTrace => {
                let (outcome, events, barriers) =
                    with_mem_trace_full(|| run_app(app, SYSTEM, version, scale));
                Run { outcome, diags: 0, trace: Some((events.len(), barriers.len())) }
            }
        })
    }
}

/// What a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    None,
    /// `run_app_sanitized` with every tool in `ToolMask::ALL`.
    Sanitizer,
    /// `with_mem_trace_full` around `run_app`.
    MemTrace,
}

/// One cell run: the outcome, the sanitizer's diagnostic count, and the
/// memory trace's access and barrier event counts when one was attached.
#[derive(Debug)]
pub struct Run {
    pub outcome: RunOutcome,
    pub diags: usize,
    pub trace: Option<(usize, usize)>,
}

fn scale_name(scale: WorkScale) -> &'static str {
    match scale {
        WorkScale::Test => "test",
        WorkScale::Default => "default",
    }
}

fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// All 24 cells in Figure-8 order.
pub fn matrix(scale: WorkScale) -> Vec<Cell> {
    APP_NAMES
        .iter()
        .flat_map(|app| ProgVersion::all().into_iter().map(move |v| Cell::new(app, v, scale)))
        .collect()
}

/// The six barrier cells: stencil and aidw × ompx, cuda, cuda-nvcc.
pub fn barrier_cells(scale: WorkScale) -> Vec<Cell> {
    matrix(scale).into_iter().filter(Cell::uses_barriers).collect()
}

/// The other 18 cells.
pub fn flat_cells(scale: WorkScale) -> Vec<Cell> {
    matrix(scale).into_iter().filter(|c| !c.uses_barriers()).collect()
}

/// The tooled cells: all 18 barrier-free cells at test scale. At default
/// scale a single cell under the tools takes 0.9–7 s and its memory trace
/// holds 1–4 M events, whose peak RSS varied by 20% between runs.
pub fn tooled_cells() -> Vec<Cell> {
    flat_cells(WorkScale::Test)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellRef {
    checksum: u64,
    reported_bits: u64,
    excluded: bool,
}

#[derive(Debug, Default)]
pub struct Reference {
    cells: BTreeMap<String, CellRef>,
    /// Access and barrier event counts of a memtraced run.
    traces: BTreeMap<String, (usize, usize)>,
}

impl Reference {
    pub fn embedded() -> Reference {
        Reference::parse(REFERENCE).expect("reference.txt is well-formed")
    }

    /// Lines: `cell <name> <scale> <checksum> <reported_bits> <excluded>`
    /// and `memtrace <name> <scale> <events> <barriers>`, numbers in hex.
    fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{line}: {e}"));
            match f.as_slice() {
                ["cell", name, scale, ck, bits, ex] => {
                    let v = CellRef {
                        checksum: hex(ck)?,
                        reported_bits: hex(bits)?,
                        excluded: *ex == "1",
                    };
                    r.cells.insert(format!("{name} {scale}"), v);
                }
                ["memtrace", name, scale, ev, b] => {
                    let v = (hex(ev)? as usize, hex(b)? as usize);
                    r.traces.insert(format!("{name} {scale}"), v);
                }
                _ => return Err(format!("unrecognised reference line: {line}")),
            }
        }
        Ok(r)
    }

    /// The outcome's checksum and modeled seconds must match the reference
    /// bit for bit, a clean cell must get no sanitizer diagnostic, and a
    /// memory trace must hold the recorded number of events.
    pub fn check(&self, cell: &Cell, run: &Run) -> Result<(), String> {
        let key = cell.key();
        let want = self.cells.get(&key).ok_or_else(|| format!("{key}: no reference"))?;
        let o = &run.outcome;
        let got = CellRef {
            checksum: o.checksum,
            reported_bits: o.reported_seconds.to_bits(),
            excluded: o.excluded,
        };
        if got != *want {
            return Err(format!("{key}: got {got:?}, reference {want:?}"));
        }
        if run.diags != 0 {
            return Err(format!("{key}: {} sanitizer diagnostics on a clean cell", run.diags));
        }
        if let Some(got) = run.trace {
            let want =
                self.traces.get(&key).ok_or_else(|| format!("{key}: no memtrace reference"))?;
            if got != *want {
                return Err(format!("{key}: (events, barriers) {got:?}, reference {want:?}"));
            }
        }
        Ok(())
    }
}

/// The versions of each app that ran must agree on the checksum, except
/// versions the paper excluded for an invalid result.
pub fn check_versions_agree<'a>(
    outcomes: impl IntoIterator<Item = (&'a Cell, &'a RunOutcome)>,
) -> Result<(), String> {
    let mut seen: BTreeMap<&str, (&str, u64)> = BTreeMap::new();
    for (cell, o) in outcomes.into_iter().filter(|(_, o)| !o.excluded) {
        let (first, ck) = *seen.entry(cell.app).or_insert((&cell.name, o.checksum));
        if ck != o.checksum {
            return Err(format!("{} checksum {:#x} != {first} {ck:#x}", cell.name, o.checksum));
        }
    }
    Ok(())
}

/// Run every cell the workloads use at both scales and render the
/// reference file. Refuses to record outputs that fail the cross-version
/// or sanitizer checks.
pub fn record() -> Result<String, String> {
    let mut out = String::from(
        "# Recorded by `perfbench --record-reference`: A100 system, every cell at both\n\
         # scales, and the memory-trace event counts of the tooled cells.\n",
    );
    for scale in [WorkScale::Test, WorkScale::Default] {
        let cells = matrix(scale);
        let mut outcomes = Vec::new();
        for cell in &cells {
            let o = cell.run(Tool::None)?.outcome;
            eprintln!("recorded {}", cell.key());
            writeln!(
                out,
                "cell {} {} {:x} {:x} {}",
                cell.name,
                scale_name(scale),
                o.checksum,
                o.reported_seconds.to_bits(),
                u8::from(o.excluded)
            )
            .expect("writing to a String cannot fail");
            outcomes.push(o);
        }
        check_versions_agree(cells.iter().zip(&outcomes))?;
    }
    for cell in tooled_cells() {
        let diags = cell.run(Tool::Sanitizer)?.diags;
        if diags != 0 {
            return Err(format!("{}: {diags} sanitizer diagnostics on a clean cell", cell.key()));
        }
        let (events, barriers) = cell.run(Tool::MemTrace)?.trace.expect("a memtraced run");
        writeln!(out, "memtrace {} {events:x} {barriers:x}", cell.key())
            .expect("writing to a String cannot fail");
    }
    Ok(out)
}

/// Serialises tests that run cells: the tools attach through
/// process-wide state, so a cell running on another test thread would
/// record into a traced cell's memory trace.
#[cfg(test)]
pub static TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_splits_into_six_barrier_and_eighteen_flat_cells() {
        assert_eq!(matrix(WorkScale::Test).len(), 24);
        assert_eq!(barrier_cells(WorkScale::Test).len(), 6);
        assert_eq!(flat_cells(WorkScale::Test).len(), 18);
        assert_eq!(tooled_cells().len(), 18);
    }

    #[test]
    fn embedded_reference_covers_every_cell_the_workloads_use() {
        let r = Reference::embedded();
        for scale in [WorkScale::Test, WorkScale::Default] {
            for c in matrix(scale) {
                assert!(r.cells.contains_key(&c.key()), "{}", c.key());
            }
        }
        for c in tooled_cells() {
            assert!(r.traces.contains_key(&c.key()), "{}", c.key());
        }
    }

    #[test]
    fn drifted_outputs_fail_the_check() {
        let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let r = Reference::embedded();
        let cell = Cell::new("su3", ProgVersion::Ompx, WorkScale::Test);
        let mut run = cell.run(Tool::MemTrace).expect("cell runs");
        assert!(r.check(&cell, &run).is_ok());
        run.trace = run.trace.map(|(events, barriers)| (events + 1, barriers));
        assert!(r.check(&cell, &run).is_err());
        run = cell.run(Tool::None).expect("cell runs");
        run.outcome.checksum ^= 1;
        assert!(r.check(&cell, &run).is_err());
    }
}
