//! # ompx-sanitizer — compute-sanitizer-style correctness tools
//!
//! The simulator counterpart of NVIDIA's `compute-sanitizer` (and ROCm's
//! equivalent): a pluggable set of correctness tools that attach to a
//! [`ompx_sim::device::Device`] and observe every launch through the
//! instrumentation hooks in `ompx_sim::san`. Because the hooks live at the
//! device/executor layer, *every* launch path is covered automatically —
//! `ompx-klang` CUDA/HIP kernels, `ompx-devicert` generic/SPMD OpenMP
//! regions, `ompx-hostrt` target regions, and bare `ompx` launches.
//!
//! | tool | finds |
//! |------|-------|
//! | `memcheck`  | out-of-bounds indices, use-after-free, misaligned typed access |
//! | `racecheck` | shared-memory races (block-local) and plain cross-block global conflicts |
//! | `synccheck` | divergent `sync_threads` usage, invalid `shfl_sync` member masks |
//! | `initcheck` | reads of never-written global (`alloc_uninit`) or shared cells |
//! | `leakcheck` | device allocations still live at explicit `Device::reset` |
//!
//! ```
//! use ompx_sanitizer::{Sanitizer, Tool};
//! use ompx_sim::prelude::*;
//!
//! let dev = Device::new(DeviceProfile::test_small());
//! let session = Sanitizer::attach(&dev, &[Tool::Memcheck]);
//! let buf = dev.alloc::<u32>(4);
//! let k = Kernel::new("oob", {
//!     let buf = buf.clone();
//!     move |ctx: &mut ThreadCtx| {
//!         let i = ctx.global_thread_id_x();
//!         ctx.write(&buf, i + 3, 1); // last thread runs off the end
//!     }
//! });
//! dev.launch(&k, LaunchConfig::linear(2, 2)).unwrap();
//! let report = session.finish();
//! assert_eq!(report.len(), 1);
//! assert_ne!(report.exit_code(), 0);
//! ```

pub mod fixtures;
pub mod report;

pub use report::{Finding, Severity};

use ompx_sim::device::Device;
pub use ompx_sim::san::{AllocRecord, DiagKind, Diagnostic, SanState, ToolMask};
use std::sync::Arc;

/// One sanitizer tool, as named on the `sanitize --tool` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    Memcheck,
    Racecheck,
    Synccheck,
    Initcheck,
    Leakcheck,
    /// All five tools at once.
    All,
}

impl Tool {
    /// Every concrete tool (excludes [`Tool::All`]).
    pub const EACH: [Tool; 5] =
        [Tool::Memcheck, Tool::Racecheck, Tool::Synccheck, Tool::Initcheck, Tool::Leakcheck];

    /// The tool's mask bits.
    pub fn mask(self) -> ToolMask {
        match self {
            Tool::Memcheck => ToolMask::MEMCHECK,
            Tool::Racecheck => ToolMask::RACECHECK,
            Tool::Synccheck => ToolMask::SYNCCHECK,
            Tool::Initcheck => ToolMask::INITCHECK,
            Tool::Leakcheck => ToolMask::LEAKCHECK,
            Tool::All => ToolMask::ALL,
        }
    }

    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Memcheck => "memcheck",
            Tool::Racecheck => "racecheck",
            Tool::Synccheck => "synccheck",
            Tool::Initcheck => "initcheck",
            Tool::Leakcheck => "leakcheck",
            Tool::All => "all",
        }
    }

    /// Fold a tool list into one mask.
    pub fn mask_of(tools: &[Tool]) -> ToolMask {
        tools.iter().fold(ToolMask::NONE, |m, t| m | t.mask())
    }
}

impl std::str::FromStr for Tool {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "memcheck" => Ok(Tool::Memcheck),
            "racecheck" => Ok(Tool::Racecheck),
            "synccheck" => Ok(Tool::Synccheck),
            "initcheck" => Ok(Tool::Initcheck),
            "leakcheck" => Ok(Tool::Leakcheck),
            "all" => Ok(Tool::All),
            other => Err(format!(
                "unknown tool `{other}` (expected memcheck|racecheck|synccheck|initcheck|\
                 leakcheck|all)"
            )),
        }
    }
}

impl std::fmt::Display for Tool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An attached sanitizer session on one device. Dropping the session does
/// NOT detach it (the state is shared with the device); call
/// [`Sanitizer::finish`] to detach and collect the report.
pub struct Sanitizer {
    device: Device,
    state: Arc<SanState>,
}

impl Sanitizer {
    /// Attach a fresh session running `tools` to `device`. Launches and
    /// allocations made from now on are observed.
    pub fn attach(device: &Device, tools: &[Tool]) -> Sanitizer {
        Self::attach_mask(device, Tool::mask_of(tools))
    }

    /// Attach with an explicit tool mask.
    pub fn attach_mask(device: &Device, mask: ToolMask) -> Sanitizer {
        let state = SanState::new(mask);
        device.attach_sanitizer(Arc::clone(&state));
        Sanitizer { device: device.clone(), state }
    }

    /// The shared session state (e.g. to poll findings mid-run).
    pub fn state(&self) -> &Arc<SanState> {
        &self.state
    }

    /// Findings recorded so far, without detaching.
    pub fn findings(&self) -> Vec<Diagnostic> {
        self.state.diagnostics()
    }

    /// Detach from the device and return the final report.
    pub fn finish(self) -> Report {
        self.device.detach_sanitizer();
        Report { enabled: self.state.enabled(), diagnostics: self.state.diagnostics() }
    }
}

/// The outcome of a sanitizer session: structured findings plus the
/// formatting/exit-code conventions the CLI and CI use.
#[derive(Debug, Clone)]
pub struct Report {
    enabled: ToolMask,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Assemble a report directly from session state (used by runtime
    /// layers that manage attachment themselves).
    pub fn from_state(state: &SanState) -> Report {
        Report { enabled: state.enabled(), diagnostics: state.diagnostics() }
    }

    /// Assemble a report from already-drained findings (used by harnesses
    /// like `run_app_sanitized` that hand back a plain diagnostic list).
    pub fn from_findings(enabled: ToolMask, diagnostics: Vec<Diagnostic>) -> Report {
        Report { enabled, diagnostics }
    }

    /// The findings, in recording order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when the run was clean.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings belonging to one tool.
    pub fn for_tool(&self, tool: Tool) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.kind.tool() == tool.name()).collect()
    }

    /// CI convention: 0 on a clean run, 1 when any tool reported a finding
    /// (`compute-sanitizer --error-exitcode`).
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.diagnostics.is_empty())
    }

    /// The findings in the unified schema shared with `analyze`
    /// (see [`report`]).
    pub fn findings(&self) -> Vec<Finding> {
        self.diagnostics.iter().map(Finding::from_diagnostic).collect()
    }

    /// Human-readable multi-line report, one finding per line plus a
    /// summary tail.
    pub fn to_text(&self) -> String {
        report::render_text(&self.findings())
    }

    /// Machine-readable JSON in the unified finding schema (tool, kernel,
    /// location, severity, message — see [`report`]). Hand-rolled so the
    /// workspace needs no JSON dependency.
    pub fn to_json(&self) -> String {
        report::render_json(&self.findings())
    }

    /// The tools that were enabled for this session.
    pub fn enabled(&self) -> ToolMask {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_parsing_roundtrip() {
        for t in Tool::EACH {
            assert_eq!(t.name().parse::<Tool>().unwrap(), t);
        }
        assert_eq!("ALL".parse::<Tool>().unwrap(), Tool::All);
        assert!("memchk".parse::<Tool>().is_err());
        assert!(Tool::mask_of(&[Tool::Memcheck, Tool::Leakcheck]).contains(ToolMask::MEMCHECK));
        assert!(!Tool::mask_of(&[Tool::Memcheck]).contains(ToolMask::RACECHECK));
        assert_eq!(Tool::All.mask(), ToolMask::ALL);
    }

    #[test]
    fn empty_report_is_clean() {
        let state = SanState::new(ToolMask::ALL);
        let report = Report::from_state(&state);
        assert!(report.is_empty());
        assert_eq!(report.exit_code(), 0);
        assert!(report.to_text().contains("clean run"));
        assert!(report.to_json().contains("\"count\": 0"));
    }
}
