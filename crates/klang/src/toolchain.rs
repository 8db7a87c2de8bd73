//! The compiler model: toolchains and per-kernel codegen profiles.
//!
//! On the paper's testbeds, the *same source* compiled by different
//! compilers produces measurably different kernels, and those codegen
//! differences are exactly what the paper's profiling discussion uses to
//! explain its results:
//!
//! * SU3 (§4.2.3): CUDA/Clang allocates 24 registers vs 26 for the `ompx`
//!   prototype, and the prototype's inability to eliminate inlined functions
//!   yields a 29 KB device binary vs 3.9 KB — costing ~9 % on the A100.
//! * RSBench (§4.2.2): the `omp` version uses 162 registers but benefits
//!   from 2 KB of shared memory placed by the heap-to-shared optimization.
//! * AIDW (§4.2.4): `nvcc` fails to demote shared variables that
//!   LLVM/Clang demotes to registers, costing ~5 %.
//!
//! We cannot run real compilers, so these facts become *data*: a
//! [`CodegenDb`] maps `(kernel name, toolchain)` to a
//! [`CodegenInfo`]; kernels without an explicit entry get a default derived
//! from the toolchain's style (`nvcc` slightly tighter register allocation,
//! the `ompx` prototype slightly looser with larger binaries, etc.). The
//! benchmark crate registers the paper-reported values for the kernels the
//! paper profiles; everything downstream — occupancy, roofline efficiency,
//! i-cache penalties — is computed, not asserted.

use ompx_sim::timing::CodegenInfo;
use ompx_sim::Vendor;
use parking_lot::RwLock;
use std::collections::HashMap;

/// The compiler that produced a kernel binary.
///
/// Matches the four program versions of the paper's §4.1 methodology:
/// `cuda`/`hip` (LLVM/Clang), `cuda-nvcc`/`hip-hipcc` (vendor compilers),
/// `omp` (LLVM/Clang OpenMP offloading), and `ompx` (the paper's LLVM 18
/// prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Toolchain {
    /// LLVM/Clang compiling native CUDA or HIP.
    Clang,
    /// NVIDIA's `nvcc`.
    Nvcc,
    /// AMD's `hipcc` (amdclang, but with ROCm's pass pipeline defaults).
    Hipcc,
    /// LLVM/Clang compiling traditional OpenMP target offloading.
    ClangOpenmp,
    /// The paper's proof-of-concept prototype (LLVM 18 + ompx extensions).
    OmpxPrototype,
}

impl Toolchain {
    /// Short label used in plots and tables ("cuda-nvcc" style labels are
    /// assembled by the harness from toolchain + language).
    pub fn label(&self) -> &'static str {
        match self {
            Toolchain::Clang => "clang",
            Toolchain::Nvcc => "nvcc",
            Toolchain::Hipcc => "hipcc",
            Toolchain::ClangOpenmp => "clang-openmp",
            Toolchain::OmpxPrototype => "ompx-proto",
        }
    }

    /// Derive this toolchain's default codegen for a kernel that has no
    /// explicit profile entry, starting from a neutral baseline.
    ///
    /// The adjustments encode each compiler's systematic tendencies as
    /// observed in the paper (and in general experience with these
    /// toolchains); they are deliberately small — per-kernel paper-reported
    /// values override them wherever the paper provides numbers.
    pub fn derive(&self, base: CodegenInfo) -> CodegenInfo {
        let mut cg = base;
        match self {
            Toolchain::Clang => {}
            Toolchain::Nvcc => {
                // nvcc's ptxas tends to trade a register or two for
                // scheduling freedom and keeps binaries lean.
                cg.regs_per_thread = scale_regs(cg.regs_per_thread, 1.03);
                cg.binary_bytes = (cg.binary_bytes as f64 * 0.9) as usize;
            }
            Toolchain::Hipcc => {
                cg.regs_per_thread = scale_regs(cg.regs_per_thread, 1.05);
            }
            Toolchain::ClangOpenmp => {
                // The OpenMP device runtime links extra code into every
                // kernel and its abstractions cost registers.
                cg.regs_per_thread = scale_regs(cg.regs_per_thread, 1.25);
                cg.binary_bytes = cg.binary_bytes.saturating_add(24 * 1024);
            }
            Toolchain::OmpxPrototype => {
                // §4.2.3: inlined functions are not yet eliminated from the
                // module, inflating the device image; register allocation is
                // within a couple of registers of Clang's native path.
                cg.regs_per_thread = scale_regs(cg.regs_per_thread, 1.08);
                cg.binary_bytes = cg.binary_bytes.saturating_mul(3);
            }
        }
        cg
    }
}

fn scale_regs(regs: u32, factor: f64) -> u32 {
    ((regs as f64 * factor).round() as u32).clamp(16, 255)
}

/// Registration key for a per-backend codegen profile: `kernel@nvidia`.
pub fn vendor_key(kernel: &str, vendor: Vendor) -> String {
    let v = match vendor {
        Vendor::Nvidia => "nvidia",
        Vendor::Amd => "amd",
        Vendor::Generic => "generic",
    };
    format!("{kernel}@{v}")
}

/// A database of per-kernel, per-toolchain codegen profiles.
#[derive(Default)]
pub struct CodegenDb {
    entries: RwLock<HashMap<(String, Toolchain), CodegenInfo>>,
}

impl CodegenDb {
    /// An empty database (all lookups fall back to derived defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an explicit profile for `(kernel, toolchain)`.
    pub fn set(&self, kernel: &str, toolchain: Toolchain, info: CodegenInfo) {
        self.entries.write().insert((kernel.to_string(), toolchain), info);
    }

    /// Look up the profile for `(kernel, toolchain)`, deriving a toolchain
    /// default from `base` when no explicit entry exists.
    pub fn lookup(&self, kernel: &str, toolchain: Toolchain, base: CodegenInfo) -> CodegenInfo {
        self.entries
            .read()
            .get(&(kernel.to_string(), toolchain))
            .copied()
            .unwrap_or_else(|| toolchain.derive(base))
    }

    /// Vendor-aware lookup: the same source compiles to different machine
    /// code per GPU backend, so profiles may be registered under
    /// `kernel@nvidia` / `kernel@amd` (see [`vendor_key`]). Falls back to
    /// the vendor-neutral entry, then to the toolchain derivation.
    pub fn lookup_vendor(
        &self,
        kernel: &str,
        vendor: Vendor,
        toolchain: Toolchain,
        base: CodegenInfo,
    ) -> CodegenInfo {
        let entries = self.entries.read();
        if let Some(cg) = entries.get(&(vendor_key(kernel, vendor), toolchain)) {
            return *cg;
        }
        if let Some(cg) = entries.get(&(kernel.to_string(), toolchain)) {
            return *cg;
        }
        toolchain.derive(base)
    }

    /// True when an explicit entry exists.
    pub fn has(&self, kernel: &str, toolchain: Toolchain) -> bool {
        self.entries.read().contains_key(&(kernel.to_string(), toolchain))
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when no explicit entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let all = [
            Toolchain::Clang,
            Toolchain::Nvcc,
            Toolchain::Hipcc,
            Toolchain::ClangOpenmp,
            Toolchain::OmpxPrototype,
        ];
        let labels: std::collections::HashSet<_> = all.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn derived_defaults_order_register_pressure() {
        let base = CodegenInfo::default();
        let clang = Toolchain::Clang.derive(base);
        let omp = Toolchain::ClangOpenmp.derive(base);
        let ompx = Toolchain::OmpxPrototype.derive(base);
        assert!(omp.regs_per_thread > clang.regs_per_thread);
        assert!(ompx.regs_per_thread >= clang.regs_per_thread);
        assert!(ompx.regs_per_thread < omp.regs_per_thread);
        assert!(ompx.binary_bytes > clang.binary_bytes);
    }

    #[test]
    fn register_scaling_clamps() {
        assert_eq!(scale_regs(250, 1.25), 255);
        assert_eq!(scale_regs(16, 0.5), 16);
        assert_eq!(scale_regs(32, 1.0), 32);
    }

    #[test]
    fn db_explicit_entry_overrides_derivation() {
        let db = CodegenDb::new();
        let base = CodegenInfo::default();
        assert!(db.is_empty());
        let derived = db.lookup("k", Toolchain::Nvcc, base);
        assert_eq!(derived, Toolchain::Nvcc.derive(base));

        let explicit = CodegenInfo { regs_per_thread: 24, ..base };
        db.set("k", Toolchain::Nvcc, explicit);
        assert!(db.has("k", Toolchain::Nvcc));
        assert_eq!(db.lookup("k", Toolchain::Nvcc, base), explicit);
        // Other toolchains still derive.
        assert!(!db.has("k", Toolchain::Clang));
        assert_eq!(db.len(), 1);
    }
}
