//! The OpenMP runtime object: devices, ICVs, and the modeled toolchain.

use crate::quirks::KnownIssues;
use crate::task::TaskSystem;
use ompx_klang::toolchain::{CodegenDb, Toolchain};
use ompx_sim::device::{Device, DeviceProfile};
use std::sync::Arc;

pub(crate) struct OmpInner {
    pub device: Device,
    /// Additional devices beyond the default (device ids 1..): the
    /// multi-GPU configuration `omp_get_num_devices` exposes.
    pub extra_devices: Vec<Device>,
    pub toolchain: Toolchain,
    pub codegen: CodegenDb,
    pub quirks: KnownIssues,
    pub tasks: TaskSystem,
    pub declare_target: crate::declare_target::DeclareTargetHandle,
    /// Default number of teams when the program does not say (`num_teams`
    /// absent): LLVM picks a multiple of the SM count.
    pub default_teams: u32,
    /// Default `thread_limit` when absent (LLVM's GPU default).
    pub default_threads: u32,
}

/// A configured OpenMP runtime: one target device, one modeled toolchain,
/// the task system, and the known-issues registry.
///
/// Cheap to clone; clones share all state (the runtime is a process-global
/// singleton in real OpenMP).
#[derive(Clone)]
pub struct OpenMp {
    pub(crate) inner: Arc<OmpInner>,
}

impl OpenMp {
    /// Runtime targeting an explicit device, with explicit quirk registry.
    ///
    /// Defaults honour the standard environment ICVs when set:
    /// `OMP_NUM_TEAMS` overrides the default team count and
    /// `OMP_TEAMS_THREAD_LIMIT` the default thread limit (clamped to the
    /// device's block-size maximum).
    pub fn with_device(device: Device, toolchain: Toolchain, quirks: KnownIssues) -> Self {
        let sm = device.profile().sm_count;
        let env_u32 = |name: &str| {
            std::env::var(name).ok().and_then(|v| v.trim().parse::<u32>().ok()).filter(|&v| v > 0)
        };
        let default_teams = env_u32("OMP_NUM_TEAMS").unwrap_or(sm * 4);
        let default_threads = env_u32("OMP_TEAMS_THREAD_LIMIT")
            .unwrap_or(128)
            .min(device.profile().max_threads_per_block);
        OpenMp {
            inner: Arc::new(OmpInner {
                device,
                extra_devices: Vec::new(),
                toolchain,
                codegen: CodegenDb::new(),
                quirks,
                tasks: TaskSystem::new(4),
                declare_target: std::sync::Arc::new(
                    crate::declare_target::DeclareTargetRegistry::new(),
                ),
                default_teams,
                default_threads,
            }),
        }
    }

    /// The paper's NVIDIA system: A100 + LLVM/Clang OpenMP offloading,
    /// with the quirks the paper observed.
    pub fn nvidia_system() -> Self {
        Self::with_device(
            Device::new(DeviceProfile::a100()),
            Toolchain::ClangOpenmp,
            KnownIssues::llvm_as_evaluated(),
        )
    }

    /// The paper's AMD system: MI250 + LLVM/Clang OpenMP offloading.
    pub fn amd_system() -> Self {
        Self::with_device(
            Device::new(DeviceProfile::mi250()),
            Toolchain::ClangOpenmp,
            KnownIssues::llvm_as_evaluated(),
        )
    }

    /// A small test runtime with no quirks.
    pub fn test_system() -> Self {
        Self::with_device(
            Device::new(DeviceProfile::test_small()),
            Toolchain::ClangOpenmp,
            KnownIssues::new(),
        )
    }

    /// The target device (`omp_get_default_device` analogue).
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// Attach additional devices (a multi-GPU node). The default device
    /// keeps logical number 0; the attached devices are 1..=n.
    pub fn with_extra_devices(mut self, extra: Vec<Device>) -> Self {
        // Deliberate panic, not an injectable fault: calling this after the
        // runtime was cloned is a host-program construction bug (see the
        // error-policy note in ompx-sim's error.rs).
        let inner =
            Arc::get_mut(&mut self.inner).expect("attach extra devices before cloning the runtime");
        inner.extra_devices = extra;
        self
    }

    /// Retry policy the runtime applies to transient device faults
    /// (shared with the device; see [`ompx_sim::fault::RetryPolicy`]).
    pub fn retry_policy(&self) -> ompx_sim::fault::RetryPolicy {
        self.inner.device.retry_policy()
    }

    /// Replace the retry policy for transient device faults.
    pub fn set_retry_policy(&self, policy: ompx_sim::fault::RetryPolicy) {
        self.inner.device.set_retry_policy(policy);
    }

    /// Take and clear the last device error (CUDA's `cudaGetLastError`
    /// analogue). Sticky errors — device loss — are reported but *not*
    /// cleared; every later call keeps returning them.
    pub fn ompx_get_last_error(&self) -> Option<ompx_sim::error::SimError> {
        self.inner.device.take_last_error()
    }

    /// Inspect the last device error without clearing it
    /// (`cudaPeekAtLastError` analogue).
    pub fn ompx_peek_last_error(&self) -> Option<ompx_sim::error::SimError> {
        self.inner.device.peek_last_error()
    }

    /// `omp_get_num_devices()`.
    pub fn num_devices(&self) -> usize {
        1 + self.inner.extra_devices.len()
    }

    /// Device by logical number (`device(n)` clause): 0 is the default.
    pub fn device_n(&self, n: usize) -> &Device {
        if n == 0 {
            &self.inner.device
        } else {
            &self.inner.extra_devices[n - 1]
        }
    }

    /// `omp_target_memcpy` between two devices: the data bounces through
    /// host memory (no peer link modeled), so the modeled cost is two
    /// transfers. Returns the modeled seconds.
    pub fn target_memcpy_cross<T: ompx_sim::mem::DeviceScalar>(
        &self,
        dst_device: usize,
        dst: &ompx_sim::mem::DBuf<T>,
        src_device: usize,
        src: &ompx_sim::mem::DBuf<T>,
        n: usize,
    ) -> f64 {
        dst.copy_from_device(src, n);
        let bytes = n * std::mem::size_of::<T>();
        self.device_n(src_device).profile().transfer_seconds(bytes)
            + self.device_n(dst_device).profile().transfer_seconds(bytes)
    }

    /// Open a data environment on a specific device (`target data device(n)`).
    pub fn target_data_on(&self, n: usize) -> crate::mapping::DataEnv {
        crate::mapping::DataEnv::new(self.device_n(n).clone())
    }

    /// The modeled compiling toolchain.
    pub fn toolchain(&self) -> Toolchain {
        self.inner.toolchain
    }

    /// Codegen profile database for this toolchain.
    pub fn codegen(&self) -> &CodegenDb {
        &self.inner.codegen
    }

    /// Known-issues registry consulted by target-region lowering.
    pub fn quirks(&self) -> &KnownIssues {
        &self.inner.quirks
    }

    /// The `declare target` symbol registry (see
    /// [`crate::declare_target`]).
    pub fn declare_target(&self) -> &crate::declare_target::DeclareTargetHandle {
        &self.inner.declare_target
    }

    /// Begin building a target region (`#pragma omp target teams …`).
    pub fn target(&self, kernel_name: &str) -> crate::target::TargetRegion {
        crate::target::TargetRegion::new(self.clone(), kernel_name)
    }

    /// Open a structured data environment (`#pragma omp target data`).
    pub fn target_data(&self) -> crate::mapping::DataEnv {
        crate::mapping::DataEnv::new(self.device().clone())
    }

    /// `#pragma omp taskwait` — wait for all outstanding tasks.
    pub fn taskwait(&self) {
        self.inner.tasks.wait_all();
        if let Some(log) = self.inner.device.span_log() {
            log.host_op("taskwait", ompx_sim::span::SpanCategory::Sync, 0.0, 0);
        }
    }

    /// Default team count when the program gives none.
    pub fn default_teams(&self) -> u32 {
        self.inner.default_teams
    }

    /// Default thread limit when the program gives none.
    pub fn default_threads(&self) -> u32 {
        self.inner.default_threads
    }
}

impl std::fmt::Debug for OpenMp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpenMp({}, {})", self.inner.device.profile().name, self.inner.toolchain.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::Vendor;

    #[test]
    fn system_constructors_pick_the_right_hardware() {
        assert_eq!(OpenMp::nvidia_system().device().profile().vendor, Vendor::Nvidia);
        assert_eq!(OpenMp::amd_system().device().profile().vendor, Vendor::Amd);
        assert_eq!(OpenMp::nvidia_system().toolchain(), Toolchain::ClangOpenmp);
    }

    #[test]
    fn clones_share_state() {
        let a = OpenMp::test_system();
        let b = a.clone();
        a.quirks().set("k", crate::quirks::QuirkSet { thread_cap: Some(8), ..Default::default() });
        assert_eq!(b.quirks().get("k").thread_cap, Some(8));
    }

    #[test]
    fn multi_device_node() {
        let omp = OpenMp::test_system().with_extra_devices(vec![
            Device::new(DeviceProfile::test_small()),
            Device::new(DeviceProfile::a100()),
        ]);
        assert_eq!(omp.num_devices(), 3);
        assert_eq!(omp.device_n(0).id(), omp.device().id());
        assert_ne!(omp.device_n(1).id(), omp.device_n(2).id());
        assert_eq!(omp.device_n(2).profile().vendor, Vendor::Nvidia);

        // Cross-device copy bounces through the host with 2x transfer cost.
        let src = omp.device_n(1).alloc_from(&[1.0f32, 2.0, 3.0]);
        let dst = omp.device_n(2).alloc::<f32>(3);
        let t = omp.target_memcpy_cross(2, &dst, 1, &src, 3);
        assert_eq!(dst.to_vec(), vec![1.0, 2.0, 3.0]);
        let one_way = omp.device_n(1).profile().transfer_seconds(12);
        assert!(t > one_way, "cross-device copy must cost more than one transfer");

        // Data environments bind to their device.
        let env = omp.target_data_on(2);
        assert_eq!(env.device().id(), omp.device_n(2).id());
    }

    #[test]
    fn defaults_and_icv_environment_overrides() {
        // One test for both behaviours so the env mutation cannot race a
        // sibling test reading the same variables.
        let o = OpenMp::nvidia_system();
        assert_eq!(o.default_teams(), 108 * 4);
        assert_eq!(o.default_threads(), 128);

        // The ICVs are read at runtime construction, like `libomp` startup.
        unsafe {
            std::env::set_var("OMP_NUM_TEAMS", "33");
            std::env::set_var("OMP_TEAMS_THREAD_LIMIT", "99999");
        }
        let o = OpenMp::test_system();
        unsafe {
            std::env::remove_var("OMP_NUM_TEAMS");
            std::env::remove_var("OMP_TEAMS_THREAD_LIMIT");
        }
        assert_eq!(o.default_teams(), 33);
        // Clamped to the device's max threads per block.
        assert_eq!(o.default_threads(), o.device().profile().max_threads_per_block);
    }
}
