//! Host APIs (§3.4): direct device interaction, CUDA-runtime style.
//!
//! OpenMP's directive-based data management automates most transfers, but
//! ported kernel-language programs expect explicit calls. Following the
//! user-facing API layer of Doerfert et al. (PACT'22 — "Breaking the
//! Vendor Lock"), the extensions expose `ompx_` host functions mapping
//! 1:1 onto the CUDA runtime's:
//!
//! | CUDA | ompx |
//! |---|---|
//! | `cudaMalloc` | [`ompx_malloc`] |
//! | `cudaFree` | [`ompx_free`] |
//! | `cudaMemcpy(H2D)` | [`ompx_memcpy_h2d`] |
//! | `cudaMemcpy(D2H)` | [`ompx_memcpy_d2h`] |
//! | `cudaMemcpy(D2D)` | [`ompx_memcpy_d2d`] |
//! | `cudaMemset` | [`ompx_memset`] |
//! | `cudaDeviceSynchronize` | [`ompx_device_synchronize`] |
//! | `cudaStreamCreate` | interop objects ([`crate::interop_depend`]) |

use ompx_hostrt::error::classify;
use ompx_hostrt::{OmpxError, OpenMp};
use ompx_sim::error::{SimError, SimResult};
use ompx_sim::fault::run_with_retry;
use ompx_sim::mem::{DBuf, DeviceScalar};
use ompx_sim::span::SpanCategory;

/// Record a host-API call on the profiler's host track, if the device has
/// a span log. Transfers get their modeled PCIe duration so the timeline
/// shows H2D/D2H bars whose width is the transfer time and whose args
/// carry the byte count.
fn host_span(omp: &OpenMp, name: &str, cat: SpanCategory, bytes: usize) {
    if let Some(log) = omp.device().span_log() {
        let dur = match cat {
            SpanCategory::MemcpyH2D | SpanCategory::MemcpyD2H | SpanCategory::MemcpyD2D => {
                omp.device().profile().transfer_seconds(bytes)
            }
            _ => 0.0,
        };
        log.host_op(name, cat, dur, bytes as u64);
    }
}

/// Run a fallible device operation under the runtime's retry policy and
/// produce the typed host-API error on failure.
fn retried<T>(omp: &OpenMp, op: &str, f: impl FnMut() -> SimResult<T>) -> Result<T, OmpxError> {
    let policy = omp.device().retry_policy();
    run_with_retry(omp.device(), &policy, op, f).map_err(|e| classify(&policy, op, e))
}

/// Degrade an infallible-wrapper call after its `try_` variant failed on
/// an *injected* fault: record the degradation and let the caller redo the
/// operation outside the fault gate. Non-injected errors (size mismatch,
/// genuine exhaustion) keep the historical panic — host-program misuse,
/// per the error policy in ompx-sim's error.rs.
fn degrade_or_panic(omp: &OpenMp, op: &str, e: OmpxError) {
    let e = e.into_sim();
    if e.is_injected() {
        omp.device().note_degraded(&format!("{op}: {e}"));
    } else {
        panic!("{op}: {e}");
    }
}

/// `ompx_get_last_error` — take and clear the last device error (CUDA's
/// `cudaGetLastError` analogue). Sticky errors — device loss — are
/// reported but *not* cleared.
pub fn ompx_get_last_error(omp: &OpenMp) -> Option<SimError> {
    omp.ompx_get_last_error()
}

/// `ompx_peek_last_error` — inspect the last device error without
/// clearing it (`cudaPeekAtLastError` analogue).
pub fn ompx_peek_last_error(omp: &OpenMp) -> Option<SimError> {
    omp.ompx_peek_last_error()
}

/// `ompx_malloc` — allocate `n` zero-initialized device elements.
///
/// Infallible wrapper: retries and degradation happen inside
/// [`ompx_sim::device::Device::alloc`]; use [`ompx_try_malloc`] for the
/// typed error.
pub fn ompx_malloc<T: DeviceScalar>(omp: &OpenMp, n: usize) -> DBuf<T> {
    let buf = omp.device().alloc(n);
    host_span(omp, "ompx_malloc", SpanCategory::HostOp, buf.size_bytes());
    buf
}

/// Fallible `ompx_malloc`: transient faults are retried under the
/// runtime's policy; persistent failure returns the typed error instead
/// of degrading.
pub fn ompx_try_malloc<T: DeviceScalar>(omp: &OpenMp, n: usize) -> Result<DBuf<T>, OmpxError> {
    let buf = retried(omp, "ompx_malloc", || omp.device().try_alloc(n))?;
    host_span(omp, "ompx_malloc", SpanCategory::HostOp, buf.size_bytes());
    Ok(buf)
}

/// Allocate and copy in (`ompx_malloc` + `ompx_memcpy_h2d`).
pub fn ompx_malloc_from<T: DeviceScalar>(omp: &OpenMp, data: &[T]) -> DBuf<T> {
    let buf = omp.device().alloc_from(data);
    host_span(omp, "ompx_malloc_from", SpanCategory::MemcpyH2D, buf.size_bytes());
    buf
}

/// `ompx_free`.
pub fn ompx_free<T: DeviceScalar>(omp: &OpenMp, buf: &DBuf<T>) {
    omp.device().free(buf);
    host_span(omp, "ompx_free", SpanCategory::HostOp, buf.size_bytes());
}

/// `ompx_memcpy` host → device. Like the PACT'22 host API (and unlike
/// `cudaMemcpy`), the runtime handle is explicit.
///
/// Infallible wrapper over [`ompx_try_memcpy_h2d`]: injected faults that
/// outlive the retry budget degrade to a raw copy (memcpy injection is
/// idempotent — recopying repairs any corruption) rather than failing.
pub fn ompx_memcpy_h2d<T: DeviceScalar>(omp: &OpenMp, dst: &DBuf<T>, src: &[T]) {
    if let Err(e) = ompx_try_memcpy_h2d(omp, dst, src) {
        degrade_or_panic(omp, "ompx_memcpy H2D", e);
        dst.copy_from_host(src);
        host_span(omp, "ompx_memcpy H2D", SpanCategory::MemcpyH2D, std::mem::size_of_val(src));
    }
}

/// Fallible `ompx_memcpy` host → device with the typed error.
pub fn ompx_try_memcpy_h2d<T: DeviceScalar>(
    omp: &OpenMp,
    dst: &DBuf<T>,
    src: &[T],
) -> Result<(), OmpxError> {
    retried(omp, "ompx_memcpy H2D", || omp.device().try_memcpy_h2d(dst, src))?;
    host_span(omp, "ompx_memcpy H2D", SpanCategory::MemcpyH2D, std::mem::size_of_val(src));
    Ok(())
}

/// `ompx_memcpy` device → host (infallible wrapper over
/// [`ompx_try_memcpy_d2h`]; see [`ompx_memcpy_h2d`] for the degradation
/// rules).
pub fn ompx_memcpy_d2h<T: DeviceScalar>(omp: &OpenMp, dst: &mut [T], src: &DBuf<T>) {
    if let Err(e) = ompx_try_memcpy_d2h(omp, dst, src) {
        degrade_or_panic(omp, "ompx_memcpy D2H", e);
        src.copy_to_host(dst);
        host_span(omp, "ompx_memcpy D2H", SpanCategory::MemcpyD2H, std::mem::size_of_val(dst));
    }
}

/// Fallible `ompx_memcpy` device → host with the typed error.
pub fn ompx_try_memcpy_d2h<T: DeviceScalar>(
    omp: &OpenMp,
    dst: &mut [T],
    src: &DBuf<T>,
) -> Result<(), OmpxError> {
    retried(omp, "ompx_memcpy D2H", || omp.device().try_memcpy_d2h(src, dst))?;
    host_span(omp, "ompx_memcpy D2H", SpanCategory::MemcpyD2H, std::mem::size_of_val(dst));
    Ok(())
}

/// `ompx_memcpy` device → device (infallible wrapper over
/// [`ompx_try_memcpy_d2d`]).
pub fn ompx_memcpy_d2d<T: DeviceScalar>(omp: &OpenMp, dst: &DBuf<T>, src: &DBuf<T>, n: usize) {
    if let Err(e) = ompx_try_memcpy_d2d(omp, dst, src, n) {
        degrade_or_panic(omp, "ompx_memcpy D2D", e);
        dst.copy_from_device(src, n);
        host_span(omp, "ompx_memcpy D2D", SpanCategory::MemcpyD2D, n * std::mem::size_of::<T>());
    }
}

/// Fallible `ompx_memcpy` device → device with the typed error.
pub fn ompx_try_memcpy_d2d<T: DeviceScalar>(
    omp: &OpenMp,
    dst: &DBuf<T>,
    src: &DBuf<T>,
    n: usize,
) -> Result<(), OmpxError> {
    retried(omp, "ompx_memcpy D2D", || omp.device().try_memcpy_d2d(dst, src, n))?;
    host_span(omp, "ompx_memcpy D2D", SpanCategory::MemcpyD2D, n * std::mem::size_of::<T>());
    Ok(())
}

/// `ompx_memset` (typed fill).
pub fn ompx_memset<T: DeviceScalar>(omp: &OpenMp, buf: &DBuf<T>, v: T) {
    buf.fill(v);
    host_span(omp, "ompx_memset", SpanCategory::HostOp, buf.size_bytes());
}

/// `ompx_device_synchronize` — drain every stream on the device.
pub fn ompx_device_synchronize(omp: &OpenMp) {
    omp.device().synchronize();
    host_span(omp, "ompx_device_synchronize", SpanCategory::Sync, 0);
}

/// `ompx_register_write_set` — install the write-set hint for `kernel`:
/// the diagnostic labels of the buffers it may write (analyzer
/// access-summary data). A watchdog checkpoint then snapshots only those
/// buffers instead of every live allocation — see
/// [`ompx_restore_watchdog_checkpoint`].
pub fn ompx_register_write_set<S: AsRef<str>>(omp: &OpenMp, kernel: &str, labels: &[S]) {
    omp.device().set_kernel_write_set(kernel, labels);
}

/// `ompx_restore_watchdog_checkpoint` — restore the pre-launch checkpoint
/// taken when an injected watchdog timeout killed `kernel` mid-run,
/// erasing its partially committed block prefix. Returns whether a
/// checkpoint was pending. Programs hand-rolling their own re-dispatch
/// after a `WatchdogTimeout` error call this before re-launching; the
/// language runtimes' degraded/fallback paths restore implicitly.
pub fn ompx_restore_watchdog_checkpoint(omp: &OpenMp, kernel: &str) -> bool {
    let restored = omp.device().restore_checkpoint(kernel);
    if restored {
        host_span(omp, "ompx_restore_watchdog_checkpoint", SpanCategory::Fallback, 0);
    }
    restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_hostrt::KnownIssues;
    use ompx_klang::toolchain::Toolchain;
    use ompx_sim::device::{Device, DeviceProfile};

    fn omp() -> OpenMp {
        OpenMp::with_device(
            Device::new(DeviceProfile::test_small()),
            Toolchain::OmpxPrototype,
            KnownIssues::new(),
        )
    }

    #[test]
    fn malloc_memcpy_free_cycle() {
        let omp = omp();
        let before = omp.device().allocated_bytes();
        let buf = ompx_malloc::<f32>(&omp, 16);
        ompx_memcpy_h2d(&omp, &buf, &[1.0, 2.0, 3.0]);
        let mut out = vec![0.0f32; 3];
        ompx_memcpy_d2h(&omp, &mut out, &buf);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        ompx_free(&omp, &buf);
        assert_eq!(omp.device().allocated_bytes(), before);
    }

    #[test]
    fn d2d_and_memset() {
        let omp = omp();
        let a = ompx_malloc_from(&omp, &[5u32, 6, 7]);
        let b = ompx_malloc::<u32>(&omp, 3);
        ompx_memcpy_d2d(&omp, &b, &a, 3);
        assert_eq!(b.to_vec(), vec![5, 6, 7]);
        ompx_memset(&omp, &b, 9);
        assert_eq!(b.to_vec(), vec![9, 9, 9]);
    }

    #[test]
    fn injected_transient_memcpy_recovers_via_retry() {
        use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultState};
        let omp = omp();
        let plan =
            FaultPlan::none().with_injection(FaultSite::MemcpyH2D, 0, FaultKind::MemcpyCorrupt);
        let faults = FaultState::new(plan);
        omp.device().attach_faults(std::sync::Arc::clone(&faults));
        let buf = ompx_try_malloc::<f32>(&omp, 4).unwrap();
        // First H2D hits the injected corruption; the retry re-copies and
        // repairs it, so the typed API still succeeds with correct data.
        ompx_try_memcpy_h2d(&omp, &buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let snap = faults.snapshot();
        assert_eq!(snap.recovered, 1, "the retry must be recorded as a recovery");
        assert!(ompx_peek_last_error(&omp).is_none(), "recovered faults are not sticky");
        omp.device().detach_faults();
    }

    #[test]
    fn exhausted_retries_surface_the_typed_error() {
        use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultState, RetryPolicy};
        let omp = omp();
        let plan = FaultPlan::none().with_injection(FaultSite::MemcpyD2H, 0, FaultKind::MemcpyFail);
        omp.device().attach_faults(FaultState::new(plan));
        // A budget of one attempt means the injected fault is terminal.
        omp.set_retry_policy(RetryPolicy { max_attempts: 1, backoff_base_s: 0.0 });
        let buf = ompx_malloc_from(&omp, &[7.0f32, 8.0]);
        let mut out = vec![0.0f32; 2];
        let err = ompx_try_memcpy_d2h(&omp, &mut out, &buf).unwrap_err();
        assert!(
            matches!(err, OmpxError::RetriesExhausted { attempts: 1, .. }),
            "expected RetriesExhausted, got {err}"
        );
        // The failure is recorded as the last error (cudaGetLastError
        // style): peek preserves it, get clears it (it is not sticky).
        assert!(ompx_peek_last_error(&omp).is_some());
        assert!(ompx_get_last_error(&omp).is_some());
        assert!(ompx_get_last_error(&omp).is_none());
        omp.device().detach_faults();
    }

    #[test]
    fn device_loss_degrades_wrappers_and_sticks() {
        use ompx_sim::fault::{FaultPlan, FaultState};
        let omp = omp();
        let buf = ompx_malloc_from(&omp, &[7.0f32, 8.0]);
        let faults = FaultState::new(FaultPlan::none().with_device_loss_at(0));
        omp.device().attach_faults(std::sync::Arc::clone(&faults));
        // The infallible wrapper degrades to a raw copy on the lost device.
        let mut out = vec![0.0f32; 2];
        ompx_memcpy_d2h(&omp, &mut out, &buf);
        assert_eq!(out, vec![7.0, 8.0]);
        assert!(!faults.snapshot().degraded.is_empty());
        // Device loss is sticky: get does not clear it.
        assert!(ompx_get_last_error(&omp).is_some());
        assert!(ompx_get_last_error(&omp).is_some(), "sticky errors survive get");
        omp.device().detach_faults();
    }

    #[test]
    fn watchdog_checkpoint_restores_partial_side_effects() {
        use ompx_sim::dim::LaunchConfig;
        use ompx_sim::exec::Kernel;
        use ompx_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultState};
        let omp = omp();
        let n = 64usize;
        let out = ompx_malloc::<u32>(&omp, n);
        out.set_label("out");
        ompx_register_write_set(&omp, "stamp", &["out"]);
        let kernel = Kernel::new("stamp", {
            let out = out.clone();
            move |tc| {
                let i = tc.global_thread_id_x();
                if i < n {
                    tc.write(&out, i, i as u32 + 1);
                }
            }
        });
        let baseline = out.to_vec();
        let plan = FaultPlan::none().with_injection(FaultSite::Launch, 0, FaultKind::Watchdog);
        omp.device().attach_faults(FaultState::new(plan));
        // The launch dies on the watchdog, leaving a committed block
        // prefix behind (seed 0 commits 10 of 16 blocks).
        let err = omp.device().launch(&kernel, LaunchConfig::new(16u32, 4u32)).unwrap_err();
        assert!(matches!(err, SimError::WatchdogTimeout { .. }), "got {err}");
        assert_ne!(out.to_vec(), baseline, "the partial prefix must be visible");
        // The host API rolls the dirty state back; re-dispatching from the
        // restored state gives the full fault-free result.
        assert!(ompx_restore_watchdog_checkpoint(&omp, "stamp"));
        assert_eq!(out.to_vec(), baseline, "restore must erase the partial prefix");
        assert!(!ompx_restore_watchdog_checkpoint(&omp, "stamp"), "checkpoint is consumed");
        omp.device().launch_unchecked(&kernel, LaunchConfig::new(16u32, 4u32)).unwrap();
        assert_eq!(out.to_vec(), (1..=n as u32).collect::<Vec<_>>());
        omp.device().detach_faults();
    }

    #[test]
    fn size_mismatch_is_a_typed_error_not_a_panic() {
        let omp = omp();
        let buf = ompx_try_malloc::<u32>(&omp, 2).unwrap();
        let err = ompx_try_memcpy_h2d(&omp, &buf, &[1u32, 2, 3]).unwrap_err();
        assert!(matches!(err, OmpxError::Device(SimError::SizeMismatch { .. })), "got {err}");
    }

    #[test]
    fn device_synchronize_flushes_interop_streams() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let omp = omp();
        let obj = ompx_hostrt::InteropObj::init_targetsync(&omp);
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        obj.enqueue(move || d.store(true, Ordering::SeqCst));
        ompx_device_synchronize(&omp);
        assert!(done.load(Ordering::SeqCst));
    }
}
