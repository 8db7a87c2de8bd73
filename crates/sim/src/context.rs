//! Run context: the tool sinks a device reports into.
//!
//! The paper's host API hands the runtime every queue as an explicit
//! object (§3.5, `depend(interopobj: obj)`); the tooling follows the same
//! rule. A [`RunContext`] bundles the optional sinks of one tooled run —
//! sanitizer session, memory trace, fault state with its kernel
//! write-set hints, profiler span log, and metric registry — plus the
//! executor's worker count, and a [`Device`] takes it when it is created
//! and keeps it for its lifetime.
//! Every hook (launch, memcpy, allocation, retry, fallback, span
//! emission) reads the sink from the device it operates on; with nothing
//! attached a hook costs one field read.
//!
//! Harnesses whose programs build their own devices (the HeCBench apps
//! construct their runtimes inside `run`) hand the context over with
//! [`RunContext::scope`]: for the duration of the closure it is the
//! calling thread's *current* context, which [`Device::new`] — and
//! nothing else — reads. Scopes nest, and an inner scope inherits every
//! field it leaves unset, so a sanitized run inside a span-logged one
//! records into both. Scopes are per thread: two tooled runs on two
//! threads never see each other's sinks.
//!
//! A scope also numbers the run: allocation ids (the sanitizer's
//! `alloc#N` labels) and stream ids (profiler tracks) come from the
//! context's [`IdSpace`], fresh for every top-level scope, so a run's
//! output does not depend on what else the process ran before or runs
//! beside it.
//!
//! [`Device`]: crate::device::Device
//! [`Device::new`]: crate::device::Device::new

use crate::fault::FaultState;
use crate::memtrace::MemTrace;
use crate::san::SanState;
use crate::span::SpanLog;
use ompx_telemetry::MetricRegistry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// `(kernel name, written global-buffer labels)` hint pairs: a watchdog
/// checkpoint snapshots only the buffers the killed kernel could have
/// dirtied (see [`crate::device::Device::set_kernel_write_set`]).
pub type WriteSets = Vec<(String, Vec<String>)>;

/// The tool sinks of one run. Every field is optional; `Default` is the
/// untooled run.
#[derive(Clone, Default)]
pub struct RunContext {
    /// Sanitizer session every launch and allocation reports into.
    pub sanitizer: Option<Arc<SanState>>,
    /// Memory-access trace every launch records into (analyzer replay).
    pub mem_trace: Option<Arc<MemTrace>>,
    /// Fault-injection state rolled by allocations, memcpys, launches and
    /// stream synchronizations.
    pub faults: Option<Arc<FaultState>>,
    /// Kernel write-set hints copied onto every device.
    pub write_sets: Option<Arc<WriteSets>>,
    /// Profiler timeline the language runtimes record spans into.
    pub span_log: Option<Arc<SpanLog>>,
    /// Metric registry the substrate and the serving layer count into.
    pub metrics: Option<Arc<MetricRegistry>>,
    /// Allocation and stream id counters. A top-level scope that leaves
    /// this unset starts a fresh space.
    pub ids: Option<Arc<IdSpace>>,
    /// Executor worker threads per launch (see
    /// [`crate::device::Device::set_sim_workers`]); `Some(1)` is the
    /// reference serial mode. Unset, devices use
    /// [`crate::exec::default_workers`].
    pub workers: Option<usize>,
}

/// Allocation and stream id counters shared by the devices of one run.
/// Devices created outside any scope draw from one process-wide space.
#[derive(Default)]
pub struct IdSpace {
    allocs: AtomicUsize,
    streams: AtomicU64,
}

impl IdSpace {
    /// The space of devices created outside any scope.
    pub(crate) fn process() -> &'static IdSpace {
        static PROCESS: IdSpace =
            IdSpace { allocs: AtomicUsize::new(0), streams: AtomicU64::new(0) };
        &PROCESS
    }

    /// Next allocation id (ids start at 1).
    pub(crate) fn next_alloc(&self) -> usize {
        self.allocs.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Next stream id (ids start at 1).
    pub(crate) fn next_stream(&self) -> u64 {
        self.streams.fetch_add(1, Ordering::Relaxed) + 1
    }
}

thread_local! {
    static CURRENT: RefCell<RunContext> = RefCell::default();
}

impl RunContext {
    /// Run `f` with this context as the calling thread's current one, so
    /// every [`crate::device::Device::new`] inside `f` takes it. Fields
    /// left `None` inherit from the enclosing scope; the enclosing
    /// context is restored when `f` returns or unwinds.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        /// Restores the enclosing context, also on unwind.
        struct Restore(RunContext);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = std::mem::take(&mut self.0));
            }
        }
        let outer = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let merged = RunContext {
                sanitizer: self.sanitizer.or_else(|| cur.sanitizer.clone()),
                mem_trace: self.mem_trace.or_else(|| cur.mem_trace.clone()),
                faults: self.faults.or_else(|| cur.faults.clone()),
                write_sets: self.write_sets.or_else(|| cur.write_sets.clone()),
                span_log: self.span_log.or_else(|| cur.span_log.clone()),
                metrics: self.metrics.or_else(|| cur.metrics.clone()),
                ids: self.ids.or_else(|| cur.ids.clone()).or_else(|| Some(Arc::default())),
                workers: self.workers.or(cur.workers),
            };
            std::mem::replace(&mut *cur, merged)
        });
        let _restore = Restore(outer);
        f()
    }

    /// The calling thread's current context. Read by `Device::new` only.
    pub(crate) fn current() -> RunContext {
        CURRENT.with(|c| c.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};

    #[test]
    fn inner_scopes_inherit_unset_fields_and_restore_on_exit() {
        let log = SpanLog::new();
        let reg = MetricRegistry::new();
        RunContext { span_log: Some(Arc::clone(&log)), ..Default::default() }.scope(|| {
            RunContext { metrics: Some(Arc::clone(&reg)), ..Default::default() }.scope(|| {
                let d = Device::new(DeviceProfile::test_small());
                assert!(d.span_log().is_some_and(|l| std::ptr::eq(l, &*log)));
                assert!(d.metrics().is_some_and(|m| std::ptr::eq(m, &*reg)));
                RunContext { workers: Some(3), ..Default::default() }.scope(|| {
                    assert_eq!(Device::new(DeviceProfile::test_small()).sim_workers(), 3);
                });
            });
            let d = Device::new(DeviceProfile::test_small());
            assert!(d.span_log().is_some());
            assert!(d.metrics().is_none());
        });
        let d = Device::new(DeviceProfile::test_small());
        assert!(d.span_log().is_none() && d.metrics().is_none());
    }

    #[test]
    fn scopes_are_per_thread() {
        let log = SpanLog::new();
        RunContext { span_log: Some(log), ..Default::default() }.scope(|| {
            let other = std::thread::spawn(|| Device::new(DeviceProfile::test_small()))
                .join()
                .expect("device on another thread");
            assert!(other.span_log().is_none());
        });
    }
}
