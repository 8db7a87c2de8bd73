//! The stream-overlap probe.
//!
//! The HeCBench ports are single-stream programs, so a profile of them
//! alone would never exercise the multi-track timeline. The probe runs the
//! paper's §3.5 idiom — two `ompx_bare` kernels dispatched `nowait
//! depend(interopobj:)` into two independent interop objects — and
//! reports how much the modeled timelines overlapped. It serves two
//! purposes: every profile report carries a genuine multi-stream trace
//! (host track, two stream tracks, flow arrows), and the overlap/serial
//! ratio is a regression canary for the stream machinery itself (if
//! dispatch ever serializes, the speedup collapses to ~1).

use ompx::bare::BareTarget;
use ompx::interop_depend::{launch_nowait_interopobj, taskwait_interopobj};
use ompx::{InteropObj, OpenMp};
use ompx_hostrt::target::PreparedTarget;
use ompx_sim::stream::StreamStats;

/// What the probe measured, all in modeled seconds.
#[derive(Debug, Clone)]
pub struct OverlapReport {
    /// Both kernels through ONE stream: busy time is the sum.
    pub serial_s: f64,
    /// One kernel per stream: makespan is the max of the two busy times.
    pub overlap_s: f64,
    /// `serial_s / overlap_s` — ~2 for two equal kernels on independent
    /// streams, ~1 if dispatch degenerates to serialization.
    pub speedup: f64,
    /// Per-stream counters of the two overlap streams.
    pub stream_stats: Vec<StreamStats>,
}

fn probe_kernel(omp: &OpenMp, name: &str) -> PreparedTarget {
    let n = 1usize << 14;
    let buf = omp.device().alloc::<f32>(n);
    BareTarget::new(omp, name).num_teams([16u32]).thread_limit([128u32]).prepare(move |tc| {
        let i = tc.global_thread_id_x();
        if i < n {
            let x = i as f32;
            tc.write(&buf, i, x * 1.5 + 2.0);
        }
    })
}

/// Run the probe on `omp`'s device. Spans land in the device's
/// [`ompx_sim::span::SpanLog`], if it has one.
pub fn overlap_probe(omp: &OpenMp) -> OverlapReport {
    let k1 = probe_kernel(omp, "probe_k1");
    let k2 = probe_kernel(omp, "probe_k2");

    // Serial leg: both kernels through one stream.
    let serial = InteropObj::init_targetsync(omp);
    launch_nowait_interopobj(&k1, &serial);
    launch_nowait_interopobj(&k2, &serial);
    taskwait_interopobj(&serial);
    let serial_s = serial.modeled_busy_seconds();

    // Overlap leg: one kernel per stream.
    let a = InteropObj::init_targetsync(omp);
    let b = InteropObj::init_targetsync(omp);
    launch_nowait_interopobj(&k1, &a);
    launch_nowait_interopobj(&k2, &b);
    taskwait_interopobj(&a);
    taskwait_interopobj(&b);
    let overlap_s = a.modeled_busy_seconds().max(b.modeled_busy_seconds());

    OverlapReport {
        serial_s,
        overlap_s,
        speedup: serial_s / overlap_s.max(1e-30),
        stream_stats: vec![a.stream().stats(), b.stream().stats()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_hostrt::KnownIssues;
    use ompx_klang::toolchain::Toolchain;
    use ompx_sim::device::{Device, DeviceProfile};

    #[test]
    fn overlap_beats_serial_on_modeled_timelines() {
        let omp = OpenMp::with_device(
            Device::new(DeviceProfile::test_small()),
            Toolchain::OmpxPrototype,
            KnownIssues::new(),
        );
        let r = overlap_probe(&omp);
        assert!(r.serial_s > 0.0 && r.overlap_s > 0.0);
        // Two equal kernels: serial is the sum, overlap the max.
        assert!(r.speedup > 1.9 && r.speedup < 2.1, "speedup {}", r.speedup);
        assert_eq!(r.stream_stats.len(), 2);
        for s in &r.stream_stats {
            assert_eq!(s.submitted, s.completed);
            assert!(s.modeled_busy_s > 0.0);
        }
    }
}
