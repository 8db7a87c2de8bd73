//! Launch tracing: a per-device record of every kernel execution.
//!
//! The real systems in the paper are profiled with `nsys`/`rocprof`; this
//! module is the simulator's equivalent. When tracing is enabled on a
//! [`crate::device::Device`], every launch appends a [`LaunchRecord`]
//! (kernel name, geometry, counted events, and — once the language runtime
//! reports it — the modeled duration). The trace can be inspected
//! programmatically or exported in the Chrome trace-event format
//! (`chrome://tracing`, Perfetto) for visual inspection.

use crate::counters::StatsSnapshot;
use crate::dim::Dim3;
use parking_lot::Mutex;

/// One kernel execution, as recorded by the tracer.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Kernel name.
    pub kernel: String,
    /// Grid extent.
    pub grid: Dim3,
    /// Block extent.
    pub block: Dim3,
    /// Counted events.
    pub stats: StatsSnapshot,
    /// Modeled seconds. Raw `Device::launch` calls fill this with a
    /// default-codegen, no-overhead model of their own stats (so every
    /// record has a usable duration); language runtimes then overwrite it
    /// with their toolchain- and mode-aware value via
    /// [`Trace::attribute_model`].
    pub modeled_seconds: f64,
    /// True once a language runtime has overwritten `modeled_seconds`
    /// with its toolchain/mode-aware model.
    pub runtime_attributed: bool,
}

/// A launch trace: shared, thread-safe, append-only.
#[derive(Default)]
pub struct Trace {
    records: Mutex<Vec<LaunchRecord>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn record(&self, rec: LaunchRecord) {
        self.records.lock().push(rec);
    }

    /// Attach a language runtime's modeled duration to the most recent
    /// record of `kernel` that only carries the device's default model
    /// (language runtimes model after launch, with the real codegen
    /// profile and execution-mode overheads).
    pub fn attribute_model(&self, kernel: &str, seconds: f64) {
        let mut recs = self.records.lock();
        if let Some(r) = recs.iter_mut().rev().find(|r| r.kernel == kernel && !r.runtime_attributed)
        {
            r.modeled_seconds = seconds;
            r.runtime_attributed = true;
        }
    }

    /// Number of recorded launches.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<LaunchRecord> {
        self.records.lock().clone()
    }

    /// Clear the trace.
    pub fn clear(&self) {
        self.records.lock().clear();
    }

    /// Export as Chrome trace-event JSON (open in `chrome://tracing` or
    /// Perfetto). Records are laid out back-to-back on one serialized
    /// launch-order track using their modeled durations (every record has
    /// one now that raw launches model their own stats); the modeled
    /// seconds are included in each event's `args`.
    ///
    /// This is the quick launch-order view. The *timeline* view — host
    /// track, one track per stream, flow arrows, memcpy bars — is built by
    /// `ompx-prof` from [`crate::span::SpanLog`] events.
    pub fn to_chrome_trace(&self) -> String {
        let recs = self.records.lock();
        let mut out = String::from("[\n");
        out.push_str(concat!(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,",
            "\"args\":{\"name\":\"launches (serialized order)\"}}"
        ));
        out.push_str(if recs.is_empty() { "\n" } else { ",\n" });
        let mut cursor_us = 0.0f64;
        for (i, r) in recs.iter().enumerate() {
            let dur_us = if r.modeled_seconds > 0.0 { r.modeled_seconds * 1e6 } else { 1.0 };
            let comma = if i + 1 < recs.len() { "," } else { "" };
            out.push_str(&format!(
                concat!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},",
                    "\"pid\":0,\"tid\":0,\"args\":{{\"grid\":\"{}x{}x{}\",",
                    "\"block\":\"{}x{}x{}\",\"flops\":{},\"global_bytes\":{},",
                    "\"modeled_seconds\":{:e},\"runtime_attributed\":{}}}}}{}\n"
                ),
                ompx_telemetry::json_escape(&r.kernel),
                cursor_us,
                dur_us,
                r.grid.x,
                r.grid.y,
                r.grid.z,
                r.block.x,
                r.block.y,
                r.block.z,
                r.stats.flops,
                r.stats.global_bytes(),
                r.modeled_seconds,
                r.runtime_attributed,
                comma
            ));
            cursor_us += dur_us;
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str) -> LaunchRecord {
        LaunchRecord {
            kernel: name.to_string(),
            grid: Dim3::x(4),
            block: Dim3::x(64),
            stats: StatsSnapshot { flops: 100, ..Default::default() },
            modeled_seconds: 0.0,
            runtime_attributed: false,
        }
    }

    #[test]
    fn records_accumulate_in_order() {
        let t = Trace::new();
        assert!(t.is_empty());
        t.record(rec("a"));
        t.record(rec("b"));
        assert_eq!(t.len(), 2);
        let names: Vec<_> = t.records().into_iter().map(|r| r.kernel).collect();
        assert_eq!(names, vec!["a", "b"]);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn model_attribution_hits_latest_unmodeled() {
        let t = Trace::new();
        t.record(rec("k"));
        t.record(rec("k"));
        t.attribute_model("k", 1e-3);
        let recs = t.records();
        // The most recent unmodeled record got the time.
        assert_eq!(recs[1].modeled_seconds, 1e-3);
        assert_eq!(recs[0].modeled_seconds, 0.0);
        t.attribute_model("k", 2e-3);
        assert_eq!(t.records()[0].modeled_seconds, 2e-3);
    }

    #[test]
    fn attribution_overwrites_the_device_default_model() {
        // Raw launches now self-model (nonzero seconds, not runtime
        // attributed); a language runtime's later attribution must replace
        // that default rather than skip the record.
        let t = Trace::new();
        let mut r = rec("k");
        r.modeled_seconds = 7e-6;
        t.record(r);
        t.attribute_model("k", 3e-6);
        let recs = t.records();
        assert_eq!(recs[0].modeled_seconds, 3e-6);
        assert!(recs[0].runtime_attributed);
        // A second attribution finds nothing left to claim.
        t.attribute_model("k", 9e-6);
        assert_eq!(t.records()[0].modeled_seconds, 3e-6);
    }

    #[test]
    fn chrome_trace_is_wellformed_enough() {
        let t = Trace::new();
        let mut r = rec("kernel \"quoted\"");
        r.modeled_seconds = 5e-6;
        t.record(r);
        t.record(rec("plain"));
        let json = t.to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"dur\":5.000"));
        // Two events, one comma.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
