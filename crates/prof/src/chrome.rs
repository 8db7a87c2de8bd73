//! Multi-track Chrome/Perfetto trace export.
//!
//! Converts a [`Span`] list into the Trace Event JSON format that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! render: one `pid 0` process with a named thread per track — `tid 0`
//! the host thread, `tid 1` the hidden helper threads, `tid 10 + k` the
//! k-th stream (in first-appearance order) — `ph:"X"` duration events for
//! spans (timestamps in microseconds of *modeled* time), and `ph:"s"` /
//! `ph:"f"` flow arrows from a `nowait` submission to the work it
//! enqueued. Byte counts ride in `args`, so memcpy bars show their sizes.
//!
//! This supersedes the flat launch-order export in
//! [`ompx_sim::trace::Trace::to_chrome_trace`], which has no notion
//! of time or concurrency.

use ompx_sim::span::{Span, Track};
use ompx_telemetry::json_escape;

const HOST_TID: u32 = 0;
const TASKS_TID: u32 = 1;
const STREAM_TID_BASE: u32 = 10;
/// Pool-device tracks (`ompx-serve`) sit above the stream range so a trace
/// with both keeps stable ids: `tid 1000 + member index`.
const DEVICE_TID_BASE: u32 = 1000;

/// Stable tid assignment: host and tasks are fixed, streams get
/// `STREAM_TID_BASE + k` by order of first appearance in the span list.
fn tid_of(track: &Track, stream_order: &[u64]) -> u32 {
    match track {
        Track::Host => HOST_TID,
        Track::Tasks => TASKS_TID,
        Track::Stream(id) => {
            let k = stream_order.iter().position(|s| s == id).unwrap_or(0);
            STREAM_TID_BASE + k as u32
        }
        Track::Device(member) => DEVICE_TID_BASE + *member as u32,
    }
}

/// Render `spans` as a Chrome trace-event JSON document.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut stream_order: Vec<u64> = Vec::new();
    let mut device_order: Vec<usize> = Vec::new();
    let mut saw_tasks = false;
    for s in spans {
        match s.track {
            Track::Stream(id) => {
                if !stream_order.contains(&id) {
                    stream_order.push(id);
                }
            }
            Track::Device(member) => {
                if !device_order.contains(&member) {
                    device_order.push(member);
                }
            }
            Track::Tasks => saw_tasks = true,
            Track::Host => {}
        }
    }
    device_order.sort_unstable();

    let mut events: Vec<String> = Vec::new();
    // Thread-name metadata first, so viewers label tracks before any event.
    events.push(meta_thread_name(HOST_TID, "host (modeled time)"));
    if saw_tasks {
        events.push(meta_thread_name(TASKS_TID, "hidden helper threads (nowait tasks)"));
    }
    for (k, id) in stream_order.iter().enumerate() {
        events.push(meta_thread_name(
            STREAM_TID_BASE + k as u32,
            &format!("stream {id} (interop obj)"),
        ));
    }
    for member in &device_order {
        events.push(meta_thread_name(
            DEVICE_TID_BASE + *member as u32,
            &format!("pool device {member}"),
        ));
    }

    for s in spans {
        let tid = tid_of(&s.track, &stream_order);
        let ts_us = s.start_s * 1e6;
        let dur_us = s.dur_s * 1e6;
        let trace_arg = match s.trace {
            Some(id) => format!(",\"trace\":{id}"),
            None => String::new(),
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.6},\"dur\":{:.6},\"args\":{{\"bytes\":{}{}}}}}",
            json_escape(&s.name),
            s.cat.label(),
            tid,
            ts_us,
            dur_us,
            s.bytes,
            trace_arg
        ));
        // Flow arrows: tail ("s") rides at the end of the emitting span,
        // head ("f", bp:"e") binds to the enclosing receiving slice.
        if let Some(id) = s.flow_out {
            events.push(format!(
                "{{\"name\":\"nowait\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{:.6}}}",
                id,
                tid,
                ts_us + dur_us
            ));
        }
        if let Some(id) = s.flow_in {
            events.push(format!(
                "{{\"name\":\"nowait\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{:.6}}}",
                id,
                tid,
                ts_us + dur_us * 0.5
            ));
        }
    }

    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn meta_thread_name(tid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
        tid,
        json_escape(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::span::SpanCategory;

    fn span(track: Track, name: &str, flow_out: Option<u64>, flow_in: Option<u64>) -> Span {
        Span {
            track,
            name: name.to_string(),
            cat: SpanCategory::Kernel,
            start_s: 1e-6,
            dur_s: 2e-6,
            bytes: 64,
            flow_in,
            flow_out,
            trace: None,
        }
    }

    #[test]
    fn tracks_get_named_tids() {
        let spans = vec![
            span(Track::Host, "submit", Some(1), None),
            span(Track::Stream(42), "k", None, Some(1)),
            span(Track::Stream(7), "k2", None, None),
            span(Track::Tasks, "t", None, None),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.contains("\"name\":\"host (modeled time)\""));
        assert!(json.contains("\"name\":\"stream 42 (interop obj)\""));
        assert!(json.contains("\"name\":\"stream 7 (interop obj)\""));
        assert!(json.contains("hidden helper threads"));
        // First-seen stream gets tid 10, next tid 11.
        assert!(json.contains("\"tid\":10,\"args\":{\"name\":\"stream 42"));
        assert!(json.contains("\"tid\":11,\"args\":{\"name\":\"stream 7"));
    }

    #[test]
    fn flow_arrows_pair_s_and_f_on_the_same_id() {
        let spans = vec![
            span(Track::Host, "submit", Some(9), None),
            span(Track::Stream(1), "k", None, Some(9)),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.contains("\"ph\":\"s\",\"id\":9"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":9"));
    }

    #[test]
    fn names_are_escaped_and_bytes_carried() {
        let mut s = span(Track::Host, "memcpy \"H2D\"", None, None);
        s.bytes = 4096;
        let json = to_chrome_trace(&[s]);
        assert!(json.contains("memcpy \\\"H2D\\\""));
        assert!(json.contains("\"args\":{\"bytes\":4096}"));
    }

    #[test]
    fn trace_ids_ride_in_args() {
        let mut s = span(Track::Device(0), "batch", None, None);
        s.trace = Some(17);
        let json = to_chrome_trace(&[s]);
        assert!(json.contains("\"args\":{\"bytes\":64,\"trace\":17}"));
    }
}
