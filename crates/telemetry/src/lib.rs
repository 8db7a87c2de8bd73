//! # ompx-telemetry — deterministic metrics for the serving stack
//!
//! Production serving is flown on metrics: per-tenant latency
//! distributions, queue and batch health, fault and fallback rates. This
//! crate is the one telemetry layer the whole workspace records into — a
//! [`MetricRegistry`] of labeled counters, gauges, and log-linear
//! histograms ([`hist`]), with two byte-stable exporters ([`export`]):
//! Prometheus text exposition and a JSON snapshot.
//!
//! **Determinism is the contract.** Metrics measure *modeled* time and
//! seeded event streams, series iterate in sorted `(name, labels)` order,
//! and float formatting is fixed — so two identical seeded runs produce
//! bit-identical snapshots, which CI diffs directly. A metric here is as
//! reproducible as a checksum.
//!
//! A registry is passed, never installed: a harness hands it to the
//! simulator as one field of `ompx_sim`'s `RunContext`, every device
//! created in that context counts its launches, memcpys, injected faults
//! and sanitizer findings into it, and the serving layer records into the
//! registry its session holds. A device without a registry costs its hooks
//! one field read. `ompx-hecbench`'s `ChaosSession` creates a fresh
//! registry per session, so every chaos and serve run is metered without
//! further wiring. [`json_escape`] is the workspace's one JSON string
//! escaper; it lives here, at the bottom of the dependency graph.
//!
//! Family naming: `sim_*` (launches, memcpys), `fault_*` (injections and
//! recoveries by kind/site), `sanitizer_findings_total` / `findings_total`
//! (findings by tool and severity), `serve_*` (queue, batching,
//! backpressure, per-tenant latency), `resilience_*` (breaker
//! transitions, hedges, spare promotions, deadline misses, brownout
//! shedding). [`describe_base_families`]
//! pre-declares all of them so a snapshot always shows the full surface,
//! including families that stayed at rest.

pub mod export;
pub mod hist;
pub mod percentile;
pub mod registry;

pub use export::{json_escape, to_json, to_prometheus};
pub use hist::{LogLinearHistogram, DEFAULT_REL_ERR};
pub use percentile::percentile_interp;
pub use registry::{Labels, MetricKind, MetricRegistry, MetricValue, Sample, Snapshot};

/// Pre-declare every metric family the stack records, so exporters emit
/// the full surface (with `HELP`/`TYPE` headers) even for families a
/// particular run never touched — a fault-free serve snapshot still shows
/// the fault and sanitizer families at rest.
pub fn describe_base_families(reg: &MetricRegistry) {
    use MetricKind::{Counter, Gauge, Histogram};
    for (name, kind, help) in [
        ("sim_launches_total", Counter, "kernel launches executed by the simulator"),
        ("sim_launch_faults_total", Counter, "kernel launches failed by injection"),
        ("sim_memcpys_total", Counter, "memory transfers by direction"),
        ("sim_memcpy_bytes_total", Counter, "bytes moved by direction"),
        ("fault_injected_total", Counter, "fault episodes fired, by kind and site"),
        ("fault_recovered_total", Counter, "operations that failed then succeeded on retry"),
        ("fault_fallbacks_total", Counter, "target regions re-dispatched through host fallback"),
        ("fault_degraded_total", Counter, "operations completed unchecked past injection"),
        ("fault_sticky_total", Counter, "errors recorded as sticky device state"),
        ("sanitizer_findings_total", Counter, "dynamic sanitizer findings, by tool"),
        ("findings_total", Counter, "reported findings, by tool and severity"),
        ("serve_requests_total", Counter, "serve responses, by verdict, app, and version"),
        ("serve_shed_total", Counter, "requests shed by backpressure, by tenant"),
        ("serve_rehomed_total", Counter, "requests re-homed off a lost member"),
        ("serve_batches_total", Counter, "batches dispatched, by member and device kind"),
        ("serve_queue_depth", Gauge, "queued requests per member, as of last event"),
        ("serve_queue_depth_peak", Gauge, "high-water mark of the total backlog"),
        ("serve_busy_seconds", Gauge, "accumulated modeled busy seconds per member"),
        ("serve_batch_occupancy", Histogram, "requests coalesced per dispatched batch"),
        ("serve_latency_seconds", Histogram, "modeled request latency, by tenant"),
        ("serve_service_seconds", Histogram, "modeled batch service time, by app"),
        (
            "resilience_breaker_transitions_total",
            Counter,
            "circuit-breaker state changes, by member and edge",
        ),
        ("resilience_hedges_total", Counter, "hedged re-dispatches, by app and outcome"),
        ("resilience_spare_promotions_total", Counter, "warm spares promoted into the serving set"),
        (
            "resilience_deadline_miss_total",
            Counter,
            "completed requests that missed their deadline, by class",
        ),
        ("resilience_shed_total", Counter, "requests shed by the brownout ladder, by class"),
    ] {
        reg.describe(name, kind, help);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_families_render_in_both_exporters() {
        let reg = MetricRegistry::new();
        describe_base_families(&reg);
        let snap = reg.snapshot();
        let prom = to_prometheus(&snap);
        for family in [
            "sim_launches_total",
            "fault_injected_total",
            "sanitizer_findings_total",
            "serve_latency_seconds",
        ] {
            assert!(prom.contains(&format!("# TYPE {family}")), "missing {family}");
        }
        assert!(to_json(&snap).contains("\"schema\": \"ompx-metrics-v1\""));
    }
}
