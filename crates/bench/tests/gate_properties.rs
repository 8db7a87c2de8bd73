//! Property test: a profile report gated against itself never drifts.

use ompx_bench::gate::{diff, PROFILE};
use ompx_prof::jsonio;
use ompx_prof::{to_json, Bottleneck, CellProfile, KernelMetrics};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Baselines written by the reporter always parse back losslessly and
    /// diff clean against themselves, whatever the cell contents.
    #[test]
    fn baseline_roundtrip_never_drifts(
        checksum in 0u64..u64::MAX,
        seconds_exp in -6i32..2,
        occupancy in 0u32..101,
        which_bottleneck in 0usize..9,
        excluded in proptest::bool::ANY,
    ) {
        let bottlenecks = [
            Bottleneck::MemoryBandwidth, Bottleneck::MemoryLatency, Bottleneck::Compute,
            Bottleneck::SharedMemory, Bottleneck::Barrier, Bottleneck::Atomic,
            Bottleneck::Divergence, Bottleneck::Serialization, Bottleneck::Launch,
        ];
        let cell = CellProfile {
            app: "probe".into(),
            version: "ompx".into(),
            system: "nvidia".into(),
            checksum,
            reported_seconds: 10f64.powi(seconds_exp),
            excluded,
            metrics: KernelMetrics {
                occupancy_pct: occupancy as f64,
                mem_throughput_pct: 50.0,
                arithmetic_intensity: 0.5,
                gflops: 10.0,
                coalescing_eff_pct: 75.0,
                warp_exec_eff_pct: 100.0,
                barrier_stall_pct: 0.0,
                atomic_stall_pct: 0.0,
                serialization_stall_pct: 0.0,
                divergence_stall_pct: 0.0,
                bottleneck: bottlenecks[which_bottleneck],
            },
        };
        let doc = jsonio::parse(&to_json(&[cell])).unwrap();
        let c = &doc.get("cells").and_then(jsonio::Json::as_arr).unwrap()[0];
        prop_assert_eq!(c.get("checksum").and_then(jsonio::Json::as_str), Some(format!("{checksum:016x}").as_str()));
        prop_assert_eq!(
            c.get("bottleneck").and_then(jsonio::Json::as_str),
            Some(bottlenecks[which_bottleneck].label())
        );
        let drifts = diff(&PROFILE, &doc, &doc).unwrap();
        prop_assert!(drifts.is_empty(), "self-diff drifted: {:?}", drifts);
    }
}
