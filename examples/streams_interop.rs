//! Streams via interop objects — the paper's Figure 5 (§3.5).
//!
//! ```c
//! omp_interop_t obj = omp_interop_none;
//! #pragma omp interop init(targetsync: obj)
//! #pragma omp target teams ompx_bare nowait depend(interopobj: obj)
//! { ... }
//! #pragma omp taskwait depend(interopobj: obj)
//! ```
//!
//! Two interop objects = two streams. A three-stage pipeline (scale →
//! offset → square) runs in-order inside each stream while the two streams
//! process independent halves concurrently; the final `taskwait
//! depend(interopobj:)` per object synchronizes.
//!
//! ```text
//! cargo run --example streams_interop
//! ```

use ompx::interop_depend::{launch_nowait_interopobj, taskwait_interopobj};
use ompx::prelude::*;

const N: usize = 32_768;
const BSIZE: u32 = 128;

fn stage(
    omp: &OpenMp,
    name: &str,
    buf: &ompx_sim::mem::DBuf<f32>,
    lo: usize,
    hi: usize,
    f: impl Fn(f32) -> f32 + Send + Sync + 'static,
) -> ompx_hostrt::target::PreparedTarget {
    let teams = ((hi - lo) as u32).div_ceil(BSIZE);
    BareTarget::new(omp, name).num_teams([teams]).thread_limit([BSIZE]).prepare({
        let buf = buf.clone();
        move |tc| {
            let i = lo + tc.global_thread_id_x();
            if i < hi {
                let v = tc.read(&buf, i);
                tc.flops(1);
                tc.write(&buf, i, f(v));
            }
        }
    })
}

fn main() {
    println!("streams_interop: Figure 5 — depend(interopobj: obj)\n");
    let omp = ompx::runtime_nvidia();
    let data = omp.device().alloc_from(&vec![1.0f32; N]);

    // #pragma omp interop init(targetsync: obj) — twice, two streams.
    let obj_lo = InteropObj::init_targetsync(&omp);
    let obj_hi = InteropObj::init_targetsync(&omp);

    let half = N / 2;
    // Three dependent kernels per half; stream order is the only thing
    // sequencing them.
    for (label, obj, lo, hi) in [("lower", &obj_lo, 0, half), ("upper", &obj_hi, half, N)] {
        let k1 = stage(&omp, &format!("scale_{label}"), &data, lo, hi, |v| v * 3.0);
        let k2 = stage(&omp, &format!("offset_{label}"), &data, lo, hi, |v| v + 1.0);
        let k3 = stage(&omp, &format!("square_{label}"), &data, lo, hi, |v| v * v);
        // target teams ompx_bare nowait depend(interopobj: obj)
        launch_nowait_interopobj(&k1, obj);
        launch_nowait_interopobj(&k2, obj);
        launch_nowait_interopobj(&k3, obj);
    }

    // #pragma omp taskwait depend(interopobj: obj)
    taskwait_interopobj(&obj_lo);
    taskwait_interopobj(&obj_hi);

    // (1*3 + 1)^2 = 16 everywhere.
    let out = data.to_vec();
    assert!(out.iter().all(|&v| v == 16.0), "pipeline must compute (3v+1)^2");
    println!("both stream pipelines completed: data[0] = {}, data[N-1] = {}", out[0], out[N - 1]);
    println!(
        "modeled device-busy time: lower stream {:.1} us, upper stream {:.1} us",
        obj_lo.modeled_busy_seconds() * 1e6,
        obj_hi.modeled_busy_seconds() * 1e6
    );

    // The host-side alternative: nowait target tasks ordered by depend
    // clauses on data (the pre-extension mechanism, for contrast).
    let omp2 = ompx::runtime_nvidia();
    let buf = omp2.device().alloc::<f32>(N);
    let key = ompx_hostrt::DepKey::token(1);
    let producer =
        omp2.target("producer").num_teams(64).thread_limit(BSIZE).run_dpf_nowait(&[], &[key], N, {
            let buf = buf.clone();
            move |tc, i, _s| tc.write(&buf, i, i as f32)
        });
    let consumer =
        omp2.target("consumer").num_teams(64).thread_limit(BSIZE).run_dpf_nowait(&[key], &[], N, {
            let buf = buf.clone();
            move |tc, i, _s| {
                let v = tc.read(&buf, i);
                tc.write(&buf, i, v * 2.0);
            }
        });
    producer.wait().expect("producer");
    consumer.wait().expect("consumer");
    omp2.taskwait();
    assert_eq!(buf.get(100), 200.0);
    println!("\nhost task graph (depend in/out) also verified: buf[100] = {}", buf.get(100));
}
