//! Integration tests of OpenMP semantics across crate boundaries, plus
//! property-based tests (proptest) on the invariants the runtime relies on.

use ompx_devicert::mode::ExecMode;
use ompx_hostrt::{DepKey, InteropObj, OpenMp, QuirkSet};
use ompx_sim::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn target_data_region_lifecycle() {
    let omp = OpenMp::test_system();
    let env = omp.target_data();
    let mut host = vec![1.0f32; 256];

    // Enter with map(to:), run a region referencing the present buffer,
    // exit with map(from:) — the classic Figure 2 structure.
    let dev = env.map_to_f32(&host);
    omp.target("touch")
        .num_teams(4)
        .thread_limit(32)
        .run_distribute_parallel_for(256, {
            let dev = dev.clone();
            move |tc, i, _s| {
                let v = tc.read(&dev, i);
                tc.write(&dev, i, v + i as f32);
            }
        })
        .unwrap();
    env.map_from_f32(&mut host);
    for (i, v) in host.iter().enumerate() {
        assert_eq!(*v, 1.0 + i as f32);
    }
    assert_eq!(env.present_count(), 0);
}

#[test]
fn nowait_chain_with_taskwait() {
    // A chain of dependent nowait target tasks finishing with taskwait —
    // §2.4's "dependencies established using the depend clause".
    let omp = OpenMp::test_system();
    let buf = omp.device().alloc::<f32>(512);
    let key = DepKey::token(99);
    for step in 0..8 {
        omp.target(&format!("chain{step}")).num_teams(4).thread_limit(32).run_dpf_nowait(
            &[key],
            &[key],
            512,
            {
                let buf = buf.clone();
                move |tc, i, _s| {
                    let v = tc.read(&buf, i);
                    tc.write(&buf, i, v + 1.0);
                }
            },
        );
    }
    omp.taskwait();
    assert!(buf.to_vec().iter().all(|&v| v == 8.0), "all 8 increments must apply in order");
}

#[test]
fn interop_object_orders_foreign_and_target_work() {
    let omp = OpenMp::test_system();
    let obj = InteropObj::init_targetsync(&omp);
    let log = Arc::new(AtomicUsize::new(0));
    // Foreign work and target-ish work interleaved in one stream must run
    // in submission order.
    for i in 1..=20 {
        let l = Arc::clone(&log);
        obj.enqueue(move || {
            let prev = l.fetch_add(1, Ordering::SeqCst);
            assert_eq!(prev + 1, i);
        });
    }
    obj.synchronize();
    assert_eq!(log.load(Ordering::SeqCst), 20);
}

#[test]
fn quirks_do_not_change_results_only_plans() {
    let omp = OpenMp::test_system();
    omp.quirks().set(
        "quirked",
        QuirkSet { thread_cap: Some(8), force_generic: true, ..Default::default() },
    );
    let run = |name: &str| {
        let out = omp.device().alloc::<u32>(300);
        let r = omp
            .target(name)
            .num_teams(5)
            .thread_limit(64)
            .run_distribute_parallel_for(300, {
                let out = out.clone();
                move |tc, i, _s| tc.write(&out, i, (i * i) as u32)
            })
            .unwrap();
        (out.to_vec(), r.plan)
    };
    let (v1, p1) = run("quirked");
    let (v2, p2) = run("clean");
    assert_eq!(v1, v2);
    assert_eq!(p1.threads, 8);
    assert_eq!(p2.threads, 64);
    assert_ne!(p1.mode, p2.mode);
}

#[test]
fn declare_target_reduction_and_conditional_offload() {
    // The newer runtime features working together through the public API:
    // a declare-target accumulator, a reduction clause, and the `if`
    // clause's host fallback — all computing the same answer.
    let omp = OpenMp::test_system();
    let n = 512usize;
    let data = omp.device().alloc_from(&(0..n).map(|i| (i % 17) as f64).collect::<Vec<_>>());
    let expect: f64 = (0..n).map(|i| (i % 17) as f64).sum();

    // reduction(+:) on the device.
    let (sum_dev, _) = omp
        .target("reduce_it")
        .num_teams(4)
        .thread_limit(32)
        .run_reduce_sum(n, {
            let data = data.clone();
            move |tc, i| tc.read(&data, i)
        })
        .unwrap();
    assert_eq!(sum_dev, expect);

    // declare-target global accumulated by a plain region.
    let acc = ompx_hostrt::declare_target_global::<f64>(&omp, "acc", 1);
    omp.target("accumulate")
        .num_teams(4)
        .thread_limit(32)
        .run_distribute_parallel_for(n, {
            let (data, acc) = (data.clone(), acc.clone());
            move |tc, i, _s| {
                let v = tc.read(&data, i);
                tc.atomic_add(&acc, 0, v);
            }
        })
        .unwrap();
    assert_eq!(ompx_hostrt::lookup_target_global::<f64>(&omp, "acc").unwrap().get(0), expect);

    // if(false): host fallback, same value.
    let host_out = omp.device().alloc::<f64>(1);
    omp.target("host_sum")
        .when(false)
        .run_distribute_parallel_for(n, {
            let (data, host_out) = (data.clone(), host_out.clone());
            move |tc, i, _s| {
                let v = tc.read(&data, i);
                tc.atomic_add(&host_out, 0, v);
            }
        })
        .unwrap();
    assert_eq!(host_out.get(0), expect);
}

#[test]
fn allocators_and_constant_memory_through_kernels() {
    use ompx_hostrt::allocator::{omp_alloc_const, omp_alloc_pinned};
    let omp = ompx::runtime_on(Device::new(DeviceProfile::test_small()));
    let table = omp_alloc_const(&omp, &[2.0f64, 4.0, 8.0, 16.0]);
    let mut staging = omp_alloc_pinned::<f64>(&omp, 8);
    staging.as_mut_slice().copy_from_slice(&[1.0; 8]);
    let input = omp.device().alloc_from(staging.as_slice());
    let out = omp.device().alloc::<f64>(8);
    ompx::BareTarget::new(&omp, "const_scale")
        .num_teams([1u32])
        .thread_limit([8u32])
        .launch({
            let (table, input, out) = (table.clone(), input.clone(), out.clone());
            move |tc| {
                let i = tc.thread_rank();
                let scale = tc.cread(&table, i % 4);
                let v = tc.read(&input, i);
                tc.flops(1);
                tc.write(&out, i, v * scale);
            }
        })
        .unwrap();
    assert_eq!(out.to_vec(), vec![2.0, 4.0, 8.0, 16.0, 2.0, 4.0, 8.0, 16.0]);
}

/// The three launch front ends: a native `launch_cfg`, an `ompx_bare`
/// region and a `target teams distribute parallel for` region.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FrontEnd {
    Native,
    Bare,
    Target,
}

/// What one front end left behind after two launches of the same kernel.
struct Recovery {
    out: Vec<u32>,
    /// Each launch's reported plan mode (OpenMP regions only).
    modes: Vec<ExecMode>,
    faults: FaultSnapshot,
    spans: Vec<Span>,
}

/// Launch a non-idempotent kernel twice over a 16-block grid under `plan`.
/// Every launch reads what the previous one wrote, so a watchdog's partial
/// block prefix left in place would change the final bits.
fn launch_twice(front: FrontEnd, plan: FaultPlan) -> Recovery {
    use ompx_klang::runtime::NativeCtx;
    use ompx_klang::toolchain::Toolchain;
    const N: usize = 64;
    let faults = FaultState::new(plan);
    let log = SpanLog::new();
    let device = RunContext {
        faults: Some(Arc::clone(&faults)),
        span_log: Some(Arc::clone(&log)),
        ..Default::default()
    }
    .scope(|| Device::new(DeviceProfile::test_small()));
    let out = device.alloc_from(&(0..N as u32).collect::<Vec<_>>());
    let step = |tc: &mut ThreadCtx<'_>, out: &DBuf<u32>, i: usize| {
        let v = tc.read(out, i);
        tc.write(out, i, v.wrapping_mul(3).wrapping_add(i as u32 + 1));
    };
    let native = NativeCtx::new(device.clone(), Toolchain::Clang);
    let omp = ompx::runtime_on(device.clone());
    let mut modes = Vec::new();
    for _ in 0..2 {
        let out = out.clone();
        match front {
            FrontEnd::Native => {
                let kernel = Kernel::new("parity", move |tc| {
                    let i = tc.global_thread_id_x();
                    if i < N {
                        step(tc, &out, i);
                    }
                });
                native.launch_cfg(&kernel, LaunchConfig::new(16u32, 4u32)).unwrap();
            }
            FrontEnd::Bare => {
                let r = ompx::BareTarget::new(&omp, "parity")
                    .num_teams([16u32])
                    .thread_limit([4u32])
                    .launch(move |tc| {
                        let i = tc.global_thread_id_x();
                        if i < N {
                            step(tc, &out, i);
                        }
                    })
                    .unwrap();
                modes.push(r.plan.mode);
            }
            FrontEnd::Target => {
                let r = omp
                    .target("parity")
                    .num_teams(16)
                    .thread_limit(4)
                    .run_distribute_parallel_for(N, move |tc, i, _s| step(tc, &out, i))
                    .unwrap();
                modes.push(r.plan.mode);
            }
        }
    }
    Recovery { out: out.to_vec(), modes, faults: faults.snapshot(), spans: log.spans() }
}

/// An injected launch fault the retries cannot clear is recovered the same
/// way by every front end: the device's pre-launch state is restored and
/// the kernel re-executes, so the results keep the fault-free bits. OpenMP
/// regions report a host fallback; the native runtime reports a degraded
/// launch.
#[test]
fn every_front_end_recovers_launch_faults_bit_identically() {
    for front in [FrontEnd::Native, FrontEnd::Bare, FrontEnd::Target] {
        let clean = launch_twice(front, FaultPlan::none());
        let device_mode = match front {
            FrontEnd::Bare => vec![ExecMode::Bare; 2],
            FrontEnd::Target => vec![ExecMode::Spmd; 2],
            FrontEnd::Native => vec![],
        };
        assert_eq!(clean.modes, device_mode, "{front:?}");
        for kind in [FaultKind::DeviceLost, FaultKind::Watchdog] {
            let plan = FaultPlan::none().with_injection(FaultSite::Launch, 0, kind);
            let r = launch_twice(front, plan);
            let what = format!("{front:?} under {kind:?}");
            assert_eq!(r.out, clean.out, "{what}: results must keep the fault-free bits");
            let prefix = if front == FrontEnd::Native {
                assert!(r.faults.fallbacks.is_empty(), "{what}: {:?}", r.faults.fallbacks);
                assert_eq!(r.faults.degraded.len(), 1, "{what}: {:?}", r.faults.degraded);
                assert!(r.faults.degraded[0].starts_with("launch parity: "), "{what}");
                "degraded parity ("
            } else {
                assert_eq!(r.faults.fallbacks, vec!["parity".to_string()], "{what}");
                assert!(r.faults.degraded.is_empty(), "{what}: {:?}", r.faults.degraded);
                let mut modes = device_mode.clone();
                modes[0] = ExecMode::Host;
                assert_eq!(r.modes, modes, "{what}: only the faulted launch runs on the host");
                "fallback parity ("
            };
            let span = r.spans.iter().find(|s| s.name.starts_with(prefix));
            let span = span.unwrap_or_else(|| panic!("{what}: no `{prefix}…` span"));
            assert_eq!(span.cat, SpanCategory::Fallback, "{what}");
            assert!(span.dur_s > 0.0, "{what}: the recovery span must have a duration");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (teams, threads, n) geometry covers 0..n exactly once through
    /// the distribute-parallel-for lowering.
    #[test]
    fn dpf_covers_all_iterations(teams in 1u32..6, threads in 1u32..64, n in 1usize..2000) {
        let omp = OpenMp::test_system();
        let threads = threads.min(omp.device().profile().max_threads_per_block);
        let hits = omp.device().alloc::<u32>(n);
        omp.target("cover")
            .num_teams(teams)
            .thread_limit(threads)
            .run_distribute_parallel_for(n, {
                let hits = hits.clone();
                move |tc, i, _s| {
                    tc.atomic_add(&hits, i, 1);
                }
            })
            .unwrap();
        prop_assert!(hits.to_vec().iter().all(|&h| h == 1));
    }

    /// Bare launches with any multi-dim geometry execute each global rank
    /// exactly once (dimension handling per §3.2).
    #[test]
    fn bare_multidim_covers_every_rank(gx in 1u32..5, gy in 1u32..4, bx in 1u32..9, by in 1u32..5) {
        let omp = ompx::runtime_on(Device::new(DeviceProfile::test_small()));
        let total = (gx * gy * bx * by) as usize;
        prop_assume!(bx * by <= omp.device().profile().max_threads_per_block);
        let hits = omp.device().alloc::<u32>(total);
        ompx::BareTarget::new(&omp, "cover_md")
            .num_teams([gx, gy])
            .thread_limit([bx, by])
            .launch({
                let hits = hits.clone();
                move |tc| {
                    tc.atomic_add(&hits, tc.global_rank(), 1);
                }
            })
            .unwrap();
        prop_assert!(hits.to_vec().iter().all(|&h| h == 1));
    }

    /// The present table honours arbitrary nesting depths: data written on
    /// the device only reaches the host at the outermost exit.
    #[test]
    fn present_table_refcount_depth(depth in 1usize..6) {
        let omp = OpenMp::test_system();
        let env = omp.target_data();
        let mut host = vec![0u32; 16];
        let bufs: Vec<_> = (0..depth).map(|_| env.map_to_u32(&host)).collect();
        bufs[0].set(3, 77);
        for k in 0..depth {
            prop_assert_eq!(env.present_count(), 1);
            env.map_from_u32(&mut host);
            if k + 1 < depth {
                prop_assert_eq!(host[3], 0, "copy-out before the last exit");
            }
        }
        prop_assert_eq!(host[3], 77);
        prop_assert_eq!(env.present_count(), 0);
    }
}
