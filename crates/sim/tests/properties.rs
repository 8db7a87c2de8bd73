//! Property-based tests on the simulator's core invariants.

use ompx_sim::prelude::*;
use ompx_sim::timing::{model_kernel, occupancy};
use proptest::prelude::*;

fn small_device() -> Device {
    Device::new(DeviceProfile::test_small())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dim3 linearize/delinearize is a bijection over the extent.
    #[test]
    fn dim3_linear_roundtrip(x in 1u32..8, y in 1u32..8, z in 1u32..8, pick in 0usize..512) {
        let d = Dim3::new(x, y, z);
        let idx = pick % d.count();
        let (cx, cy, cz) = d.delinear(idx);
        prop_assert!(cx < x && cy < y && cz < z);
        prop_assert_eq!(d.linear(cx, cy, cz), idx);
    }

    /// Every simulated thread executes exactly once, for arbitrary
    /// geometry, on whichever executor path the flags select.
    #[test]
    fn exactly_once_execution(
        blocks in 1u32..6,
        threads in 1u32..33,
        use_sync in proptest::bool::ANY,
    ) {
        let dev = small_device();
        let total = (blocks * threads) as usize;
        let hits = dev.alloc::<u32>(total);
        let flags = KernelFlags { uses_block_sync: use_sync, uses_warp_ops: false };
        let k = Kernel::with_flags("cover", flags, {
            let hits = hits.clone();
            move |tc: &mut ThreadCtx<'_>| {
                if use_sync {
                    tc.sync_threads();
                }
                tc.atomic_add(&hits, tc.global_rank(), 1);
            }
        });
        let stats = dev.launch(&k, LaunchConfig::new(blocks, threads)).unwrap();
        prop_assert_eq!(stats.threads_executed as usize, total);
        prop_assert_eq!(stats.blocks_executed as usize, blocks as usize);
        prop_assert!(hits.to_vec().iter().all(|&h| h == 1));
    }

    /// Warp shuffles permute values: a shfl from lane (lane+k)%w delivers
    /// each lane's value to exactly one receiver.
    #[test]
    fn shuffle_rotation_is_a_permutation(threads in 1u32..17, rot in 0usize..8) {
        let dev = small_device();
        let n = threads as usize;
        let got = dev.alloc::<u64>(n);
        let k = Kernel::with_flags(
            "rot",
            KernelFlags { uses_block_sync: false, uses_warp_ops: true },
            {
                let got = got.clone();
                move |tc: &mut ThreadCtx<'_>| {
                    let v = tc.shfl(tc.thread_rank() as u64, tc.lane_id() + rot);
                    tc.write(&got, tc.thread_rank(), v);
                }
            },
        );
        dev.launch(&k, LaunchConfig::new(1u32, threads)).unwrap();
        // Within each warp, the received set equals the sent set.
        let ws = dev.profile().warp_size as usize;
        let out = got.to_vec();
        for w in 0..n.div_ceil(ws) {
            let lo = w * ws;
            let hi = (lo + ws).min(n);
            let mut received: Vec<u64> = out[lo..hi].to_vec();
            received.sort_unstable();
            let expected: Vec<u64> = (lo as u64..hi as u64).collect();
            prop_assert_eq!(received, expected);
        }
    }

    /// Random block-synchronising programs agree with a lockstep host
    /// oracle: `sync_threads`, `sync_warp`, the four shuffles, `ballot`,
    /// `any_sync`, `all_sync` and guarded early returns, over 1-, 2- and
    /// 3-D blocks, warp widths 32 and 64, at one worker and at the host's
    /// parallelism.
    #[test]
    fn random_sync_programs_match_a_lockstep_oracle(
        words in proptest::collection::vec(0u64..u64::MAX, 1..24),
        shape in 0u64..u64::MAX,
        blocks in 1u32..4,
        wide in proptest::bool::ANY,
    ) {
        let prog: Vec<Op> = words.iter().map(|&w| Op::decode(w)).collect();
        let block = block_shape(shape);
        let profile = if wide { DeviceProfile::mi250() } else { DeviceProfile::a100() };
        let ws = profile.warp_size as usize;
        let want = lockstep_oracle(&prog, blocks as usize, block.count(), ws);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for workers in [1, nproc] {
            let dev = Device::new(profile.clone());
            dev.set_sim_workers(Some(workers));
            let got = run_program(&dev, &prog, blocks, block);
            prop_assert_eq!(&got, &want, "workers {workers}, block {block:?}, program {prog:?}");
        }
    }

    /// The timing model is monotone in work: more bytes or more flops can
    /// never make a kernel faster.
    #[test]
    fn modeled_time_is_monotone_in_work(
        base_bytes in 1u64..1_000_000_000,
        base_flops in 1u64..1_000_000_000,
        extra in 1u64..1_000_000_000,
    ) {
        let dev = DeviceProfile::a100();
        let cg = CodegenInfo::default();
        let mode = ModeOverheads::none();
        let mk = |bytes: u64, flops: u64| {
            let stats = ompx_sim::counters::StatsSnapshot {
                global_load_bytes: bytes,
                flops,
                ..Default::default()
            };
            model_kernel(&dev, 256, 1024, 0, &stats, &cg, &mode).seconds
        };
        let t0 = mk(base_bytes, base_flops);
        prop_assert!(mk(base_bytes + extra, base_flops) >= t0);
        prop_assert!(mk(base_bytes, base_flops + extra) >= t0);
    }

    /// Occupancy never exceeds the hardware bounds and never reaches zero.
    #[test]
    fn occupancy_is_bounded(
        tpb in 1u32..1025,
        regs in 1u32..256,
        smem in 0usize..200_000,
    ) {
        let dev = DeviceProfile::a100();
        let o = occupancy(&dev, tpb, regs, smem);
        prop_assert!(o.blocks_per_sm >= 1);
        prop_assert!(o.occupancy > 0.0);
        prop_assert!(o.occupancy <= 1.0);
    }

    /// Lower coalescing can never speed a kernel up.
    #[test]
    fn worse_coalescing_never_helps(bytes in 1u64..1_000_000_000, c1 in 0.05f64..1.0, c2 in 0.05f64..1.0) {
        let (lo, hi) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
        let dev = DeviceProfile::mi250();
        let stats = ompx_sim::counters::StatsSnapshot {
            global_load_bytes: bytes,
            ..Default::default()
        };
        let mode = ModeOverheads::none();
        let t_hi = model_kernel(&dev, 128, 512, 0, &stats,
            &CodegenInfo { coalescing: hi, ..Default::default() }, &mode).seconds;
        let t_lo = model_kernel(&dev, 128, 512, 0, &stats,
            &CodegenInfo { coalescing: lo, ..Default::default() }, &mode).seconds;
        prop_assert!(t_lo >= t_hi, "coalescing {lo} gave {t_lo} < {t_hi} at {hi}");
    }

    /// Snapshot scaling is (approximately) homogeneous: scaling counters by
    /// an integer factor scales every extensive field exactly.
    #[test]
    fn snapshot_scaling_integer_exact(f in 1u64..1000, flops in 0u64..1_000_000, bytes in 0u64..1_000_000) {
        let s = ompx_sim::counters::StatsSnapshot {
            flops,
            global_load_bytes: bytes,
            barriers: 7,
            ..Default::default()
        };
        let scaled = s.scaled(f as f64);
        prop_assert_eq!(scaled.flops, flops * f);
        prop_assert_eq!(scaled.global_load_bytes, bytes * f);
        prop_assert_eq!(scaled.barriers, 7 * f);
    }

    /// Device memory accounting: alloc/free cycles always return to the
    /// starting level regardless of interleaving.
    #[test]
    fn allocation_accounting_balances(sizes in proptest::collection::vec(1usize..10_000, 1..12)) {
        let dev = small_device();
        let before = dev.allocated_bytes();
        let bufs: Vec<_> = sizes.iter().map(|&n| dev.alloc::<f64>(n)).collect();
        let expect: usize = sizes.iter().map(|n| n * 8).sum();
        prop_assert_eq!(dev.allocated_bytes(), before + expect);
        for b in &bufs {
            dev.free(b);
        }
        prop_assert_eq!(dev.allocated_bytes(), before);
    }
}

/// Barriers with early-exiting lanes terminate for every split point —
/// exhaustive rather than randomized because it is cheap.
#[test]
fn early_exit_barriers_terminate_for_every_split() {
    let dev = small_device();
    for split in 0..16usize {
        let out = dev.alloc::<u32>(16);
        let k = Kernel::with_flags(
            "split",
            KernelFlags { uses_block_sync: true, uses_warp_ops: false },
            {
                let out = out.clone();
                move |tc: &mut ThreadCtx<'_>| {
                    if tc.thread_rank() >= split.max(1) {
                        return; // early exit before any barrier
                    }
                    tc.sync_threads();
                    tc.write(&out, tc.thread_rank(), 1);
                    tc.sync_threads();
                }
            },
        );
        dev.launch(&k, LaunchConfig::new(1u32, 16u32)).unwrap();
        let got = out.to_vec();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, u32::from(i < split.max(1)), "split={split} lane={i}");
        }
    }
}

/// One step of a generated block-synchronising program. Every lane runs
/// the same steps; `Return` makes the lanes its guard selects exit early.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Stage the lane's value in shared memory, barrier, read the lane
    /// `off` ahead, barrier again (so no one overwrites an unread cell).
    SyncThreads(usize),
    SyncWarp,
    Shfl(usize),
    ShflUp(usize),
    ShflDown(usize),
    ShflXor(usize),
    /// Collectives vote with bit `.0` of the lane's value.
    Ballot(u32),
    Any(u32),
    All(u32),
    /// Lanes with `thread_rank % .0 == .1` return.
    Return(usize, usize),
}

impl Op {
    fn decode(w: u64) -> Op {
        let a = (w >> 8) as usize % 97;
        let bit = (w >> 16) as u32 % 64;
        match w % 10 {
            0 => Op::SyncThreads(a),
            1 => Op::SyncWarp,
            2 => Op::Shfl(a),
            3 => Op::ShflUp(a % 40),
            4 => Op::ShflDown(a % 40),
            5 => Op::ShflXor(a % 64),
            6 => Op::Ballot(bit),
            7 => Op::Any(bit),
            8 => Op::All(bit),
            _ => {
                let m = 2 + (w >> 24) as usize % 6;
                Op::Return(m, (w >> 32) as usize % m)
            }
        }
    }
}

fn block_shape(w: u64) -> Dim3 {
    let d = |shift: u32, n: u64| 1 + (w >> shift) as u32 % n as u32;
    match w % 3 {
        0 => Dim3::new(d(8, 192), 1, 1),
        1 => Dim3::new(d(8, 32), d(16, 6), 1),
        _ => Dim3::new(d(8, 8), d(16, 4), d(24, 5)),
    }
}

fn mix(a: u64, b: u64) -> u64 {
    (a ^ b.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (a >> 29)
}

fn seed_value(global_rank: usize) -> u64 {
    mix(global_rank as u64 + 1, 0x5eed)
}

/// Every lane's final value, computed op by op for all lanes at once.
/// Exited lanes keep their value, their shared cell and their last
/// shuffled word, and do not vote.
fn lockstep_oracle(prog: &[Op], blocks: usize, tpb: usize, ws: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(blocks * tpb);
    for b in 0..blocks {
        let mut v: Vec<u64> = (0..tpb).map(|t| seed_value(b * tpb + t)).collect();
        let mut live = vec![true; tpb];
        let mut last = vec![0u64; tpb];
        let mut shared = vec![0u64; tpb];
        for op in prog {
            let before = v.clone();
            for t in (0..tpb).filter(|&t| live[t]) {
                let (base, lane) = (t - t % ws, t % ws);
                let width = ws.min(tpb - base);
                let mask = |bit: u32| {
                    (0..width)
                        .filter(|&l| live[base + l] && (before[base + l] >> bit) & 1 == 1)
                        .fold(0u64, |m, l| m | 1 << l)
                };
                let shuffled = |src: usize| {
                    let s = base + src % width;
                    if live[s] {
                        before[s]
                    } else {
                        last[s]
                    }
                };
                v[t] = match *op {
                    Op::SyncThreads(off) => {
                        let s = (t + off) % tpb;
                        mix(before[t], if live[s] { before[s] } else { shared[s] })
                    }
                    Op::SyncWarp | Op::Return(..) => before[t],
                    Op::Shfl(src) => mix(before[t], shuffled(src)),
                    Op::ShflUp(d) => {
                        mix(before[t], if lane >= d { shuffled(lane - d) } else { before[t] })
                    }
                    Op::ShflDown(d) => mix(
                        before[t],
                        if lane + d < width { shuffled(lane + d) } else { before[t] },
                    ),
                    Op::ShflXor(m) => mix(before[t], shuffled(lane ^ m)),
                    Op::Ballot(bit) => mix(before[t], mask(bit)),
                    Op::Any(bit) => mix(before[t], u64::from(mask(bit) != 0)),
                    Op::All(bit) => {
                        let full = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
                        mix(before[t], u64::from(mask(bit) == full))
                    }
                };
            }
            for t in 0..tpb {
                if !live[t] {
                    continue;
                }
                match *op {
                    Op::SyncThreads(_) => shared[t] = before[t],
                    Op::Shfl(_) | Op::ShflUp(_) | Op::ShflDown(_) | Op::ShflXor(_) => {
                        last[t] = before[t]
                    }
                    Op::Return(m, r) if t % m == r => live[t] = false,
                    _ => {}
                }
            }
        }
        out.extend(v);
    }
    out
}

fn run_program(dev: &Device, prog: &[Op], blocks: u32, block: Dim3) -> Vec<u64> {
    let tpb = block.count();
    let out = dev.alloc::<u64>(blocks as usize * tpb);
    let mut cfg = LaunchConfig::new(Dim3::new(blocks, 1, 1), block);
    let slot = cfg.shared_array::<u64>(tpb);
    let prog = prog.to_vec();
    let k = Kernel::new("random_program", {
        let out = out.clone();
        move |tc: &mut ThreadCtx<'_>| {
            let t = tc.thread_rank();
            let tile = tc.shared::<u64>(slot);
            let mut v = seed_value(tc.global_rank());
            for op in &prog {
                v = match *op {
                    Op::SyncThreads(off) => {
                        tc.swrite(&tile, t, v);
                        tc.sync_threads();
                        let got = tc.sread(&tile, (t + off) % tpb);
                        tc.sync_threads();
                        mix(v, got)
                    }
                    Op::SyncWarp => {
                        tc.sync_warp();
                        v
                    }
                    Op::Shfl(src) => mix(v, tc.shfl(v, src)),
                    Op::ShflUp(d) => mix(v, tc.shfl_up(v, d)),
                    Op::ShflDown(d) => mix(v, tc.shfl_down(v, d)),
                    Op::ShflXor(m) => mix(v, tc.shfl_xor(v, m)),
                    Op::Ballot(bit) => mix(v, tc.ballot((v >> bit) & 1 == 1)),
                    Op::Any(bit) => mix(v, u64::from(tc.any_sync((v >> bit) & 1 == 1))),
                    Op::All(bit) => mix(v, u64::from(tc.all_sync((v >> bit) & 1 == 1))),
                    Op::Return(m, r) => {
                        if t % m == r {
                            break;
                        }
                        v
                    }
                };
            }
            tc.write(&out, tc.global_rank(), v);
        }
    })
    .with_block_sync()
    .with_warp_ops();
    dev.launch(&k, cfg).unwrap();
    out.to_vec()
}
