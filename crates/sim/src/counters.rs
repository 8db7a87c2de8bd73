//! Cost counters: the per-thread event counts that feed the timing model.
//!
//! Each simulated thread accumulates a private [`CostCounters`]; the executor
//! folds them into a launch-wide [`KernelStats`] when the thread retires.
//! These are the quantities a GPU charges time for; [`crate::timing`] turns
//! them into a modeled execution time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread event counters (plain fields — no synchronization cost on the
/// hot path of the functional simulation).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostCounters {
    /// Floating-point operations (fused multiply-add counts as 2).
    pub flops: u64,
    /// Integer/logic ALU operations that the kernel wants costed explicitly.
    pub int_ops: u64,
    /// Bytes read from global memory.
    pub global_load_bytes: u64,
    /// Bytes written to global memory.
    pub global_store_bytes: u64,
    /// Individual shared-memory accesses (reads + writes).
    pub shared_accesses: u64,
    /// Block-wide barriers this thread participated in.
    pub barriers: u64,
    /// Warp-level synchronizations/shuffles this thread participated in.
    pub warp_ops: u64,
    /// Global-memory atomic operations.
    pub atomic_ops: u64,
    /// Branches annotated as warp-divergent by the kernel.
    pub divergent_branches: u64,
    /// Operations executed in a serialized (master-only) runtime section;
    /// used by the OpenMP generic-mode device runtime model.
    pub serial_ops: u64,
    /// Constant-memory reads (broadcast-cached, near-register cost).
    pub const_reads: u64,
    /// Bytes read through warp-uniform (broadcast) loads; the hardware
    /// serves one transaction per warp, so the timing model divides these
    /// by the warp width.
    pub uniform_load_bytes: u64,
}

impl CostCounters {
    /// Add another counter set into this one.
    pub fn merge(&mut self, other: &CostCounters) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.global_load_bytes += other.global_load_bytes;
        self.global_store_bytes += other.global_store_bytes;
        self.shared_accesses += other.shared_accesses;
        self.barriers += other.barriers;
        self.warp_ops += other.warp_ops;
        self.atomic_ops += other.atomic_ops;
        self.divergent_branches += other.divergent_branches;
        self.serial_ops += other.serial_ops;
        self.const_reads += other.const_reads;
        self.uniform_load_bytes += other.uniform_load_bytes;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == CostCounters::default()
    }
}

/// Launch-wide aggregate of all retired threads' counters, plus launch
/// geometry. Thread-safe: the executor's workers fold into it concurrently.
#[derive(Debug, Default)]
pub struct KernelStats {
    flops: AtomicU64,
    int_ops: AtomicU64,
    global_load_bytes: AtomicU64,
    global_store_bytes: AtomicU64,
    shared_accesses: AtomicU64,
    barriers: AtomicU64,
    warp_ops: AtomicU64,
    atomic_ops: AtomicU64,
    divergent_branches: AtomicU64,
    serial_ops: AtomicU64,
    const_reads: AtomicU64,
    uniform_load_bytes: AtomicU64,
    threads_executed: AtomicU64,
    blocks_executed: AtomicU64,
}

impl KernelStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one retired thread's counters in.
    pub fn absorb(&self, c: &CostCounters) {
        self.flops.fetch_add(c.flops, Ordering::Relaxed);
        self.int_ops.fetch_add(c.int_ops, Ordering::Relaxed);
        self.global_load_bytes.fetch_add(c.global_load_bytes, Ordering::Relaxed);
        self.global_store_bytes.fetch_add(c.global_store_bytes, Ordering::Relaxed);
        self.shared_accesses.fetch_add(c.shared_accesses, Ordering::Relaxed);
        self.barriers.fetch_add(c.barriers, Ordering::Relaxed);
        self.warp_ops.fetch_add(c.warp_ops, Ordering::Relaxed);
        self.atomic_ops.fetch_add(c.atomic_ops, Ordering::Relaxed);
        self.divergent_branches.fetch_add(c.divergent_branches, Ordering::Relaxed);
        self.serial_ops.fetch_add(c.serial_ops, Ordering::Relaxed);
        self.const_reads.fetch_add(c.const_reads, Ordering::Relaxed);
        self.uniform_load_bytes.fetch_add(c.uniform_load_bytes, Ordering::Relaxed);
        self.threads_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a whole block's pre-merged counters at once, attributing them to
    /// `threads` simulated threads (used by the serial execution path, which
    /// merges lane counters locally to avoid per-lane atomics).
    pub fn absorb_block(&self, c: &CostCounters, threads: u64) {
        self.absorb(c);
        self.threads_executed.fetch_add(threads.saturating_sub(1), Ordering::Relaxed);
    }

    /// Record one completed block.
    pub fn block_done(&self) {
        self.blocks_executed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn flops(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }
    pub fn int_ops(&self) -> u64 {
        self.int_ops.load(Ordering::Relaxed)
    }
    pub fn global_load_bytes(&self) -> u64 {
        self.global_load_bytes.load(Ordering::Relaxed)
    }
    pub fn global_store_bytes(&self) -> u64 {
        self.global_store_bytes.load(Ordering::Relaxed)
    }
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes() + self.global_store_bytes()
    }
    pub fn shared_accesses(&self) -> u64 {
        self.shared_accesses.load(Ordering::Relaxed)
    }
    pub fn barriers(&self) -> u64 {
        self.barriers.load(Ordering::Relaxed)
    }
    pub fn warp_ops(&self) -> u64 {
        self.warp_ops.load(Ordering::Relaxed)
    }
    pub fn atomic_ops(&self) -> u64 {
        self.atomic_ops.load(Ordering::Relaxed)
    }
    pub fn divergent_branches(&self) -> u64 {
        self.divergent_branches.load(Ordering::Relaxed)
    }
    pub fn serial_ops(&self) -> u64 {
        self.serial_ops.load(Ordering::Relaxed)
    }
    pub fn const_reads(&self) -> u64 {
        self.const_reads.load(Ordering::Relaxed)
    }
    pub fn uniform_load_bytes(&self) -> u64 {
        self.uniform_load_bytes.load(Ordering::Relaxed)
    }
    pub fn threads_executed(&self) -> u64 {
        self.threads_executed.load(Ordering::Relaxed)
    }
    pub fn blocks_executed(&self) -> u64 {
        self.blocks_executed.load(Ordering::Relaxed)
    }

    /// Snapshot into a plain, serializable summary.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            flops: self.flops(),
            int_ops: self.int_ops(),
            global_load_bytes: self.global_load_bytes(),
            global_store_bytes: self.global_store_bytes(),
            shared_accesses: self.shared_accesses(),
            barriers: self.barriers(),
            warp_ops: self.warp_ops(),
            atomic_ops: self.atomic_ops(),
            divergent_branches: self.divergent_branches(),
            serial_ops: self.serial_ops(),
            const_reads: self.const_reads(),
            uniform_load_bytes: self.uniform_load_bytes(),
            threads_executed: self.threads_executed(),
            blocks_executed: self.blocks_executed(),
        }
    }
}

/// A plain-data snapshot of [`KernelStats`], scalable for workload
/// extrapolation (the benchmarks simulate a scaled-down problem and multiply
/// counters up to the paper's problem size before timing — see DESIGN.md §2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub flops: u64,
    pub int_ops: u64,
    pub global_load_bytes: u64,
    pub global_store_bytes: u64,
    pub shared_accesses: u64,
    pub barriers: u64,
    pub warp_ops: u64,
    pub atomic_ops: u64,
    pub divergent_branches: u64,
    pub serial_ops: u64,
    pub const_reads: u64,
    pub uniform_load_bytes: u64,
    pub threads_executed: u64,
    pub blocks_executed: u64,
}

impl StatsSnapshot {
    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Multiply every extensive counter by `factor` (workload extrapolation).
    pub fn scaled(&self, factor: f64) -> StatsSnapshot {
        let s = |v: u64| ((v as f64) * factor).round() as u64;
        StatsSnapshot {
            flops: s(self.flops),
            int_ops: s(self.int_ops),
            global_load_bytes: s(self.global_load_bytes),
            global_store_bytes: s(self.global_store_bytes),
            shared_accesses: s(self.shared_accesses),
            barriers: s(self.barriers),
            warp_ops: s(self.warp_ops),
            atomic_ops: s(self.atomic_ops),
            divergent_branches: s(self.divergent_branches),
            serial_ops: s(self.serial_ops),
            const_reads: s(self.const_reads),
            uniform_load_bytes: s(self.uniform_load_bytes),
            threads_executed: s(self.threads_executed),
            blocks_executed: s(self.blocks_executed),
        }
    }

    /// Element-wise sum of two snapshots (multi-kernel launches).
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            flops: self.flops + other.flops,
            int_ops: self.int_ops + other.int_ops,
            global_load_bytes: self.global_load_bytes + other.global_load_bytes,
            global_store_bytes: self.global_store_bytes + other.global_store_bytes,
            shared_accesses: self.shared_accesses + other.shared_accesses,
            barriers: self.barriers + other.barriers,
            warp_ops: self.warp_ops + other.warp_ops,
            atomic_ops: self.atomic_ops + other.atomic_ops,
            divergent_branches: self.divergent_branches + other.divergent_branches,
            serial_ops: self.serial_ops + other.serial_ops,
            const_reads: self.const_reads + other.const_reads,
            uniform_load_bytes: self.uniform_load_bytes + other.uniform_load_bytes,
            threads_executed: self.threads_executed + other.threads_executed,
            blocks_executed: self.blocks_executed + other.blocks_executed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = CostCounters { flops: 1, global_load_bytes: 4, ..Default::default() };
        let b = CostCounters { flops: 2, barriers: 3, serial_ops: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.flops, 3);
        assert_eq!(a.global_load_bytes, 4);
        assert_eq!(a.barriers, 3);
        assert_eq!(a.serial_ops, 7);
    }

    #[test]
    fn absorb_counts_threads() {
        let stats = KernelStats::new();
        let c = CostCounters { flops: 10, atomic_ops: 2, ..Default::default() };
        stats.absorb(&c);
        stats.absorb(&c);
        stats.block_done();
        assert_eq!(stats.flops(), 20);
        assert_eq!(stats.atomic_ops(), 4);
        assert_eq!(stats.threads_executed(), 2);
        assert_eq!(stats.blocks_executed(), 1);
    }

    #[test]
    fn snapshot_scaling_rounds() {
        let stats = KernelStats::new();
        stats.absorb(&CostCounters { flops: 10, global_store_bytes: 3, ..Default::default() });
        let snap = stats.snapshot();
        let scaled = snap.scaled(2.5);
        assert_eq!(scaled.flops, 25);
        assert_eq!(scaled.global_store_bytes, 8); // 7.5 rounds to 8
        assert_eq!(scaled.threads_executed, 3); // 2.5 rounds
    }

    #[test]
    fn snapshot_merge_is_elementwise() {
        let a = StatsSnapshot { flops: 1, barriers: 2, ..Default::default() };
        let b = StatsSnapshot { flops: 10, shared_accesses: 5, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.flops, 11);
        assert_eq!(m.barriers, 2);
        assert_eq!(m.shared_accesses, 5);
    }

    #[test]
    fn concurrent_absorb_is_lossless() {
        let stats = std::sync::Arc::new(KernelStats::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let st = stats.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        st.absorb(&CostCounters { flops: 1, ..Default::default() });
                    }
                });
            }
        });
        assert_eq!(stats.flops(), 4000);
        assert_eq!(stats.threads_executed(), 4000);
    }
}
