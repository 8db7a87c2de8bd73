//! Cost counters: the per-thread event counts that feed the timing model.
//!
//! Each simulated thread accumulates a private [`CostCounters`]; the executor
//! merges a block's lanes into one set, each worker sums the blocks it
//! commits into a [`StatsSnapshot`], and the launch sums the workers'.
//! These are the quantities a GPU charges time for; [`crate::timing`] turns
//! them into a modeled execution time.

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

/// Launch-wide event counts plus launch geometry, scalable for workload
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
    /// One committed block: its lanes' merged counters, run by `threads`
    /// simulated threads.
    pub fn from_block(c: &CostCounters, threads: u64) -> StatsSnapshot {
        StatsSnapshot {
            flops: c.flops,
            int_ops: c.int_ops,
            global_load_bytes: c.global_load_bytes,
            global_store_bytes: c.global_store_bytes,
            shared_accesses: c.shared_accesses,
            barriers: c.barriers,
            warp_ops: c.warp_ops,
            atomic_ops: c.atomic_ops,
            divergent_branches: c.divergent_branches,
            serial_ops: c.serial_ops,
            const_reads: c.const_reads,
            uniform_load_bytes: c.uniform_load_bytes,
            threads_executed: threads,
            blocks_executed: 1,
        }
    }

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

    /// Element-wise sum of two snapshots (a launch's workers, or several
    /// launches).
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
        let lane = CostCounters { flops: 10, atomic_ops: 2, ..Default::default() };
        let mut block = lane;
        block.merge(&lane);
        let stats = StatsSnapshot::from_block(&block, 2);
        assert_eq!(stats.flops, 20);
        assert_eq!(stats.atomic_ops, 4);
        assert_eq!(stats.threads_executed, 2);
        assert_eq!(stats.blocks_executed, 1);
    }

    #[test]
    fn snapshot_scaling_rounds() {
        let c = CostCounters { flops: 10, global_store_bytes: 3, ..Default::default() };
        let scaled = StatsSnapshot::from_block(&c, 1).scaled(2.5);
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
}
