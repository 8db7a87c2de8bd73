//! Barrier phases and warp-level exchange state: shuffles, ballots and
//! warp barriers.
//!
//! A warp (NVIDIA, 32 lanes) or wavefront (AMD, 64 lanes) is the unit of
//! lockstep execution on a GPU. The paper's §3.3.2 extensions expose warp
//! synchronization (`ompx_sync_warp`) and warp primitives (`ompx_shfl_sync`)
//! so kernel-language programs can be ported verbatim; this module provides
//! the substrate those APIs lower to.
//!
//! The lanes of a synchronising block run as fibers on one host thread (see
//! [`crate::exec`]), so every rendezvous is a [`Phaser`]: a phase counter
//! that a lane arrives at and then waits out until the last live lane
//! arrives. A collective is one rendezvous:
//!
//! * `shuffle`: every lane publishes its value into its slot for the
//!   parity of the current warp phase, arrives, and once the phase
//!   completes reads its source lane's slot of that parity;
//! * `ballot`: lanes OR their predicate bit into the parity's mask word
//!   instead.
//!
//! Two parities suffice: a lane that already passed phase `p` may publish
//! for `p + 1` while slower lanes still read `p`, but phase `p + 2` cannot
//! begin before every live lane arrived at `p + 1`, and so finished
//! reading `p`. The mask word of a parity is cleared when the phase before
//! it completes.
//!
//! As on real hardware, a warp collective must be executed by every
//! still-active lane of the warp; lanes that return from the kernel early
//! retire, matching CUDA's "exited threads count as arrived" semantics. A
//! retired lane's slot keeps returning the last value it shuffled.

use std::cell::Cell;

/// A barrier as a phase counter over a shrinking set of live lanes.
pub(crate) struct Phaser {
    live: Cell<usize>,
    arrived: Cell<usize>,
    phase: Cell<u64>,
}

impl Phaser {
    /// A barrier over `live` lanes, at phase 0.
    pub(crate) fn new(live: usize) -> Self {
        Phaser { live: Cell::new(live), arrived: Cell::new(0), phase: Cell::new(0) }
    }

    /// Completed phases so far.
    pub(crate) fn phase(&self) -> u64 {
        self.phase.get()
    }

    /// Lanes that have not retired.
    pub(crate) fn live(&self) -> usize {
        self.live.get()
    }

    /// Arrive at the current phase. `None` when this arrival completes it;
    /// otherwise the phase the caller must wait out.
    pub(crate) fn arrive(&self) -> Option<u64> {
        let arrived = self.arrived.get() + 1;
        if arrived >= self.live.get() {
            self.advance();
            None
        } else {
            self.arrived.set(arrived);
            Some(self.phase.get())
        }
    }

    /// A lane exited: it counts as arrived from now on. Returns `true` when
    /// that completes the current phase.
    pub(crate) fn retire(&self) -> bool {
        let live = self.live.get() - 1;
        self.live.set(live);
        let completes = live > 0 && self.arrived.get() >= live;
        if completes {
            self.advance();
        }
        completes
    }

    fn advance(&self) {
        self.arrived.set(0);
        self.phase.set(self.phase.get() + 1);
    }
}

/// Exchange state for one warp of a running thread block.
pub(crate) struct WarpGroup {
    /// Lanes in this warp (the trailing warp of a block may be narrower
    /// than the device warp width).
    lanes: u32,
    /// Warp barrier; every collective is one of its phases.
    phaser: Phaser,
    /// Per-lane 64-bit shuffle words, one per phase parity.
    slots: Box<[[Cell<u64>; 2]]>,
    /// Each lane's most recently shuffled word.
    last: Box<[Cell<u64>]>,
    /// Ballot accumulation words, one per phase parity.
    masks: [Cell<u64>; 2],
}

impl WarpGroup {
    /// Exchange state for a warp of `lanes` threads.
    pub(crate) fn new(lanes: u32) -> Self {
        assert!(lanes > 0 && lanes <= 64, "warp width must be in 1..=64, got {lanes}");
        WarpGroup {
            lanes,
            phaser: Phaser::new(lanes as usize),
            slots: (0..lanes).map(|_| Default::default()).collect(),
            last: (0..lanes).map(|_| Cell::new(0)).collect(),
            masks: Default::default(),
        }
    }

    /// Lanes in this warp.
    pub(crate) fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Completed warp phases so far.
    pub(crate) fn phase(&self) -> u64 {
        self.phaser.phase()
    }

    fn parity(&self) -> usize {
        (self.phaser.phase() & 1) as usize
    }

    /// Arrive at a warp barrier or collective: `None` when this arrival
    /// completes the phase, otherwise the phase to wait out.
    pub(crate) fn arrive(&self) -> Option<u64> {
        let waiting = self.phaser.arrive();
        if waiting.is_none() {
            self.masks[self.parity()].set(0);
        }
        waiting
    }

    /// Remove lane `lane`, which returned from the kernel.
    pub(crate) fn retire(&self, lane: u32) {
        let last = self.last[lane as usize].get();
        for slot in &self.slots[lane as usize] {
            slot.set(last);
        }
        if self.phaser.retire() {
            self.masks[self.parity()].set(0);
        }
    }

    /// Publish lane `lane`'s shuffle word for the current phase; returns
    /// the phase parity to read the result from.
    pub(crate) fn publish(&self, lane: u32, word: u64) -> usize {
        let parity = self.parity();
        self.slots[lane as usize][parity].set(word);
        self.last[lane as usize].set(word);
        parity
    }

    /// The word lane `src_lane` published at `parity`, the source wrapped
    /// into range like CUDA's modular lane arithmetic.
    ///
    /// Semantic note: on a *partial* trailing warp (block size not a
    /// multiple of the device warp width) the wrap uses the partial lane
    /// count. On real hardware, reading a non-existent lane of a partial
    /// warp is undefined; warp-width-based idioms (XOR butterflies) should
    /// only be used on full warps, as the HeCBench kernels do.
    pub(crate) fn word(&self, parity: usize, src_lane: u32) -> u64 {
        self.slots[(src_lane % self.lanes) as usize][parity].get()
    }

    /// Add lane `lane`'s ballot predicate for the current phase; returns
    /// the phase parity to read the mask from.
    pub(crate) fn vote(&self, lane: u32, pred: bool) -> usize {
        let parity = self.parity();
        if pred {
            let mask = &self.masks[parity];
            mask.set(mask.get() | 1u64 << lane);
        }
        parity
    }

    /// The ballot mask collected at `parity`.
    pub(crate) fn mask(&self, parity: usize) -> u64 {
        self.masks[parity].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceProfile};
    use crate::dim::LaunchConfig;
    use crate::exec::Kernel;
    use crate::thread::ThreadCtx;

    /// Run `f` on every lane of one block of `lanes` threads on a device
    /// whose warps are `lanes` wide, through the fiber scheduler; `f`
    /// returns whether the lane's checks held.
    fn run_warp(lanes: u32, f: impl Fn(&mut ThreadCtx) -> bool + Send + Sync + 'static) {
        let d = Device::new(DeviceProfile { warp_size: lanes, ..DeviceProfile::test_small() });
        let ok = d.alloc::<u32>(lanes as usize);
        let k = Kernel::new("warp_test", {
            let ok = ok.clone();
            move |ctx: &mut ThreadCtx| {
                let pass = f(ctx);
                ctx.write(&ok, ctx.thread_rank(), u32::from(pass));
            }
        })
        .with_warp_ops();
        d.launch(&k, LaunchConfig::new(1u32, lanes)).unwrap();
        assert_eq!(ok.to_vec(), vec![1; lanes as usize], "lanes whose checks failed read 0");
    }

    #[test]
    fn shfl_broadcast_from_lane_zero() {
        run_warp(8, |ctx| {
            let lane = ctx.lane_id() as u32;
            ctx.shfl(lane * 10, 0) == 0
        });
    }

    #[test]
    fn shfl_rotation_is_a_permutation() {
        run_warp(16, |ctx| {
            // shfl from (lane+1)%n implements a rotation.
            let lane = ctx.lane_id();
            ctx.shfl(lane as u64, lane + 1) == ((lane + 1) % 16) as u64
        });
    }

    #[test]
    fn shfl_floats_roundtrip_bit_exact() {
        run_warp(4, |ctx| {
            let lane = ctx.lane_id();
            let v = -1.5f32 * lane as f32;
            ctx.shfl(v, lane).to_bits() == v.to_bits() // self-shuffle
        });
    }

    #[test]
    fn consecutive_shuffles_do_not_interfere() {
        run_warp(8, |ctx| {
            let lane = ctx.lane_id() as u32;
            (0..50u32).all(|round| ctx.shfl(lane + round * 100, 3) == 3 + round * 100)
        });
    }

    #[test]
    fn ballot_collects_predicates() {
        run_warp(8, |ctx| {
            let lane = ctx.lane_id();
            // The third ballot reuses the first one's parity: its mask
            // must have been cleared in between.
            ctx.ballot(lane % 2 == 0) == 0b0101_0101
                && ctx.ballot(lane < 2) == 0b0000_0011
                && ctx.ballot(lane == 7) == 0b1000_0000
        });
    }

    #[test]
    fn warp_reduction_via_shfl_down() {
        // The canonical butterfly reduction built from shuffles.
        run_warp(32, |ctx| {
            let lane = ctx.lane_id();
            let mut acc = (lane + 1) as u64; // values 1..=32
            let mut offset = 16;
            while offset > 0 {
                acc += ctx.shfl_down(acc, offset);
                offset /= 2;
            }
            lane != 0 || acc == (1..=32u64).sum::<u64>()
        });
    }

    #[test]
    fn ballot_mask_clears_even_when_retirement_completes_the_phase() {
        // Lane 3 votes true in ballot #0 and then retires; lanes 0-2 run a
        // later same-parity ballot that must NOT see lane 3's stale bit.
        run_warp(4, |ctx| {
            let lane = ctx.lane_id();
            if ctx.ballot(true) != 0b1111 {
                return false;
            }
            if lane == 3 {
                return true;
            }
            // Different parity, then back to parity 0.
            ctx.ballot(false) == 0 && ctx.ballot(lane == 0) == 0b0001
        });
    }

    #[test]
    fn retired_lanes_keep_their_last_shuffled_value() {
        run_warp(4, |ctx| {
            let lane = ctx.lane_id() as u32;
            if ctx.shfl(lane + 10, lane as usize) != lane + 10 {
                return false;
            }
            if lane == 3 {
                return true;
            }
            // Two more rounds, so both parities are read after lane 3 left.
            ctx.shfl(lane, 3) == 13 && ctx.shfl(lane, 3) == 13
        });
    }

    #[test]
    fn phaser_releases_on_last_arrival_or_retirement() {
        let p = Phaser::new(3);
        assert_eq!(p.arrive(), Some(0));
        assert_eq!(p.arrive(), Some(0));
        assert_eq!(p.arrive(), None, "the last arrival completes the phase");
        assert_eq!(p.phase(), 1);
        assert_eq!(p.arrive(), Some(1));
        assert_eq!(p.arrive(), Some(1));
        assert!(p.retire(), "retiring the only missing lane completes the phase");
        assert_eq!((p.phase(), p.live()), (2, 2));
        assert!(!p.retire(), "no one waits, so nothing completes");
        assert_eq!(p.arrive(), None, "a lone lane never waits");
    }

    #[test]
    #[should_panic(expected = "warp width")]
    fn oversized_warp_rejected() {
        let _ = WarpGroup::new(65);
    }
}
