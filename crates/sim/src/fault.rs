//! Seeded, deterministic fault injection for the simulated GPU substrate.
//!
//! Real accelerators fail: `cudaMalloc` runs out of memory, transfers hit
//! ECC events, kernels trip the driver watchdog, whole devices fall off the
//! bus. The substrate models those failures the same way it models time —
//! deterministically. A [`FaultPlan`] is a pure function of `(seed, site,
//! per-site operation index)`: the same plan against the same program
//! produces the same faults at the same operations on every run, so chaos
//! tests are reproducible and a fault-free plan is bit-identical to no plan
//! at all.
//!
//! A harness builds a [`FaultState`] from a plan and hands it to a
//! [`Device`] — as the `faults` field of the run context the device is
//! created in (`crate::context::RunContext`), or later with
//! [`Device::attach_faults`]; while attached,
//! the device's allocation, memcpy, launch and stream-synchronize paths
//! consult it ("roll") before doing real work. With no state attached the
//! hot paths pay one mutex-guarded `Option` clone.
//!
//! ## Episodes and the recovery guarantee
//!
//! A fired fault starts a per-site *episode* of `burst` consecutive failing
//! rolls (`1 ..= max_burst`, capped at [`BURST_CAP`]); the roll that ends an
//! episode succeeds **without** a fresh rate check. Episodes are keyed per
//! site, so a retry loop at one site is guaranteed to succeed within
//! `burst + 1 <=` [`RetryPolicy::default`]'s `max_attempts` attempts — the
//! property the whole recovery story rests on: every *transient* injected
//! fault is clearable by bounded retry.
//!
//! Non-transient faults (watchdog timeout, device loss) are not retried;
//! the language runtimes degrade instead (host fallback for OpenMP target
//! regions, functional-only execution elsewhere) and record a sticky error,
//! mirroring CUDA's sticky-error model. A watchdog timeout is the nasty
//! one: the killed kernel has already *committed* a deterministic prefix
//! of its blocks (`K = salt % num_blocks`, the same splitmix64 salt that
//! drives every other decision), so the device checkpoints the kernel's
//! write-set before the partial execution and the recovery paths restore
//! it ([`Device::restore_checkpoint`]) before their injection-blind
//! re-dispatch — which is what keeps degraded results bit-identical to
//! the fault-free run.

use crate::device::Device;
use crate::error::SimResult;
use crate::span::SpanCategory;
use ompx_telemetry::MetricRegistry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on episode length, chosen so the default retry budget
/// (`1 + BURST_CAP` attempts) always outlasts an episode.
pub const BURST_CAP: u32 = 3;

/// Where in the substrate a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Device memory allocation (`cudaMalloc`).
    Alloc,
    /// Host-to-device transfer.
    MemcpyH2D,
    /// Device-to-host transfer.
    MemcpyD2H,
    /// Device-to-device transfer.
    MemcpyD2D,
    /// Kernel launch. Most launch faults fire before execution and leave
    /// no side effects; an injected watchdog timeout instead executes and
    /// commits a deterministic prefix of the grid's blocks first — see
    /// [`FaultKind::Watchdog`].
    Launch,
    /// Stream synchronization.
    StreamSync,
}

impl FaultSite {
    /// Every site, in stable order (indexes the per-site state slots).
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Alloc,
        FaultSite::MemcpyH2D,
        FaultSite::MemcpyD2H,
        FaultSite::MemcpyD2D,
        FaultSite::Launch,
        FaultSite::StreamSync,
    ];

    /// Stable per-site slot index / hash domain separator.
    pub fn code(self) -> u64 {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::MemcpyH2D => 1,
            FaultSite::MemcpyD2H => 2,
            FaultSite::MemcpyD2D => 3,
            FaultSite::Launch => 4,
            FaultSite::StreamSync => 5,
        }
    }

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::MemcpyH2D => "memcpy_h2d",
            FaultSite::MemcpyD2H => "memcpy_d2h",
            FaultSite::MemcpyD2D => "memcpy_d2d",
            FaultSite::Launch => "launch",
            FaultSite::StreamSync => "stream_sync",
        }
    }

    /// The fault kinds this site can produce under rate-based injection.
    fn kinds(self) -> &'static [FaultKind] {
        match self {
            FaultSite::Alloc => &[FaultKind::Oom],
            FaultSite::MemcpyH2D | FaultSite::MemcpyD2H | FaultSite::MemcpyD2D => {
                &[FaultKind::MemcpyFail, FaultKind::MemcpyCorrupt, FaultKind::Ecc]
            }
            FaultSite::Launch => &[FaultKind::LaunchFail, FaultKind::Ecc, FaultKind::Watchdog],
            FaultSite::StreamSync => &[FaultKind::StreamFail],
        }
    }
}

/// What kind of failure an injection models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Allocation reports device-memory exhaustion.
    Oom,
    /// Transfer fails outright (no data moves).
    MemcpyFail,
    /// Transfer "completes" but one element is bit-flipped; the API reports
    /// the corruption (ECC detected-uncorrected). A retry re-copies and
    /// thereby repairs the destination.
    MemcpyCorrupt,
    /// Kernel launch rejected by the simulated driver.
    LaunchFail,
    /// Kernel exceeds the modeled watchdog limit and is killed mid-run:
    /// the first `salt % num_blocks` blocks execute and **commit** before
    /// the error surfaces, so the failed launch leaves partial side
    /// effects behind, like a real GPU watchdog. The device checkpoints
    /// the kernel's write-set first so recovery paths can restore the
    /// pre-launch state (`Device::restore_checkpoint`).
    Watchdog,
    /// Transient ECC-style error; a retry is expected to clear it.
    Ecc,
    /// Stream operation failure.
    StreamFail,
    /// Whole-device loss: sticky, every later rolled operation fails.
    DeviceLost,
}

impl FaultKind {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Oom => "oom",
            FaultKind::MemcpyFail => "memcpy_fail",
            FaultKind::MemcpyCorrupt => "memcpy_corrupt",
            FaultKind::LaunchFail => "launch_fail",
            FaultKind::Watchdog => "watchdog",
            FaultKind::Ecc => "ecc",
            FaultKind::StreamFail => "stream_fail",
            FaultKind::DeviceLost => "device_lost",
        }
    }
}

/// A seeded, deterministic schedule of faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-operation hash.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given operation starts a fault
    /// episode (evaluated per site-local operation index).
    pub rate: f64,
    /// Longest episode the plan may start (clamped to [`BURST_CAP`]).
    pub max_burst: u32,
    /// Global operation index at which the whole device is lost, if any.
    pub lose_device_at: Option<u64>,
    /// Explicit single-shot injections: `(site, site-local op index, kind)`.
    /// These fire exactly once (burst 1), independent of `rate`.
    pub injections: Vec<(FaultSite, u64, FaultKind)>,
    /// When set, rate-based episodes fire only this kind: sites whose kind
    /// table does not include it never fire, and sites that do always pick
    /// it. Explicit injections and `lose_device_at` are unaffected. Used
    /// for kind-focused chaos schedules (e.g. watchdog-only).
    pub only: Option<FaultKind>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, adds no overhead beyond the rolls.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate: 0.0,
            max_burst: 1,
            lose_device_at: None,
            injections: Vec::new(),
            only: None,
        }
    }

    /// Rate-based plan: each operation starts an episode with probability
    /// `rate`, deterministically derived from `seed`.
    pub fn seeded(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            max_burst: BURST_CAP,
            lose_device_at: None,
            injections: Vec::new(),
            only: None,
        }
    }

    /// Lose the whole device once `n` operations (across all sites) have
    /// been issued.
    pub fn with_device_loss_at(mut self, n: u64) -> FaultPlan {
        self.lose_device_at = Some(n);
        self
    }

    /// Add an explicit single-shot injection at `(site, op)`.
    pub fn with_injection(mut self, site: FaultSite, op: u64, kind: FaultKind) -> FaultPlan {
        self.injections.push((site, op, kind));
        self
    }

    /// Restrict rate-based episodes to `kind` (e.g. watchdog-only chaos
    /// schedules). Sites that cannot produce `kind` stop firing.
    pub fn with_only_kind(mut self, kind: FaultKind) -> FaultPlan {
        self.only = Some(kind);
        self
    }

    /// Derive the plan for pool member `member` of a device pool: same
    /// rate, burst, kind restriction and explicit injections, but an
    /// *independent* seed (splitmix64 over the base seed and the member
    /// index). A serving pool installs one base plan and derives each
    /// member's from it, so chaos schedules do not correlate across
    /// devices — member 0 faulting at operation `n` says nothing about
    /// member 1's operation `n`. `lose_device_at` is kept only on member
    /// 0 by default (losing *every* pool device at the same operation is
    /// exactly the correlated schedule this exists to avoid); use
    /// [`FaultPlan::with_device_loss_at`] after deriving to lose a
    /// specific member.
    pub fn for_pool_member(&self, member: usize) -> FaultPlan {
        let mut plan = self.clone();
        plan.seed = splitmix64(
            self.seed ^ splitmix64(0x6F6D_7078_5F73_7276 ^ (member as u64).wrapping_mul(0x9E37)),
        );
        if member != 0 {
            plan.lose_device_at = None;
        }
        plan
    }

    /// True when the plan can never fire (the fault-free baseline).
    pub fn is_quiet(&self) -> bool {
        self.rate <= 0.0 && self.lose_device_at.is_none() && self.injections.is_empty()
    }
}

/// Bounded-retry policy with deterministic modeled-time backoff.
///
/// The default budget (`1 + BURST_CAP` attempts) is sized so that any
/// transient episode a [`FaultPlan`] can start is outlasted — see the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Modeled backoff before retry `k` is `backoff_base_s * 2^(k-1)`.
    pub backoff_base_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 + BURST_CAP, backoff_base_s: 20e-6 }
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, backoff_base_s: 0.0 }
    }

    /// Modeled backoff (seconds) charged before retry number `attempt`
    /// (1-based count of already-failed attempts; 0 is treated as 1).
    /// The doubling ladder saturates instead of wrapping: once the shift
    /// exceeds the width of `u64` the factor pins at `u64::MAX`, so the
    /// backoff is monotone non-decreasing for *every* attempt number.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let factor = 1u64.checked_shl(attempt.saturating_sub(1)).unwrap_or(u64::MAX);
        self.backoff_base_s * factor as f64
    }
}

/// One fired fault (recorded once per episode start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: FaultSite,
    /// Site-local operation index the episode started at.
    pub op: u64,
    pub kind: FaultKind,
}

/// The injection decision for one rolled operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Injected {
    pub kind: FaultKind,
    /// Deterministic per-episode salt (picks e.g. the corrupted element).
    pub salt: u64,
}

/// An in-progress fault episode at one site.
struct Episode {
    kind: FaultKind,
    /// Failing rolls still owed *after* the one that started the episode.
    remaining: u32,
    salt: u64,
}

/// Everything observed while a plan was attached: the chaos harness's
/// ground truth.
#[derive(Debug, Clone, Default)]
pub struct FaultSnapshot {
    /// Episodes fired, in order.
    pub injected: Vec<FaultEvent>,
    /// Operations that failed at least once and then succeeded on retry.
    pub recovered: u64,
    /// Target regions re-dispatched through the host-fallback path.
    pub fallbacks: Vec<String>,
    /// Operations that gave up on injection and completed unchecked.
    pub degraded: Vec<String>,
    /// Errors recorded as sticky device state (retries exhausted or
    /// non-transient faults).
    pub sticky: Vec<String>,
    /// True once the plan's device loss has fired.
    pub device_lost: bool,
}

/// Live injection state for one attached [`FaultPlan`].
pub struct FaultState {
    plan: FaultPlan,
    /// Per-site operation counters (indexed by [`FaultSite::code`]).
    site_ops: [AtomicU64; 6],
    /// Operations rolled across all sites (drives `lose_device_at`).
    global_ops: AtomicU64,
    /// Per-site episode slots (indexed by [`FaultSite::code`]).
    episodes: [Mutex<Option<Episode>>; 6],
    injected: Mutex<Vec<FaultEvent>>,
    recovered: AtomicU64,
    fallbacks: Mutex<Vec<String>>,
    degraded: Mutex<Vec<String>>,
    sticky: Mutex<Vec<String>>,
    lost: AtomicBool,
}

/// SplitMix64 finalizer: the deterministic hash behind every injection
/// decision (same generator the benchmark input generators use).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultState {
    /// Fresh state for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan,
            site_ops: Default::default(),
            global_ops: AtomicU64::new(0),
            episodes: Default::default(),
            injected: Mutex::new(Vec::new()),
            recovered: AtomicU64::new(0),
            fallbacks: Mutex::new(Vec::new()),
            degraded: Mutex::new(Vec::new()),
            sticky: Mutex::new(Vec::new()),
            lost: AtomicBool::new(false),
        })
    }

    /// The plan this state injects from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Count an injection on the rolling device's metric registry, if
    /// any, labeled by fault kind and injection site.
    fn meter_injection(metrics: Option<&MetricRegistry>, site: FaultSite, kind: FaultKind) {
        if let Some(reg) = metrics {
            reg.counter_add(
                "fault_injected_total",
                &[("kind", kind.label()), ("site", site.label())],
                1,
            );
        }
    }

    /// Decide whether the next operation at `site` faults; a fresh
    /// injection is counted on `metrics`.
    pub(crate) fn roll(
        &self,
        site: FaultSite,
        metrics: Option<&MetricRegistry>,
    ) -> Option<Injected> {
        let slot = site.code() as usize;
        let op = self.site_ops[slot].fetch_add(1, Ordering::Relaxed);
        let gop = self.global_ops.fetch_add(1, Ordering::Relaxed);

        if self.lost.load(Ordering::Acquire) {
            return Some(Injected { kind: FaultKind::DeviceLost, salt: 0 });
        }
        if let Some(at) = self.plan.lose_device_at {
            if gop >= at {
                self.lost.store(true, Ordering::Release);
                self.injected.lock().push(FaultEvent { site, op, kind: FaultKind::DeviceLost });
                Self::meter_injection(metrics, site, FaultKind::DeviceLost);
                return Some(Injected { kind: FaultKind::DeviceLost, salt: 0 });
            }
        }

        let mut episode = self.episodes[slot].lock();
        if let Some(ep) = episode.as_mut() {
            if ep.remaining > 0 {
                ep.remaining -= 1;
                return Some(Injected { kind: ep.kind, salt: ep.salt });
            }
            // The roll that ends an episode succeeds with *no* fresh rate
            // check — this is the bounded-retry recovery guarantee.
            *episode = None;
            return None;
        }

        // Explicit single-shot injections fire with burst 1 (the next roll
        // at this site succeeds), independent of the rate.
        if let Some(&(_, _, kind)) =
            self.plan.injections.iter().find(|(s, o, _)| *s == site && *o == op)
        {
            let salt = splitmix64(self.plan.seed ^ site.code() ^ op);
            *episode = Some(Episode { kind, remaining: 0, salt });
            self.injected.lock().push(FaultEvent { site, op, kind });
            Self::meter_injection(metrics, site, kind);
            return Some(Injected { kind, salt });
        }

        if self.plan.rate <= 0.0 {
            return None;
        }
        let h = splitmix64(
            self.plan
                .seed
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(site.code().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(op),
        );
        let uniform = (h >> 11) as f64 / (1u64 << 53) as f64;
        if uniform >= self.plan.rate {
            return None;
        }
        let h2 = splitmix64(h);
        let kind = match self.plan.only {
            Some(k) => {
                if !site.kinds().contains(&k) {
                    return None;
                }
                k
            }
            None => {
                let kinds = site.kinds();
                kinds[(h2 % kinds.len() as u64) as usize]
            }
        };
        let burst = 1 + ((h2 >> 8) as u32 % self.plan.max_burst.clamp(1, BURST_CAP));
        *episode = Some(Episode { kind, remaining: burst - 1, salt: h2 });
        self.injected.lock().push(FaultEvent { site, op, kind });
        Self::meter_injection(metrics, site, kind);
        Some(Injected { kind, salt: h2 })
    }

    /// Record a retry that ultimately succeeded.
    pub(crate) fn note_recovered(&self, metrics: Option<&MetricRegistry>) {
        self.recovered.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = metrics {
            reg.counter_add("fault_recovered_total", &[], 1);
        }
    }

    /// Record a target region re-dispatched through the host fallback.
    pub(crate) fn note_fallback(&self, what: &str, metrics: Option<&MetricRegistry>) {
        self.fallbacks.lock().push(what.to_string());
        if let Some(reg) = metrics {
            reg.counter_add("fault_fallbacks_total", &[], 1);
        }
    }

    /// Record an operation that bypassed injection and completed unchecked.
    pub(crate) fn note_degraded(&self, what: &str, metrics: Option<&MetricRegistry>) {
        self.degraded.lock().push(what.to_string());
        if let Some(reg) = metrics {
            reg.counter_add("fault_degraded_total", &[], 1);
        }
    }

    /// Record an error that became sticky device state.
    pub(crate) fn note_sticky(&self, what: &str, metrics: Option<&MetricRegistry>) {
        self.sticky.lock().push(what.to_string());
        if let Some(reg) = metrics {
            reg.counter_add("fault_sticky_total", &[], 1);
        }
    }

    /// True once the plan's device loss has fired.
    pub fn device_lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// Mark the device lost (also done implicitly by `lose_device_at`).
    pub fn mark_lost(&self) {
        self.lost.store(true, Ordering::Release);
    }

    /// Everything observed so far.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            injected: self.injected.lock().clone(),
            recovered: self.recovered.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.lock().clone(),
            degraded: self.degraded.lock().clone(),
            sticky: self.sticky.lock().clone(),
            device_lost: self.lost.load(Ordering::Acquire),
        }
    }
}

/// Run `f` under `policy`: transient failures are retried with modeled
/// exponential backoff (each retry is a `retry` span on the host track, so
/// profiler timelines show the recovery); the final failure is recorded as
/// the device's sticky error and returned.
pub fn run_with_retry<T>(
    device: &Device,
    policy: &RetryPolicy,
    op_name: &str,
    mut f: impl FnMut() -> SimResult<T>,
) -> SimResult<T> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => {
                if attempt > 1 {
                    if let Some(faults) = device.faults() {
                        faults.note_recovered(device.metrics());
                    }
                    if let Some(log) = device.span_log() {
                        log.host_op(
                            &format!("recovered {op_name} (attempt {attempt})"),
                            SpanCategory::Retry,
                            0.0,
                            0,
                        );
                    }
                }
                return Ok(v);
            }
            Err(e) if e.is_transient() && attempt < max_attempts => {
                if let Some(log) = device.span_log() {
                    log.host_op(
                        &format!("retry {op_name} #{attempt}: {e}"),
                        SpanCategory::Retry,
                        policy.backoff_s(attempt),
                        0,
                    );
                }
                attempt += 1;
            }
            Err(e) => {
                device.record_error(e.clone());
                if let Some(faults) = device.faults() {
                    faults.note_sticky(&format!("{op_name}: {e}"), device.metrics());
                }
                return Err(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let st = FaultState::new(FaultPlan::none());
        for site in FaultSite::ALL {
            for _ in 0..200 {
                assert!(st.roll(site, None).is_none());
            }
        }
        let snap = st.snapshot();
        assert!(snap.injected.is_empty());
        assert!(!snap.device_lost);
    }

    #[test]
    fn rolls_are_deterministic_in_seed_and_op() {
        let fired = |seed| {
            let st = FaultState::new(FaultPlan::seeded(seed, 0.2));
            (0..100)
                .filter_map(|_| st.roll(FaultSite::Launch, None).map(|i| i.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(fired(7), fired(7));
        assert_ne!(fired(7), fired(8), "different seeds should differ at rate 0.2");
        assert!(!fired(7).is_empty(), "rate 0.2 over 100 ops should fire");
    }

    #[test]
    fn episodes_end_in_guaranteed_success_within_burst_cap() {
        let st = FaultState::new(FaultPlan::seeded(42, 1.0));
        // Rate 1.0: every fresh roll starts an episode, but an episode must
        // still end in success after at most BURST_CAP failures.
        for _ in 0..20 {
            let mut failures = 0;
            while st.roll(FaultSite::MemcpyH2D, None).is_some() {
                failures += 1;
                assert!(failures <= BURST_CAP, "episode exceeded the burst cap");
            }
            assert!(failures >= 1, "rate 1.0 must fire every episode");
        }
    }

    #[test]
    fn explicit_injection_fires_once_at_the_named_op() {
        let st =
            FaultState::new(FaultPlan::none().with_injection(FaultSite::Alloc, 3, FaultKind::Oom));
        for op in 0..10u64 {
            let hit = st.roll(FaultSite::Alloc, None);
            if op == 3 {
                assert_eq!(hit.unwrap().kind, FaultKind::Oom);
                // The single-shot episode ends on the next roll (retry path).
                assert!(st.roll(FaultSite::Alloc, None).is_none());
            } else {
                assert!(hit.is_none(), "op {op} should not fault");
            }
        }
        assert_eq!(st.snapshot().injected.len(), 1);
    }

    #[test]
    fn device_loss_is_sticky_across_all_sites() {
        let st = FaultState::new(FaultPlan::none().with_device_loss_at(5));
        for _ in 0..5 {
            assert!(st.roll(FaultSite::Launch, None).is_none());
        }
        assert_eq!(st.roll(FaultSite::Launch, None).unwrap().kind, FaultKind::DeviceLost);
        assert!(st.device_lost());
        for site in FaultSite::ALL {
            assert_eq!(st.roll(site, None).unwrap().kind, FaultKind::DeviceLost);
        }
    }

    #[test]
    fn sites_fire_only_their_own_kinds() {
        let st = FaultState::new(FaultPlan::seeded(1234, 0.5));
        for site in FaultSite::ALL {
            for _ in 0..200 {
                if let Some(inj) = st.roll(site, None) {
                    assert!(
                        site.kinds().contains(&inj.kind),
                        "{:?} fired {:?}, not one of its kinds",
                        site,
                        inj.kind
                    );
                }
            }
        }
    }

    #[test]
    fn only_kind_filter_restricts_rate_based_episodes() {
        let st = FaultState::new(FaultPlan::seeded(7, 0.9).with_only_kind(FaultKind::Watchdog));
        let mut fired = 0;
        for site in FaultSite::ALL {
            for _ in 0..100 {
                if let Some(inj) = st.roll(site, None) {
                    assert_eq!(inj.kind, FaultKind::Watchdog, "{site:?} leaked another kind");
                    fired += 1;
                }
            }
        }
        assert!(fired > 0, "the launch site must fire watchdogs at rate 0.9");
        assert!(
            st.snapshot().injected.iter().all(|e| e.site == FaultSite::Launch),
            "only the launch site can produce watchdogs"
        );
    }

    #[test]
    fn pool_member_plans_are_decorrelated() {
        let base = FaultPlan::seeded(20260808, 0.15).with_device_loss_at(40);
        let fired = |plan: FaultPlan| {
            let st = FaultState::new(FaultPlan { lose_device_at: None, ..plan });
            (0..400).map(|_| st.roll(FaultSite::Launch, None).is_some()).collect::<Vec<_>>()
        };
        let m0 = fired(base.for_pool_member(0));
        let m1 = fired(base.for_pool_member(1));
        let m2 = fired(base.for_pool_member(2));
        assert_ne!(m0, m1, "members 0 and 1 share a schedule");
        assert_ne!(m1, m2, "members 1 and 2 share a schedule");
        // Derivation is deterministic: the same member gets the same seed.
        assert_eq!(base.for_pool_member(1), base.for_pool_member(1));
        // Rate/burst/injections carry over; device loss stays on member 0.
        assert_eq!(base.for_pool_member(3).rate, base.rate);
        assert_eq!(base.for_pool_member(0).lose_device_at, Some(40));
        assert_eq!(base.for_pool_member(3).lose_device_at, None);
    }

    #[test]
    fn default_retry_budget_outlasts_any_episode() {
        let p = RetryPolicy::default();
        assert!(p.max_attempts > BURST_CAP);
        assert!(p.backoff_s(2) > p.backoff_s(1), "backoff grows");
    }

    #[test]
    fn backoff_ladder_doubles_then_saturates() {
        let base = 20e-6;
        let p = RetryPolicy { max_attempts: 4, backoff_base_s: base };
        // Attempt 0 is out-of-contract input; it maps onto attempt 1
        // rather than underflowing the shift.
        assert_eq!(p.backoff_s(0), base);
        // The doubling ladder: 2^(k-1) * base.
        assert_eq!(p.backoff_s(1), base);
        assert_eq!(p.backoff_s(2), 2.0 * base);
        assert_eq!(p.backoff_s(3), 4.0 * base);
        assert_eq!(p.backoff_s(17), 65536.0 * base);
        // Largest in-width shift, then the saturation boundary: attempt
        // 65 shifts by 64 (out of range for u64) and must pin, not wrap.
        assert_eq!(p.backoff_s(64), (1u64 << 63) as f64 * base);
        assert_eq!(p.backoff_s(65), u64::MAX as f64 * base);
        assert_eq!(p.backoff_s(u32::MAX), u64::MAX as f64 * base);
        // Monotone non-decreasing across the boundary.
        assert!(p.backoff_s(65) >= p.backoff_s(64));
        assert!(p.backoff_s(66) >= p.backoff_s(65));
    }
}
