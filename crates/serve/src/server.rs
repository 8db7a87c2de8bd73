//! The serving loop: event-driven dispatch over modeled time.
//!
//! Requests arrive on a modeled clock, are admitted or shed by the
//! backpressure policy, shard by tenant onto pool members, and execute in
//! batches. *Execution* is real — every batch runs its hecbench cell
//! through [`ChaosSession::run_cell`] with the member's persistent fault
//! state attached — while *time* is modeled: each member carries a busy
//! cursor in modeled seconds and a batch occupies it for the run's
//! reported time, with followers paying only the non-launch fraction
//! (batching amortizes per-launch setup, which is the whole point for
//! launch-bound kernels like Adam's). The loop itself is single-threaded
//! and seeded, so a serve run is bit-reproducible end to end.
//!
//! On top of the base loop sit the resilience policies:
//!
//! * **EDF-within-priority scheduling** — each member serves its backlog
//!   ordered by `(priority rank, deadline, arrival, id)`; interactive
//!   traffic cuts the line and, within a class, the earliest deadline
//!   goes first.
//! * **Brownout admission ladder** — best-effort traffic is shed once
//!   the backlog crosses `brownout_best_effort · queue_cap`, batch at
//!   `brownout_batch · queue_cap`, interactive only by the fair-slice cap
//!   rule — so pressure degrades the scavenger classes first.
//! * **Hedged re-dispatch** — once a batch runs past the app's
//!   quantile-derived hedge threshold (from the telemetry service-time
//!   histogram), a second attempt launches on an idle healthy member;
//!   the first completion wins, the loser is cancelled and its device
//!   span is marked.
//! * **Circuit breakers** — every member's dispatch outcomes feed a
//!   closed → open → half-open breaker; routing skips open breakers and
//!   an opening breaker's backlog drains to healthy members.
//! * **Warm spares** — on an observed device loss, a standby member is
//!   promoted after re-running the fault-free warmup to re-pin the
//!   expected checksums, and tenants re-shard onto the new serving set.
//!
//! [`ChaosSession::run_cell`]: ompx_hecbench::ChaosSession

use crate::error::ServeError;
use crate::loadgen::{self, LoadSpec};
use crate::pool::{DeviceKind, DevicePool};
use crate::request::{version_tag, Request, Response, Verdict};
use ompx_hecbench::{ChaosSession, ProgVersion, RunOutcome, System, WorkScale};
use ompx_resilience::{
    BreakerConfig, BreakerState, DeadlinePolicy, HedgeConfig, HedgeTracker, Priority, Transition,
};
use ompx_sim::fault::FaultPlan;
use ompx_sim::span::{Span, SpanCategory, SpanLog};
use ompx_telemetry::{MetricRegistry, Snapshot};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Server shape and policies.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed for sharding (load generation seeds separately via [`LoadSpec`]).
    pub seed: u64,
    /// Pool member profiles in member-index order.
    pub devices: Vec<DeviceKind>,
    /// Warm spares appended to the pool as standby members: they take no
    /// traffic until a device loss promotes one into the serving set.
    pub spares: Vec<DeviceKind>,
    /// Largest batch one dispatch may coalesce.
    pub max_batch: usize,
    /// Admission cap: a request is shed when the total backlog is at the
    /// cap *and* its tenant holds at least its fair slice of it.
    pub queue_cap: usize,
    /// Offered load relative to estimated pool capacity (>1 keeps queues
    /// non-empty so batching and backpressure actually engage).
    pub load_factor: f64,
    /// Base chaos plan; member `m` runs `plan.for_pool_member(m)`.
    /// `None` = fault-free serving.
    pub plan: Option<FaultPlan>,
    /// Functional workload scale for the executed cells.
    pub scale: WorkScale,
    /// Deadline factors per priority class.
    pub deadlines: DeadlinePolicy,
    /// Hedge threshold shape (quantile, multiplier, minimum samples).
    pub hedge: HedgeConfig,
    /// Circuit-breaker thresholds. A non-positive `cooldown_s` means
    /// "auto": the server derives it as [`BREAKER_COOLDOWN_ESTIMATES`] ×
    /// the mean warmup service estimate, keeping the cooldown scale-free.
    pub breaker: BreakerConfig,
    /// Brownout ladder: best-effort traffic is shed once the backlog
    /// reaches this fraction of `queue_cap`.
    pub brownout_best_effort: f64,
    /// Brownout ladder: batch traffic is shed once the backlog reaches
    /// this fraction of `queue_cap`.
    pub brownout_batch: f64,
}

/// Auto-derived breaker cooldown, in units of the mean warmup estimate.
pub const BREAKER_COOLDOWN_ESTIMATES: f64 = 20.0;

impl ServeConfig {
    /// The default pool: two A100s and two MI250s, batch 8, cap 64,
    /// offered at 1.3× capacity, fault-free, no spares, default
    /// resilience policies (auto breaker cooldown).
    pub fn new(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            devices: vec![DeviceKind::A100, DeviceKind::A100, DeviceKind::Mi250, DeviceKind::Mi250],
            spares: Vec::new(),
            max_batch: 8,
            queue_cap: 64,
            load_factor: 1.3,
            plan: None,
            scale: WorkScale::Test,
            deadlines: DeadlinePolicy::default(),
            hedge: HedgeConfig::default(),
            breaker: BreakerConfig { cooldown_s: 0.0, ..BreakerConfig::default() },
            brownout_best_effort: 0.5,
            brownout_batch: 0.85,
        }
    }
}

/// Counters the resilience machinery accumulated over one serve run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Hedged second attempts actually launched.
    pub hedges_launched: u64,
    /// Hedges whose attempt completed first (and validly) — the primary
    /// was cancelled.
    pub hedges_won: u64,
    /// Hedge arms that found no idle healthy member to launch on.
    pub hedges_skipped: u64,
    /// Circuit-breaker state transitions, all edges.
    pub breaker_transitions: u64,
    /// Transitions whose destination was `Open`.
    pub breaker_opens: u64,
    /// Warm spares promoted into the serving set.
    pub spares_promoted: u64,
    /// Completed requests that finished past their deadline.
    pub deadline_misses: u64,
    /// Requests shed at admission, by class.
    pub shed_interactive: u64,
    /// Requests shed at admission, by class.
    pub shed_batch: u64,
    /// Requests shed at admission, by class.
    pub shed_best_effort: u64,
}

/// Everything a serve run produced.
pub struct ServeResult {
    /// One response per request, sorted by request id.
    pub responses: Vec<Response>,
    /// Final pool state (served counts, busy seconds, loss flags).
    pub pool: DevicePool,
    /// The full session timeline, including per-member `Track::Device`
    /// batch spans and the retry/fallback spans the runs recorded.
    pub spans: Vec<Span>,
    /// Fault-free checksum per app, established by the warmup runs.
    pub expected: HashMap<&'static str, u64>,
    /// The modeled arrival horizon the load was scaled onto.
    pub horizon_s: f64,
    /// Resilience accounting: hedges, breaker activity, spare
    /// promotions, deadline misses, per-class shedding.
    pub stats: ResilienceStats,
    /// Metric snapshot taken at drain time from the session's registry:
    /// queue/batch/backpressure counters, per-tenant latency histograms,
    /// the resilience families, and the substrate families (`sim_*`,
    /// `fault_*`, sanitizer) the executed cells recorded. Deterministic
    /// for a fixed `(cfg, spec)`.
    pub metrics: Snapshot,
}

/// Modeled service cost of a failed (typed-error) dispatch, as a fraction
/// of the app's fault-free run estimate: the device was occupied while
/// the launch path discovered the error.
const FAIL_SERVICE_FRAC: f64 = 0.1;

/// Event-queue entry. Frees and hedge checks sort before arrivals at
/// equal time so a freed member immediately sees work that arrives on
/// the same tick.
struct Ev {
    t: f64,
    rank: u8,
    seq: u64,
    kind: EvKind,
}

enum EvKind {
    Arrival(usize),
    Free(usize),
    /// Resolve the pending hedge decision for the batch with this trace
    /// id: the primary has run past the hedge threshold by now.
    HedgeCheck(u64),
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest event pops.
        other.t.total_cmp(&self.t).then(other.rank.cmp(&self.rank)).then(other.seq.cmp(&self.seq))
    }
}

/// A dispatched batch whose responses are withheld until the hedge
/// decision at `t0 + threshold` resolves.
struct PendingHedge {
    m: usize,
    batch: Vec<usize>,
    t0: f64,
    service: f64,
    verdict: Verdict,
    checksum: Option<u64>,
}

/// Breaker-edge label for metric series.
fn edge_label(t: Transition) -> &'static str {
    match (t.from, t.to) {
        (BreakerState::Closed, BreakerState::Open) => "closed_open",
        (BreakerState::Open, BreakerState::HalfOpen) => "open_half_open",
        (BreakerState::HalfOpen, BreakerState::Closed) => "half_open_closed",
        (BreakerState::HalfOpen, BreakerState::Open) => "half_open_open",
        _ => "other",
    }
}

struct Server<'a> {
    cfg: &'a ServeConfig,
    session: &'a ChaosSession,
    /// The session's timeline, stamped with each batch's trace id.
    log: Arc<SpanLog>,
    /// The session's metric registry.
    metrics: Arc<MetricRegistry>,
    reqs: &'a [Request],
    pool: DevicePool,
    /// Per-member backlog of request indices (kept in push order; all
    /// selection re-sorts by the EDF key explicitly).
    queues: Vec<Vec<usize>>,
    tenant_queued: Vec<usize>,
    tenant_served: Vec<u64>,
    total_queued: usize,
    expected: HashMap<&'static str, u64>,
    estimate: HashMap<&'static str, f64>,
    hedge: HedgeTracker,
    pending: HashMap<u64, PendingHedge>,
    stats: ResilienceStats,
    responses: Vec<Response>,
    events: BinaryHeap<Ev>,
    seq: u64,
}

impl<'a> Server<'a> {
    fn push_event(&mut self, t: f64, rank: u8, kind: EvKind) {
        self.seq += 1;
        self.events.push(Ev { t, rank, seq: self.seq, kind });
    }

    /// The EDF-within-priority scheduling key: class rank first, then the
    /// absolute deadline (deadline-free best-effort sorts last within its
    /// class via +inf), then arrival, then id.
    fn edf_key(&self, i: usize) -> (u8, u64, u64, u32) {
        let r = &self.reqs[i];
        (
            r.priority.rank(),
            r.deadline_s.unwrap_or(f64::INFINITY).to_bits(),
            r.arrival_s.to_bits(),
            r.id,
        )
    }

    fn respond_unexecuted(&mut self, i: usize, t: f64, verdict: Verdict) {
        let r = &self.reqs[i];
        self.responses.push(Response {
            id: r.id,
            tenant: r.tenant,
            app: r.app,
            version: r.version,
            member: None,
            batch_size: 1,
            verdict,
            arrival_s: r.arrival_s,
            priority: r.priority,
            deadline_s: r.deadline_s,
            hedged: false,
            done_s: t,
            checksum: None,
            trace: None,
        });
        let resp = self.responses.last().expect("just pushed");
        self.metrics.counter_add(
            "serve_requests_total",
            &[
                ("app", resp.app),
                ("verdict", resp.verdict.label()),
                ("version", version_tag(resp.version)),
            ],
            1,
        );
    }

    /// Shed one request at admission, metering both the per-tenant
    /// backpressure counter and the per-class brownout counter.
    fn shed(&mut self, i: usize, t: f64, reason: String) {
        let (tenant, class) = (self.reqs[i].tenant, self.reqs[i].priority);
        match class {
            Priority::Interactive => self.stats.shed_interactive += 1,
            Priority::Batch => self.stats.shed_batch += 1,
            Priority::BestEffort => self.stats.shed_best_effort += 1,
        }
        self.respond_unexecuted(i, t, Verdict::Rejected(reason));
        self.metrics.counter_add("serve_shed_total", &[("tenant", &tenant.to_string())], 1);
        self.metrics.counter_add("resilience_shed_total", &[("class", class.label())], 1);
    }

    /// Admission: the brownout ladder sheds best-effort first and batch
    /// second as the backlog climbs; interactive is shed only by the
    /// fair-slice cap rule, so one tenant's burst cannot starve the rest
    /// of the pool's queue space.
    fn admit(&mut self, i: usize, t: f64) -> Result<(), ServeError> {
        let r = &self.reqs[i];
        let (home, transitions) = self.pool.route_of(r.tenant, t);
        self.note_transitions(&transitions);
        let Some(m) = home else {
            self.respond_unexecuted(i, t, Verdict::TypedError("no live pool members".into()));
            return Ok(());
        };
        let cap = self.cfg.queue_cap;
        let per_tenant_cap = (cap / self.tenant_queued.len().max(1)).max(1);
        let brownout_limit = |frac: f64| ((cap as f64 * frac).ceil() as usize).max(1);
        let reason = if self.total_queued >= cap
            && self.tenant_queued[r.tenant as usize] >= per_tenant_cap
        {
            Some(format!(
                "backlog {} at cap {}, tenant {} over fair slice {per_tenant_cap}",
                self.total_queued, cap, r.tenant
            ))
        } else {
            match r.priority {
                Priority::BestEffort
                    if self.total_queued >= brownout_limit(self.cfg.brownout_best_effort) =>
                {
                    Some(format!(
                        "brownout: best-effort shed at backlog {}/{cap}",
                        self.total_queued
                    ))
                }
                Priority::Batch if self.total_queued >= brownout_limit(self.cfg.brownout_batch) => {
                    Some(format!("brownout: batch shed at backlog {}/{cap}", self.total_queued))
                }
                _ => None,
            }
        };
        if let Some(reason) = reason {
            self.shed(i, t, reason);
            return Ok(());
        }
        self.queues[m].push(i);
        self.tenant_queued[r.tenant as usize] += 1;
        self.total_queued += 1;
        self.meter_queue_depth(m);
        if !self.pool.members[m].busy {
            self.dispatch(m, t)?;
        }
        Ok(())
    }

    /// Record the member's backlog depth and the global high-water mark.
    fn meter_queue_depth(&self, m: usize) {
        let member_label = m.to_string();
        self.metrics.gauge_set(
            "serve_queue_depth",
            &[("member", &member_label)],
            self.queues[m].len() as f64,
        );
        self.metrics.gauge_max("serve_queue_depth_peak", &[], self.total_queued as f64);
    }

    /// Drain a member's backlog back through admission (used when a
    /// member is lost or its breaker opens: its tenants now route to
    /// healthy members).
    fn rehome(&mut self, m: usize, t: f64) -> Result<(), ServeError> {
        let mut drained = std::mem::take(&mut self.queues[m]);
        drained.sort_by_key(|&i| self.edf_key(i));
        self.metrics.counter_add("serve_rehomed_total", &[], drained.len() as u64);
        for i in drained {
            self.tenant_queued[self.reqs[i].tenant as usize] -= 1;
            self.total_queued -= 1;
            self.admit(i, t)?;
        }
        Ok(())
    }

    /// Meter breaker transitions surfaced by routing or outcomes.
    fn note_transitions(&mut self, transitions: &[(usize, Transition)]) {
        for &(m, t) in transitions {
            self.stats.breaker_transitions += 1;
            if t.to == BreakerState::Open {
                self.stats.breaker_opens += 1;
            }
            self.metrics.counter_add(
                "resilience_breaker_transitions_total",
                &[("edge", edge_label(t)), ("member", &m.to_string())],
                1,
            );
        }
    }

    /// Feed one dispatch outcome to the member's breaker; an opening
    /// breaker drains its backlog to healthy members.
    fn breaker_feed(&mut self, m: usize, ok: bool, now: f64) -> Result<(), ServeError> {
        if let Some(t) = self.pool.members[m].breaker.on_outcome(ok, now) {
            self.note_transitions(&[(m, t)]);
            if t.to == BreakerState::Open && !self.queues[m].is_empty() {
                self.rehome(m, now)?;
            }
        }
        Ok(())
    }

    /// Pick and execute one batch on an idle member at modeled time `t`.
    fn dispatch(&mut self, m: usize, t: f64) -> Result<(), ServeError> {
        if self.pool.members[m].lost {
            return self.rehome(m, t);
        }
        if self.queues[m].is_empty() {
            return Ok(());
        }
        // EDF within priority: the head is the queued request with the
        // lowest (class rank, deadline, arrival, id) key.
        let head = self.queues[m]
            .iter()
            .copied()
            .min_by_key(|&i| self.edf_key(i))
            .expect("non-empty queue");
        let (app, version) = (self.reqs[head].app, self.reqs[head].version);
        // Batch: the head plus up to max_batch-1 queued requests for the
        // same (app, version) — cross-tenant, since they run the same
        // kernels — in EDF order.
        let mut batch: Vec<usize> = self.queues[m]
            .iter()
            .copied()
            .filter(|&i| self.reqs[i].app == app && self.reqs[i].version == version && i != head)
            .collect();
        batch.sort_by_key(|&i| self.edf_key(i));
        batch.truncate(self.cfg.max_batch.saturating_sub(1));
        batch.insert(0, head);
        self.queues[m].retain(|i| !batch.contains(i));
        for &i in &batch {
            self.tenant_queued[self.reqs[i].tenant as usize] -= 1;
            self.total_queued -= 1;
        }
        self.meter_queue_depth(m);

        // One trace id per batch (the leader's request id, offset past
        // the zero sentinel): every span the execution records — launches,
        // retries, fallbacks, and the device-track batch span — carries
        // it, as do all of the batch's responses.
        let trace_id = self.reqs[head].id as u64 + 1;
        self.log.set_trace(Some(trace_id));
        let sys = self.pool.members[m].kind.system();
        let (service, verdict, checksum) = self.execute(m, sys, app, version, batch.len());
        self.log.set_trace(None);
        // Completed primaries feed the hedge threshold (hedge attempts
        // do not — they are conditioned on being slow and would drag the
        // threshold toward the tail it exists to cut).
        if !matches!(verdict, Verdict::TypedError(_)) {
            self.hedge.observe(app, service);
            self.metrics.hist_record("serve_service_seconds", &[("app", app)], service);
        }
        let member = &mut self.pool.members[m];
        member.busy = true;
        member.busy_until_s = t + service;

        let threshold = self.hedge.threshold_s(app);
        if let Some(th) = threshold.filter(|&th| service > th) {
            // Past the hedge threshold: withhold the responses and
            // resolve at t + threshold, when a second attempt may launch.
            self.pending
                .insert(trace_id, PendingHedge { m, batch, t0: t, service, verdict, checksum });
            self.push_event(t + th, 0, EvKind::HedgeCheck(trace_id));
            return Ok(());
        }
        let done = t + service;
        self.charge(m, trace_id, t, service, app, version, batch.len(), "");
        self.account_batch(m, batch.len());
        self.finish(m, &batch, trace_id, done, &verdict, checksum, false);
        self.breaker_feed(m, !matches!(verdict, Verdict::TypedError(_)), done)?;
        self.check_loss(m, done)?;
        self.push_event(done, 0, EvKind::Free(m));
        Ok(())
    }

    /// Resolve the hedge decision for a pending batch: launch a second
    /// attempt on an idle healthy member if one exists, and let the first
    /// (valid) completion win.
    fn resolve_hedge(&mut self, trace_id: u64, th_t: f64) -> Result<(), ServeError> {
        let p = self.pending.remove(&trace_id).ok_or_else(|| {
            ServeError::Internal(format!("hedge check for unknown trace {trace_id}"))
        })?;
        let head = p.batch[0];
        let (app, version) = (self.reqs[head].app, self.reqs[head].version);
        let done1 = p.t0 + p.service;
        // Candidate: idle, serving, breaker-accepting, not the primary.
        let mut transitions = Vec::new();
        let mut m2 = None;
        for c in self.pool.alive() {
            if c == p.m || self.pool.members[c].busy {
                continue;
            }
            let (ok, t) = self.pool.members[c].breaker.accepting(th_t);
            if let Some(t) = t {
                transitions.push((c, t));
            }
            if ok && m2.is_none() {
                m2 = Some(c);
            }
        }
        self.note_transitions(&transitions);
        let Some(m2) = m2 else {
            // No capacity to hedge onto: the primary stands as-is.
            self.stats.hedges_skipped += 1;
            self.metrics.counter_add(
                "resilience_hedges_total",
                &[("app", app), ("outcome", "skipped")],
                1,
            );
            self.charge(p.m, trace_id, p.t0, p.service, app, version, p.batch.len(), "");
            self.account_batch(p.m, p.batch.len());
            self.finish(p.m, &p.batch, trace_id, done1, &p.verdict, p.checksum, true);
            self.breaker_feed(p.m, !matches!(p.verdict, Verdict::TypedError(_)), done1)?;
            self.check_loss(p.m, done1)?;
            self.push_event(done1, 0, EvKind::Free(p.m));
            return Ok(());
        };
        self.stats.hedges_launched += 1;
        let sys2 = self.pool.members[m2].kind.system();
        self.log.set_trace(Some(trace_id));
        let (s2, verdict2, checksum2) = self.execute(m2, sys2, app, version, p.batch.len());
        self.log.set_trace(None);
        let done2 = th_t + s2;
        let hedge_wins = done2 < done1 && matches!(verdict2, Verdict::Success | Verdict::Fallback);
        let outcome = if hedge_wins { "won" } else { "lost" };
        self.metrics.counter_add(
            "resilience_hedges_total",
            &[("app", app), ("outcome", outcome)],
            1,
        );
        if hedge_wins {
            self.stats.hedges_won += 1;
            // The hedge completes first: it carries the batch; the
            // primary is cancelled at the hedge's completion.
            self.charge(m2, trace_id, th_t, s2, app, version, p.batch.len(), " (hedge-win)");
            self.account_batch(m2, p.batch.len());
            self.pool.members[m2].busy = true;
            self.pool.members[m2].busy_until_s = done2;
            self.charge(
                p.m,
                trace_id,
                p.t0,
                done2 - p.t0,
                app,
                version,
                p.batch.len(),
                " (hedge-cancelled)",
            );
            self.pool.members[p.m].busy_until_s = done2;
            self.finish(m2, &p.batch, trace_id, done2, &verdict2, checksum2, true);
            self.breaker_feed(m2, true, done2)?;
            self.breaker_feed(p.m, !matches!(p.verdict, Verdict::TypedError(_)), done2)?;
            self.check_loss(m2, done2)?;
            self.check_loss(p.m, done2)?;
            self.push_event(done2, 0, EvKind::Free(m2));
            self.push_event(done2, 0, EvKind::Free(p.m));
        } else {
            // The primary stands; the hedge attempt is cancelled at the
            // primary's completion (or ran to completion and is
            // discarded — first valid completion wins either way).
            let hedge_busy = s2.min(done1 - th_t);
            self.charge(
                m2,
                trace_id,
                th_t,
                hedge_busy,
                app,
                version,
                p.batch.len(),
                " (hedge-cancelled)",
            );
            self.pool.members[m2].busy = true;
            self.pool.members[m2].busy_until_s = th_t + hedge_busy;
            self.charge(
                p.m,
                trace_id,
                p.t0,
                p.service,
                app,
                version,
                p.batch.len(),
                " (hedge-survived)",
            );
            self.account_batch(p.m, p.batch.len());
            self.finish(p.m, &p.batch, trace_id, done1, &p.verdict, p.checksum, true);
            self.breaker_feed(p.m, !matches!(p.verdict, Verdict::TypedError(_)), done1)?;
            if done2 <= done1 {
                // The hedge ran to completion before losing on validity:
                // its outcome is real and feeds its member's breaker.
                self.breaker_feed(m2, !matches!(verdict2, Verdict::TypedError(_)), done2)?;
            }
            self.check_loss(p.m, done1)?;
            self.check_loss(m2, th_t + hedge_busy)?;
            self.push_event(th_t + hedge_busy, 0, EvKind::Free(m2));
            self.push_event(done1, 0, EvKind::Free(p.m));
        }
        Ok(())
    }

    /// Charge `dur` of busy time to member `m` and draw the matching
    /// device span, so span time and busy time stay equal per member.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        m: usize,
        trace_id: u64,
        start: f64,
        dur: f64,
        app: &'static str,
        version: ProgVersion,
        batch_len: usize,
        suffix: &str,
    ) {
        self.pool.members[m].busy_s += dur;
        self.log.set_trace(Some(trace_id));
        self.log.device_span(
            m,
            &format!("{app}/{} ×{batch_len}{suffix}", version_tag(version)),
            SpanCategory::Kernel,
            start,
            dur,
            None,
        );
        self.log.set_trace(None);
        self.metrics.gauge_set(
            "serve_busy_seconds",
            &[("member", &m.to_string())],
            self.pool.members[m].busy_s,
        );
    }

    /// Account one executed batch against member `m`.
    fn account_batch(&mut self, m: usize, batch_len: usize) {
        let member = &mut self.pool.members[m];
        member.batches += 1;
        member.served += batch_len as u64;
        self.metrics.counter_add(
            "serve_batches_total",
            &[("kind", self.pool.members[m].kind.label()), ("member", &m.to_string())],
            1,
        );
        self.metrics.hist_record("serve_batch_occupancy", &[], batch_len as f64);
    }

    /// Push the batch's responses and meter completion, latency, and
    /// deadline misses.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        m: usize,
        batch: &[usize],
        trace_id: u64,
        done: f64,
        verdict: &Verdict,
        checksum: Option<u64>,
        hedged: bool,
    ) {
        for &i in batch {
            let r = &self.reqs[i];
            self.tenant_served[r.tenant as usize] += 1;
            let resp = Response {
                id: r.id,
                tenant: r.tenant,
                app: r.app,
                version: r.version,
                member: Some(m),
                batch_size: batch.len(),
                verdict: verdict.clone(),
                arrival_s: r.arrival_s,
                priority: r.priority,
                deadline_s: r.deadline_s,
                hedged,
                done_s: done,
                checksum,
                trace: Some(trace_id),
            };
            if resp.missed_deadline() {
                self.stats.deadline_misses += 1;
                self.metrics.counter_add(
                    "resilience_deadline_miss_total",
                    &[("class", r.priority.label())],
                    1,
                );
            }
            self.metrics.counter_add(
                "serve_requests_total",
                &[
                    ("app", r.app),
                    ("verdict", verdict.label()),
                    ("version", version_tag(r.version)),
                ],
                1,
            );
            self.metrics.hist_record(
                "serve_latency_seconds",
                &[("tenant", &r.tenant.to_string())],
                done - r.arrival_s,
            );
            self.responses.push(resp);
        }
    }

    /// A loss surfaced by an execution on `m`: quarantine the member,
    /// promote a warm spare if one is benched (after re-pinning the
    /// expected checksums against it), and drain the backlog to the new
    /// serving set.
    fn check_loss(&mut self, m: usize, now: f64) -> Result<(), ServeError> {
        let lost_now = match &self.pool.members[m].faults {
            Some(f) => f.device_lost() && !self.pool.members[m].lost,
            None => false,
        };
        if !lost_now {
            return Ok(());
        }
        self.pool.members[m].lost = true;
        if let Some(sp) = self.pool.promote_spare() {
            self.warm_spare(sp)?;
            self.stats.spares_promoted += 1;
            self.metrics.counter_add("resilience_spare_promotions_total", &[], 1);
        }
        self.rehome(m, now)
    }

    /// Fault-free warmup of a freshly promoted spare: every app in the
    /// mix must reproduce the checksum the original warmup pinned. The
    /// spare is *warm* — the runs validate it off the serving clock and
    /// charge no modeled time.
    fn warm_spare(&mut self, sp: usize) -> Result<(), ServeError> {
        let sys = self.pool.members[sp].kind.system();
        let mut apps: Vec<&'static str> = self.expected.keys().copied().collect();
        apps.sort_unstable();
        for app in apps {
            let warm = self
                .session
                .run_cell(app, sys, ProgVersion::Ompx, self.cfg.scale, None)
                .map_err(|msg| ServeError::WarmupFailed { app, msg })?;
            let expected = self.expected[app];
            if warm.checksum != expected {
                return Err(ServeError::WarmupUnexpected { app, got: warm.checksum, expected });
            }
        }
        Ok(())
    }

    /// Run the batch's cell once (followers share the leader's execution
    /// — they asked for the same kernels) and classify the verdict.
    fn execute(
        &self,
        m: usize,
        sys: System,
        app: &'static str,
        version: ProgVersion,
        batch_len: usize,
    ) -> (f64, Verdict, Option<u64>) {
        let faults = self.pool.members[m].faults.as_ref();
        let before_fallbacks = faults.map(|f| f.snapshot().fallbacks.len()).unwrap_or(0);
        let result = self.session.run_cell(app, sys, version, self.cfg.scale, faults);
        match result {
            Err(msg) => (self.estimate[app] * FAIL_SERVICE_FRAC, Verdict::TypedError(msg), None),
            Ok(o) => {
                let service = batch_service(&o, batch_len);
                let verdict = if o.checksum == self.expected[app] {
                    let after_fallbacks = faults.map(|f| f.snapshot().fallbacks.len()).unwrap_or(0);
                    if after_fallbacks > before_fallbacks {
                        Verdict::Fallback
                    } else {
                        Verdict::Success
                    }
                } else {
                    Verdict::Corrupt(format!(
                        "checksum {:#x} != expected {:#x}",
                        o.checksum, self.expected[app]
                    ))
                };
                (service, verdict, Some(o.checksum))
            }
        }
    }
}

/// Modeled busy time of a batch: the leader pays the full reported run,
/// each follower only the non-launch fraction — per-launch setup is
/// issued once for the coalesced batch. Launch-bound apps (Adam) amortize
/// almost everything; kernel-bound apps gain little, as they should.
fn batch_service(outcome: &RunOutcome, batch_len: usize) -> f64 {
    let launch_frac = if outcome.kernel_model.seconds > 0.0 {
        (outcome.kernel_model.t_launch / outcome.kernel_model.seconds).clamp(0.0, 0.9)
    } else {
        0.0
    };
    outcome.reported_seconds * (1.0 + (batch_len as f64 - 1.0) * (1.0 - launch_frac))
}

/// Pre-declare zero-valued series for the resilience counter families so
/// quiet runs still export sample lines (the family-coverage check greps
/// for them), with canonical label sets.
fn preseed_resilience_series(reg: &MetricRegistry) {
    reg.counter_add(
        "resilience_breaker_transitions_total",
        &[("edge", "closed_open"), ("member", "0")],
        0,
    );
    reg.counter_add("resilience_hedges_total", &[("app", "xsbench"), ("outcome", "won")], 0);
    reg.counter_add("resilience_spare_promotions_total", &[], 0);
    reg.counter_add("resilience_deadline_miss_total", &[("class", "interactive")], 0);
    reg.counter_add("resilience_shed_total", &[("class", "best_effort")], 0);
}

/// Run one complete serve load: warm up fault-free expectations, scale
/// the offered arrivals to the pool's estimated capacity, price the
/// deadlines, then replay the load event by event. Deterministic for a
/// fixed `(cfg, spec)`. Fault-path failures come back as [`ServeError`]s
/// — no panic is reachable from an injected fault.
pub fn serve(cfg: &ServeConfig, spec: &LoadSpec) -> Result<ServeResult, ServeError> {
    if cfg.devices.is_empty() {
        return Err(ServeError::InvalidConfig("pool needs at least one device".into()));
    }
    if cfg.max_batch < 1 {
        return Err(ServeError::InvalidConfig("max_batch must be at least 1".into()));
    }
    let session = ChaosSession::begin();
    let metrics = session.metrics();
    preseed_resilience_series(&metrics);
    let mut reqs = loadgen::offered(spec);

    // Warmup: one fault-free run per distinct app in the mix pins the
    // expected checksum (bit-identical across versions and systems — the
    // repo's verify suite guarantees it, and it is what makes re-homing
    // a tenant across A100/MI250 checksum-transparent) and yields the
    // capacity estimate the horizon is derived from.
    let mut expected = HashMap::new();
    let mut estimate = HashMap::new();
    for r in &reqs {
        if expected.contains_key(r.app) {
            continue;
        }
        let warm = session
            .run_cell(r.app, System::Nvidia, ProgVersion::Ompx, cfg.scale, None)
            .map_err(|msg| ServeError::WarmupFailed { app: r.app, msg })?;
        expected.insert(r.app, warm.checksum);
        estimate.insert(r.app, warm.reported_seconds);
    }
    let total_work: f64 = reqs.iter().map(|r| estimate[r.app]).sum();
    let horizon_s = total_work / cfg.devices.len() as f64 / cfg.load_factor;
    loadgen::scale_arrivals(&mut reqs, horizon_s);
    // Deadlines are priced against the *mix-wide mean* fault-free
    // estimate, not the request's own app: heterogeneous apps share the
    // devices, so a cheap request queues behind whatever batch is in
    // flight — its achievable latency is a property of the mix, and a
    // per-app budget would make cheap-app deadlines unmeetable by
    // construction.
    let mean_estimate_s = total_work / reqs.len().max(1) as f64;
    for r in &mut reqs {
        r.deadline_s = cfg.deadlines.deadline(r.priority, r.arrival_s, mean_estimate_s);
    }
    // Auto breaker cooldown: scale-free against the same mean estimate.
    let mut breaker = cfg.breaker;
    if breaker.cooldown_s <= 0.0 {
        breaker.cooldown_s = BREAKER_COOLDOWN_ESTIMATES * mean_estimate_s;
    }

    let n_tenants = spec.tenants as usize;
    let mut server = Server {
        cfg,
        session: &session,
        log: session.span_log(),
        metrics: Arc::clone(&metrics),
        reqs: &reqs,
        pool: DevicePool::with_spares(
            &cfg.devices,
            &cfg.spares,
            cfg.plan.as_ref(),
            cfg.seed,
            breaker,
        ),
        queues: vec![Vec::new(); cfg.devices.len() + cfg.spares.len()],
        tenant_queued: vec![0; n_tenants],
        tenant_served: vec![0; n_tenants],
        total_queued: 0,
        expected,
        estimate,
        hedge: HedgeTracker::new(cfg.hedge),
        pending: HashMap::new(),
        stats: ResilienceStats::default(),
        responses: Vec::with_capacity(reqs.len()),
        events: BinaryHeap::new(),
        seq: 0,
    };
    for (idx, r) in reqs.iter().enumerate() {
        server.push_event(r.arrival_s, 1, EvKind::Arrival(idx));
    }
    while let Some(ev) = server.events.pop() {
        match ev.kind {
            EvKind::Arrival(i) => server.admit(i, ev.t)?,
            EvKind::Free(m) => {
                // Stale-free guard: a hedge may have extended or shrunk
                // the member's busy window after this event was queued;
                // only the free matching the final cursor releases it.
                if server.pool.members[m].busy_until_s > ev.t {
                    continue;
                }
                server.pool.members[m].busy = false;
                server.dispatch(m, ev.t)?;
            }
            EvKind::HedgeCheck(trace_id) => server.resolve_hedge(trace_id, ev.t)?,
        }
    }
    if server.total_queued != 0 {
        return Err(ServeError::Internal(format!(
            "drained event loop left {} request(s) queued",
            server.total_queued
        )));
    }
    if !server.pending.is_empty() {
        return Err(ServeError::Internal(format!(
            "{} pending hedge(s) never resolved",
            server.pending.len()
        )));
    }

    let mut responses = server.responses;
    responses.sort_by_key(|r| r.id);
    let spans = session.spans();
    let metrics = metrics.snapshot();
    Ok(ServeResult {
        responses,
        pool: server.pool,
        spans,
        expected: server.expected,
        horizon_s,
        stats: server.stats,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::span::Track;

    fn small_spec(clients: u32) -> LoadSpec {
        LoadSpec { seed: 11, clients, tenants: 4 }
    }

    #[test]
    fn fault_free_serving_is_all_success_and_deterministic() {
        let cfg = ServeConfig::new(5);
        let a = serve(&cfg, &small_spec(40)).expect("fault-free serve");
        let b = serve(&cfg, &small_spec(40)).expect("fault-free serve");
        assert_eq!(a.responses.len(), 40);
        for (x, y) in a.responses.iter().zip(&b.responses) {
            assert_eq!(x.verdict, y.verdict);
            assert_eq!(x.member, y.member);
            assert_eq!(x.checksum, y.checksum);
            assert_eq!(x.done_s.to_bits(), y.done_s.to_bits());
        }
        for r in &a.responses {
            match &r.verdict {
                Verdict::Success | Verdict::Rejected(_) => {}
                other => panic!("fault-free run produced {other:?}"),
            }
            if r.verdict == Verdict::Success {
                assert_eq!(r.checksum, Some(a.expected[r.app]));
                assert!(r.latency_s() >= 0.0);
            }
        }
    }

    #[test]
    fn metrics_cover_serve_and_substrate_and_traces_join_responses_to_spans() {
        let cfg = ServeConfig::new(5);
        let out = serve(&cfg, &small_spec(40)).expect("serve");
        let snap = out.metrics;
        // Serve-side accounting matches the response stream exactly.
        let requests_total: u64 = snap
            .samples
            .iter()
            .filter(|s| s.name == "serve_requests_total")
            .map(|s| match s.value {
                ompx_telemetry::MetricValue::Counter(c) => c,
                _ => 0,
            })
            .sum();
        assert_eq!(requests_total, out.responses.len() as u64);
        // Substrate families recorded by the cells' devices into the same
        // session registry.
        assert!(snap.counter("sim_launches_total", &[]) > 0);
        assert!(snap.samples.iter().any(|s| s.name == "sim_memcpys_total"));
        assert!(snap.samples.iter().any(|s| s.name == "serve_latency_seconds"));
        // The resilience families export sample lines even at rest.
        for fam in [
            "resilience_breaker_transitions_total",
            "resilience_hedges_total",
            "resilience_spare_promotions_total",
            "resilience_deadline_miss_total",
            "resilience_shed_total",
        ] {
            assert!(snap.samples.iter().any(|s| s.name == fam), "missing family {fam}");
        }
        // Executed responses carry a trace id that joins them to their
        // batch's device span; rejected ones carry none.
        for r in &out.responses {
            if matches!(r.verdict, Verdict::Rejected(_)) {
                assert_eq!(r.trace, None);
            } else {
                let t = r.trace.expect("executed response has a trace id");
                assert!(out
                    .spans
                    .iter()
                    .any(|s| s.trace == Some(t) && matches!(s.track, Track::Device(_))));
            }
        }
    }

    #[test]
    fn batching_engages_under_load_and_lands_device_spans() {
        // Oversubscribed: 40 requests, one device, so the backlog builds
        // and same-app requests coalesce.
        let mut cfg = ServeConfig::new(5);
        cfg.devices = vec![DeviceKind::A100];
        cfg.load_factor = 3.0;
        cfg.queue_cap = 100;
        let out = serve(&cfg, &small_spec(40)).expect("serve");
        let max_batch = out.responses.iter().map(|r| r.batch_size).max().unwrap();
        assert!(max_batch > 1, "no batch formed: {max_batch}");
        assert!(max_batch <= cfg.max_batch);
        let device_spans = out.spans.iter().filter(|s| s.track == Track::Device(0)).count();
        assert!(device_spans as u64 >= out.pool.members[0].batches);
        // Batch accounting: spans cover exactly the member's busy time.
        let span_s: f64 =
            out.spans.iter().filter(|s| s.track == Track::Device(0)).map(|s| s.dur_s).sum();
        assert!((span_s - out.pool.members[0].busy_s).abs() < 1e-9);
    }

    #[test]
    fn injected_loss_quarantines_one_member_and_trichotomy_holds() {
        let mut cfg = ServeConfig::new(5);
        // A loss early in member 0's schedule; other members get quiet
        // plans (rate 0, loss stripped by for_pool_member).
        cfg.plan = Some(FaultPlan::seeded(99, 0.0).with_device_loss_at(2));
        let out = serve(&cfg, &small_spec(60)).expect("serve under loss");
        assert!(out.pool.members[0].lost, "member 0 should observe its loss");
        for m in 1..out.pool.members.len() {
            assert!(!out.pool.members[m].lost);
        }
        for r in &out.responses {
            match &r.verdict {
                Verdict::Success
                | Verdict::Fallback
                | Verdict::TypedError(_)
                | Verdict::Rejected(_) => {}
                Verdict::Corrupt(msg) => panic!("corruption on request {}: {msg}", r.id),
            }
            // Anything that completed cleanly has the expected checksum.
            if matches!(r.verdict, Verdict::Success | Verdict::Fallback) {
                assert_eq!(r.checksum, Some(out.expected[r.app]));
            }
        }
        // The pool kept serving: most traffic still completes.
        let ok = out
            .responses
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Success | Verdict::Fallback))
            .count();
        assert!(ok > 40, "only {ok}/60 completed after single-member loss");
    }

    #[test]
    fn backpressure_sheds_with_fair_slices() {
        let mut cfg = ServeConfig::new(5);
        cfg.devices = vec![DeviceKind::A100];
        cfg.queue_cap = 4;
        cfg.max_batch = 1;
        cfg.load_factor = 4.0;
        let out = serve(&cfg, &small_spec(60)).expect("serve");
        let rejected =
            out.responses.iter().filter(|r| matches!(r.verdict, Verdict::Rejected(_))).count();
        assert!(rejected > 0, "cap 4 at 4x load must shed");
        // Everything is accounted for exactly once.
        assert_eq!(out.responses.len(), 60);
    }

    #[test]
    fn brownout_sheds_best_effort_before_interactive() {
        let mut cfg = ServeConfig::new(5);
        cfg.devices = vec![DeviceKind::A100];
        cfg.queue_cap = 8;
        cfg.max_batch = 1;
        cfg.load_factor = 6.0;
        let out = serve(&cfg, &small_spec(80)).expect("serve");
        let shed = |p: Priority| {
            out.responses
                .iter()
                .filter(|r| r.priority == p && matches!(r.verdict, Verdict::Rejected(_)))
                .count() as f64
        };
        let offered =
            |p: Priority| out.responses.iter().filter(|r| r.priority == p).count().max(1) as f64;
        let be_rate = shed(Priority::BestEffort) / offered(Priority::BestEffort);
        let int_rate = shed(Priority::Interactive) / offered(Priority::Interactive);
        assert!(shed(Priority::BestEffort) > 0.0, "saturated queue must brown out best-effort");
        assert!(
            be_rate >= int_rate,
            "best-effort shed rate {be_rate:.2} below interactive {int_rate:.2}"
        );
        assert_eq!(
            out.stats.shed_best_effort + out.stats.shed_batch + out.stats.shed_interactive,
            out.responses.iter().filter(|r| matches!(r.verdict, Verdict::Rejected(_))).count()
                as u64
        );
    }

    #[test]
    fn deadlines_are_priced_per_class_and_interactive_is_scheduled_first() {
        let cfg = ServeConfig::new(5);
        let out = serve(&cfg, &small_spec(60)).expect("serve");
        for r in &out.responses {
            match r.priority {
                Priority::BestEffort => assert_eq!(r.deadline_s, None),
                _ => {
                    let d = r.deadline_s.expect("deadline priced");
                    assert!(d > r.arrival_s, "deadline before arrival on {}", r.id);
                }
            }
        }
        // Interactive mean latency is no worse than best-effort's: EDF
        // within priority puts it at the head of every backlog.
        let mean = |p: Priority| {
            let l: Vec<f64> = out
                .responses
                .iter()
                .filter(|r| r.priority == p && !matches!(r.verdict, Verdict::Rejected(_)))
                .map(|r| r.latency_s())
                .collect();
            l.iter().sum::<f64>() / l.len().max(1) as f64
        };
        assert!(mean(Priority::Interactive) <= mean(Priority::BestEffort) + 1e-9);
    }

    #[test]
    fn warm_spare_promotes_on_loss_and_takes_traffic() {
        let mut cfg = ServeConfig::new(5);
        cfg.plan = Some(FaultPlan::seeded(99, 0.0).with_device_loss_at(2));
        cfg.spares = vec![DeviceKind::A100];
        let out = serve(&cfg, &small_spec(60)).expect("serve with spare");
        assert!(out.pool.members[0].lost);
        let spare = cfg.devices.len();
        assert!(!out.pool.members[spare].standby, "spare not promoted");
        assert_eq!(out.stats.spares_promoted, 1);
        assert!(out.pool.members[spare].served > 0, "promoted spare served nothing");
        // The spare's traffic is checksum-transparent.
        for r in out.responses.iter().filter(|r| r.member == Some(spare)) {
            if matches!(r.verdict, Verdict::Success | Verdict::Fallback) {
                assert_eq!(r.checksum, Some(out.expected[r.app]));
            }
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let mut cfg = ServeConfig::new(5);
        cfg.devices.clear();
        match serve(&cfg, &small_spec(4)) {
            Err(ServeError::InvalidConfig(msg)) => assert!(msg.contains("device")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
        let mut cfg = ServeConfig::new(5);
        cfg.max_batch = 0;
        assert!(matches!(serve(&cfg, &small_spec(4)), Err(ServeError::InvalidConfig(_))));
    }
}
