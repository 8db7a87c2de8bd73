//! # ompx-serve — a multi-device kernel-serving layer
//!
//! The rest of the workspace runs one benchmark loop against one
//! simulated device. This crate is the production-shaped layer above it:
//! a pool of simulated devices with mixed A100/MI250 profiles serving
//! thousands of concurrent clients of mixed hecbench traffic, with
//!
//! * **sharding** — tenants hash-shard onto pool members ([`pool`]), and
//!   re-home deterministically when a member is lost;
//! * **batching** — same-kernel requests queued on one member coalesce
//!   into one dispatch, amortizing per-launch setup ([`server`]) — the
//!   win the work-group-specialization line of work points at, and what
//!   launch-bound kernels (Adam) need;
//! * **backpressure** — a bounded backlog with per-tenant fair slices,
//!   shedding typed `Rejected` responses instead of queueing without
//!   bound;
//! * **fairness** — least-served-tenant-first dispatch, reported as
//!   per-tenant shares;
//! * **fault isolation** — each member carries its own decorrelated
//!   [`FaultState`] (via [`FaultPlan::for_pool_member`]); sticky errors
//!   and device loss stay on the member, and the chaos trichotomy
//!   (success / typed error / bit-identical validated fallback) is
//!   asserted per response;
//! * **resilience** — per-request deadlines with EDF-within-priority
//!   scheduling and a brownout admission ladder, hedged re-dispatch off
//!   telemetry latency quantiles, per-member circuit breakers, and warm
//!   spare promotion on device loss ([`server`], policies from
//!   `ompx-resilience`), stress-tested by the [`escalate()`]
//!   chaos-escalation campaign and its per-rung SLO contract.
//!
//! Time is *modeled* (the pool's busy cursors advance by each run's
//! reported seconds) while execution is *real* (every batch runs its
//! hecbench cell under a [`ChaosSession`]), so a serve run is both
//! bit-reproducible and functionally validated. The `serve` subcommand
//! in `ompx-bench` drives this and emits `results/BENCH_serve.json`.
//!
//! [`FaultState`]: ompx_sim::fault::FaultState
//! [`FaultPlan::for_pool_member`]: ompx_sim::fault::FaultPlan::for_pool_member
//! [`ChaosSession`]: ompx_hecbench::ChaosSession

pub mod error;
pub mod escalate;
pub mod loadgen;
pub mod pool;
pub mod report;
pub mod request;
pub mod server;
pub mod sweep;

pub use error::ServeError;
pub use escalate::{
    escalate, render_escalate_csv, render_escalate_json, EscalateResult, EscalateRung,
    DEFAULT_MULTIPLIERS,
};
pub use loadgen::LoadSpec;
pub use pool::{DeviceKind, DevicePool, PoolMember};
pub use report::{build as build_report, render_json, ClassStat, ServeReport};
pub use request::{Request, Response, Verdict};
pub use server::{serve, ResilienceStats, ServeConfig, ServeResult};
pub use sweep::{
    render_sweep_csv, render_sweep_json, sweep, SweepPoint, SweepResult, DEFAULT_FACTORS,
};
