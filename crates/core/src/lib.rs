//! # sq-core — SubmitQueue
//!
//! The paper's primary contribution: a change-management system that
//! keeps a monorepo mainline *always green* at scale by totally ordering
//! changes (not just patches), while hitting turnaround-time SLAs through
//! probabilistic speculation and conflict analysis.
//!
//! Architecture (paper Figure 4):
//!
//! ```text
//!   land(change) ──► queue ──► PLANNER ENGINE ──► BUILD CONTROLLER ──► workers
//!                                 │    ▲
//!                   SPECULATION ◄─┘    └─► commit / abort
//!                     ENGINE ◄── CONFLICT ANALYZER (conflict graph)
//! ```
//!
//! * [`pending`] — pending-change state machine and commit/abort records.
//! * [`predict`] — `P_succ` / `P_conf` estimators: the trained logistic
//!   models (Section 7.2), plus oracle / static / optimistic estimators
//!   used by the baselines.
//! * [`analyzer`] — the conflict graph over pending changes (Section 5),
//!   backed either by the statistical part-overlap model (simulation) or
//!   by the real build-system analyzer from `sq-build`.
//! * [`index`] — the incremental conflict index: per-change affected
//!   bitsets memoized by (change, trunk), invalidated only on trunk
//!   advance or rebase, with a deterministic parallel pairwise matrix.
//! * [`speculation`] — the speculation engine (Section 4): build values
//!   `V = B · P_needed` per Equations 1–5, and greedy best-first
//!   selection of the most valuable builds in O(n) frontier space
//!   (Section 7.1).
//! * [`strategy`] — SubmitQueue plus every baseline evaluated in
//!   Section 8: Speculate-all, Optimistic (Zuul), Single-Queue (Bors),
//!   and the Oracle used for normalization — plus the lean variants.
//! * [`lean`] — the Uber 2025 follow-up optimizations: probability-
//!   gated speculation skipping, risk prioritization, and bypass lanes
//!   (`LeanConfig`, `BypassPolicy`, `LeanReport`).
//! * [`planner`] — the planner engine driving a discrete-event
//!   simulation: schedules/aborts builds, commits changes, measures
//!   turnaround and throughput.
//! * [`trunk`] — the *pre*-SubmitQueue world of Figure 14: trunk-based
//!   development with post-submit detection and manual reverts.
//! * [`batching`] — the Section 10 batch-and-bisect extension (batching
//!   independent changes to save hardware).
//! * [`audit`] — ground-truth greenness audits (the "always green"
//!   invariant is checked, not assumed).
//! * [`scenario`] — the adversarial scenario-matrix runner: replays
//!   named `sq-workload` manifests through every strategy and audits
//!   each run.
//! * [`shard`] — sharded multi-lane planning: part → shard routing
//!   plans, per-lane worker splits, the planning-cost model that makes
//!   one global window saturate, and per-shard reports/audits over the
//!   merged trunk.
//! * [`service`] — an embeddable `SubmitQueueService` that runs the full
//!   stack (real conflict analyzer, real executor) over a materialized
//!   repository.
//! * [`durable`] — the crash-consistent service: every state transition
//!   is journaled through `sq-store` before it is acknowledged, and
//!   `DurableSubmitQueue::open` reconstructs the exact acked state from
//!   snapshot + journal-suffix replay.
//! * [`failover`] — replicated operation on top of `durable`: leaders
//!   that ship every journal record to followers, fenced follower
//!   promotion with zero acked-work loss, candidate selection, and
//!   capped-backoff reconnect scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod audit;
pub mod batching;
pub mod durable;
pub mod failover;
pub mod index;
pub mod lean;
pub mod pending;
pub mod planner;
pub mod predict;
pub mod recovery;
pub mod scenario;
pub mod service;
pub mod shard;
pub mod speculation;
pub mod strategy;
pub mod trunk;

pub use analyzer::{ConflictAnalyzer, ConflictGraph, IndexedAnalyzer, RealAnalyzer};
pub use durable::{DurableState, DurableSubmitQueue, ServiceEvent};
pub use failover::{
    best_promotion_candidate, open_leader, promote_from_follower, PromotionCandidate,
    PromotionReport, ReconnectScheduler, ReconnectTick,
};
pub use index::{ConflictIndex, ConflictMatrix, IndexStats, TrunkHash};
pub use lean::{BypassPolicy, LeanConfig, LeanReport, SKIP_MISS_BUDGET};
pub use pending::{ChangeOutcome, ChangeRecord};
pub use planner::{run_simulation, PlannerConfig, SimResult};
pub use predict::{LearnedPredictor, OraclePredictor, Predictor};
pub use recovery::{QuarantineList, RecoveryConfig};
pub use scenario::{run_scenario, ScenarioRun, StrategyOutcome};
pub use service::{HistoryViolation, SubmitQueueService, TicketId, TicketState};
pub use shard::{LaneStats, PlanningCost, ShardPlan, ShardReport, ShardSpec};
pub use speculation::{BuildKey, SpeculationEngine};
pub use strategy::StrategyKind;
