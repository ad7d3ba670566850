//! Fenced failover coordination: replicated leaders, follower
//! promotion, and reconnect scheduling.
//!
//! `store::replicate` provides the *mechanism* — frame shipping, epoch
//! fencing, resync. This module is the *policy* layer that turns it
//! into an operable service:
//!
//! * [`open_leader`] — a [`DurableSubmitQueue`] journaling through a
//!   replicating [`Leader`] instead of a single-node store; the service
//!   layer is otherwise identical (the [`Wal`](sq_store::Wal) seam).
//! * [`promote_from_follower`] — fenced promotion: claim a strictly
//!   newer epoch (durably, *before* serving), replay the replica's
//!   journal to its last durable LSN, and serve the folded state.
//!   Returns a [`PromotionReport`] with what recovery had to do.
//! * [`best_promotion_candidate`] — pick the replica with the highest
//!   (epoch, durable LSN); under synchronous shipping that replica
//!   holds every acked record, which is what makes failover zero-loss.
//! * [`ReconnectScheduler`] — capped-backoff reconnection of down links
//!   reusing [`RetryPolicy`]'s deterministic jitter schedule; the store
//!   layer exposes only the mechanical per-attempt
//!   [`Leader::reconnect`].
//!
//! Promotion safety model: a *single coordinator* (this module's
//! caller — the chaos harness, an operator, a control plane) decides
//! who is promoted. The epoch fence then guarantees that however late
//! the deposed leader comes back, it can never ack work the new
//! timeline does not contain — promotion persists the new epoch before
//! the new leader accepts anything, and every receive path re-reads the
//! persisted epoch, so the race is decided by the medium, not by
//! in-memory state.

use crate::durable::DurableSubmitQueue;
use crate::recovery::RecoveryConfig;
use sq_exec::RetryPolicy;
use sq_obs::MetricsRegistry;
use sq_sim::SimDuration;
use sq_store::{
    DurableStoreConfig, Follower, Leader, LinkState, ReplicationConfig, ReplicationStats,
    ReplicationStatus, ShipSamples, Storage, StoreError,
};
use sq_vcs::Repository;

/// Open a replicated durable service: the queue journals through a
/// [`Leader`] (local WAL + shipping) instead of a single-node store.
/// Attach followers afterwards with
/// [`DurableSubmitQueue::attach_follower`].
pub fn open_leader<S: Storage + Clone>(
    repo: Repository,
    threads: usize,
    recovery: RecoveryConfig,
    storage: S,
    store_config: DurableStoreConfig,
    replication: ReplicationConfig,
) -> Result<DurableSubmitQueue<Leader<S>>, StoreError> {
    let (leader, recovered) = Leader::open(storage, store_config, replication)?;
    DurableSubmitQueue::from_recovered(repo, threads, recovery, leader, &recovered)
}

/// What a promotion had to do to bring a replica into service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionReport {
    /// The epoch claimed (strictly above everything observed).
    pub epoch: u64,
    /// Highest LSN durable on the promoted replica — the exact
    /// acknowledged prefix it serves from.
    pub durable_lsn: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated during the open (nonzero when the
    /// replica's medium was itself mid-write at the crash).
    pub truncated_bytes: u64,
    /// True when a snapshot seeded the replay.
    pub snapshot_loaded: bool,
}

/// Promote the replica on `storage` to a serving leader.
///
/// Fencing order matters: the new epoch — strictly above both the
/// replica's own and `fence_above` (the coordinator's highest known
/// epoch, typically the dead leader's) — is persisted to the medium
/// *before* any state is served, so a stale leader returning from the
/// dead is refused by every replica that has seen the new epoch.
/// Recovery then replays `snapshot ⊕ journal suffix` to the last
/// durable LSN and starts the service from that folded state.
pub fn promote_from_follower<S: Storage + Clone>(
    repo: Repository,
    threads: usize,
    recovery: RecoveryConfig,
    storage: S,
    store_config: DurableStoreConfig,
    replication: ReplicationConfig,
    fence_above: u64,
) -> Result<(DurableSubmitQueue<Leader<S>>, PromotionReport), StoreError> {
    let (mut follower, _) = Follower::open(storage.clone(), store_config.clone(), &replication)?;
    let claimed = follower.promote_to(fence_above.max(follower.epoch()) + 1)?;
    drop(follower);
    let (leader, recovered) = Leader::open(storage, store_config, replication)?;
    assert_eq!(leader.epoch(), claimed, "promotion epoch must persist");
    let report = PromotionReport {
        epoch: claimed,
        durable_lsn: leader.durable_lsn(),
        replayed_records: recovered.replay_stats().replayed_records,
        truncated_bytes: recovered.truncated_tail_bytes,
        snapshot_loaded: recovered.snapshot.is_some(),
    };
    let queue = DurableSubmitQueue::from_recovered(repo, threads, recovery, leader, &recovered)?;
    Ok((queue, report))
}

/// The best replica to promote, and the cluster-wide epoch horizon the
/// promotion must fence above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionCandidate {
    /// Index into the candidate slice.
    pub index: usize,
    /// That replica's persisted epoch.
    pub epoch: u64,
    /// That replica's durable LSN.
    pub durable_lsn: u64,
    /// Highest epoch observed across *all* candidates — pass as
    /// `fence_above` so the claimed epoch exceeds every survivor's.
    pub cluster_epoch: u64,
}

/// Inspect every surviving replica and pick the one with the highest
/// `(epoch, durable LSN)` — the longest acknowledged history on the
/// newest timeline. Opening a candidate repairs (truncates) any torn
/// tail its medium holds, exactly as promotion itself would.
pub fn best_promotion_candidate<S: Storage + Clone>(
    storages: &[S],
    store_config: &DurableStoreConfig,
    replication: &ReplicationConfig,
) -> Result<PromotionCandidate, StoreError> {
    assert!(!storages.is_empty(), "no replicas to promote");
    let mut best: Option<PromotionCandidate> = None;
    let mut cluster_epoch = 0;
    for (index, storage) in storages.iter().enumerate() {
        let (follower, _) = Follower::open(storage.clone(), store_config.clone(), replication)?;
        let (epoch, durable_lsn) = (follower.epoch(), follower.durable_lsn());
        cluster_epoch = cluster_epoch.max(epoch);
        if best
            .map(|b| (epoch, durable_lsn) > (b.epoch, b.durable_lsn))
            .unwrap_or(true)
        {
            best = Some(PromotionCandidate {
                index,
                epoch,
                durable_lsn,
                cluster_epoch: 0,
            });
        }
    }
    let mut best = best.expect("non-empty candidate set");
    best.cluster_epoch = cluster_epoch;
    Ok(best)
}

/// One sweep of [`ReconnectScheduler::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReconnectTick {
    /// Reconnect attempts made this sweep.
    pub attempted: usize,
    /// Links brought back up.
    pub reconnected: usize,
    /// Down links whose attempt budget is exhausted (left down until an
    /// operator intervenes or the scheduler is reset).
    pub exhausted: usize,
    /// Total backoff charged this sweep (deterministic capped-jitter
    /// schedule from the [`RetryPolicy`]).
    pub backoff: SimDuration,
}

/// Capped-backoff reconnect scheduling over a replicated queue's down
/// links. The [`RetryPolicy`] supplies the attempt cap and the
/// deterministic jittered backoff curve; a link that comes back up
/// resets its budget.
#[derive(Debug, Clone)]
pub struct ReconnectScheduler {
    policy: RetryPolicy,
    attempts: Vec<u32>,
}

impl ReconnectScheduler {
    /// A scheduler charging reconnects against `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        ReconnectScheduler {
            policy,
            attempts: Vec::new(),
        }
    }

    /// Attempts charged against link `idx` since it was last up.
    pub fn attempts(&self, idx: usize) -> u32 {
        self.attempts.get(idx).copied().unwrap_or(0)
    }

    /// Sweep every link: healthy links reset their budget; down links
    /// within budget get one reconnect attempt each (with its backoff
    /// charged); down links past `max_attempts` are counted exhausted
    /// and left alone.
    pub fn tick<S: Storage + Clone>(
        &mut self,
        queue: &DurableSubmitQueue<Leader<S>>,
    ) -> ReconnectTick {
        let states = queue.link_states();
        self.attempts.resize(states.len(), 0);
        let mut tick = ReconnectTick::default();
        for (idx, state) in states.iter().enumerate() {
            if !state.down {
                self.attempts[idx] = 0;
                continue;
            }
            let attempt = self.attempts[idx] + 1;
            if attempt > self.policy.max_attempts {
                tick.exhausted += 1;
                continue;
            }
            self.attempts[idx] = attempt;
            tick.backoff += self.policy.backoff(attempt);
            tick.attempted += 1;
            if queue.reconnect(idx).is_ok() {
                tick.reconnected += 1;
                self.attempts[idx] = 0;
            }
        }
        tick
    }
}

impl<S: Storage + Clone> DurableSubmitQueue<Leader<S>> {
    /// Attach and synchronize a follower (see [`Leader::attach_follower`]).
    pub fn attach_follower(
        &self,
        storage: S,
        config: DurableStoreConfig,
    ) -> Result<usize, StoreError> {
        self.store.lock().attach_follower(storage, config)
    }

    /// One mechanical reconnect attempt for link `idx` (scheduling
    /// belongs to [`ReconnectScheduler`]).
    pub fn reconnect(&self, idx: usize) -> Result<(), StoreError> {
        self.store.lock().reconnect(idx)
    }

    /// The leader's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.store.lock().epoch()
    }

    /// Replication health.
    pub fn replication_status(&self) -> ReplicationStatus {
        self.store.lock().status()
    }

    /// Shipping and failover counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        *self.store.lock().replication_stats()
    }

    /// Per-link health and lag.
    pub fn link_states(&self) -> Vec<LinkState> {
        self.store.lock().link_states()
    }

    /// Record replication metrics including the wall-clock ack-latency
    /// histogram. Byte-stable exports must use
    /// [`Self::record_replication_deterministic_into`] instead.
    pub fn record_replication_into(&self, metrics: &mut MetricsRegistry) {
        let samples = self.store.lock().take_ship_samples();
        self.record_replication_core(metrics, &samples);
        for micros in &samples.ack_micros {
            metrics.observe("replication.ack.latency_micros", *micros as f64);
        }
    }

    /// Record the deterministic subset of replication metrics: per-link
    /// lag gauges, ship-batch histograms, epoch/promotion counters —
    /// everything except wall-clock latency, so same-seed runs export
    /// byte-identical JSON.
    pub fn record_replication_deterministic_into(&self, metrics: &mut MetricsRegistry) {
        let samples = self.store.lock().take_ship_samples();
        self.record_replication_core(metrics, &samples);
    }

    fn record_replication_core(&self, metrics: &mut MetricsRegistry, samples: &ShipSamples) {
        let (epoch, stats, links) = {
            let store = self.store.lock();
            (
                store.epoch(),
                *store.replication_stats(),
                store.link_states(),
            )
        };
        metrics.set_gauge("replication.epoch", epoch as f64);
        // `ReplicationStats` carries cumulative lifetime totals, so the
        // export reconciles counters against the totals instead of
        // `add()`ing them: a periodic exporter (the server's `Stats`
        // handler) hands the same snapshot over repeatedly, and
        // re-adding a running total double-counts on every pass.
        // Epoch 1 is the founding leader; every bump is a promotion.
        metrics.record_total("replication.promotions", epoch.saturating_sub(1));
        metrics.record_total("replication.ships", stats.ships);
        metrics.record_total("replication.shipped_records", stats.shipped_records);
        metrics.record_total("replication.shipped_bytes", stats.shipped_bytes);
        metrics.record_total("replication.acked_quorum", stats.acked_quorum);
        metrics.record_total("replication.degraded_acks", stats.degraded_acks);
        metrics.record_total("replication.link_drops", stats.link_drops);
        metrics.record_total("replication.fence_refusals", stats.fence_refusals);
        metrics.record_total("replication.resyncs", stats.resyncs);
        metrics.record_total("replication.snapshots_installed", stats.snapshots_installed);
        metrics.record_total("replication.reconnects", stats.reconnects);
        metrics.record_total(
            "replication.follower_truncated_bytes",
            stats.follower_truncated_bytes,
        );
        metrics.set_gauge("replication.links", links.len() as f64);
        for (idx, link) in links.iter().enumerate() {
            metrics.set_gauge(&format!("replication.follower.{idx}.lag"), link.lag as f64);
            metrics.set_gauge(
                &format!("replication.follower.{idx}.durable_lsn"),
                link.durable_lsn as f64,
            );
            metrics.set_gauge(
                &format!("replication.follower.{idx}.down"),
                if link.down { 1.0 } else { 0.0 },
            );
        }
        for records in &samples.batch_records {
            metrics.observe("replication.ship.batch_records", *records as f64);
        }
        for bytes in &samples.batch_bytes {
            metrics.observe("replication.ship.batch_bytes", *bytes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{StepAction, TicketId, TicketState};
    use sq_exec::StepOutcome;
    use sq_store::{AckMode, CrashKind, CrashPlan, MemStorage};
    use sq_vcs::{Patch, RepoPath};
    use std::sync::{Arc, Mutex as StdMutex};

    type Shared = Arc<StdMutex<MemStorage>>;

    fn shared() -> Shared {
        Arc::new(StdMutex::new(MemStorage::new()))
    }

    fn always_pass() -> Box<StepAction> {
        Box::new(|_step, _tree| StepOutcome::Success)
    }

    fn demo_repo() -> Repository {
        Repository::init([
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "pub fn l() {}"),
        ])
        .unwrap()
    }

    fn lib_patch(v: u32) -> Patch {
        Patch::write(
            RepoPath::new("lib/l.rs").unwrap(),
            format!("pub fn l() {{ /* v{v} */ }}"),
        )
    }

    fn cfg() -> DurableStoreConfig {
        DurableStoreConfig::with_snapshot_every(u64::MAX)
    }

    fn repl(mode: AckMode) -> ReplicationConfig {
        ReplicationConfig::with_ack_mode(mode)
    }

    fn open_two_follower_leader(
        mode: AckMode,
    ) -> (DurableSubmitQueue<Leader<Shared>>, Shared, Shared, Shared) {
        let (ls, f1, f2) = (shared(), shared(), shared());
        let dq = open_leader(
            demo_repo(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(mode),
        )
        .unwrap();
        dq.attach_follower(f1.clone(), cfg()).unwrap();
        dq.attach_follower(f2.clone(), cfg()).unwrap();
        (dq, ls, f1, f2)
    }

    #[test]
    fn replicated_queue_lands_changes_and_stays_healthy() {
        let (dq, _ls, _f1, _f2) = open_two_follower_leader(AckMode::Quorum);
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(dq.status(t), Some(TicketState::Landed(_))));
        assert_eq!(dq.replication_status(), ReplicationStatus::Healthy);
        assert_eq!(dq.epoch(), 1);
        let stats = dq.replication_stats();
        assert!(stats.ships >= 6, "3 batches x 2 followers, got {stats:?}");
        assert_eq!(stats.degraded_acks, 0);
    }

    #[test]
    fn promoted_follower_serves_identical_state_and_fences_the_dead_leader() {
        let (dq, ls, f1, f2) = open_two_follower_leader(AckMode::Quorum);
        let t1 = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        let t2 = dq.submit("bob", "v2", dq.head(), lib_patch(2)).unwrap();
        let exported = dq.export_state_json();
        let repo = dq.repository();
        drop(dq); // leader process dies

        let candidate =
            best_promotion_candidate(&[f1.clone(), f2.clone()], &cfg(), &repl(AckMode::Quorum))
                .unwrap();
        assert_eq!(candidate.epoch, 1);
        assert_eq!(candidate.cluster_epoch, 1);
        let storage = [f1.clone(), f2.clone()][candidate.index].clone();
        let (promoted, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            storage,
            cfg(),
            repl(AckMode::Quorum),
            candidate.cluster_epoch,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.durable_lsn, candidate.durable_lsn);
        assert_eq!(report.truncated_bytes, 0);
        // Zero acked enqueues lost: the promoted replica's export is
        // byte-identical to the dead leader's last acknowledged state.
        assert_eq!(promoted.export_state_json(), exported);
        assert!(matches!(promoted.status(t1), Some(TicketState::Landed(_))));
        assert_eq!(promoted.status(t2), Some(TicketState::Queued));
        promoted.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(promoted.status(t2), Some(TicketState::Landed(_))));

        // The dead leader restarts at its old epoch and tries to serve:
        // the first shipped frame is fenced and the submit fails.
        let revenant = open_leader(
            promoted.repository(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(AckMode::Quorum),
        )
        .unwrap();
        assert_eq!(revenant.epoch(), 1);
        let err = revenant.attach_follower(f1.clone(), cfg()).unwrap_err();
        assert!(matches!(err, StoreError::Fenced { .. }));
    }

    #[test]
    fn promotion_claims_a_strictly_increasing_epoch_chain() {
        let (dq, _ls, f1, f2) = open_two_follower_leader(AckMode::Async);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        let repo = dq.repository();
        drop(dq);
        let (second, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            f1.clone(),
            cfg(),
            repl(AckMode::Async),
            1,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        second.attach_follower(f2.clone(), cfg()).unwrap();
        let repo = second.repository();
        drop(second);
        let (third, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            f2.clone(),
            cfg(),
            repl(AckMode::Async),
            2,
        )
        .unwrap();
        assert_eq!(report.epoch, 3);
        assert_eq!(third.epoch(), 3);
    }

    #[test]
    fn reconnect_scheduler_backs_off_then_heals_or_exhausts() {
        let (dq, _ls, f1, _f2) = open_two_follower_leader(AckMode::Quorum);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        // Kill follower 1's medium: the next ship drops the link.
        let ops = f1.lock().unwrap().ops();
        f1.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(
            dq.replication_status(),
            ReplicationStatus::Degraded { down: 1, .. }
        ));

        let mut sched = ReconnectScheduler::new(RetryPolicy::standard(3, 42));
        // Medium still dead: attempts are charged with backoff.
        let tick = sched.tick(&dq);
        assert_eq!((tick.attempted, tick.reconnected), (1, 0));
        assert!(tick.backoff > SimDuration::ZERO);
        // Revive: the next sweep reconnects and resets the budget.
        f1.lock().unwrap().revive();
        f1.lock().unwrap().set_plan(CrashPlan::none());
        let tick = sched.tick(&dq);
        assert_eq!((tick.attempted, tick.reconnected), (1, 1));
        assert_eq!(dq.replication_status(), ReplicationStatus::Healthy);
        assert_eq!(sched.attempts(0), 0);

        // Kill it again and let the budget run out.
        let ops = f1.lock().unwrap().ops();
        f1.lock()
            .unwrap()
            .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        dq.submit("bob", "v2", dq.head(), lib_patch(2)).unwrap();
        for _ in 0..3 {
            let tick = sched.tick(&dq);
            assert_eq!(tick.attempted, 1);
        }
        let tick = sched.tick(&dq);
        assert_eq!((tick.attempted, tick.exhausted), (0, 1));
    }

    #[test]
    fn degraded_quorum_keeps_serving_and_is_visible() {
        let (dq, _ls, f1, f2) = open_two_follower_leader(AckMode::Quorum);
        for f in [&f1, &f2] {
            let ops = f.lock().unwrap().ops();
            f.lock()
                .unwrap()
                .set_plan(CrashPlan::at_op(ops, CrashKind::Torn));
        }
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        assert!(matches!(dq.status(t), Some(TicketState::Landed(_))));
        let stats = dq.replication_stats();
        assert_eq!(stats.link_drops, 2);
        assert!(stats.degraded_acks > 0);
        assert!(matches!(
            dq.replication_status(),
            ReplicationStatus::Degraded {
                down: 2,
                quorum_ok: false,
                ..
            }
        ));
    }

    /// Replication observability sibling of the planner's
    /// `observed_runs_are_unperturbed_and_export_identical_json`: the
    /// deterministic metric subset (lag gauges, ship-batch histograms,
    /// epoch/promotion counters, store counters) must export
    /// byte-identical JSON across same-seed runs — including across a
    /// crash + promotion.
    #[test]
    fn observed_replicated_runs_export_identical_json() {
        let run = || {
            let (dq, _ls, f1, f2) = open_two_follower_leader(AckMode::Quorum);
            for v in 0..3 {
                dq.submit("alice", format!("v{v}"), dq.head(), lib_patch(v))
                    .unwrap();
                dq.run_until_idle(&always_pass()).unwrap();
            }
            let repo = dq.repository();
            drop(dq);
            let (promoted, _) = promote_from_follower(
                repo,
                2,
                RecoveryConfig::disabled(),
                f1.clone(),
                cfg(),
                repl(AckMode::Quorum),
                1,
            )
            .unwrap();
            // The surviving replica rejoins the new timeline via resync.
            promoted.attach_follower(f2.clone(), cfg()).unwrap();
            promoted.run_until_idle(&always_pass()).unwrap();
            let mut metrics = MetricsRegistry::new();
            promoted.record_replication_deterministic_into(&mut metrics);
            // Store counters too — minus the wall-clock replay field.
            let st = promoted.store_stats();
            metrics.add("store.journal.appends", st.appends);
            metrics.add("store.recovery.replayed_records", st.replayed_records);
            metrics.add(
                "store.recovery.truncated_tail_bytes",
                st.truncated_tail_bytes,
            );
            (metrics.to_json(), promoted.export_state_json())
        };
        let (metrics_a, state_a) = run();
        let (metrics_b, state_b) = run();
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(state_a, state_b);
        assert!(metrics_a.contains("replication.follower.0.lag"));
        assert!(metrics_a.contains("replication.ship.batch_records"));
        assert!(metrics_a.contains("replication.promotions"));
    }

    /// Regression for the double-counting family: `ReplicationStats`
    /// are cumulative lifetime totals, and the old exporter `add()`ed
    /// them into counters on every call, so a periodic export (the
    /// server's `Stats` handler) reported 2x/3x the true totals. Two
    /// sequential exports into one registry must now equal one.
    #[test]
    fn replication_export_is_idempotent_across_repeated_exports() {
        let (dq, _ls, f1, _f2) = open_two_follower_leader(AckMode::Quorum);
        for v in 0..3 {
            dq.submit("alice", format!("v{v}"), dq.head(), lib_patch(v))
                .unwrap();
            dq.run_until_idle(&always_pass()).unwrap();
        }
        // Sanity: the first export reports the true totals...
        let mut once = MetricsRegistry::new();
        dq.record_replication_deterministic_into(&mut once);
        let stats = dq.replication_stats();
        assert_eq!(once.counter("replication.ships"), stats.ships);
        // ...and a second export of the same snapshot changes nothing.
        dq.record_replication_deterministic_into(&mut once);
        assert_eq!(once.counter("replication.ships"), stats.ships);
        sq_obs::assert_idempotent_export(|m| dq.record_replication_deterministic_into(m));

        // Promotions survive the same discipline: the counter derives
        // from the fencing epoch, not from re-adding `epoch - 1`.
        let repo = dq.repository();
        drop(dq);
        let (promoted, _) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            f1.clone(),
            cfg(),
            repl(AckMode::Quorum),
            1,
        )
        .unwrap();
        let mut m = MetricsRegistry::new();
        promoted.record_replication_deterministic_into(&mut m);
        promoted.record_replication_deterministic_into(&mut m);
        assert_eq!(m.counter("replication.promotions"), 1);
    }

    #[test]
    fn full_metrics_include_ack_latency_histogram() {
        let (dq, _ls, _f1, _f2) = open_two_follower_leader(AckMode::Quorum);
        dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        dq.run_until_idle(&always_pass()).unwrap();
        let mut metrics = MetricsRegistry::new();
        dq.record_replication_into(&mut metrics);
        let hist = metrics.histogram("replication.ack.latency_micros").unwrap();
        assert!(hist.count() >= 3);
    }

    #[test]
    fn promotion_mid_flight_recovers_without_double_commit() {
        // Crash between the VCS commit and the verdict journal (op 4 on
        // a replicated leader: 0 magic, 1 meta, 2 enqueue, 3 spec-start,
        // 4 verdict batch), then promote: the journal says Queued while
        // the repo already has the commit — recovery must land the
        // change at that commit, not commit it twice.
        let ls = Arc::new(StdMutex::new(MemStorage::with_crashes(CrashPlan::at_op(
            4,
            CrashKind::Torn,
        ))));
        let fs = shared();
        let dq = open_leader(
            demo_repo(),
            2,
            RecoveryConfig::disabled(),
            ls.clone(),
            cfg(),
            repl(AckMode::Quorum),
        )
        .unwrap();
        dq.attach_follower(fs.clone(), cfg()).unwrap();
        let t = dq.submit("alice", "v1", dq.head(), lib_patch(1)).unwrap();
        let err = dq.process_next(&always_pass()).unwrap_err();
        assert!(matches!(err, StoreError::Crashed { .. }));
        let repo = dq.repository();
        let commits_before = repo.log(repo.head()).unwrap().len();
        drop(dq);
        let (promoted, report) = promote_from_follower(
            repo,
            2,
            RecoveryConfig::disabled(),
            fs.clone(),
            cfg(),
            repl(AckMode::Quorum),
            1,
        )
        .unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(promoted.status(t), Some(TicketState::Queued));
        promoted.run_until_idle(&always_pass()).unwrap();
        match promoted.status(t) {
            Some(TicketState::Landed(c)) => assert_eq!(c, promoted.head()),
            other => panic!("expected landed, got {other:?}"),
        }
        let repo2 = promoted.repository();
        assert_eq!(
            repo2.log(repo2.head()).unwrap().len(),
            commits_before,
            "promotion must not double-commit"
        );
        assert_eq!(promoted.status(TicketId(t.0)), promoted.status(t));
    }
}
