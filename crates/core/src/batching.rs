//! Batching independent changes (paper Section 10, and the Section 2.2
//! batch-queue discussion).
//!
//! "A better approach is to batch independent changes expected to
//! succeed together before running their build steps. While this
//! approach can lead to better hardware utilization and lower cost,
//! false prediction can result in higher turnaround time."
//!
//! The pipeline here is the classic batch-and-bisect (Chromium Commit
//! Queue / batched Bors): up to `max_batch` pairwise-independent ready
//! changes build together; on success the whole batch commits; on
//! failure the batch splits in half and both halves retry — a singleton
//! failure rejects the change. Batches in flight are kept mutually
//! independent, so parallel commits can never compose into a red
//! mainline; the greenness audit still runs on the result.

use crate::pending::{ChangeOutcome, ChangeRecord};
use sq_sim::{run as run_des, EventQueue, Scheduler, SimDuration, SimTime, Simulation};
use sq_workload::{ChangeId, ChangeSpec, GroundTruth, Workload};
use std::collections::{HashMap, VecDeque};

/// Batching pipeline configuration.
#[derive(Debug, Clone)]
pub struct BatchingConfig {
    /// Maximum changes per batch (1 = no batching).
    pub max_batch: usize,
    /// Worker fleet size (one batch occupies one worker).
    pub workers: usize,
    /// Fixed overhead per batch build.
    pub build_overhead: SimDuration,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            max_batch: 4,
            workers: 100,
            build_overhead: SimDuration::from_secs(60),
        }
    }
}

/// Result of a batching run.
#[derive(Debug, Clone)]
pub struct BatchingResult {
    /// Per-change records.
    pub records: Vec<ChangeRecord>,
    /// Commit log with commit times (mainline order).
    pub commits: Vec<(ChangeId, SimTime)>,
    /// Batch builds executed.
    pub builds_run: u64,
    /// Total worker time spent building.
    pub worker_time: SimDuration,
    /// Simulated end time.
    pub makespan: SimTime,
}

impl BatchingResult {
    /// Turnaround percentiles in minutes: (P50, P95, P99). `None` when no
    /// change resolved — a 0-minute turnaround would read as "instant",
    /// not "no data".
    pub fn turnaround_p50_p95_p99(&self) -> Option<(f64, f64, f64)> {
        let mut p = sq_sim::Percentiles::with_capacity(self.records.len());
        for r in &self.records {
            p.push(r.turnaround.as_mins_f64());
        }
        p.p50_p95_p99()
    }

    /// Builds per resolved change — the hardware-saving measure. `None`
    /// when no change resolved (0.0 would read as "free builds").
    pub fn builds_per_change(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(self.builds_run as f64 / self.records.len() as f64)
    }

    /// Worker-minutes per committed change. `None` when nothing committed.
    pub fn worker_mins_per_commit(&self) -> Option<f64> {
        if self.commits.is_empty() {
            return None;
        }
        Some(self.worker_time.as_mins_f64() / self.commits.len() as f64)
    }
}

/// Safety valve on batching-simulation events: a run still busy after
/// this many events panics rather than return a truncated result.
pub const MAX_BATCH_EVENTS: u64 = 10_000_000;

/// Run the batch-and-bisect pipeline over a workload.
pub fn simulate_batching(workload: &Workload, config: &BatchingConfig) -> BatchingResult {
    batch_capped(workload, config, MAX_BATCH_EVENTS)
}

/// [`simulate_batching`] under an explicit event cap. Panics if the run
/// has not drained by then.
fn batch_capped(workload: &Workload, config: &BatchingConfig, max_events: u64) -> BatchingResult {
    assert!(config.max_batch >= 1 && config.workers >= 1);
    let mut sim = Batcher {
        workload,
        truth: workload.truth(),
        config: config.clone(),
        ready: VecDeque::new(),
        retry: VecDeque::new(),
        in_flight: HashMap::new(),
        busy: 0,
        next_batch: 0,
        records: Vec::with_capacity(workload.changes.len()),
        commits: Vec::new(),
        builds_run: 0,
        worker_time: SimDuration::ZERO,
        makespan: SimTime::ZERO,
    };
    let mut queue: EventQueue<BatchEvent> = EventQueue::new();
    for (i, c) in workload.changes.iter().enumerate() {
        queue.schedule(c.submit_time, BatchEvent::Arrival(i));
    }
    let outcome = run_des(&mut sim, &mut queue, max_events);
    assert!(
        outcome.drained,
        "batching simulation hit the {max_events}-event cap with changes unresolved"
    );
    BatchingResult {
        records: sim.records,
        commits: sim.commits,
        builds_run: sim.builds_run,
        worker_time: sim.worker_time,
        makespan: sim.makespan,
    }
}

#[derive(Debug, Clone, Copy)]
enum BatchEvent {
    Arrival(usize),
    BatchDone(u64),
}

struct Batcher<'a> {
    workload: &'a Workload,
    truth: GroundTruth,
    config: BatchingConfig,
    /// Singles waiting to be batched, in arrival order.
    ready: VecDeque<ChangeId>,
    /// Split halves waiting to retry as-is (front = highest priority).
    retry: VecDeque<Vec<ChangeId>>,
    in_flight: HashMap<u64, Vec<ChangeId>>,
    busy: usize,
    next_batch: u64,
    records: Vec<ChangeRecord>,
    commits: Vec<(ChangeId, SimTime)>,
    builds_run: u64,
    worker_time: SimDuration,
    makespan: SimTime,
}

impl<'a> Batcher<'a> {
    fn spec(&self, id: ChangeId) -> &'a ChangeSpec {
        &self.workload.changes[id.0 as usize]
    }

    fn independent_of_in_flight(&self, id: ChangeId) -> bool {
        let c = self.spec(id);
        self.in_flight
            .values()
            .flatten()
            .all(|&m| !self.spec(m).potentially_conflicts(c))
    }

    fn mutually_independent(&self, batch: &[ChangeId], id: ChangeId) -> bool {
        let c = self.spec(id);
        batch
            .iter()
            .all(|&m| !self.spec(m).potentially_conflicts(c))
    }

    fn launch(
        &mut self,
        batch: Vec<ChangeId>,
        now: SimTime,
        sched: &mut Scheduler<'_, BatchEvent>,
    ) {
        debug_assert!(!batch.is_empty());
        let max_dur = batch
            .iter()
            .map(|&id| self.spec(id).build_duration)
            .max()
            .expect("non-empty batch");
        let duration = max_dur + self.config.build_overhead;
        let id = self.next_batch;
        self.next_batch += 1;
        self.busy += 1;
        self.builds_run += 1;
        self.worker_time += duration;
        self.in_flight.insert(id, batch);
        sched.at(now + duration, BatchEvent::BatchDone(id));
    }

    fn dispatch(&mut self, now: SimTime, sched: &mut Scheduler<'_, BatchEvent>) {
        while self.busy < self.config.workers {
            // Retries first (they have waited longest), as-is, but only
            // once independent of everything currently building.
            if let Some(pos) = self
                .retry
                .iter()
                .position(|job| job.iter().all(|&m| self.independent_of_in_flight(m)))
            {
                let job = self.retry.remove(pos).expect("position valid");
                self.launch(job, now, sched);
                continue;
            }
            // Form a fresh batch from the ready queue.
            let mut batch: Vec<ChangeId> = Vec::new();
            let mut remaining: VecDeque<ChangeId> = VecDeque::new();
            while let Some(id) = self.ready.pop_front() {
                if batch.len() < self.config.max_batch
                    && self.independent_of_in_flight(id)
                    && self.mutually_independent(&batch, id)
                {
                    batch.push(id);
                } else {
                    remaining.push_back(id);
                }
            }
            self.ready = remaining;
            if batch.is_empty() {
                return;
            }
            self.launch(batch, now, sched);
        }
    }

    fn finish_change(&mut self, id: ChangeId, ok: bool, now: SimTime) {
        let spec = self.spec(id);
        if ok {
            self.commits.push((id, now));
        }
        self.records.push(ChangeRecord::new(
            id,
            spec.submit_time,
            now,
            if ok {
                ChangeOutcome::Committed
            } else {
                ChangeOutcome::Rejected
            },
            1,
            0,
        ));
        self.makespan = self.makespan.max(now);
    }
}

impl<'a> Simulation for Batcher<'a> {
    type Event = BatchEvent;

    fn handle(&mut self, now: SimTime, event: BatchEvent, sched: &mut Scheduler<'_, BatchEvent>) {
        match event {
            BatchEvent::Arrival(i) => {
                self.ready.push_back(self.workload.changes[i].id);
                self.dispatch(now, sched);
            }
            BatchEvent::BatchDone(batch_id) => {
                self.busy -= 1;
                let members = self
                    .in_flight
                    .remove(&batch_id)
                    .expect("finished batch tracked");
                let specs: Vec<&ChangeSpec> = members.iter().map(|&m| self.spec(m)).collect();
                // The batch builds on the *current* HEAD: members must be
                // clean against each other AND against every change that
                // committed while they were pending (a stale member fails
                // its rebase-and-test here, exactly like a real build).
                let clean_vs_head = members.iter().all(|&m| {
                    let mc = self.spec(m);
                    self.commits.iter().all(|&(d, t)| {
                        t <= mc.submit_time || !self.truth.real_conflict(mc, self.spec(d))
                    })
                });
                if clean_vs_head && self.truth.batch_succeeds(&specs) {
                    for &m in &members {
                        self.finish_change(m, true, now);
                    }
                } else if members.len() == 1 {
                    self.finish_change(members[0], false, now);
                } else {
                    // Bisect: split in half, retry both halves next.
                    let mid = members.len() / 2;
                    let (a, b) = members.split_at(mid);
                    self.retry.push_front(b.to_vec());
                    self.retry.push_front(a.to_vec());
                }
                self.dispatch(now, sched);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn workload(rate: f64, n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
            .seed(seed)
            .n_changes(n)
            .build()
            .unwrap()
    }

    fn run(w: &Workload, max_batch: usize, workers: usize) -> BatchingResult {
        simulate_batching(
            w,
            &BatchingConfig {
                max_batch,
                workers,
                ..BatchingConfig::default()
            },
        )
    }

    #[test]
    #[should_panic(expected = "cap with changes unresolved")]
    fn a_run_that_hits_the_event_cap_fails_instead_of_truncating() {
        let w = workload(200.0, 50, 1);
        // 50 arrivals alone exceed a 10-event cap.
        batch_capped(&w, &BatchingConfig::default(), 10);
    }

    #[test]
    fn every_change_resolves_exactly_once() {
        let w = workload(200.0, 150, 1);
        let r = run(&w, 4, 50);
        assert_eq!(r.records.len(), 150);
        let mut ids: Vec<_> = r.records.iter().map(|rec| rec.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 150);
    }

    #[test]
    fn commits_are_green() {
        let w = workload(200.0, 200, 2);
        let truth = w.truth();
        let r = run(&w, 8, 50);
        // Every committed change passes alone, and no two committed
        // changes with overlapping in-flight windows really conflict.
        for (k, &(c_id, _)) in r.commits.iter().enumerate() {
            let c = &w.changes[c_id.0 as usize];
            assert!(truth.succeeds_alone(c), "committed broken change {c_id}");
            for &(d_id, d_time) in &r.commits[..k] {
                let d = &w.changes[d_id.0 as usize];
                if c.submit_time < d_time {
                    assert!(
                        !truth.real_conflict(c, d),
                        "red mainline: {c_id} conflicts with {d_id}"
                    );
                }
            }
        }
    }

    #[test]
    fn batching_reduces_builds_per_change() {
        let w = workload(300.0, 200, 3);
        let singles = run(&w, 1, 50).builds_per_change().unwrap();
        let batched = run(&w, 8, 50).builds_per_change().unwrap();
        assert!(
            batched < singles,
            "batching must save builds: {batched} vs {singles}"
        );
        // With batch = 1 every resolved change is exactly one build.
        assert!((singles - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failed_batches_bisect_and_still_resolve_everyone() {
        // Crank the conflict probability so batches fail often.
        let mut params = WorkloadParams::ios().with_rate(300.0);
        params.pairwise_conflict_prob = 0.5;
        let w = WorkloadBuilder::new(params)
            .seed(4)
            .n_changes(120)
            .build()
            .unwrap();
        let r = run(&w, 8, 40);
        assert_eq!(r.records.len(), 120);
        // Bisection costs extra builds beyond one per batch.
        assert!(r.builds_run > 120 / 8);
    }

    #[test]
    fn worker_time_accounting() {
        let w = workload(100.0, 60, 5);
        let r = run(&w, 4, 20);
        assert!(r.worker_time > SimDuration::ZERO);
        assert!(r.worker_mins_per_commit().unwrap() > 0.0);
        assert!(r.makespan > SimTime::ZERO);
    }

    #[test]
    fn empty_workload_reports_no_data_not_zeros() {
        let w = workload(100.0, 1, 7);
        let empty = Workload {
            changes: Vec::new(),
            ..w
        };
        let r = simulate_batching(&empty, &BatchingConfig::default());
        assert_eq!(r.builds_per_change(), None);
        assert_eq!(r.worker_mins_per_commit(), None);
        assert_eq!(r.turnaround_p50_p95_p99(), None);
    }

    #[test]
    fn single_worker_still_terminates() {
        let w = workload(500.0, 80, 6);
        let r = run(&w, 4, 1);
        assert_eq!(r.records.len(), 80);
    }
}
