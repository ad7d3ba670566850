//! The simulator half: `sq_core::planner::run_simulation` on a sharded
//! cell, gated on the planner's decisions.

use crate::report::{Checks, Report};
use crate::trace::Tracer;
use sq_core::audit;
use sq_core::planner::{run_simulation, run_simulation_observed, PlannerConfig, SimResult};
use sq_core::shard::{PlanningCost, ShardPlan, ShardSpec};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_obs::Observer;
use sq_sim::SimDuration;
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};
use std::time::{Duration, Instant};

/// Salt separating the predictor's training history from the workload
/// (the value `bench_shard` uses).
const HISTORY_SALT: u64 = 0xA11CE;

/// The seed of the committed `BENCH_shard.json` cells. Every run uses
/// it, whatever `--seed` is: the cost of a cell differs by up to 30%
/// between workload seeds, which would swamp the run-to-run spread of
/// `sim_changes_per_s`, and the decisions can be checked against the
/// committed document.
const CELL_SEED: u64 = 0x5EED;

/// One sharded-planner cell.
#[derive(Debug, Clone, Copy)]
pub struct SimCell {
    pub name: &'static str,
    pub rate_per_hour: f64,
    pub hours: f64,
    pub n_parts: usize,
    pub n_shards: usize,
    pub total_workers: usize,
    pub planning_base_ms: u64,
    pub planning_per_pending_ms: u64,
    pub history_changes: usize,
    /// `(commits, rejects, builds_started)`: the decisions of the
    /// committed `BENCH_shard.json` cell.
    pub expected: (usize, usize, u64),
}

/// The sharded cell of `bench_shard` (`BENCH_shard.json`, "sharded").
pub const SHARDED: SimCell = SimCell {
    name: "bench_shard sharded cell",
    rate_per_hour: 14_000.0,
    hours: 0.5,
    n_parts: 8_192,
    n_shards: 16,
    total_workers: 3_600,
    planning_base_ms: 2_000,
    planning_per_pending_ms: 700,
    history_changes: 4_000,
    expected: (6118, 882, 25828),
};

/// The smoke cell of `bench_shard`: the small simulation the serving
/// workloads run so that `sim_changes_per_s` is measured everywhere.
pub const PROBE: SimCell = SimCell {
    name: "bench_shard smoke cell",
    rate_per_hour: 2_400.0,
    hours: 0.5,
    n_parts: 2_048,
    n_shards: 8,
    total_workers: 400,
    planning_base_ms: 2_000,
    planning_per_pending_ms: 3_500,
    history_changes: 800,
    expected: (1097, 103, 1594),
};

/// Everything a simulation needs, built during set-up.
pub struct SimInputs {
    cell: SimCell,
    workload: Workload,
    strategy: Strategy,
    config: PlannerConfig,
}

/// Set-up timings of the simulator half, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimSetup {
    pub generate_s: f64,
    pub train_s: f64,
}

impl SimCell {
    fn n_changes(&self) -> usize {
        (self.rate_per_hour * self.hours).round() as usize
    }

    fn workload_params(&self) -> WorkloadParams {
        // Mirrors `ShardBenchParams::workload_params`.
        let mut p = WorkloadParams::ios().with_rate(self.rate_per_hour);
        p.n_parts = self.n_parts;
        p.part_zipf_s = 0.3;
        p.mean_parts_per_change = 1.1;
        p.duration_median_mins = 5.0;
        p.duration_min_mins = 1.0;
        p.duration_max_mins = 20.0;
        p
    }

    /// Generate the workload and training history and train the
    /// predictor, on the committed seed.
    pub fn prepare(&self) -> (SimInputs, SimSetup) {
        let t0 = Instant::now();
        let wl = self.workload_params();
        let workload = WorkloadBuilder::new(wl.clone())
            .seed(CELL_SEED)
            .n_changes(self.n_changes())
            .build()
            .expect("valid cell parameters");
        let history = WorkloadBuilder::new(wl)
            .seed(CELL_SEED ^ HISTORY_SALT)
            .n_changes(self.history_changes)
            .build()
            .expect("valid history parameters");
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &workload, Some(&history));
        let train_s = t1.elapsed().as_secs_f64();
        let plan = ShardPlan::round_robin(self.n_parts, self.n_shards);
        let spec = ShardSpec::proportional(plan, &workload, self.total_workers);
        let config = PlannerConfig {
            shards: Some(spec),
            planning_cost: Some(PlanningCost {
                base: SimDuration::from_millis(self.planning_base_ms),
                per_pending: SimDuration::from_millis(self.planning_per_pending_ms),
            }),
            ..PlannerConfig::default()
        };
        let inputs = SimInputs {
            cell: *self,
            workload,
            strategy,
            config,
        };
        (
            inputs,
            SimSetup {
                generate_s,
                train_s,
            },
        )
    }
}

impl SimInputs {
    pub fn describe(&self) -> String {
        format!(
            "{}: {} changes at {}/h, {} parts, {} shards, {} workers, workload seed {}",
            self.cell.name,
            self.workload.changes.len(),
            self.cell.rate_per_hour,
            self.cell.n_parts,
            self.cell.n_shards,
            self.cell.total_workers,
            CELL_SEED
        )
    }

    fn check(&self, r: &SimResult, checks: &mut Checks) {
        let n = self.workload.changes.len();
        checks.record(
            "sim.drained",
            r.records.len() == n,
            format!("{} of {n} changes resolved", r.records.len()),
        );
        let green = audit::audit_green(&self.workload, r);
        checks.record("sim.audit_green", green.is_ok(), format!("{green:?}"));
        let wrongful = audit::count_wrongful_rejections(&self.workload, r);
        checks.record(
            "sim.zero_wrongful_rejections",
            wrongful == 0,
            format!("{wrongful} wrongful rejections"),
        );
        let got = (r.committed(), r.rejected(), r.builds_started);
        let want = self.cell.expected;
        checks.record(
            "sim.decisions_match",
            got == want,
            format!("(commits, rejects, builds_started) = {got:?}, committed {want:?}"),
        );
    }

    /// Run the simulation repeatedly while another repetition keeps the
    /// wall time of all repetitions within `budget` (the first always
    /// runs), checking every repetition. Each repetition's rate goes to
    /// the current replicate.
    pub fn run_for(&self, budget: Duration, report: &mut Report) {
        let n = self.workload.changes.len() as f64;
        let (mut spent, mut last) = (Duration::ZERO, Duration::ZERO);
        while spent.is_zero() || spent + last <= budget {
            let t0 = Instant::now();
            let r = run_simulation(&self.workload, &self.strategy, &self.config);
            last = t0.elapsed();
            spent += last;
            report.current().sim_rates.push(n / last.as_secs_f64());
            self.check(&r, &mut report.checks);
            report.attempted += n as u64;
            report.failed += (n as usize - r.records.len()) as u64;
        }
    }

    /// One observed run for the per-layer numbers: the planner's own
    /// counters plus an outside span around the run.
    pub fn run_traced(&self, tracer: &mut Tracer, report: &mut Report) {
        let mut obs = Observer::new();
        let r = tracer.span("planner.run", 0, || {
            run_simulation_observed(&self.workload, &self.strategy, &self.config, &mut obs)
        });
        self.check(&r, &mut report.checks);
        let m = &obs.metrics;
        let started = r.builds_started.max(1) as f64;
        let hits = m.counter("analyzer.cache_hits") as f64;
        let misses = m.counter("analyzer.cache_misses") as f64;
        let layer = &mut report.layer;
        layer.insert("planner.epochs", m.counter("planner.epochs") as f64);
        layer.insert(
            "planner.useful_build_ratio",
            m.counter("planner.builds_needed") as f64 / started,
        );
        layer.insert("planner.builds_aborted", r.builds_aborted as f64);
        layer.insert(
            "planner.queue_depth_mean",
            m.histogram("planner.queue_depth")
                .and_then(|h| h.mean())
                .unwrap_or(0.0),
        );
        layer.insert(
            "analyzer.pairs_checked",
            m.counter("analyzer.pairs_checked") as f64,
        );
        layer.insert(
            "analyzer.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
    }
}
