//! Wall-clock benchmark of the SubmitQueue reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_small --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every workload runs both halves of the system, so every end-to-end
//! metric is measured on every workload:
//!
//! * a live loopback `sq-server` over a replicated `DurableSubmitQueue`
//!   (open-loop enqueues with reads beside them, and a closed-loop
//!   capacity phase), and
//! * `sq_core::planner::run_simulation` on a sharded cell.
//!
//! A run is a number of replicates. Each sets the system up afresh on
//! the same inputs and runs its share of the simulations, of the open
//! loop and of the capacity phase; a figure is the best replicate's (see
//! `Report::figures`).
//!
//! `serve_small` and `serve_large` spend most of the run serving and
//! run the small smoke cell of `bench_shard` for `sim_changes_per_s`;
//! `sim_shard` spends most of the run on the sharded cell of
//! `bench_shard` and serves `serve_small` traffic briefly.
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, and the
//! spans (keyed by replicate and ticket) are written to
//! `.sqperf/trace-<workload>-seed<seed>.jsonl`. `--self-test` runs each
//! workload at a tiny size and fails if a metric or check is missing.

mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use report::{result_json, Report, END_TO_END, PER_LAYER};
use serve::{ServeSpec, LARGE, SMALL};
use sim::{SimCell, PROBE, SHARDED};
use stats::median;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where storage directories and trace files go, under the working
/// directory.
const OUT_DIR: &str = ".sqperf";

/// `setup_s` is the median of the replicates' set-ups; cheap set-ups
/// repeat after the replicates until they have taken `SETUP_MIN_S` or
/// `SETUPS_MAX` ran.
const SETUPS_MAX: usize = 31;
const SETUP_MIN_S: f64 = 0.5;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One workload: its serving traffic, its simulation cell and how the
/// run's seconds are split between them. The serving phases do a fixed
/// amount of work sized from these shares, so a slow host stretches the
/// run rather than shrinking the work.
#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    serve: ServeSpec,
    sim: SimCell,
    /// Shares of `--seconds` for the open loop, the capacity phase and
    /// the simulations, split evenly between the replicates.
    split: (f64, f64, f64),
    replicates: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_small",
        serve: SMALL,
        sim: PROBE,
        // 960 enqueues at 40 s: under the thousand that would make p99
        // the tail, which within a replicate is its one or two slowest.
        split: (0.6, 0.15, 0.25),
        replicates: 10,
    },
    Workload {
        name: "serve_large",
        serve: LARGE,
        sim: PROBE,
        split: (0.72, 0.2, 0.08),
        replicates: 6,
    },
    Workload {
        name: "sim_shard",
        serve: SMALL,
        sim: SHARDED,
        split: (0.28, 0.07, 0.65),
        replicates: 3,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result of one run: whether it was correct, the metric values of
/// the requested table, and the report behind them.
struct Outcome {
    correct: bool,
    values: BTreeMap<&'static str, f64>,
    report: Report,
}

fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut report = Report::default();
    let mut tracer = traced.then(Tracer::new);
    let share = |s: f64| seconds * s / w.replicates as f64;
    let (open_s, cap_s, sim_s) = (share(w.split.0), share(w.split.1), share(w.split.2));
    let root = PathBuf::from(OUT_DIR);
    let mut times: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut set_up = |report: &mut Report, i: usize| {
        let dir = root.join(format!("{}-{}-{i}", w.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let (served, st) = w.serve.setup(seed, open_s, cap_s, &dir);
        let (inputs, sm) = w.sim.prepare();
        report.setup_s.push(t0.elapsed().as_secs_f64());
        times
            .entry("workload.materialize_s")
            .or_default()
            .push(st.materialize_s);
        times
            .entry("workload.generate_s")
            .or_default()
            .push(st.generate_s + sm.generate_s);
        times.entry("ml.train_s").or_default().push(sm.train_s);
        (served, inputs)
    };
    for j in 0..w.replicates {
        // One set-up alive at a time, so the memory figure is one
        // set-up's.
        let (mut served, inputs) = set_up(&mut report, j);
        if j == 0 {
            report.notes.push(format!(
                "{}; {} replicates",
                served.describe(),
                w.replicates
            ));
            report.notes.push(inputs.describe());
        }
        if let Some(t) = tracer.as_mut() {
            t.replicate = j;
        }
        report.replicates.push(Default::default());
        // The memory figure covers the measured phases only: the
        // high-water mark restarts from the set-up, and is read before
        // the checks and replays, which build queues of their own.
        let reset = report::reset_peak_rss();
        inputs.run_for(Duration::from_secs_f64(sim_s), &mut report);
        let run = served.start(&mut report).map(|mut load| {
            served.open_loop(&mut load, tracer.as_mut(), &mut report);
            served.capacity(&mut load, tracer.as_mut(), &mut report);
            served.stop(load)
        });
        if reset {
            report.current().peak_rss_mb = report::peak_rss_mb();
        }
        served.finish(run, tracer.as_mut(), &mut report);
        if j + 1 == w.replicates {
            if let Some(t) = tracer.as_mut() {
                inputs.run_traced(t, &mut report);
            }
        }
    }
    let mut i = w.replicates;
    while i < SETUPS_MAX && report.setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        set_up(&mut report, i).0.discard();
        i += 1;
    }
    for (name, v) in &times {
        report.layer.insert(name, median(v).unwrap_or(0.0));
    }

    let figures = report.figures();
    let values = match &tracer {
        Some(t) => {
            layer_metrics(t, &mut report);
            for name in [
                "serve.verdict_tail_ms",
                "serve.read_tail_ms",
                "serve.ack_p50_ms",
                "serve.ack_tail_ms",
            ] {
                if let Some(v) = figures.get(name) {
                    report.layer.insert(name, *v);
                }
            }
            let path = root.join(format!("trace-{}-seed{seed}.jsonl", w.name));
            if let Err(e) = t.write_jsonl(&path) {
                report.checks.record("trace.written", false, e.to_string());
            } else {
                report
                    .notes
                    .push(format!("spans written to {}", path.display()));
            }
            report.layer.clone()
        }
        None => figures,
    };
    let correct = report.checks.all_pass(traced);
    Outcome {
        correct,
        values,
        report,
    }
}

/// Fold the spans into the per-layer metrics.
fn layer_metrics(t: &Tracer, report: &mut Report) {
    let med = |name: &str| median(&t.micros_of(name)).unwrap_or(0.0);
    let layer = &mut report.layer;
    for (metric, span) in [
        ("server.head_rtt_us", "client.head"),
        ("durable.submit_us", "durable.submit"),
        ("durable.process_next_us", "durable.process_next"),
        ("store.append_us", "store.append"),
        ("vcs.tree_at_us", "vcs.tree_at"),
        ("vcs.head_tree_us", "vcs.head_tree"),
        ("vcs.changed_paths_us", "vcs.changed_paths"),
        ("vcs.merge_us", "vcs.merge"),
        ("vcs.apply_us", "vcs.apply"),
        ("vcs.commit_us", "vcs.commit"),
        ("vcs.store_clone_us", "vcs.store_clone"),
        ("build.analyze_us", "build.analyze"),
        ("build.affected_us", "build.affected"),
        ("exec.execute_affected_us", "exec.execute_affected"),
    ] {
        layer.insert(metric, med(span));
    }
    layer.insert("planner.run_s", med("planner.run") / 1e6);
    // The service's own time per ticket: process_next minus the layer
    // calls the replay made for the same ticket.
    let process: HashMap<(usize, u64), f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "durable.process_next")
        .map(|s| ((s.replicate, s.ticket), s.micros()))
        .collect();
    let replay_total: Vec<((usize, u64), f64)> = t
        .spans()
        .iter()
        .filter(|s| s.name == "replay.process_next")
        .map(|s| ((s.replicate, s.ticket), s.micros()))
        .collect();
    let replay_self = t.self_micros("replay.process_next");
    let own: Vec<f64> = replay_total
        .iter()
        .zip(&replay_self)
        .filter_map(|((key, total), own)| Some(process.get(key)? - (total - own)))
        .collect();
    layer.insert("service.self_us", median(&own).unwrap_or(0.0));
    layer.insert(
        "obs.overhead_pct",
        (report.traced_ms - report.reference_ms) / report.reference_ms * 100.0,
    );
    layer.insert(
        "loadgen.late_p50_ms",
        median(&report.late_ms).unwrap_or(0.0),
    );
    layer.insert(
        "loadgen.late_max_ms",
        report.late_ms.iter().copied().fold(0.0, f64::max),
    );
    layer.insert(
        "loadgen.failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
}

fn print_notes(w: &Workload, seed: u64, seconds: f64, traced: bool, out: &Outcome) {
    let r = &out.report;
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name, traced as u8
    );
    println!("machine: nproc {}, cpu {}", nproc(), cpu_model());
    println!("storage: {}", serve::FLUSH_POLICY);
    println!(
        "offered: open loop {}/s enqueues + {}/s reads; capacity rounds of {} outstanding",
        w.serve.rate, w.serve.read_rate, w.serve.outstanding
    );
    for n in &r.notes {
        println!("  {n}");
    }
    let late_max = r.late_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "open loop: {} enqueues, generator late p50 {:.3} ms, max {:.3} ms; capacity verdicts {}; served tickets {} ({} landed)",
        r.open_enqueues,
        median(&r.late_ms).unwrap_or(0.0),
        late_max,
        r.capacity_verdicts,
        r.served_tickets,
        r.landed
    );
    println!(
        "attempted {}, failed {} ({:.4}% failed)",
        r.attempted,
        r.failed,
        100.0 * r.failed as f64 / r.attempted.max(1) as f64
    );
    for c in &r.checks.list {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

/// Run every workload at a tiny size, traced and untraced, and fail if
/// a named metric is missing, not finite or without a unit, or if a
/// correctness check failed or did not run.
fn self_test() -> Result<(), String> {
    let names =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        if !names.contains(&format!("\"name\": \"{name}\"")) {
            return Err(format!("metric {name} is not listed in BENCHMARK.json"));
        }
    }
    for w in WORKLOADS {
        // Tiny: the smoke cell stands in for the sharded cell.
        let tiny = Workload {
            sim: PROBE,
            replicates: 2,
            serve: ServeSpec {
                n_parts: w.serve.n_parts.min(64),
                ..w.serve
            },
            ..w
        };
        for traced in [false, true] {
            let out = run(&tiny, 3, 1.5, traced);
            let table = if traced { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let v = out
                    .values
                    .get(name)
                    .ok_or(format!("{}: {name} missing", w.name))?;
                if !v.is_finite() || unit.is_empty() {
                    return Err(format!("{}: {name} = {v} {unit}", w.name));
                }
            }
            if !out.correct {
                let failed: Vec<_> = out.report.checks.list.iter().filter(|c| !c.ok).collect();
                return Err(format!(
                    "{} (trace {traced}): checks failed or missing: {failed:?}",
                    w.name
                ));
            }
            println!("self-test {} trace {}: ok", w.name, traced as u8);
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        match self_test() {
            Ok(()) => println!("self-test passed"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: --workload must be one of {:?}",
            WORKLOADS.map(|w| w.name)
        );
        std::process::exit(2);
    };
    let out = run(w, args.seed, args.seconds, args.trace);
    print_notes(w, args.seed, args.seconds, args.trace, &out);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = table
        .iter()
        .filter(|(n, _)| !out.values.get(n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| *n)
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {missing:?}");
        std::process::exit(1);
    }
    println!(
        "{}",
        result_json(
            out.correct,
            out.report.attempted,
            out.report.failed,
            table,
            &out.values
        )
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    /// The self-test, from the repository root (`cargo test` runs with
    /// the package directory as its working directory).
    #[test]
    fn self_test_passes() {
        std::env::set_current_dir("..").expect("repository root");
        super::self_test().expect("self-test");
    }
}
