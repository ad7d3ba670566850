//! The serving half: a live loopback `sq-server` over a
//! `DurableSubmitQueue` whose WAL is a quorum-ack `Leader` with two
//! in-process followers, each on its own fsynced `FsStorage` directory.

use crate::report::{Checks, Report};
use crate::trace::Tracer;
use sq_build::{AffectedSet, SnapshotAnalysis};
use sq_core::durable::{encode_batch, DurableSubmitQueue, ServiceEvent, Verdict};
use sq_core::failover::open_leader;
use sq_core::service::{StepAction, TicketId, TicketState};
use sq_core::RecoveryConfig;
use sq_exec::{BuildController, StepOutcome};
use sq_server::{Client, Endpoint, Request, Response, Server, ServerConfig, WireTicketState};
use sq_store::{AckMode, DurableStoreConfig, FsStorage, Leader, ReplicationConfig, Wal};
use sq_vcs::merge::merge_patches;
use sq_vcs::{CommitId, CommitMeta, FileOp, Patch, Repository, VcsError};
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{WorkloadBuilder, WorkloadParams};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

type Queue = DurableSubmitQueue<Leader<FsStorage>>;

/// Build executor threads of the queue under test. One: the load
/// generator, the server and the build share the VM's two cores, and a
/// second build thread per change only added scheduling noise.
const EXEC_THREADS: usize = 1;

/// Followers attached to the leader.
const FOLLOWERS: usize = 2;

/// How long a verdict subscription may wait before it counts as a miss.
const VERDICT_TIMEOUT_MS: u32 = 60_000;

/// The latency a failed, refused or timed-out request is charged.
const MISS_MS: f64 = VERDICT_TIMEOUT_MS as f64;

/// The storage flush policy, printed with the results.
pub const FLUSH_POLICY: &str =
    "FsStorage, fsync on every append, quorum-ack leader + 2 in-process followers";

/// One served traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Packages in the materialised repository (4 sources + BUILD each).
    pub n_parts: usize,
    /// Offered enqueue rate of the open-loop phase, changes/s.
    pub rate: f64,
    /// `Status`/`Head` reads per second alongside the enqueues. A read
    /// costs well under a millisecond, so these add little load; they
    /// are many so that each replicate has about ten beyond its read tail.
    pub read_rate: f64,
    /// Changes outstanding per round of the capacity phase.
    pub outstanding: usize,
    /// The capacity phase's rate on a 2-vCPU VM, changes/s. It sizes the
    /// phase: a run makes `cap_s × capacity_rate` changes whatever the
    /// host's speed, so every run does (and holds in memory) the same
    /// work.
    pub capacity_rate: f64,
}

/// 160 files: the server, journal and replication carry the largest
/// share. 40/s is about a seventh of the capacity the capacity phase
/// measures on a 2-vCPU VM (250-300/s). Each change costs nine fsyncs on
/// the shared disk, whose latency rose two- to fourfold for a minute or
/// more at a time; the higher the offered rate, the more queueing
/// amplified such a slowdown into the verdict tail.
pub const SMALL: ServeSpec = ServeSpec {
    name: "serve_small",
    n_parts: 32,
    rate: 40.0,
    read_rate: 40.0,
    outstanding: 8,
    capacity_rate: 300.0,
};

/// 5,120 files: full-tree analysis and VCS work dominate. At 2.5/s about
/// one change in ten arrives while the previous one builds, so the
/// verdict percentiles up to the tail (p75 of 80) stay among changes that
/// did not queue; at 5/s a quarter queued, and which ones (a matter of
/// the seed's arrival gaps) set the tail, whose spread over five seeds
/// reached 0.38 of its median. An ack that arrives during a build waits
/// for it on the queue's lock, which `serve.ack_tail_ms` shows; the
/// capacity phase, whose acks always wait, carries the lock's cost in
/// `changes_per_s`.
pub const LARGE: ServeSpec = ServeSpec {
    name: "serve_large",
    n_parts: 1_024,
    rate: 2.5,
    read_rate: 20.0,
    outstanding: 4,
    capacity_rate: 20.0,
};

/// One submission as the server acked it.
#[derive(Debug, Clone)]
struct Sub {
    ticket: u64,
    author: String,
    description: String,
    base: CommitId,
    patch: Patch,
}

/// A generated change: its patch and its due offset in the open loop.
struct Change {
    author: String,
    description: String,
    patch: Patch,
    due_s: f64,
}

/// A running serving set-up: one replicate's server and traffic.
pub struct Served {
    spec: ServeSpec,
    repo: Repository,
    changes: Vec<Change>,
    /// Enqueues of the open loop.
    n_open: usize,
    /// Rounds of the capacity phase.
    cap_rounds: usize,
    dir: PathBuf,
    server: Option<Server<Leader<FsStorage>>>,
}

/// Set-up timings of the serving half, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeSetup {
    pub materialize_s: f64,
    pub generate_s: f64,
}

fn always_pass() -> Box<StepAction> {
    Box::new(|_step, _tree| StepOutcome::Success)
}

fn open_cluster(repo: Repository, dir: &Path) -> Queue {
    let storage = |name: &str| FsStorage::open(dir.join(name)).expect("create storage dir");
    let queue = open_leader(
        repo,
        EXEC_THREADS,
        RecoveryConfig::disabled(),
        storage("leader"),
        DurableStoreConfig::default(),
        ReplicationConfig::with_ack_mode(AckMode::Quorum),
    )
    .expect("open leader");
    for i in 0..FOLLOWERS {
        queue
            .attach_follower(
                storage(&format!("follower{i}")),
                DurableStoreConfig::default(),
            )
            .expect("attach follower");
    }
    queue
}

fn open_leader_store(dir: &Path) -> Leader<FsStorage> {
    let storage = |name: &str| FsStorage::open(dir.join(name)).expect("create storage dir");
    let (mut leader, _) = Leader::open(
        storage("leader"),
        DurableStoreConfig::default(),
        ReplicationConfig::with_ack_mode(AckMode::Quorum),
    )
    .expect("open leader store");
    for i in 0..FOLLOWERS {
        leader
            .attach_follower(
                storage(&format!("follower{i}")),
                DurableStoreConfig::default(),
            )
            .expect("attach follower");
    }
    leader
}

impl ServeSpec {
    /// Materialise the repository, generate the change pool for
    /// `open_s + cap_s` seconds of traffic, open the replicated queue
    /// under `dir` and start the loopback server. The same seed gives the
    /// same repository and changes.
    pub fn setup(&self, seed: u64, open_s: f64, cap_s: f64, dir: &Path) -> (Served, ServeSetup) {
        let mut wl = WorkloadParams::ios().with_rate(self.rate * 3600.0);
        wl.n_parts = self.n_parts;
        let t0 = Instant::now();
        let m = MaterializedRepo::generate(&wl).expect("valid repo params");
        let materialize_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let n_open = ((self.rate * open_s).round() as usize).max(1);
        let cap_rounds = ((self.capacity_rate * cap_s) / self.outstanding as f64).ceil() as usize;
        let cap_rounds = cap_rounds.max(1);
        let n = n_open + cap_rounds * self.outstanding;
        let w = WorkloadBuilder::new(wl)
            .seed(seed)
            .n_changes(n)
            .build()
            .expect("valid workload params");
        let first = w
            .changes
            .first()
            .map_or(0.0, |c| c.submit_time.as_secs_f64());
        let changes = w
            .changes
            .iter()
            .map(|c| Change {
                author: format!("dev{}", c.developer.0),
                description: format!("change {}", c.id),
                patch: m.patch_for(c),
                due_s: c.submit_time.as_secs_f64() - first,
            })
            .collect();
        let generate_s = t1.elapsed().as_secs_f64();

        let queue = open_cluster(m.repo.clone(), dir);
        let server = Server::start(
            queue,
            always_pass(),
            ServerConfig::default(),
            &[Endpoint::Tcp("127.0.0.1:0".into())],
        )
        .expect("start loopback server");
        let served = Served {
            spec: *self,
            repo: m.repo,
            changes,
            n_open,
            cap_rounds,
            dir: dir.to_path_buf(),
            server: Some(server),
        };
        (
            served,
            ServeSetup {
                materialize_s,
                generate_s,
            },
        )
    }
}

/// What the verdict watcher saw for one ticket.
struct Seen {
    ticket: u64,
    state: Option<WireTicketState>,
    due: Instant,
    at: Instant,
}

/// The second connection: subscribes to each acked ticket in order and
/// reports when its verdict reached the client.
fn watcher(
    mut client: Client,
    rx: mpsc::Receiver<(u64, Instant)>,
    tx: mpsc::Sender<Seen>,
    head: Arc<Mutex<CommitId>>,
) {
    for (ticket, due) in rx {
        let state = match client.call(&Request::SubscribeVerdict {
            ticket,
            timeout_ms: VERDICT_TIMEOUT_MS,
        }) {
            Ok(Response::Verdict { state, .. }) => Some(state),
            _ => None,
        };
        let at = Instant::now();
        if let Some(WireTicketState::Landed(c)) = &state {
            *head.lock().unwrap() = *c;
        }
        if tx
            .send(Seen {
                ticket,
                state,
                due,
                at,
            })
            .is_err()
        {
            break;
        }
    }
}

#[derive(Clone, Copy)]
enum Op {
    Enqueue(usize),
    Head,
    Status,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything the served phases leave behind for the checks and replays.
pub struct ServedRun {
    subs: Vec<Sub>,
    seen: HashMap<u64, Option<WireTicketState>>,
    queue: Queue,
    metrics: sq_obs::MetricsRegistry,
}

/// The load generator: the writer connection, the verdict watcher on
/// the second connection, and every acked submission so far.
pub struct Load {
    writer: Client,
    ack_tx: mpsc::Sender<(u64, Instant)>,
    seen_rx: mpsc::Receiver<Seen>,
    watch: thread::JoinHandle<()>,
    head: Arc<Mutex<CommitId>>,
    subs: Vec<Sub>,
    seen: HashMap<u64, Option<WireTicketState>>,
}

impl Load {
    /// Enqueue `c` on `base`. Returns the ticket when the server acked it.
    fn enqueue(
        &mut self,
        c: &Change,
        base: CommitId,
        due: Instant,
        report: &mut Report,
        tracer: &mut Option<&mut Tracer>,
    ) -> Option<u64> {
        report.attempted += 1;
        let resp = self.writer.call(&Request::Enqueue {
            author: c.author.clone(),
            description: c.description.clone(),
            base,
            patch: c.patch.clone(),
        });
        let now = Instant::now();
        match resp {
            Ok(Response::Enqueued { ticket }) => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("client.enqueue", ticket, due, now);
                }
                self.subs.push(Sub {
                    ticket,
                    author: c.author.clone(),
                    description: c.description.clone(),
                    base,
                    patch: c.patch.clone(),
                });
                self.ack_tx.send((ticket, due)).expect("watcher alive");
                Some(ticket)
            }
            _ => {
                report.failed += 1;
                None
            }
        }
    }

    /// Wait for the next `n` verdicts the watcher reports.
    fn wait(&mut self, n: usize) -> Vec<Seen> {
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            let s = self
                .seen_rx
                .recv_timeout(Duration::from_millis(2 * u64::from(VERDICT_TIMEOUT_MS)))
                .expect("verdict watcher stalled");
            self.seen.insert(s.ticket, s.state.clone());
            got.push(s);
        }
        got
    }
}

impl Served {
    pub fn describe(&self) -> String {
        format!(
            "{}: {} files, open loop at {}/s with reads at {}/s, capacity rounds of {}",
            self.spec.name,
            self.spec.n_parts * 5,
            self.spec.rate,
            self.spec.read_rate,
            self.spec.outstanding
        )
    }

    /// Shut the server down and delete its storage (a discarded set-up).
    pub fn discard(mut self) {
        if let Some(server) = self.server.take() {
            drop(server.shutdown());
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn connect(&self) -> Client {
        let server = self.server.as_ref().expect("server running");
        Client::connect_tcp(server.tcp_addr().expect("tcp endpoint")).expect("connect")
    }

    /// Open the load's two connections. `None` (with a failed check) when
    /// the connection budget is below the two the load needs.
    pub fn start(&mut self, report: &mut Report) -> Option<Load> {
        let budget = ServerConfig::default().workers.min(crate::nproc());
        if budget < 2 {
            report.checks.record(
                "serve.connection_budget",
                false,
                format!("needs 2 connections, budget min(nproc, workers) = {budget}"),
            );
            if let Some(server) = self.server.take() {
                drop(server.shutdown());
            }
            return None;
        }
        let mut writer = self.connect();
        let head0 = match writer.call(&Request::Head) {
            Ok(Response::HeadIs { commit }) => commit,
            other => panic!("expected HeadIs, got {other:?}"),
        };
        let head = Arc::new(Mutex::new(head0));
        let (ack_tx, ack_rx) = mpsc::channel();
        let (seen_tx, seen_rx) = mpsc::channel();
        let watch = {
            let client = self.connect();
            let head = Arc::clone(&head);
            thread::spawn(move || watcher(client, ack_rx, seen_tx, head))
        };
        Some(Load {
            writer,
            ack_tx,
            seen_rx,
            watch,
            head,
            subs: Vec::new(),
            seen: HashMap::new(),
        })
    }

    /// The open loop: enqueues at the workload's Poisson arrivals scaled
    /// to the offered rate, and reads on a fixed schedule beside them,
    /// each enqueue timed from its due time; then every verdict they were
    /// owed. Both counts are fixed, so the percentiles (and their sample
    /// counts) are the same on every run.
    pub fn open_loop(&self, load: &mut Load, mut tracer: Option<&mut Tracer>, report: &mut Report) {
        let horizon = self.n_open as f64 / self.spec.rate;
        let mut ops: Vec<(f64, Op)> = self.changes[..self.n_open]
            .iter()
            .enumerate()
            .map(|(i, c)| (c.due_s, Op::Enqueue(i)))
            .collect();
        let n_reads = (horizon * self.spec.read_rate).round() as usize;
        for r in 0..n_reads {
            let op = if r % 2 == 0 { Op::Head } else { Op::Status };
            ops.push(((r as f64 + 0.5) / self.spec.read_rate, op));
        }
        ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut last_ticket = 1;
        let mut acked = 0usize;
        let start = Instant::now();
        for (off, op) in ops {
            let due = start + Duration::from_secs_f64(off);
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            report
                .late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            match op {
                Op::Enqueue(i) => {
                    let base = *load.head.lock().unwrap();
                    match load.enqueue(&self.changes[i], base, due, report, &mut tracer) {
                        Some(t) => {
                            report.current().ack_ms.push(ms(due.elapsed()));
                            last_ticket = t;
                            acked += 1;
                        }
                        None => {
                            report.current().ack_ms.push(MISS_MS);
                            report.current().verdict_ms.push(MISS_MS);
                        }
                    }
                    report.open_enqueues += 1;
                }
                Op::Head | Op::Status => {
                    report.attempted += 1;
                    let (req, name) = match op {
                        Op::Head => (Request::Head, "client.head"),
                        _ => (
                            Request::Status {
                                ticket: last_ticket,
                            },
                            "client.status",
                        ),
                    };
                    let sent = Instant::now();
                    let ok = match load.writer.call(&req) {
                        Ok(Response::HeadIs { commit }) => {
                            *load.head.lock().unwrap() = commit;
                            true
                        }
                        Ok(Response::StatusIs { .. }) => true,
                        _ => false,
                    };
                    let now = Instant::now();
                    if ok {
                        // Timed from the send: a read due while the
                        // writer waits for its own enqueue's ack would
                        // otherwise carry that ack's latency. The wait
                        // shows as generator lateness instead.
                        report.current().read_ms.push(ms(now - sent));
                        if let Some(t) = tracer.as_deref_mut() {
                            t.record(name, last_ticket, sent, now);
                        }
                    } else {
                        report.failed += 1;
                        report.current().read_ms.push(MISS_MS);
                    }
                }
            }
        }
        for s in load.wait(acked) {
            report.attempted += 1;
            if s.state.is_some() {
                report.current().verdict_ms.push(ms(s.at - s.due));
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("client.verdict", s.ticket, s.due, s.at);
                }
            } else {
                report.failed += 1;
                report.current().verdict_ms.push(MISS_MS);
            }
        }
    }

    /// The capacity phase: rounds of `outstanding` changes in a closed
    /// loop, all of a round based on the HEAD read after the previous
    /// round's verdicts, so the verdicts do not depend on timing.
    pub fn capacity(&self, load: &mut Load, mut tracer: Option<&mut Tracer>, report: &mut Report) {
        let mut next = self.n_open;
        for _ in 0..self.cap_rounds {
            let start = Instant::now();
            report.attempted += 1;
            let base = match load.writer.call(&Request::Head) {
                Ok(Response::HeadIs { commit }) => commit,
                _ => {
                    report.failed += 1;
                    return;
                }
            };
            let mut acked = 0;
            for c in &self.changes[next..next + self.spec.outstanding] {
                if load
                    .enqueue(c, base, Instant::now(), report, &mut tracer)
                    .is_some()
                {
                    acked += 1;
                }
            }
            next += self.spec.outstanding;
            for s in load.wait(acked) {
                report.attempted += 1;
                if s.state.is_none() {
                    report.failed += 1;
                }
            }
            let secs = start.elapsed().as_secs_f64();
            report.current().capacity_rounds.push((acked, secs));
            report.capacity_verdicts += acked;
        }
    }

    /// Close both connections (each pins a server worker) and shut the
    /// server down.
    pub fn stop(&mut self, load: Load) -> ServedRun {
        drop(load.writer);
        drop(load.ack_tx);
        load.watch.join().expect("watcher thread");
        let (queue, metrics) = self.server.take().expect("server running").shutdown();
        ServedRun {
            subs: load.subs,
            seen: load.seen,
            queue,
            metrics,
        }
    }
    /// Check the served run, compare it with the in-process reference,
    /// and in a traced run replay every ticket layer by layer; then
    /// delete the storage.
    pub fn finish(self, run: Option<ServedRun>, tracer: Option<&mut Tracer>, report: &mut Report) {
        if let Some(run) = run {
            self.check(&run, report);
            report.reference_ms += self.reference(&run, report);
            if let Some(t) = tracer {
                self.traced(&run, t, report);
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The outcome of one ticket, comparable across the served run, the
/// in-process reference and the layer replay.
fn wire(state: Option<TicketState>) -> Option<WireTicketState> {
    state.map(WireTicketState::from)
}

fn landed(state: &Option<WireTicketState>) -> bool {
    matches!(state, Some(WireTicketState::Landed(_)))
}

impl Served {
    /// The timing-independent checks of the served run.
    fn check(&self, run: &ServedRun, report: &mut Report) {
        let checks: &mut Checks = &mut report.checks;
        let unverdicted = run
            .subs
            .iter()
            .filter(|s| !matches!(run.seen.get(&s.ticket), Some(Some(st)) if st.is_terminal()))
            .count();
        checks.record(
            "serve.acks_verdicted",
            unverdicted == 0,
            format!(
                "{unverdicted} of {} acked tickets without a verdict",
                run.subs.len()
            ),
        );
        // Recover the queue from the served leader's fsynced journal: every
        // acked ticket must come back with the verdict the client saw.
        let recovered = open_leader(
            run.queue.repository(),
            EXEC_THREADS,
            RecoveryConfig::disabled(),
            FsStorage::open(self.dir.join("leader")).expect("open leader dir"),
            DurableStoreConfig::default(),
            ReplicationConfig::with_ack_mode(AckMode::Quorum),
        );
        let (lost, queued) = match &recovered {
            Ok(q) => (self.differing(run, q), q.queue_depth()),
            Err(_) => (run.subs.len(), 0),
        };
        checks.record(
            "serve.no_lost_acks",
            recovered.is_ok() && lost == 0 && queued == 0,
            format!(
                "recovered from the leader's journal: {}; {lost} acked tickets whose recovered state differs from the client's verdict, {queued} still queued",
                recovered.as_ref().map_or_else(|e| e.to_string(), |_| "ok".into())
            ),
        );
        drop(recovered);
        let history = run.queue.service().verify_history(&*always_pass());
        checks.record(
            "serve.verify_history",
            history.is_ok(),
            match &history {
                Ok(n) => format!("{n} commit points verified"),
                Err(e) => e.to_string(),
            },
        );
        let stats = run.queue.service().stats();
        let processed = (stats.landed + stats.rejected).max(1) as f64;
        report
            .layer
            .insert("service.reject_share", stats.rejected as f64 / processed);
        let st = run.queue.store_stats();
        let rs = run.queue.replication_stats();
        let layer = &mut report.layer;
        layer.insert("store.appends_per_change", st.appends as f64 / processed);
        layer.insert("store.fsyncs_per_change", st.fsyncs as f64 / processed);
        layer.insert(
            "store.bytes_per_change",
            st.appended_bytes as f64 / processed,
        );
        layer.insert("store.ships_per_change", rs.ships as f64 / processed);
        layer.insert(
            "store.shipped_bytes_per_change",
            rs.shipped_bytes as f64 / processed,
        );
        for key in [
            "server.requests.enqueue",
            "server.requests.status",
            "server.requests.head",
            "server.requests.subscribe",
            "server.busy_replies",
        ] {
            layer.insert(key, run.metrics.counter(key) as f64);
        }
        report.served_tickets += run.subs.len();
        report.landed += stats.landed as usize;
    }

    /// Submit every acked change in ticket order to a fresh in-process
    /// queue on fresh storage, optionally tracing each call.
    fn in_process(
        &self,
        run: &ServedRun,
        tag: &str,
        mut tracer: Option<&mut Tracer>,
    ) -> (Queue, f64) {
        let dir = self.dir.join(tag);
        let queue = open_cluster(self.repo.clone(), &dir);
        let action = always_pass();
        let t0 = Instant::now();
        for s in &run.subs {
            let submit = || {
                queue
                    .submit(
                        s.author.clone(),
                        s.description.clone(),
                        s.base,
                        s.patch.clone(),
                    )
                    .expect("in-process submit")
            };
            let t = match tracer.as_deref_mut() {
                Some(tr) => tr.span("durable.submit", s.ticket, submit),
                None => submit(),
            };
            assert_eq!(t.0, s.ticket, "in-process tickets follow the served order");
        }
        match tracer {
            Some(tr) => {
                for s in &run.subs {
                    tr.span("durable.process_next", s.ticket, || {
                        queue.process_next(&*action)
                    })
                    .expect("in-process process_next");
                }
            }
            None => {
                queue
                    .run_until_idle(&*action)
                    .expect("in-process run_until_idle");
            }
        }
        (queue, ms(t0.elapsed()))
    }

    /// Acked tickets whose state in `queue` differs from the client's
    /// verdict.
    fn differing(&self, run: &ServedRun, queue: &Queue) -> usize {
        run.subs
            .iter()
            .filter(|s| wire(queue.status(TicketId(s.ticket))) != run.seen[&s.ticket])
            .count()
    }

    /// The in-process `run_until_idle` reference on the same inputs:
    /// every verdict and the final HEAD must equal the served run's.
    /// Returns the reference's wall time in milliseconds.
    fn reference(&self, run: &ServedRun, report: &mut Report) -> f64 {
        let (queue, took) = self.in_process(run, "reference", None);
        let differ = self.differing(run, &queue);
        let same_head = queue.head() == run.queue.head();
        report.checks.record(
            "serve.matches_reference",
            differ == 0 && same_head,
            format!(
                "{differ} verdicts differ from the in-process reference, same HEAD: {same_head}"
            ),
        );
        took
    }

    /// Per-layer numbers: in-process `submit`/`process_next` spans, then
    /// a replay of every ticket through the public `sq-vcs`, `sq-build`
    /// and `sq-exec` calls `process_next` makes, then the journal appends.
    fn traced(&self, run: &ServedRun, tracer: &mut Tracer, report: &mut Report) {
        let (queue, traced_ms) = self.in_process(run, "traced", Some(tracer));
        report.traced_ms += traced_ms;
        let differ = self.differing(run, &queue);
        report.checks.record(
            "trace.in_process_matches",
            differ == 0,
            format!("{differ} traced in-process verdicts differ from the served run"),
        );
        drop(queue);

        let replay = self.replay(run, tracer, report);
        let served_tree = run
            .queue
            .repository()
            .head_tree()
            .expect("served HEAD readable");
        report.checks.record(
            "trace.replay_head_matches",
            replay.0 == served_tree && replay.1 == 0,
            format!(
                "replay HEAD tree equal: {}, {} landed/rejected outcomes differ",
                replay.0 == served_tree,
                replay.1
            ),
        );
        self.store_replay(run, tracer);
    }

    /// Replay `process_next` layer by layer. Returns the replayed HEAD
    /// tree and the number of tickets whose landed/rejected outcome
    /// differs from the served run.
    fn replay(
        &self,
        run: &ServedRun,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> (sq_vcs::Tree, usize) {
        let mut repo = self.repo.clone();
        let controller =
            BuildController::with_retry_policy(EXEC_THREADS, RecoveryConfig::disabled().retry);
        let action = always_pass();
        let mut differ = 0;
        let (mut affected, mut planned, mut cached) = (Vec::new(), 0usize, 0usize);
        for s in &run.subs {
            let t = s.ticket;
            let root = tracer.begin("replay.process_next", t);
            let landed_here = (|| -> Option<()> {
                let base_tree = tracer
                    .span("vcs.tree_at", t, || repo.tree_at(s.base))
                    .ok()?;
                let head_tree = tracer.span("vcs.head_tree", t, || {
                    repo.head_tree().expect("mainline readable")
                });
                let mut store = tracer.span("vcs.store_clone", t, || repo.store().clone());
                let drift = tracer.span("vcs.changed_paths", t, || {
                    let mut drift = Patch::new();
                    for path in base_tree.changed_paths(&head_tree) {
                        drift.push(match head_tree.get(path) {
                            Some(blob) => FileOp::Write {
                                path: path.clone(),
                                content: store.get_text(&blob).expect("blob present"),
                            },
                            None => FileOp::Delete { path: path.clone() },
                        });
                    }
                    drift
                });
                let merged = tracer
                    .span("vcs.merge", t, || {
                        merge_patches(&base_tree, &store, &drift, &s.patch)
                    })
                    .ok()?;
                let dev: HashSet<&sq_vcs::RepoPath> = s.patch.paths().collect();
                let rebased =
                    Patch::from_ops(merged.ops().filter(|op| dev.contains(op.path())).cloned());
                let base_an = tracer
                    .span("build.analyze", t, || {
                        SnapshotAnalysis::analyze(&head_tree, &store)
                    })
                    .ok()?;
                let new_tree = tracer
                    .span("vcs.apply", t, || rebased.apply(&head_tree, &mut store))
                    .ok()?;
                let new_an = tracer
                    .span("build.analyze", t, || {
                        SnapshotAnalysis::analyze(&new_tree, &store)
                    })
                    .ok()?;
                let delta = tracer.span("build.affected", t, || {
                    AffectedSet::between(&base_an, &new_an)
                });
                affected.push(delta.len() as f64);
                let rep = tracer.span("exec.execute_affected", t, || {
                    controller.execute_affected(&new_an.graph, &new_an.hashes, &delta, |step| {
                        action(step, &new_tree)
                    })
                });
                planned += rep.planned_steps;
                cached += rep.cached_steps;
                if !rep.is_success() {
                    return None;
                }
                let meta =
                    CommitMeta::new(s.author.clone(), format!("[T{t}] {}", s.description), 0);
                match tracer.span("vcs.commit", t, || {
                    repo.commit_patch(sq_vcs::repo::MAINLINE, &rebased, meta)
                }) {
                    Ok(_) | Err(VcsError::EmptyCommit) => Some(()),
                    Err(_) => None,
                }
            })()
            .is_some();
            tracer.end(root);
            if landed_here != landed(&run.seen[&t]) {
                differ += 1;
            }
        }
        let layer = &mut report.layer;
        layer.insert(
            "build.affected_targets",
            crate::stats::mean(&affected).unwrap_or(0.0),
        );
        layer.insert(
            "exec.steps_planned",
            planned as f64 / run.subs.len().max(1) as f64,
        );
        layer.insert(
            "exec.cache_hit_ratio",
            cached as f64 / (planned + cached).max(1) as f64,
        );
        (repo.head_tree().expect("replay HEAD readable"), differ)
    }

    /// Append the journal batches `DurableSubmitQueue` writes per ticket
    /// to a fresh replicated store, one span per `Wal::append`.
    fn store_replay(&self, run: &ServedRun, tracer: &mut Tracer) {
        let mut leader = open_leader_store(&self.dir.join("store-replay"));
        for s in &run.subs {
            let t = s.ticket;
            let verdict = match &run.seen[&t] {
                Some(WireTicketState::Landed(commit)) => vec![
                    ServiceEvent::BuildVerdict {
                        ticket: t,
                        verdict: Verdict::Pass,
                        detail: String::new(),
                    },
                    ServiceEvent::Committed {
                        ticket: t,
                        commit: *commit,
                    },
                ],
                Some(WireTicketState::Rejected(reason)) => vec![
                    ServiceEvent::BuildVerdict {
                        ticket: t,
                        verdict: Verdict::Fail,
                        detail: reason.clone(),
                    },
                    ServiceEvent::Rejected {
                        ticket: t,
                        reason: reason.clone(),
                        infra: false,
                    },
                ],
                _ => Vec::new(),
            };
            let batches = [
                vec![ServiceEvent::Enqueue {
                    ticket: t,
                    author: s.author.clone(),
                    description: s.description.clone(),
                    base: s.base,
                    patch: s.patch.clone(),
                }],
                vec![ServiceEvent::SpeculationStarted { ticket: t }],
                verdict,
            ];
            for b in &batches {
                let payload = encode_batch(b);
                tracer
                    .span("store.append", t, || leader.append(&payload))
                    .expect("replay append");
            }
        }
    }
}
