//! An embeddable SubmitQueue service over a real repository.
//!
//! The simulations measure *scheduling policy*; this module wires the
//! full concrete stack together the way the paper's production system
//! does (Section 7.1's API service + core service, minus the RPC):
//! patches land against a live `sq-vcs` repository, the Section 5
//! conflict analyzer decides independence, the `sq-exec` executor runs
//! real build steps with artifact caching, and a change commits only if
//! every step passes — so the mainline is green at every commit point,
//! by construction, and `verify_history` re-checks it from scratch.
//!
//! The queue, the ticket states and the counters are one
//! [`DurableState`]: the fold of the [`ServiceEvent`] batches the
//! service records. Every transition is built as a batch first and
//! folded second, so a journal (see [`crate::durable`]) can refuse a
//! batch before anything observes it.

use crate::durable::{DurableState, QueuedChange, ServiceEvent, Verdict};
use crate::recovery::{QuarantineList, RecoveryConfig};
use parking_lot::Mutex;
use sq_build::affected::SnapshotAnalysis;
use sq_build::{AffectedSet, TargetName};
use sq_exec::{ArtifactCache, BuildController, BuildStep, RealExecutor, StepOutcome};
use sq_vcs::merge::merge_patches;
use sq_vcs::{CommitId, CommitMeta, ObjectStore, Patch, Repository, Tree, VcsError};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;

/// Ticket identifying a submitted change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

impl fmt::Display for TicketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// State of a submitted change (what the paper's web UI shows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketState {
    /// Enqueued, not yet processed.
    Queued,
    /// Landed at this mainline commit.
    Landed(CommitId),
    /// Rejected with a reason.
    Rejected(String),
}

/// A step action: decides the outcome of one build step given the
/// snapshot it runs against. Runs on executor worker threads.
pub type StepAction = dyn Fn(&BuildStep, &Tree) -> StepOutcome + Send + Sync;

struct Inner {
    repo: Repository,
    /// Queue, ticket states and counters: the fold of every recorded
    /// event batch.
    state: DurableState,
    /// Infra-red whole-build attempts, per ticket.
    rebuilds: HashMap<TicketId, u32>,
    /// Per-target flake accounting.
    quarantine: QuarantineList<TargetName>,
    /// Step-level infra retries absorbed without failing a build.
    step_retries: u64,
    /// Whole-build rebuilds scheduled after infra-red builds.
    infra_rebuilds: u64,
}

/// The service.
pub struct SubmitQueueService {
    inner: Mutex<Inner>,
    /// Incremental builds for landing changes (persistent artifact cache
    /// + duration history — the paper's Section 6 controller).
    controller: BuildController,
    /// From-scratch builds for `verify_history` (no cache reuse: the
    /// audit must not trust prior artifacts).
    executor: RealExecutor,
    /// Infra-failure recovery policy (step retries, rebuild bound,
    /// quarantine threshold).
    recovery: RecoveryConfig,
}

/// A red commit found by [`SubmitQueueService::verify_history`]: which
/// commit broke the audit, at which step, and why.
#[derive(Debug, Clone)]
pub struct HistoryViolation {
    /// Position of the commit in mainline order (0 = root commit).
    pub commit_index: usize,
    /// The red commit.
    pub commit: CommitId,
    /// The failing step, when a build step failed (as opposed to the
    /// snapshot being unreadable or unanalyzable).
    pub step: Option<BuildStep>,
    /// Human-readable reason.
    pub reason: String,
    /// True when the failure was infrastructure — the audit could not
    /// complete — rather than the commit being genuinely red.
    pub infra: bool,
}

impl fmt::Display for HistoryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blame = if self.infra {
            "unverifiable (infrastructure)"
        } else {
            "red"
        };
        write!(
            f,
            "commit {} (#{} in mainline) is {blame}",
            self.commit, self.commit_index
        )?;
        if let Some(step) = &self.step {
            write!(f, ": step '{step}'")?;
        }
        write!(f, ": {}", self.reason)
    }
}

impl std::error::Error for HistoryViolation {}

/// Service statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Changes landed.
    pub landed: u64,
    /// Changes rejected.
    pub rejected: u64,
    /// Changes still queued.
    pub queued: usize,
    /// Artifact-cache hit/miss counters.
    pub cache_hits: u64,
    /// Artifact-cache misses.
    pub cache_misses: u64,
    /// Step-level infra retries absorbed without failing a build.
    pub step_retries: u64,
    /// Whole-build rebuilds caused by infra-red builds.
    pub infra_rebuilds: u64,
    /// Changes rejected for infrastructure (not change) reasons.
    pub infra_rejected: u64,
    /// Targets currently quarantined as chronically flaky.
    pub quarantined: usize,
}

/// The verdict pair rejecting `ticket`.
fn rejection(ticket: u64, reason: String, infra: bool) -> Vec<ServiceEvent> {
    vec![
        ServiceEvent::BuildVerdict {
            ticket,
            verdict: if infra { Verdict::Infra } else { Verdict::Fail },
            detail: reason.clone(),
        },
        ServiceEvent::Rejected {
            ticket,
            reason,
            infra,
        },
    ]
}

impl SubmitQueueService {
    /// Wrap a repository; `threads` sizes the build executor. Infra
    /// failures are not retried (the change sees them directly); use
    /// [`SubmitQueueService::with_recovery`] for the failure-aware
    /// service.
    pub fn new(repo: Repository, threads: usize) -> Self {
        Self::with_recovery(repo, threads, RecoveryConfig::disabled())
    }

    /// Wrap a repository with an infra-failure recovery policy: steps
    /// retry under `recovery.retry`, infra-red builds are redone up to
    /// `recovery.max_rebuilds` times before the change is rejected with
    /// an explicit infrastructure reason, and chronically flaky targets
    /// are quarantined (advisorily — they keep gating, so the always-
    /// green invariant is never weakened; the list is surfaced for
    /// operators via [`SubmitQueueService::quarantined_targets`]).
    pub fn with_recovery(repo: Repository, threads: usize, recovery: RecoveryConfig) -> Self {
        Self::with_state(repo, threads, recovery, DurableState::new())
    }

    /// [`SubmitQueueService::with_recovery`] resuming from `state`, the
    /// fold of a recovered journal. The repository is taken as is:
    /// commits live in the VCS, which recovers independently.
    pub(crate) fn with_state(
        repo: Repository,
        threads: usize,
        recovery: RecoveryConfig,
        state: DurableState,
    ) -> Self {
        let mut quarantine = QuarantineList::new(recovery.quarantine_threshold);
        for (target, observations) in &state.quarantined {
            // Quarantined events journal canonical `//pkg:name` labels,
            // which always re-resolve; a malformed label would mean a
            // corrupt journal, which decoding already rejected.
            if let Ok(name) = TargetName::resolve(target, "") {
                quarantine.restore(name, *observations);
            }
        }
        SubmitQueueService {
            inner: Mutex::new(Inner {
                repo,
                state,
                rebuilds: HashMap::new(),
                quarantine,
                step_retries: 0,
                infra_rebuilds: 0,
            }),
            controller: BuildController::with_retry_policy(threads, recovery.retry),
            executor: RealExecutor::new(threads),
            recovery,
        }
    }

    /// The current mainline HEAD.
    pub fn head(&self) -> CommitId {
        self.inner.lock().repo.head()
    }

    /// A clone of the underlying repository. The VCS is the system of
    /// record for commits: a durability layer (or a crash-recovery
    /// harness) extracts it from a dead service instance the way a real
    /// deployment's repository survives a service restart.
    pub fn repository(&self) -> Repository {
        self.inner.lock().repo.clone()
    }

    /// Read the queue state under the service lock.
    pub(crate) fn read_state<R>(&self, read: impl FnOnce(&DurableState) -> R) -> R {
        read(&self.inner.lock().state)
    }

    /// Submit a change: a patch made against `base` (usually the HEAD the
    /// developer branched from — step 5 of the Figure 3 life cycle).
    pub fn submit(
        &self,
        author: impl Into<String>,
        description: impl Into<String>,
        base: CommitId,
        patch: Patch,
    ) -> TicketId {
        let mut inner = self.inner.lock();
        let ticket = inner.state.next_ticket;
        inner.state.apply(&ServiceEvent::Enqueue {
            ticket,
            author: author.into(),
            description: description.into(),
            base,
            patch,
        });
        TicketId(ticket)
    }

    /// [`SubmitQueueService::submit`] with the enqueue handed to
    /// `journal` before it is folded. The caller serializes its journaled
    /// calls, so the ticket read here is still the next one at the fold.
    pub(crate) fn submit_journaled<E>(
        &self,
        author: String,
        description: String,
        base: CommitId,
        patch: Patch,
        journal: impl FnOnce(&[ServiceEvent]) -> Result<(), E>,
    ) -> Result<TicketId, E> {
        let ticket = self.inner.lock().state.next_ticket;
        self.record(
            &[ServiceEvent::Enqueue {
                ticket,
                author,
                description,
                base,
                patch,
            }],
            journal,
        )?;
        Ok(TicketId(ticket))
    }

    /// The state of a change (the service's second API call).
    pub fn status(&self, ticket: TicketId) -> Option<TicketState> {
        self.inner.lock().state.states.get(&ticket.0).cloned()
    }

    /// Process one queued change end to end. Returns the ticket handled,
    /// or `None` if the queue was empty.
    ///
    /// Pipeline: rebase (three-way merge onto the current HEAD) →
    /// affected-target analysis → real builds of every affected target →
    /// commit on success. One processor at a time: the change stays at
    /// the queue front until its verdict is folded.
    pub fn process_next(&self, action: &StepAction) -> Option<TicketId> {
        let Ok(processed) = self.process_next_journaled(action, |_| Ok::<(), Infallible>(()));
        processed
    }

    /// [`SubmitQueueService::process_next`], handing each event batch to
    /// `journal` before folding it: first the speculation start, then
    /// the verdict batch (quarantine entries, a rebuild abort, and the
    /// verdict with its commit or rejection). A batch the journal
    /// refuses is never folded, so `status` never shows it.
    pub(crate) fn process_next_journaled<E>(
        &self,
        action: &StepAction,
        mut journal: impl FnMut(&[ServiceEvent]) -> Result<(), E>,
    ) -> Result<Option<TicketId>, E> {
        let Some(change) = self.inner.lock().state.queue.front().cloned() else {
            return Ok(None);
        };
        let ticket = change.ticket;
        self.record(&[ServiceEvent::SpeculationStarted { ticket }], &mut journal)?;
        let verdict = self.attempt(action, &change);
        self.record(&verdict, &mut journal)?;
        Ok(Some(TicketId(ticket)))
    }

    /// Hand `batch` to `journal`, then fold it into the state.
    fn record<E>(
        &self,
        batch: &[ServiceEvent],
        journal: impl FnOnce(&[ServiceEvent]) -> Result<(), E>,
    ) -> Result<(), E> {
        journal(batch)?;
        let mut inner = self.inner.lock();
        for event in batch {
            inner.state.apply(event);
        }
        Ok(())
    }

    /// One attempt at `change`, returning its verdict batch. An empty
    /// batch or a lone rebuild abort leaves the change queued for
    /// another attempt. The only side effect outside the service state
    /// is the VCS commit of a passing change.
    fn attempt(&self, action: &StepAction, change: &QueuedChange) -> Vec<ServiceEvent> {
        let ticket = change.ticket;
        // Read what the build needs under the lock, then build outside
        // it so parallel status queries stay responsive.
        let (base_tree, head, head_tree, mut store) = {
            let inner = self.inner.lock();
            let base_tree = match inner.repo.tree_at(change.base) {
                Ok(t) => t,
                Err(e) => return rejection(ticket, format!("bad base: {e}"), false),
            };
            let head_tree = inner.repo.head_tree().expect("mainline readable");
            (
                base_tree,
                inner.repo.head(),
                head_tree,
                inner.repo.store().clone(),
            )
        };

        // 1. Rebase: merge the patch with what landed since its base.
        let rebased = match rebase(&change.patch, &base_tree, &head_tree, &store) {
            Ok(p) => p,
            Err(e) => return rejection(ticket, format!("merge conflict: {e}"), false),
        };

        // 2. Analyze: affected targets of the rebased patch on HEAD.
        let base_analysis = match SnapshotAnalysis::analyze(&head_tree, &store) {
            Ok(a) => a,
            Err(e) => return rejection(ticket, format!("HEAD unanalyzable: {e}"), false),
        };
        let new_tree = match rebased.apply(&head_tree, &mut store) {
            Ok(t) => t,
            Err(e) => return rejection(ticket, format!("patch failed to apply: {e}"), false),
        };
        let new_analysis = match SnapshotAnalysis::analyze(&new_tree, &store) {
            Ok(a) => a,
            Err(e) => return rejection(ticket, format!("build graph broken: {e}"), false),
        };
        let delta = AffectedSet::between(&base_analysis, &new_analysis);

        // 3. Build every affected target for real (incremental via the
        // controller's artifact cache + duration history).
        let report = self.controller.execute_affected(
            &new_analysis.graph,
            &new_analysis.hashes,
            &delta,
            |step| action(step, &new_tree),
        );
        let mut inner = self.inner.lock();
        let mut batch = Vec::new();
        // Flake accounting: every infra event — recovered or not —
        // counts toward the per-target quarantine threshold.
        for (step, _fault) in &report.exec.infra_events {
            if let Some(observations) = inner.quarantine.record_flake(step.target.clone()) {
                batch.push(ServiceEvent::Quarantined {
                    target: step.target.to_string(),
                    observations,
                });
            }
        }
        inner.step_retries += report.exec.infra_retries;
        if let Some((step, fault)) = report.exec.infra_failure {
            // Infra-red: the build says nothing about the change.
            // Rebuild up to the policy bound instead of rejecting;
            // successful steps are already cached, so the rebuild only
            // redoes what the fault interrupted.
            let attempts = inner.rebuilds.entry(TicketId(ticket)).or_insert(0);
            *attempts += 1;
            let attempt = *attempts;
            if attempt <= self.recovery.max_rebuilds {
                inner.infra_rebuilds += 1;
                batch.push(ServiceEvent::SpeculationAborted {
                    ticket,
                    reason: format!("infra-red build; rebuild #{attempt} after {fault}"),
                });
            } else {
                batch.extend(rejection(
                    ticket,
                    format!(
                        "infrastructure failure (change not at fault): step '{step}' \
                         hit {fault} after {attempt} build(s)"
                    ),
                    true,
                ));
            }
            return batch;
        }
        if let Some((step, reason)) = report.exec.failure {
            batch.extend(rejection(
                ticket,
                format!("build step '{step}' failed: {reason}"),
                false,
            ));
            return batch;
        }
        // 4. Commit — but only if HEAD did not move underneath us (one
        // processor at a time here; the check keeps the invariant
        // explicit). A moved HEAD leaves the change queued for a retry
        // with the same base.
        if inner.repo.head() != head {
            return batch;
        }
        let meta = CommitMeta::new(
            change.author.clone(),
            format!("[{}] {}", TicketId(ticket), change.description),
            0,
        );
        let commit = match inner
            .repo
            .commit_patch(sq_vcs::repo::MAINLINE, &rebased, meta)
        {
            Ok(commit) => commit,
            // The rebase absorbed the patch entirely (someone landed the
            // same edit): treat as landed at HEAD.
            Err(VcsError::EmptyCommit) => inner.repo.head(),
            Err(e) => {
                batch.extend(rejection(ticket, format!("commit failed: {e}"), false));
                return batch;
            }
        };
        batch.push(ServiceEvent::BuildVerdict {
            ticket,
            verdict: Verdict::Pass,
            detail: String::new(),
        });
        batch.push(ServiceEvent::Committed { ticket, commit });
        batch
    }

    /// Drain the queue.
    pub fn run_until_idle(&self, action: &StepAction) -> usize {
        let mut processed = 0;
        while self.process_next(action).is_some() {
            processed += 1;
        }
        processed
    }

    /// Service counters.
    pub fn stats(&self) -> ServiceStats {
        let cs = self.controller.cache_stats();
        let inner = self.inner.lock();
        ServiceStats {
            landed: inner.state.landed,
            rejected: inner.state.rejected,
            queued: inner.state.queue.len(),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            step_retries: inner.step_retries,
            infra_rebuilds: inner.infra_rebuilds,
            infra_rejected: inner.state.infra_rejected,
            quarantined: inner.quarantine.len(),
        }
    }

    /// Targets quarantined as chronically flaky. Advisory: quarantined
    /// targets still gate landings (skipping them could let a genuinely
    /// red change slip onto mainline); the list tells operators where
    /// the flaky infrastructure is.
    pub fn quarantined_targets(&self) -> Vec<TargetName> {
        self.inner
            .lock()
            .quarantine
            .quarantined()
            .cloned()
            .collect()
    }

    /// Read a file at the current HEAD (inspection helper for examples).
    pub fn read_head_file(&self, path: &str) -> Option<String> {
        let inner = self.inner.lock();
        let p = sq_vcs::RepoPath::new(path).ok()?;
        inner.repo.read_file(inner.repo.head(), &p).ok()
    }

    /// Replay the whole mainline history, rebuilding every commit point
    /// from scratch — the literal "always green" check. The audit runs
    /// under the service's step-retry policy, so infra flakes in the
    /// action are absorbed rather than misreported as red commits; a
    /// fault that survives the retries is reported as *unverifiable*,
    /// not red.
    ///
    /// Returns the number of commit points verified, or the exact
    /// commit (id, mainline position, failing step) that broke the
    /// audit.
    pub fn verify_history(&self, action: &StepAction) -> Result<usize, Box<HistoryViolation>> {
        let inner = self.inner.lock();
        let head = inner.repo.head();
        let infra_err = |index: usize, commit: CommitId, reason: String| {
            Box::new(HistoryViolation {
                commit_index: index,
                commit,
                step: None,
                reason,
                infra: true,
            })
        };
        let log = inner
            .repo
            .log(head)
            .map_err(|e| infra_err(0, head, e.to_string()))?;
        let mut verified = 0;
        for (index, id) in log.iter().rev().enumerate() {
            let tree = inner
                .repo
                .tree_at(*id)
                .map_err(|e| infra_err(index, *id, e.to_string()))?;
            let analysis = SnapshotAnalysis::analyze(&tree, inner.repo.store())
                .map_err(|e| infra_err(index, *id, e.to_string()))?;
            let targets: HashSet<sq_build::TargetName> = analysis.graph.names().cloned().collect();
            let cache = Mutex::new(ArtifactCache::new());
            let report = self.executor.execute_with_recovery(
                &analysis.graph,
                &targets,
                &analysis.hashes,
                &cache,
                &self.recovery.retry,
                |step| action(step, &tree),
            );
            if let Some((step, reason)) = report.failure {
                return Err(Box::new(HistoryViolation {
                    commit_index: index,
                    commit: *id,
                    step: Some(step),
                    reason: format!("failed: {reason}"),
                    infra: false,
                }));
            }
            if let Some((step, fault)) = report.infra_failure {
                return Err(Box::new(HistoryViolation {
                    commit_index: index,
                    commit: *id,
                    step: Some(step),
                    reason: format!("infra fault survived retries: {fault}"),
                    infra: true,
                }));
            }
            verified += 1;
        }
        Ok(verified)
    }
}

/// Rebase `patch` from `base_tree` onto `head_tree`: merge it with the
/// mainline drift in between, keeping only the paths the patch touches.
fn rebase(
    patch: &Patch,
    base_tree: &Tree,
    head_tree: &Tree,
    store: &ObjectStore,
) -> Result<Patch, VcsError> {
    // Mainline drift since the base = a synthetic patch transforming
    // base_tree into head_tree; merge the developer patch with it.
    let mut drift = Patch::new();
    for path in base_tree.changed_paths(head_tree) {
        match head_tree.get(path) {
            Some(blob) => {
                let content = store
                    .get_text(&blob)
                    .ok_or_else(|| VcsError::MissingObject(blob.to_hex()))?;
                drift.push(sq_vcs::FileOp::Write {
                    path: path.clone(),
                    content,
                });
            }
            None => drift.push(sq_vcs::FileOp::Delete { path: path.clone() }),
        }
    }
    let merged = merge_patches(base_tree, store, &drift, patch)?;
    // The drift part is already in HEAD; restrict to paths the
    // developer touched (their ops after merging with the drift).
    let mut rebased = Patch::new();
    let dev_paths: HashSet<&sq_vcs::RepoPath> = patch.paths().collect();
    for op in merged.ops() {
        if dev_paths.contains(op.path()) {
            rebased.push(op.clone());
        }
    }
    Ok(rebased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_vcs::RepoPath;

    fn always_pass() -> Box<StepAction> {
        Box::new(|_step, _tree| StepOutcome::Success)
    }

    /// Fail any step whose target's sources contain the string "BUG".
    fn fail_on_bug() -> Box<StepAction> {
        Box::new(|step, tree| {
            // The step's package directory is the target's package.
            let pkg = step.target.package().to_string();
            for path in tree.paths_under(&pkg) {
                let _ = path; // content access requires the store; the
                              // service tests instead encode bugs in paths
            }
            if step.target.short_name().contains("bug") {
                StepOutcome::Failure("intentional bug".into())
            } else {
                StepOutcome::Success
            }
        })
    }

    fn demo_repo() -> Repository {
        Repository::init([
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "pub fn l() {}"),
            (
                "app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("app/m.rs", "fn main() {}"),
        ])
        .unwrap()
    }

    #[test]
    fn land_a_clean_change() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let base = service.head();
        let t = service.submit(
            "alice",
            "improve lib",
            base,
            Patch::write(
                RepoPath::new("lib/l.rs").unwrap(),
                "pub fn l() { /* v2 */ }",
            ),
        );
        assert_eq!(service.status(t), Some(TicketState::Queued));
        let action = always_pass();
        service.run_until_idle(&action);
        match service.status(t) {
            Some(TicketState::Landed(commit)) => assert_eq!(service.head(), commit),
            other => panic!("expected landed, got {other:?}"),
        }
        assert_eq!(
            service.read_head_file("lib/l.rs").unwrap(),
            "pub fn l() { /* v2 */ }"
        );
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected, stats.queued), (1, 0, 0));
    }

    #[test]
    fn failing_build_step_rejects_and_mainline_unchanged() {
        let mut repo = demo_repo();
        // Add a target whose name triggers the failure action.
        repo.commit_patch(
            sq_vcs::repo::MAINLINE,
            &Patch::from_ops([
                sq_vcs::FileOp::Write {
                    path: RepoPath::new("buggy/BUILD").unwrap(),
                    content: "library(name = \"bugzone\", srcs = [\"b.rs\"])".into(),
                },
                sq_vcs::FileOp::Write {
                    path: RepoPath::new("buggy/b.rs").unwrap(),
                    content: "ok".into(),
                },
            ]),
            CommitMeta::new("setup", "add buggy pkg", 0),
        )
        .unwrap();
        let service = SubmitQueueService::new(repo, 2);
        let head_before = service.head();
        let t = service.submit(
            "bob",
            "touch the buggy package",
            head_before,
            Patch::write(RepoPath::new("buggy/b.rs").unwrap(), "edited"),
        );
        let action = fail_on_bug();
        service.run_until_idle(&action);
        match service.status(t) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("intentional bug"), "reason = {reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The faulty patch never landed: master stays green.
        assert_eq!(service.head(), head_before);
    }

    #[test]
    fn stale_base_gets_rebased() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let old_base = service.head();
        let action = always_pass();
        // First change lands, moving HEAD.
        service.submit(
            "alice",
            "edit app",
            old_base,
            Patch::write(RepoPath::new("app/m.rs").unwrap(), "fn main() { /* a */ }"),
        );
        service.run_until_idle(&action);
        let mid = service.head();
        assert_ne!(mid, old_base);
        // Second change was developed against the *old* base but touches
        // a different file: the rebase integrates it.
        let t2 = service.submit(
            "bob",
            "edit lib from a stale branch",
            old_base,
            Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() { /* b */ }"),
        );
        service.run_until_idle(&action);
        assert!(matches!(service.status(t2), Some(TicketState::Landed(_))));
        // Both edits are present at HEAD.
        assert_eq!(
            service.read_head_file("app/m.rs").unwrap(),
            "fn main() { /* a */ }"
        );
        assert_eq!(
            service.read_head_file("lib/l.rs").unwrap(),
            "pub fn l() { /* b */ }"
        );
    }

    #[test]
    fn textual_conflict_on_rebase_rejects() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let base = service.head();
        let action = always_pass();
        service.submit(
            "alice",
            "first writer",
            base,
            Patch::write(RepoPath::new("lib/l.rs").unwrap(), "alice version"),
        );
        service.run_until_idle(&action);
        let t2 = service.submit(
            "bob",
            "second writer, same file, stale base",
            base,
            Patch::write(RepoPath::new("lib/l.rs").unwrap(), "bob version"),
        );
        service.run_until_idle(&action);
        match service.status(t2) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("merge conflict"), "reason = {reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(service.read_head_file("lib/l.rs").unwrap(), "alice version");
    }

    #[test]
    fn artifact_cache_accumulates_across_changes() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let action = always_pass();
        for i in 0..3 {
            let base = service.head();
            service.submit(
                "alice",
                format!("lib v{i}"),
                base,
                Patch::write(
                    RepoPath::new("lib/l.rs").unwrap(),
                    format!("pub fn l() {{ /* v{i} */ }}"),
                ),
            );
            service.run_until_idle(&action);
        }
        let stats = service.stats();
        assert_eq!(stats.landed, 3);
        assert!(stats.cache_misses > 0);
    }

    #[test]
    fn verify_history_confirms_green_mainline() {
        let service = SubmitQueueService::new(demo_repo(), 2);
        let action = always_pass();
        for i in 0..3 {
            let base = service.head();
            service.submit(
                "alice",
                format!("v{i}"),
                base,
                Patch::write(
                    RepoPath::new("app/m.rs").unwrap(),
                    format!("fn main() {{ /* {i} */ }}"),
                ),
            );
            service.run_until_idle(&action);
        }
        let verified = service.verify_history(&action).unwrap();
        assert_eq!(verified, 4); // root + 3 commits
    }

    #[test]
    fn verify_history_pinpoints_the_bad_commit() {
        // Plant a bad commit directly on mainline (bypassing the queue,
        // as if the gate had been circumvented), then audit.
        let mut repo = demo_repo();
        let planted = repo
            .commit_patch(
                sq_vcs::repo::MAINLINE,
                &Patch::from_ops([
                    sq_vcs::FileOp::Write {
                        path: RepoPath::new("buggy/BUILD").unwrap(),
                        content: "library(name = \"bugzone\", srcs = [\"b.rs\"])".into(),
                    },
                    sq_vcs::FileOp::Write {
                        path: RepoPath::new("buggy/b.rs").unwrap(),
                        content: "broken".into(),
                    },
                ]),
                CommitMeta::new("rogue", "sneak a red target in", 0),
            )
            .unwrap();
        let service = SubmitQueueService::new(repo, 2);
        // A good change lands on top of the planted commit.
        let base = service.head();
        service.submit(
            "alice",
            "innocent lib edit",
            base,
            Patch::write(
                RepoPath::new("lib/l.rs").unwrap(),
                "pub fn l() { /* ok */ }",
            ),
        );
        // Landing succeeds: the gate only rebuilds *affected* targets,
        // and the lib edit does not touch the planted red target.
        service.run_until_idle(&always_pass());
        // The from-scratch audit rebuilds everything and catches it.
        let violation = service.verify_history(&fail_on_bug()).unwrap_err();
        assert_eq!(violation.commit, planted);
        assert_eq!(violation.commit_index, 1); // root is #0
        assert!(!violation.infra);
        let step = violation.step.as_ref().expect("failing step reported");
        assert!(step.target.to_string().contains("bugzone"));
        assert!(violation.reason.contains("intentional bug"));
        let shown = violation.to_string();
        assert!(shown.contains(&planted.to_string()), "display: {shown}");
        assert!(shown.contains("bugzone"), "display: {shown}");
    }

    /// Drain the queue, collecting every event batch the service hands
    /// its journal (the seam the durable queue appends through).
    fn drain_recording(service: &SubmitQueueService, action: &StepAction) -> Vec<ServiceEvent> {
        let mut events = Vec::new();
        while let Ok(Some(_)) =
            service.process_next_journaled(action, |batch: &[ServiceEvent]| {
                events.extend_from_slice(batch);
                Ok::<(), Infallible>(())
            })
        {}
        events
    }

    #[test]
    fn infra_red_build_is_rebuilt_not_rejected() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::sync::atomic::{AtomicU32, Ordering};
        let config = RecoveryConfig {
            retry: RetryPolicy::none(), // no step retries: force whole-build redos
            max_rebuilds: 2,
            quarantine_threshold: u32::MAX,
        };
        let service = SubmitQueueService::with_recovery(demo_repo(), 2, config);
        let base = service.head();
        let t = service.submit(
            "alice",
            "lands despite a crashed worker",
            base,
            Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() { /* r */ }"),
        );
        // The very first step call crashes; every later call succeeds.
        let calls = AtomicU32::new(0);
        let action: Box<StepAction> = Box::new(move |_step, _tree| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::WorkerCrash,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        let events = drain_recording(&service, &action);
        assert!(matches!(service.status(t), Some(TicketState::Landed(_))));
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected), (1, 0));
        assert_eq!(stats.infra_rebuilds, 1);
        // One aborted attempt, rebuilt, then the verdict of the second.
        let aborts: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::SpeculationAborted { ticket, reason } if *ticket == t.0 => {
                    Some(reason.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(aborts.len(), 1, "events = {events:?}");
        assert!(aborts[0].contains("rebuild #1"), "reason = {}", aborts[0]);
        let starts = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::SpeculationStarted { .. }))
            .count();
        assert_eq!(starts, 2);
        assert!(matches!(
            events.last(),
            Some(ServiceEvent::Committed { ticket, .. }) if *ticket == t.0
        ));
        assert!(!events
            .iter()
            .any(|e| matches!(e, ServiceEvent::Rejected { .. })));
    }

    #[test]
    fn exhausted_rebuilds_reject_with_infrastructure_reason() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        let config = RecoveryConfig {
            retry: RetryPolicy::none(),
            max_rebuilds: 1,
            quarantine_threshold: u32::MAX,
        };
        let service = SubmitQueueService::with_recovery(demo_repo(), 2, config);
        let head_before = service.head();
        let t = service.submit(
            "bob",
            "doomed by the cluster",
            head_before,
            Patch::write(RepoPath::new("app/m.rs").unwrap(), "fn main() { /* x */ }"),
        );
        let action: Box<StepAction> = Box::new(|_step, _tree| {
            StepOutcome::InfraFailure(InfraFault {
                kind: InfraFaultKind::Timeout,
                attempt: 1,
            })
        });
        let events = drain_recording(&service, &action);
        match service.status(t) {
            Some(TicketState::Rejected(reason)) => {
                assert!(reason.contains("infrastructure"), "reason = {reason}");
                assert!(reason.contains("change not at fault"), "reason = {reason}");
            }
            other => panic!("expected infra rejection, got {other:?}"),
        }
        assert_eq!(service.head(), head_before);
        let stats = service.stats();
        assert_eq!(stats.infra_rejected, 1);
        assert_eq!(stats.infra_rebuilds, 1); // one redo, then gave up
        let aborts = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::SpeculationAborted { .. }))
            .count();
        assert_eq!(aborts, 1, "events = {events:?}");
        // The rejection blames infrastructure, in the verdict and in the
        // rejection itself.
        let tail = &events[events.len() - 2..];
        assert!(
            matches!(
                tail,
                [
                    ServiceEvent::BuildVerdict {
                        verdict: Verdict::Infra,
                        ..
                    },
                    ServiceEvent::Rejected { infra: true, .. },
                ]
            ),
            "events = {events:?}"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ServiceEvent::Rejected { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn chronic_flakes_quarantine_the_target_but_changes_still_land() {
        use sq_exec::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::collections::HashMap as StdHashMap;
        let config = RecoveryConfig {
            retry: RetryPolicy::standard(3, 11),
            max_rebuilds: 2,
            quarantine_threshold: 2,
        };
        let service = SubmitQueueService::with_recovery(demo_repo(), 2, config);
        // The lib compile flakes on every odd-numbered call (so: once
        // per landing, since each flake is retried to success); retries
        // absorb each flake and every change still lands.
        let seen: Mutex<StdHashMap<BuildStep, u32>> = Mutex::new(StdHashMap::new());
        let action: Box<StepAction> = Box::new(move |step, _tree| {
            let is_lib_compile = step.target.to_string().contains("//lib")
                && step.kind == sq_exec::StepKind::Compile;
            let mut seen = seen.lock();
            let n = seen.entry(step.clone()).or_insert(0);
            *n += 1;
            if is_lib_compile && *n % 2 == 1 {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::TransientTooling,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        let mut events = Vec::new();
        for i in 0..2 {
            let base = service.head();
            service.submit(
                "alice",
                format!("lib v{i}"),
                base,
                Patch::write(
                    RepoPath::new("lib/l.rs").unwrap(),
                    format!("pub fn l() {{ /* q{i} */ }}"),
                ),
            );
            events.extend(drain_recording(&service, &action));
        }
        let stats = service.stats();
        assert_eq!((stats.landed, stats.rejected), (2, 0));
        assert_eq!(stats.step_retries, 2);
        // Two observed flakes on //lib:lib crossed the threshold.
        let quarantined = service.quarantined_targets();
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].to_string().contains("//lib"));
        let entries: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::Quarantined {
                    target,
                    observations,
                } => Some((target.as_str(), *observations)),
                _ => None,
            })
            .collect();
        assert_eq!(entries, vec![("//lib:lib", 2)], "events = {events:?}");
        // Retried flakes never abort an attempt.
        assert!(!events
            .iter()
            .any(|e| matches!(e, ServiceEvent::SpeculationAborted { .. })));
        // Quarantine is advisory: the audit still verifies everything.
        assert!(service.verify_history(&always_pass()).is_ok());
    }
}
