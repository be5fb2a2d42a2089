//! Shared scheduling machinery used by FTSA, FTBAR and CAFT.
//!
//! Every scheduler runs on one [`Ctx`]. Its buffers — port state,
//! schedule storage, priorities, the free pool, the per-candidate spec
//! and plan buffers — live in a [`CaftScratch`] arena that a caller may
//! keep across runs: [`Ctx::new`] and [`Ctx::for_subdag`] move a
//! scratch's buffers in and reset them in place, [`Ctx::into_scratch`]
//! hands them back. A warm arena makes a run allocation-free (pinned for
//! sub-DAG repair runs by `ft-runtime`'s `alloc_replan` test); results
//! never depend on what the arena held before.

use crate::caft::PlaceBufs;
use crate::prio::{mean_bottom_levels, FreePool, ReadyTracker};
use crate::subdag::SubDagSpec;
use ft_graph::TaskId;
use ft_model::timeline::Timeline;
use ft_model::{
    CommModel, FtSchedule, MsgSpec, NetworkState, PlanScratch, PlannedMsg, Replica, ReplicaRef,
};
use ft_platform::{Instance, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One evaluated `(task, processor)` placement: its start/finish
/// estimate.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Candidate host processor.
    pub proc: ProcId,
    /// Earliest start time (equation (5)).
    pub est: f64,
    /// Earliest finish time `EST + E(t, P)`.
    pub eft: f64,
}

/// Reusable output of one batch plan: the planned messages and the
/// one-port temporaries behind them.
#[derive(Debug, Default)]
pub(crate) struct Planner {
    planned: Vec<PlannedMsg>,
    scratch: PlanScratch,
}

/// The buffers [`Ctx`]'s own methods use between calls.
#[derive(Debug, Default)]
struct CtxBufs {
    specs: Vec<MsgSpec>,
    planner: Planner,
    freed: Vec<TaskId>,
    sources: Vec<Replica>,
}

/// Every buffer a scheduling run touches, owned across runs.
///
/// Keep one per thread and hand it to [`caft_on_subdag_in`] run after
/// run: each run resets the buffers in place and leaves its result (the
/// repaired schedule) inside, readable until the next run.
///
/// [`caft_on_subdag_in`]: crate::subdag::caft_on_subdag_in
#[derive(Debug)]
pub struct CaftScratch {
    state: NetworkState,
    pub(crate) sched: FtSchedule,
    bl: Vec<f64>,
    tl: Vec<f64>,
    tie: Vec<u64>,
    ready: ReadyTracker,
    pool: FreePool,
    exec_slots: Vec<Timeline>,
    allowed: Vec<ProcId>,
    bufs: CtxBufs,
    place: PlaceBufs,
    pub(crate) unscheduled: Vec<TaskId>,
}

impl CaftScratch {
    /// A cold arena; the first run through it allocates its buffers,
    /// later runs of the same or smaller shape reuse them.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for CaftScratch {
    fn default() -> Self {
        CaftScratch {
            state: NetworkState::default(),
            sched: FtSchedule::new(0, 0, CommModel::OnePort),
            bl: Vec::new(),
            tl: Vec::new(),
            tie: Vec::new(),
            ready: ReadyTracker::default(),
            pool: FreePool::new(),
            exec_slots: Vec::new(),
            allowed: Vec::new(),
            bufs: CtxBufs::default(),
            place: PlaceBufs::default(),
            unscheduled: Vec::new(),
        }
    }
}

/// Mutable state threaded through a scheduling run.
pub struct Ctx<'a> {
    /// The problem instance.
    pub inst: &'a Instance,
    /// Supported failures ε.
    pub eps: usize,
    /// Port/link/processor availability.
    pub state: NetworkState,
    /// The schedule under construction.
    pub sched: FtSchedule,
    /// Static bottom levels (mean costs).
    pub bl: Vec<f64>,
    /// Dynamic top levels, set when a task becomes free.
    pub tl: Vec<f64>,
    /// Random tie-break keys (the paper breaks ties randomly).
    pub tie: Vec<u64>,
    /// Dependency tracking.
    pub ready: ReadyTracker,
    /// Current free tasks (the paper's list α).
    pub pool: FreePool,
    /// Insertion-based processor slots (extension): when true, a replica
    /// may fill an idle gap between already-committed computations (the
    /// classic HEFT insertion policy) instead of appending after `r(P)`.
    pub insertion: bool,
    /// Per-processor computation intervals, maintained in insertion mode.
    exec_slots: Vec<Timeline>,
    /// Processors replicas may be placed on. Defaults to the whole
    /// platform; sub-DAG rescheduling restricts it to the survivors.
    allowed: Vec<ProcId>,
    /// `Platform::mean_delay` (an `m²` sum), taken once per run for the
    /// mean communication costs of the top levels.
    mean_delay: f64,
    bufs: CtxBufs,
    /// CAFT placement buffers, checked out per task by
    /// [`crate::caft::schedule_task`].
    pub(crate) place: PlaceBufs,
}

impl<'a> Ctx<'a> {
    /// Initializes a run: ε, communication model, tie-break seed.
    ///
    /// # Panics
    /// Panics unless the platform has at least `ε + 1` processors (space
    /// exclusion needs `ε + 1` distinct hosts per task).
    pub fn new(inst: &'a Instance, eps: usize, model: CommModel, seed: u64) -> Self {
        let m = inst.num_procs();
        assert!(
            m > eps,
            "need at least ε+1 = {} processors, platform has {m}",
            eps + 1
        );
        let mut ctx = Self::assemble(inst, eps, model, seed, None, 0.0, CaftScratch::default());
        ctx.bl = mean_bottom_levels(inst);
        ctx.allowed.extend(inst.platform.procs());
        ctx
    }

    /// Initializes a *sub-DAG* run for online rescheduling over the
    /// buffers of `scratch`: only `spec.remnant` tasks will be scheduled,
    /// placements are restricted to the `spec.alive` (surviving)
    /// processors, no computation starts before `spec.release`, and data
    /// produced by already-executed tasks is injected as frontier
    /// pseudo-replicas (`spec.sources[t]`: where copies of non-remnant
    /// task `t` live, with `finish` = the time the data becomes
    /// available; the earliest `eps + 1` are kept). `bl` are the
    /// instance's [mean bottom levels](mean_bottom_levels), which depend
    /// on the instance only and so can be computed once by the caller.
    ///
    /// The schedule contains real placements for remnant tasks and echoes
    /// the frontier pseudo-replicas for non-remnant ones (so message
    /// records resolve); callers only consume the remnant part.
    ///
    /// # Panics
    /// Panics unless `spec.alive` has at least `eps + 1` processors.
    pub fn for_subdag(
        inst: &'a Instance,
        eps: usize,
        model: CommModel,
        seed: u64,
        spec: &SubDagSpec,
        bl: &[f64],
        scratch: CaftScratch,
    ) -> Self {
        let v = inst.graph.num_tasks();
        assert_eq!(spec.remnant.len(), v, "remnant mask must cover every task");
        assert_eq!(spec.sources.len(), v, "sources must cover every task");
        assert_eq!(bl.len(), v, "bottom levels must cover every task");
        assert!(
            spec.alive.len() > eps,
            "need at least ε+1 = {} surviving processors, got {}",
            eps + 1,
            spec.alive.len()
        );
        let release = spec.release;
        let mut ctx = Self::assemble(
            inst,
            eps,
            model,
            seed,
            Some(&spec.remnant),
            release,
            scratch,
        );
        ctx.bl.extend_from_slice(bl);
        ctx.allowed.extend_from_slice(&spec.alive);
        for &p in &spec.alive {
            ctx.state.commit_exec(p, release);
        }
        // Pre-populate the schedule with the frontier pseudo-replicas so
        // `full_fanin_specs` & friends resolve non-remnant predecessors.
        let mut srcs = std::mem::take(&mut ctx.bufs.sources);
        for (t, list) in spec.sources.iter().enumerate() {
            debug_assert!(
                list.is_empty() || !spec.remnant[t],
                "remnant task {t} cannot also be a data source"
            );
            srcs.clear();
            srcs.extend_from_slice(list);
            srcs.sort_by(|a, b| a.finish.total_cmp(&b.finish).then(a.proc.cmp(&b.proc)));
            for (copy, src) in srcs.iter().take(eps + 1).enumerate() {
                ctx.sched.push_replica(Replica {
                    of: ReplicaRef::new(TaskId::from_index(t), copy),
                    ..*src
                });
            }
        }
        ctx.bufs.sources = srcs;
        ctx
    }

    /// Moves `s`'s buffers into a fresh run and resets them in place:
    /// the state shared by [`Ctx::new`] and [`Ctx::for_subdag`]
    /// (`bl` and `allowed` are left empty for the caller to fill).
    fn assemble(
        inst: &'a Instance,
        eps: usize,
        model: CommModel,
        seed: u64,
        subset: Option<&[bool]>,
        release: f64,
        s: CaftScratch,
    ) -> Self {
        let CaftScratch {
            mut state,
            mut sched,
            mut bl,
            mut tl,
            mut tie,
            mut ready,
            mut pool,
            mut exec_slots,
            mut allowed,
            bufs,
            mut place,
            unscheduled: _,
        } = s;
        let g = &inst.graph;
        let v = g.num_tasks();
        let m = inst.num_procs();
        state.reset(m, model);
        sched.reset(v, eps, model);
        bl.clear();
        tl.clear();
        tl.resize(v, release);
        let mut rng = StdRng::seed_from_u64(seed);
        tie.clear();
        tie.extend((0..v).map(|_| rng.gen::<u64>()));
        ready.reset(g, subset);
        pool.clear();
        for t in ready.initial() {
            pool.push(t);
        }
        exec_slots.truncate(m);
        for slots in &mut exec_slots {
            slots.clear();
        }
        exec_slots.resize_with(m, Timeline::new);
        allowed.clear();
        place.reset(v);
        Ctx {
            inst,
            eps,
            state,
            sched,
            bl,
            tl,
            tie,
            ready,
            pool,
            insertion: false,
            exec_slots,
            allowed,
            mean_delay: inst.platform.mean_delay(),
            bufs,
            place,
        }
    }

    /// Ends the run, handing every buffer (the schedule included) back
    /// as an arena for the next one.
    pub fn into_scratch(self) -> CaftScratch {
        CaftScratch {
            state: self.state,
            sched: self.sched,
            bl: self.bl,
            tl: self.tl,
            tie: self.tie,
            ready: self.ready,
            pool: self.pool,
            exec_slots: self.exec_slots,
            allowed: self.allowed,
            bufs: self.bufs,
            place: self.place,
            unscheduled: Vec::new(),
        }
    }

    /// The processors replicas may be placed on (the whole platform for
    /// from-scratch runs, the survivors for sub-DAG rescheduling).
    pub fn candidate_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.allowed.iter().copied()
    }

    /// Switches this run to the insertion slot policy (see
    /// [`Ctx::insertion`]).
    pub fn with_insertion(mut self) -> Self {
        self.insertion = true;
        self
    }

    /// The list-scheduling priority `tl(t) + bl(t)`.
    #[inline]
    pub fn priority(&self, t: TaskId) -> f64 {
        self.tl[t.index()] + self.bl[t.index()]
    }

    /// Pops the most urgent free task (`H(α)`).
    pub fn pop_task(&mut self) -> Option<TaskId> {
        let tl = &self.tl;
        let bl = &self.bl;
        let tie = &self.tie;
        self.pool
            .pop_max(|t| tl[t.index()] + bl[t.index()], |t| tie[t.index()])
    }

    /// Full fan-in message specs for placing replica `copy` of `t` on
    /// `dst`, written into `specs`: every replica of every predecessor
    /// sends a copy — except that, per the paper's §6 note, if some
    /// replica of a predecessor is co-located with `dst`, only that
    /// (free, local) copy is used.
    pub fn full_fanin_specs(&self, t: TaskId, copy: usize, dst: ProcId, specs: &mut Vec<MsgSpec>) {
        let g = &self.inst.graph;
        specs.clear();
        let dst_ref = ReplicaRef::new(t, copy);
        for &e in g.in_edges(t) {
            let pred = g.edge(e).src;
            let reps = self.sched.replicas_of(pred);
            debug_assert!(!reps.is_empty(), "predecessor {pred} not scheduled");
            if let Some(local) = reps.iter().find(|r| r.proc == dst) {
                specs.push(MsgSpec {
                    edge: e,
                    src: local.of,
                    dst: dst_ref,
                    from: local.proc,
                    ready: local.finish,
                    w: 0.0,
                });
            } else {
                for r in reps {
                    specs.push(MsgSpec {
                        edge: e,
                        src: r.of,
                        dst: dst_ref,
                        from: r.proc,
                        ready: r.finish,
                        w: self.inst.comm_time(e, r.proc, dst),
                    });
                }
            }
        }
    }

    /// Evaluates placing `t` on `dst` with the given incoming messages
    /// (pure; nothing is committed, the plan lands in `planner`).
    ///
    /// The earliest start (equation (5)) waits for `r(P)` and, per
    /// predecessor edge, the *earliest* arriving copy of the data.
    pub(crate) fn eval(
        &self,
        t: TaskId,
        dst: ProcId,
        specs: &[MsgSpec],
        planner: &mut Planner,
    ) -> Candidate {
        self.state
            .plan_batch_into(dst, specs, &mut planner.planned, &mut planner.scratch);
        let est = self.est_of(t, dst, &planner.planned);
        Candidate {
            proc: dst,
            est,
            eft: est + self.inst.exec_time(t, dst),
        }
    }

    /// Earliest start of `t` on `dst` given a planned batch.
    ///
    /// Append policy: equation (5) — waits for `r(P)` and the earliest copy
    /// of each input. Insertion policy: waits for the inputs, then takes
    /// the earliest idle gap on `dst` that fits `E(t, dst)`.
    pub fn est_of(&self, t: TaskId, dst: ProcId, planned: &[PlannedMsg]) -> f64 {
        let g = &self.inst.graph;
        let mut est = if self.insertion {
            0.0
        } else {
            self.state.proc_ready(dst)
        };
        for &e in g.in_edges(t) {
            let first_arrival = planned
                .iter()
                .filter(|p| p.spec.edge == e)
                .map(|p| p.finish)
                .fold(f64::INFINITY, f64::min);
            debug_assert!(
                first_arrival.is_finite(),
                "no planned message realizes edge {e} into {t}"
            );
            est = est.max(first_arrival);
        }
        if self.insertion {
            est = self.exec_slots[dst.index()].earliest_gap(est, self.inst.exec_time(t, dst));
        }
        est
    }

    /// Commits replica `copy` of `t` on `dst` with the given specs:
    /// re-plans against the *current* state (which may have advanced since
    /// evaluation), then books messages, ports and the computation.
    /// Returns the committed replica.
    pub fn commit(&mut self, t: TaskId, copy: usize, dst: ProcId, specs: &[MsgSpec]) -> Replica {
        let mut planner = std::mem::take(&mut self.bufs.planner);
        self.state
            .plan_batch_into(dst, specs, &mut planner.planned, &mut planner.scratch);
        let planned = &planner.planned;
        let est = self.est_of(t, dst, planned);
        let finish = est + self.inst.exec_time(t, dst);
        self.state.commit_batch(dst, planned);
        if self.insertion {
            self.exec_slots[dst.index()].add(est, finish, t.0);
        } else {
            self.state.commit_exec(dst, finish);
        }
        self.sched.push_messages(dst, planned);
        self.bufs.planner = planner;
        let replica = Replica {
            of: ReplicaRef::new(t, copy),
            proc: dst,
            start: est,
            finish,
        };
        self.sched.push_replica(replica);
        replica
    }

    /// [`Ctx::commit`] with the [full fan-in](Ctx::full_fanin_specs) of
    /// replica `copy` of `t` on `dst`.
    pub fn commit_full_fanin(&mut self, t: TaskId, copy: usize, dst: ProcId) -> Replica {
        let mut specs = std::mem::take(&mut self.bufs.specs);
        self.full_fanin_specs(t, copy, dst, &mut specs);
        let replica = self.commit(t, copy, dst, &specs);
        self.bufs.specs = specs;
        replica
    }

    /// Marks `t` fully scheduled: updates successor top levels and frees
    /// the ones whose predecessors are now all placed.
    ///
    /// `tl(s) = max over in-edges (earliest replica finish of pred + mean
    /// comm)` — the dynamic top level on the partially mapped graph.
    pub fn finish_task(&mut self, t: TaskId) {
        let g = &self.inst.graph;
        let mut freed = std::mem::take(&mut self.bufs.freed);
        freed.clear();
        self.ready.complete(g, t, &mut freed);
        for &s in &freed {
            let mut tl = 0.0f64;
            for &e in g.in_edges(s) {
                let edge = g.edge(e);
                let first_finish = self
                    .sched
                    .replicas_of(edge.src)
                    .iter()
                    .map(|r| r.finish)
                    .fold(f64::INFINITY, f64::min);
                tl = tl.max(first_finish + edge.volume * self.mean_delay);
            }
            self.tl[s.index()] = tl;
            self.pool.push(s);
        }
        self.bufs.freed = freed;
    }

    /// Evaluates every allowed processor outside `excluded` for replica
    /// `copy` of `t` with full fan-in, handing each candidate to `f` in
    /// `allowed` order.
    fn for_each_candidate_full_fanin(
        &mut self,
        t: TaskId,
        copy: usize,
        excluded: &[ProcId],
        mut f: impl FnMut(Candidate),
    ) {
        let mut specs = std::mem::take(&mut self.bufs.specs);
        let mut planner = std::mem::take(&mut self.bufs.planner);
        for &p in &self.allowed {
            if excluded.contains(&p) {
                continue;
            }
            self.full_fanin_specs(t, copy, p, &mut specs);
            f(self.eval(t, p, &specs, &mut planner));
        }
        self.bufs.specs = specs;
        self.bufs.planner = planner;
    }

    /// The best allowed processor outside `excluded` for replica `copy`
    /// of `t` with full fan-in: the minimum over (EFT, proc id), i.e. the
    /// head of [`Ctx::rank_candidates_full_fanin`]. `None` when every
    /// processor is excluded.
    pub fn best_candidate_full_fanin(
        &mut self,
        t: TaskId,
        copy: usize,
        excluded: &[ProcId],
    ) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        self.for_each_candidate_full_fanin(t, copy, excluded, |c| {
            if best.is_none_or(|b| cmp_eft(&c, &b) == std::cmp::Ordering::Less) {
                best = Some(c);
            }
        });
        best
    }

    /// Evaluates every allowed processor for replica `copy` of `t` with
    /// full fan-in and returns candidates sorted by (EFT, proc id).
    /// `excluded` processors are skipped.
    pub fn rank_candidates_full_fanin(
        &mut self,
        t: TaskId,
        copy: usize,
        excluded: &[ProcId],
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        self.for_each_candidate_full_fanin(t, copy, excluded, |c| out.push(c));
        out.sort_by(cmp_eft);
        out
    }
}

/// Candidate order: earliest finish first, ties to the smaller proc id.
fn cmp_eft(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.eft.total_cmp(&b.eft).then_with(|| a.proc.cmp(&b.proc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::GraphBuilder;
    use ft_platform::{ExecMatrix, Platform};

    /// a → c on 3 uniform processors (delay 1, exec 1, volume 2).
    fn inst() -> Instance {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(3, 1.0),
            ExecMatrix::from_fn(2, 3, |_, _| 1.0),
        )
    }

    fn fanin(ctx: &Ctx<'_>, t: TaskId, copy: usize, dst: ProcId) -> Vec<MsgSpec> {
        let mut out = Vec::new();
        ctx.full_fanin_specs(t, copy, dst, &mut out);
        out
    }

    #[test]
    fn entry_tasks_have_no_specs() {
        let inst = inst();
        let ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        assert!(fanin(&ctx, TaskId(0), 0, ProcId(0)).is_empty());
    }

    #[test]
    fn colocated_pred_short_circuits_fanin() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        // Place both replicas of task 0.
        ctx.commit(TaskId(0), 0, ProcId(0), &[]);
        ctx.commit(TaskId(0), 1, ProcId(1), &[]);
        // Towards P0 (hosting a copy): a single local spec.
        let specs = fanin(&ctx, TaskId(1), 0, ProcId(0));
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].w, 0.0);
        // Towards P2 (no copy): one spec per replica.
        let specs = fanin(&ctx, TaskId(1), 0, ProcId(2));
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.w == 2.0));
    }

    #[test]
    fn est_waits_for_first_copy_only() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 1, CommModel::OnePort, 0);
        ctx.commit(TaskId(0), 0, ProcId(0), &[]);
        ctx.commit(TaskId(0), 1, ProcId(1), &[]);
        let cand = ctx.eval(
            TaskId(1),
            ProcId(2),
            &fanin(&ctx, TaskId(1), 0, ProcId(2)),
            &mut Planner::default(),
        );
        // Both copies finish at 1; the first transfer arrives at 3 (w = 2),
        // the second is serialized behind it at the receive port — but EST
        // only waits for the first: 3.
        assert_eq!(cand.est, 3.0);
        assert_eq!(cand.eft, 4.0);
    }

    #[test]
    fn commit_books_everything() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        assert_eq!(ctx.pop_task(), Some(TaskId(0)));
        let r = ctx.commit(TaskId(0), 0, ProcId(1), &[]);
        assert_eq!(r.start, 0.0);
        assert_eq!(r.finish, 1.0);
        assert_eq!(ctx.state.proc_ready(ProcId(1)), 1.0);
        ctx.finish_task(TaskId(0));
        // Task 1 became free with tl = finish + mean comm = 1 + 2.
        assert_eq!(ctx.tl[1], 3.0);
        assert_eq!(ctx.pool.len(), 1);
    }

    #[test]
    fn rank_candidates_prefers_colocated() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        ctx.commit(TaskId(0), 0, ProcId(1), &[]);
        ctx.finish_task(TaskId(0));
        let cands = ctx.rank_candidates_full_fanin(TaskId(1), 0, &[]);
        let best = ctx.best_candidate_full_fanin(TaskId(1), 0, &[]).unwrap();
        assert_eq!(
            best.proc, cands[0].proc,
            "the min-scan is the ranking's head"
        );
        assert_eq!(
            cands[0].proc,
            ProcId(1),
            "local placement avoids the transfer"
        );
        assert_eq!(cands[0].eft, 2.0);
        assert!(cands[1].eft > 2.0);
    }

    #[test]
    fn excluded_procs_are_skipped() {
        let inst = inst();
        let mut ctx = Ctx::new(&inst, 0, CommModel::OnePort, 0);
        let cands = ctx.rank_candidates_full_fanin(TaskId(0), 0, &[ProcId(0), ProcId(2)]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].proc, ProcId(1));
    }

    #[test]
    #[should_panic]
    fn too_few_processors_rejected() {
        let inst = inst();
        Ctx::new(&inst, 3, CommModel::OnePort, 0);
    }
}
