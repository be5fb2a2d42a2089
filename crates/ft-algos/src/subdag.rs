//! Incremental rescheduling: CAFT on the not-yet-executed sub-DAG.
//!
//! When processors crash *during* execution (the online model of
//! `ft-runtime`), the `Reschedule` recovery policy re-runs CAFT on the
//! tasks that have not produced any result yet, against the surviving
//! platform. This module provides that entry point without duplicating the
//! scheduling machinery: [`Ctx::for_subdag`] seeds a normal CAFT run with
//!
//! * a **remnant mask** — the tasks still to execute (closed under
//!   successors by construction);
//! * **frontier sources** — for each already-executed task feeding the
//!   remnant, the processors holding its output and the times the data
//!   became available, injected as pseudo-replicas so the ordinary fan-in
//!   and one-to-one machinery treats them like any scheduled predecessor;
//! * the **surviving processors** and a **release time** before which no
//!   new computation may start (detection time of the failure).
//!
//! The result is a regular [`FtSchedule`]: remnant tasks carry fresh
//! placements (`ε + 1` replicas on survivors), non-remnant tasks echo their
//! frontier pseudo-replicas, and message records route data from frontier
//! copies to new replicas. A remnant task whose frontier data was lost on
//! every surviving processor is unschedulable; it is skipped, its
//! descendants stay unscheduled (empty replica lists), and the caller
//! observes the gap (see [`SubDagOutcome::unscheduled`]).
//!
//! # Two entry points, one run
//!
//! * [`caft_on_subdag`] is the one-shot form: it computes the instance's
//!   bottom levels, runs on a cold arena and returns an owned
//!   [`SubDagOutcome`].
//! * [`caft_on_subdag_in`] is the buffer form, for callers that replan
//!   the same instance again and again (`ft-runtime`'s `Reschedule`
//!   replans once per crash it learns of). The caller passes the mean
//!   bottom levels — a function of the instance alone, so computed once
//!   — and a [`CaftScratch`] arena it keeps. The run resets every buffer
//!   of the arena in place (port state, schedule storage, priorities, the
//!   free pool, the per-candidate spec/plan/key/port buffers, CAFT's
//!   placement buffers) and leaves the repaired schedule inside it,
//!   returned as a borrowed [`SubDagView`]. Once the arena has served one
//!   run of the same or a larger shape, a run performs **no** heap
//!   allocation.
//!
//! Both run the same code on the same [`Ctx`] and return byte-identical
//! results (the one-shot form is a thin wrapper); what the arena held
//! before never leaks into a result. The schedule-identity golden
//! (`tests/schedule_identity.rs`) pins the outcomes byte for byte.
//!
//! ```
//! use ft_algos::prio::mean_bottom_levels;
//! use ft_algos::{caft_on_subdag, caft_on_subdag_in, CaftOptions, CaftScratch, SubDagSpec};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams, ProcId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let g = random_layered(&RandomDagParams::default().with_tasks(20), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! // Nothing has run yet; processors 0 and 1 are gone.
//! let spec = SubDagSpec {
//!     remnant: vec![true; inst.num_tasks()],
//!     sources: vec![Vec::new(); inst.num_tasks()],
//!     alive: (2..inst.num_procs()).map(ProcId::from_index).collect(),
//!     release: 5.0,
//! };
//! let opts = CaftOptions::default();
//! let bl = mean_bottom_levels(&inst); // once per instance
//! let mut arena = CaftScratch::new(); // kept across replans
//! for seed in 0..3 {
//!     let opts = CaftOptions { seed, ..opts };
//!     let view = caft_on_subdag_in(&inst, &spec, &opts, &bl, &mut arena);
//!     let owned = caft_on_subdag(&inst, &spec, &opts);
//!     assert_eq!(view.schedule.messages, owned.schedule.messages);
//!     assert!(view.unscheduled.is_empty());
//! }
//! ```

use crate::caft::{proc_bit, schedule_task, CaftOptions};
use crate::common::{CaftScratch, Ctx};
use crate::prio::mean_bottom_levels;
use ft_graph::TaskId;
use ft_model::{FtSchedule, Replica};
use ft_platform::{Instance, ProcId};

/// The input of an incremental rescheduling run.
#[derive(Clone, Debug, Default)]
pub struct SubDagSpec {
    /// `remnant[t]`: task `t` still needs to execute.
    pub remnant: Vec<bool>,
    /// `sources[t]`: surviving copies of the output of non-remnant task
    /// `t` — host processor and availability time (`finish`). Empty for
    /// remnant tasks and for tasks that feed nothing in the remnant.
    pub sources: Vec<Vec<Replica>>,
    /// Surviving processors, candidates for the new placements.
    pub alive: Vec<ProcId>,
    /// No new computation or transfer decision starts before this time
    /// (typically the failure-detection instant).
    pub release: f64,
}

/// The output of [`caft_on_subdag`].
#[derive(Clone, Debug)]
pub struct SubDagOutcome {
    /// The repaired schedule (remnant placements + frontier echoes).
    pub schedule: FtSchedule,
    /// Remnant tasks that could not be (re)scheduled because some
    /// predecessor's data survives nowhere, in topological order.
    pub unscheduled: Vec<TaskId>,
}

/// The outcome of [`caft_on_subdag_in`], borrowed from its arena: the
/// same fields as [`SubDagOutcome`], valid until the arena's next run.
#[derive(Clone, Copy, Debug)]
pub struct SubDagView<'s> {
    /// The repaired schedule (remnant placements + frontier echoes).
    pub schedule: &'s FtSchedule,
    /// Remnant tasks that could not be (re)scheduled, as in
    /// [`SubDagOutcome::unscheduled`].
    pub unscheduled: &'s [TaskId],
}

/// Re-runs CAFT over the remnant sub-DAG on the surviving platform.
///
/// `opts.eps` is the replication degree of the *new* placements; it is
/// capped internally so the survivors can host `ε + 1` space-exclusive
/// copies. The run is deterministic in `(inst, spec, opts)`.
///
/// Allocating wrapper over [`caft_on_subdag_in`] with a cold arena.
pub fn caft_on_subdag(inst: &Instance, spec: &SubDagSpec, opts: &CaftOptions) -> SubDagOutcome {
    let mut scratch = CaftScratch::new();
    caft_on_subdag_in(inst, spec, opts, &mean_bottom_levels(inst), &mut scratch);
    SubDagOutcome {
        schedule: scratch.sched,
        unscheduled: scratch.unscheduled,
    }
}

/// [`caft_on_subdag`] through a caller-owned arena: the buffer entry
/// point of online rescheduling.
///
/// `bl` must be `mean_bottom_levels(inst)`; they depend on the instance
/// alone, so a caller replanning the same instance computes them once.
/// Every buffer of the run — port state, schedule storage, priorities,
/// the per-candidate spec and plan buffers — comes from `scratch` and
/// stays there; with a warm arena (one earlier run of the same or a
/// larger shape) the run performs no heap allocation. The result is
/// byte-identical to [`caft_on_subdag`] whatever the arena held before.
///
/// # Panics
/// Panics if `bl` does not cover every task, or under
/// `opts.disjoint_lineages` on more than 64 processors.
pub fn caft_on_subdag_in<'s>(
    inst: &Instance,
    spec: &SubDagSpec,
    opts: &CaftOptions,
    bl: &[f64],
    scratch: &'s mut CaftScratch,
) -> SubDagView<'s> {
    if opts.disjoint_lineages {
        // Same guard as `caft_with`: supports are 64-bit processor masks.
        assert!(
            inst.num_procs() <= 64,
            "hardened sub-DAG repair tracks supports as 64-bit masks (m ≤ 64)"
        );
    }
    let eps = opts.eps.min(spec.alive.len().saturating_sub(1));
    let mut unscheduled = std::mem::take(&mut scratch.unscheduled);
    unscheduled.clear();
    let mut ctx = Ctx::for_subdag(
        inst,
        eps,
        opts.model,
        opts.seed,
        spec,
        bl,
        std::mem::take(scratch),
    );
    let run_opts = CaftOptions { eps, ..*opts };
    let g = &inst.graph;
    // Frontier pseudo-replicas support themselves (used when the hardened
    // lineage mode is enabled for the repair run).
    for (t, echoes) in ctx.sched.replicas.iter().enumerate() {
        for r in echoes {
            ctx.place.supports[t].push(proc_bit(r.proc));
        }
    }
    while let Some(t) = ctx.pop_task() {
        // A remnant task is schedulable only if every non-remnant
        // predecessor left at least one surviving copy of its data.
        let feasible = g.in_edges(t).iter().all(|&e| {
            let pred = g.edge(e).src;
            spec.remnant[pred.index()] || !ctx.sched.replicas_of(pred).is_empty()
        });
        if !feasible {
            // Skipping without `finish_task` keeps every descendant
            // blocked, which is exactly the semantics we want: data gone,
            // subtree unrecoverable by rescheduling alone.
            unscheduled.push(t);
            continue;
        }
        schedule_task(&mut ctx, t, &run_opts);
        ctx.finish_task(t);
    }
    // Tasks never freed (descendants of unscheduled ones) are also gaps.
    for t in g.tasks() {
        if spec.remnant[t.index()]
            && ctx.sched.replicas_of(t).is_empty()
            && !unscheduled.contains(&t)
        {
            unscheduled.push(t);
        }
    }
    *scratch = ctx.into_scratch();
    scratch.unscheduled = unscheduled;
    SubDagView {
        schedule: &scratch.sched,
        unscheduled: &scratch.unscheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::GraphBuilder;
    use ft_model::{CommModel, ReplicaRef};
    use ft_platform::{ExecMatrix, Platform};

    /// chain a → b → c, plus d independent; 4 uniform processors.
    fn chain_instance() -> Instance {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(1.0);
        let t1 = b.add_task(1.0);
        let t2 = b.add_task(1.0);
        let _t3 = b.add_task(1.0);
        b.add_edge(t0, t1, 2.0).unwrap();
        b.add_edge(t1, t2, 2.0).unwrap();
        let g = b.build();
        Instance::new(
            g,
            Platform::uniform_clique(4, 1.0),
            ExecMatrix::from_fn(4, 4, |_, _| 1.0),
        )
    }

    fn source(task: u32, copy: usize, proc: u32, finish: f64) -> Replica {
        Replica {
            of: ReplicaRef::new(TaskId(task), copy),
            proc: ProcId(proc),
            start: finish,
            finish,
        }
    }

    #[test]
    fn reschedules_tail_on_survivors() {
        let inst = chain_instance();
        // t0 finished at 1.0 on P0 and P1; t1, t2, t3 still to run; P3 died.
        let spec = SubDagSpec {
            remnant: vec![false, true, true, true],
            sources: vec![
                vec![source(0, 0, 0, 1.0), source(0, 1, 1, 1.0)],
                vec![],
                vec![],
                vec![],
            ],
            alive: vec![ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert!(out.unscheduled.is_empty());
        for t in [1u32, 2, 3] {
            let reps = out.schedule.replicas_of(TaskId(t));
            assert_eq!(reps.len(), 2, "task {t} gets ε+1 replicas");
            for r in reps {
                assert!(spec.alive.contains(&r.proc), "placed on a survivor");
                assert!(r.start >= spec.release, "respects the release time");
            }
            // Space exclusion among the new replicas.
            assert_ne!(reps[0].proc, reps[1].proc);
        }
        // Frontier echo: t0 keeps its two pseudo-replicas.
        assert_eq!(out.schedule.replicas_of(TaskId(0)).len(), 2);
    }

    #[test]
    fn caps_replication_to_survivors() {
        let inst = chain_instance();
        let spec = SubDagSpec {
            remnant: vec![false, true, true, true],
            sources: vec![vec![source(0, 0, 0, 1.0)], vec![], vec![], vec![]],
            alive: vec![ProcId(0), ProcId(1)],
            release: 1.0,
        };
        let opts = CaftOptions {
            eps: 3,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert!(out.unscheduled.is_empty());
        assert_eq!(
            out.schedule.replicas_of(TaskId(1)).len(),
            2,
            "ε capped at 1"
        );
    }

    #[test]
    fn lost_frontier_data_marks_subtree_unschedulable() {
        let inst = chain_instance();
        // t0 executed but its only copy died with its processor: t1 and t2
        // are unrecoverable; independent t3 still reschedules.
        let spec = SubDagSpec {
            remnant: vec![false, true, true, true],
            sources: vec![vec![], vec![], vec![], vec![]],
            alive: vec![ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            ..Default::default()
        };
        let out = caft_on_subdag(&inst, &spec, &opts);
        assert_eq!(out.unscheduled, vec![TaskId(1), TaskId(2)]);
        assert!(out.schedule.replicas_of(TaskId(1)).is_empty());
        assert!(out.schedule.replicas_of(TaskId(2)).is_empty());
        assert_eq!(out.schedule.replicas_of(TaskId(3)).len(), 2);
    }

    #[test]
    fn deterministic() {
        let inst = chain_instance();
        let spec = SubDagSpec {
            remnant: vec![false, true, true, true],
            sources: vec![vec![source(0, 0, 0, 1.0)], vec![], vec![], vec![]],
            alive: vec![ProcId(0), ProcId(1), ProcId(2)],
            release: 2.0,
        };
        let opts = CaftOptions {
            eps: 1,
            model: CommModel::OnePort,
            seed: 9,
            ..Default::default()
        };
        let a = caft_on_subdag(&inst, &spec, &opts);
        let b = caft_on_subdag(&inst, &spec, &opts);
        assert_eq!(a.schedule.latency(), b.schedule.latency());
        assert_eq!(a.schedule.messages.len(), b.schedule.messages.len());
    }
}
