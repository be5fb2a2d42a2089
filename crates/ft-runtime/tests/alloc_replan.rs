//! Allocation pin for `Reschedule` replans (DESIGN.md "Replan cost").
//!
//! Every replan re-runs CAFT on the remnant sub-DAG. Its buffers — the
//! `CaftScratch` arena, the repair spec, the wiring index — are owned by
//! the engine's scratch arena across replans and runs, and the mean
//! bottom levels are computed once per `StaticPlan`. This binary pins
//! both halves: the warm CAFT repair core (set-up and placement loop)
//! performs **zero** heap allocations, and a warm `Executor` running
//! crash scenarios under `Reschedule` allocates far less per run than
//! the engine did before the arena existed.
//!
//! The counting allocator tallies process-wide, so this binary contains
//! exactly one `#[test]` — a second test thread would pollute the
//! counter (which is also why this is not part of `alloc_discipline`).
//! Counts are only meaningful in release builds; CI runs this binary
//! with `--release`.

use alloc_counter::{allocation_count, CountingAlloc};
use ft_algos::prio::mean_bottom_levels;
use ft_algos::{caft, caft_on_subdag, caft_on_subdag_in, CaftOptions, CaftScratch, CommModel};
use ft_algos::{SubDagSpec, SubDagView};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_graph::topological_order;
use ft_model::{Replica, ReplicaRef};
use ft_platform::{random_instance, Instance, PlatformParams, ProcId};
use ft_runtime::{EngineConfig, Executor, RecoveryPolicy};
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations per warm `Reschedule` run of the three scenarios
/// below, measured the same way (release build, warm `Executor`, 30
/// runs) on the engine before replans reused their buffers: every replan
/// then rebuilt its CAFT context, bottom levels, candidate buffers and
/// wiring tables from scratch.
const ALLOCS_PER_RUN_BEFORE_ARENA: f64 = 14_695.0;

/// A repair spec like the engine's: the first third of a topological
/// order has run, its outputs survive on two processors each, three
/// processors are gone.
fn repair_spec(inst: &Instance) -> SubDagSpec {
    let v = inst.num_tasks();
    let order = topological_order(&inst.graph);
    let mut spec = SubDagSpec {
        remnant: vec![true; v],
        sources: vec![Vec::new(); v],
        alive: (3..inst.num_procs()).map(ProcId::from_index).collect(),
        release: 10.0,
    };
    for (i, &t) in order[..v / 3].iter().enumerate() {
        spec.remnant[t.index()] = false;
        for copy in 0..2 {
            let at = 1.0 + i as f64 * 0.25 + copy as f64;
            spec.sources[t.index()].push(Replica {
                of: ReplicaRef::new(t, copy),
                proc: ProcId::from_index((i + 4 * copy) % inst.num_procs()),
                start: at,
                finish: at,
            });
        }
    }
    spec
}

fn view_json(view: SubDagView<'_>) -> String {
    serde_json::to_string(view.schedule).unwrap() + &format!("{:?}", view.unscheduled)
}

#[test]
fn reschedule_replans_reuse_their_arenas() {
    let mut rng = StdRng::seed_from_u64(12);
    let g = random_layered(&RandomDagParams::default().with_tasks(60), &mut rng);
    let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 12);

    // Part 1: the warm CAFT repair core. After one run through the
    // arena, set-up (context reset, frontier injection) and the whole
    // placement loop reuse its buffers: zero allocations, and the same
    // bytes as the allocating entry point.
    let spec = repair_spec(&inst);
    let bl = mean_bottom_levels(&inst);
    let opts = CaftOptions {
        eps: 1,
        model: CommModel::OnePort,
        seed: 7,
        ..CaftOptions::default()
    };
    let cold = caft_on_subdag(&inst, &spec, &opts);
    let mut scratch = CaftScratch::new();
    let first = view_json(caft_on_subdag_in(&inst, &spec, &opts, &bl, &mut scratch));
    assert_eq!(
        first,
        serde_json::to_string(&cold.schedule).unwrap() + &format!("{:?}", cold.unscheduled),
        "arena run must match the allocating entry point byte for byte"
    );
    assert!(
        cold.schedule.messages.len() > 10,
        "the repair must place real work"
    );
    let before = allocation_count();
    let mut placed = 0;
    for seed in 0..20 {
        let opts = CaftOptions { seed, ..opts };
        placed += caft_on_subdag_in(&inst, &spec, &opts, &bl, &mut scratch)
            .schedule
            .messages
            .len();
    }
    let during = allocation_count() - before;
    assert!(placed > 0);
    assert_eq!(
        during, 0,
        "20 warm CAFT repair runs allocated {during} times"
    );

    // Part 2: a warm Executor under Reschedule, on crash scenarios that
    // replan several times per run (permanent crashes, and transient
    // ones whose rejoins replan again).
    let l = sched.latency();
    let scenarios = [
        FaultScenario::timed(&[
            (ProcId(1), 0.2 * l),
            (ProcId(4), 0.4 * l),
            (ProcId(7), 0.6 * l),
        ]),
        FaultScenario::transient(&[
            (ProcId(2), 0.1 * l, 0.3 * l),
            (ProcId(5), 0.35 * l, 0.7 * l),
            (ProcId(8), 0.5 * l, f64::INFINITY),
        ]),
        FaultScenario::timed(&[
            (ProcId(0), 0.05 * l),
            (ProcId(3), 0.3 * l),
            (ProcId(6), 0.45 * l),
            (ProcId(9), 0.7 * l),
        ]),
    ];
    let cfg = EngineConfig::with_policy(RecoveryPolicy::Reschedule);
    let mut exec = Executor::new(&inst, &sched, &cfg);
    for s in &scenarios {
        exec.run(s);
    }
    let mut replans = 0;
    let before = allocation_count();
    for _ in 0..10 {
        for s in &scenarios {
            replans += exec.run(s).reschedules;
        }
    }
    let per_run = (allocation_count() - before) as f64 / 30.0;
    assert!(
        replans >= 30 * 3,
        "scenarios must replan several times per run ({replans} in 30 runs)"
    );
    assert!(
        per_run * 5.0 <= ALLOCS_PER_RUN_BEFORE_ARENA,
        "a warm Reschedule run allocated {per_run} times, more than a fifth \
         of the {ALLOCS_PER_RUN_BEFORE_ARENA} before replans reused their arena"
    );
}
