//! Allocation-discipline pin for the zero-alloc event core (DESIGN.md
//! §15): after warm-up, the steady-state hot loop — a warm
//! [`Executor`] running failure-free scenarios — performs **zero** heap
//! allocations per run, and batch chunks through a warm
//! [`ChunkedBatch`] allocate sublinearly in the number of runs (the
//! only allocations left are the batch executor's per-pass bookkeeping).
//!
//! The counting allocator tallies process-wide, so this binary contains
//! exactly one `#[test]` — a second test thread would pollute the
//! counter.

use alloc_counter::{allocation_count, CountingAlloc};
use ft_algos::{caft, CommModel};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_platform::{random_instance, PlatformParams};
use ft_runtime::{
    ChunkedBatch, Contention, EngineConfig, Executor, FailureKind, LifetimeDist, MonteCarloConfig,
    RecoveryPolicy,
};
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_hot_loop_does_not_allocate() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
    let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
    let sched = caft(&inst, 1, CommModel::OnePort, 5);
    let cfg = EngineConfig::with_policy(RecoveryPolicy::checkpoint(2.0, 0.05));

    // Part 1: a warm Executor on failure-free scenarios allocates
    // nothing at all — the scratch arena owns every buffer, the op
    // template is cloned into existing capacity, and the outcome's
    // vectors are recycled run-over-run.
    let none = FaultScenario::none();
    let mut exec = Executor::new(&inst, &sched, &cfg);
    for _ in 0..3 {
        assert!(exec.run(&none).completed(), "warm-up run must complete");
    }
    let before = allocation_count();
    for _ in 0..100 {
        exec.run(&none);
    }
    let during = allocation_count() - before;
    assert_eq!(
        during, 0,
        "steady-state Executor runs allocated {during} times over 100 runs"
    );

    // Part 1b: the contended engine obeys the same discipline. Charging
    // every static transfer through the link model (occupancy tables,
    // staged plans, route walks) reuses the `NetworkState` buffers the
    // scratch arena carries run-over-run — a warm contended Executor
    // allocates nothing either.
    let contended_cfg = EngineConfig {
        contention: Contention::FairShare,
        ..EngineConfig::with_policy(RecoveryPolicy::ReReplicate)
    };
    let mut exec = Executor::new(&inst, &sched, &contended_cfg);
    for _ in 0..3 {
        assert!(
            exec.run(&none).completed(),
            "contended warm-up must complete"
        );
    }
    let before = allocation_count();
    for _ in 0..100 {
        exec.run(&none);
    }
    let during = allocation_count() - before;
    assert_eq!(
        during, 0,
        "steady-state contended runs allocated {during} times over 100 runs"
    );

    // Part 2: batch chunks through warm pooled arenas. The engine side
    // is allocation-free per run, so chunk cost must not scale with run
    // count — only the batch executor's per-pass bookkeeping (thread
    // spawns and one accumulator per block, with the block count bounded
    // by the thread count) remains. A 10× larger chunk staying within a
    // small constant of the smaller one pins exactly that.
    let mc = MonteCarloConfig {
        runs: 4200,
        lifetime: LifetimeDist::Never,
        failure: FailureKind::Permanent,
        engine: cfg,
        seed: 9,
    };
    let mut chunked = ChunkedBatch::new(&inst, &sched, &mc, &mc.engine.policy);
    assert_eq!(chunked.run_chunk(1000), 1000, "warm-up chunk");
    let before = allocation_count();
    assert_eq!(chunked.run_chunk(200), 200);
    let small = allocation_count() - before;
    let before = allocation_count();
    assert_eq!(chunked.run_chunk(2000), 2000);
    let big = allocation_count() - before;
    assert!(
        big <= small + 64,
        "a 10x chunk allocated {big} vs {small} for the small chunk — \
         per-run allocations crept back into the hot loop"
    );
}
