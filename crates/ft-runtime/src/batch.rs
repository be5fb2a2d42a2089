//! Monte-Carlo driver: a streaming, mergeable aggregation of timed-failure
//! runs, executed by one barrier-free pass executor.
//!
//! [`simulate_many`] draws one timed [`FaultScenario`] per run from a
//! [`LifetimeDist`], executes each under the configured recovery policy,
//! and **streams** the outcomes into a [`BatchAccumulator`]. Every batch
//! form — [`ChunkedBatch`] chunks (hence [`simulate_many`]),
//! [`simulate_grid`] and [`simulate_grid_streamed`] — runs through one
//! executor (DESIGN.md §18). A *pass* cuts its runs into an ordered list
//! of **blocks**, each a `(cell, run range)`. Helper threads start once
//! per pass, inside a `rayon::scope`, and the calling thread works too:
//! every worker holds one warm arena from the [`ScratchPool`] for the
//! whole pass, pulls the next block from an atomic cursor and records it
//! into its own block accumulator. The calling thread merges finished
//! blocks **in block order** into each cell's prefix accumulator and
//! hands that prefix to a hook at every block end; the hook may stop the
//! pass. Memory is O(blocks in flight), not O(runs) — a 10⁶-run batch
//! holds a handful of ~4 KB accumulators instead of 10⁶ [`RunOutcome`]s
//! (hundreds of MB at paper scale).
//!
//! Two properties are pinned by `tests/timed_model.rs`:
//!
//! * run `i`'s scenario depends only on `(seed, i)` (SplitMix-mixed), so
//!   the batch is reproducible run-for-run;
//! * the accumulator's floating-point sums are kept in an **exact**
//!   fixed-point form ([`ExactSum`]), so merging is associative *to the
//!   bit*: the [`BatchSummary`] is byte-identical regardless of thread
//!   count, block boundaries or merge tree — and identical to feeding the
//!   collected outcomes through one accumulator sequentially (the old
//!   collect-then-summarize path).
//!
//! # Example
//!
//! ```
//! use ft_runtime::{
//!     simulate_many, EngineConfig, FailureKind, LifetimeDist, MonteCarloConfig, RecoveryPolicy,
//! };
//! use ft_algos::{caft, CommModel};
//! use ft_graph::gen::{random_layered, RandomDagParams};
//! use ft_platform::{random_instance, PlatformParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
//! let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
//! let sched = caft(&inst, 1, CommModel::OnePort, 5);
//!
//! let cfg = MonteCarloConfig {
//!     runs: 100,
//!     lifetime: LifetimeDist::Exponential { mean: 4.0 * sched.latency() },
//!     failure: FailureKind::Permanent,
//!     engine: EngineConfig::with_policy(RecoveryPolicy::checkpoint(2.0, 0.05)),
//!     seed: 9,
//! };
//! let summary = simulate_many(&inst, &sched, &cfg);
//! assert_eq!(summary.runs, 100);
//! // Same configuration ⇒ byte-identical summary.
//! assert_eq!(
//!     summary.one_line(),
//!     simulate_many(&inst, &sched, &cfg).one_line(),
//! );
//! ```

use crate::engine::run_into;
use crate::lifetime::{draw_scenario_with, FailureKind, LifetimeDist};
use crate::metrics::{BatchSummary, MetricSet, RunOutcome};
use crate::policy::{EngineConfig, Policy, RecoveryPolicy};
use crate::scratch::{EngineScratch, ScratchPool, StaticPlan};
use ft_model::FtSchedule;
use ft_platform::Instance;
use ft_sim::FaultScenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Configuration of a Monte-Carlo batch.
///
/// This is the **legacy positional surface**, kept as a thin layer under
/// [`Simulation::monte_carlo`](crate::Simulation::monte_carlo): the
/// builder collapses the historical `engine.seed` / `seed` duplication
/// into its single seed knob, while this struct still exposes both fields
/// so pre-builder experiments replay byte-for-byte.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloConfig {
    /// Number of independent runs.
    pub runs: usize,
    /// Lifetime distribution the per-processor crash times are drawn from.
    pub lifetime: LifetimeDist,
    /// Whether drawn failures are permanent (the paper's fail-stop model
    /// and the historical batch behavior) or transient with a repair
    /// model (see [`FailureKind`]).
    pub failure: FailureKind,
    /// Engine configuration (recovery policy, detection model, seed).
    pub engine: EngineConfig,
    /// Base seed of the scenario stream; run `i` uses a generator seeded
    /// from `(seed, i)`, so the batch is reproducible and
    /// order-independent.
    pub seed: u64,
}

impl MonteCarloConfig {
    /// The scenario of run `i` (exposed so callers can replay a run of
    /// interest in isolation): a SplitMix-style mix of `(seed, i)` keeps
    /// per-run streams decorrelated.
    pub fn scenario_of_run(&self, m: usize, i: usize) -> FaultScenario {
        let mixed = self
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut rng = StdRng::seed_from_u64(mixed);
        draw_scenario_with(m, &self.lifetime, &self.failure, &mut rng)
    }
}

/// Runs `cfg.runs` independent timed-failure simulations of the schedule
/// in parallel and aggregates them deterministically in O(1) memory per
/// worker: the same configuration always produces the same
/// [`BatchSummary`], regardless of thread count (see the module docs for
/// why the merge is bit-exact). A custom [`Policy`] runs through
/// [`ChunkedBatch`] (or [`Simulation::policy_impl`]), the same loop.
///
/// [`Simulation::policy_impl`]: crate::Simulation::policy_impl
pub fn simulate_many(inst: &Instance, sched: &FtSchedule, cfg: &MonteCarloConfig) -> BatchSummary {
    ChunkedBatch::new(inst, sched, cfg, &cfg.engine.policy).finish()
}

/// Blocks per thread a pass aims for where no observed boundary forces
/// finer cuts: enough that pulling evens out uneven run costs, few
/// enough that the block count of a chunk stays bounded by the thread
/// count.
const BLOCKS_PER_THREAD: usize = 4;

/// One cell of a pass: the batch its runs are drawn from, the policy
/// they run under and that policy's plan.
struct PassCell<'a> {
    cfg: &'a MonteCarloConfig,
    policy: &'a dyn Policy,
    plan: &'a StaticPlan,
}

/// The unit a worker pulls: runs `runs` of cell `cell`.
struct Block {
    cell: usize,
    runs: Range<usize>,
}

/// Cuts `spans` (`(cell, runs)` pairs, in pass order) into blocks. No
/// block crosses a multiple of `every` (when `every > 0`), and blocks are
/// about `total / (threads × BLOCKS_PER_THREAD)` runs long, so a pass
/// with few boundaries still gives every thread work.
fn blocks_of(spans: &[(usize, Range<usize>)], every: usize) -> Vec<Block> {
    let total: usize = spans.iter().map(|(_, runs)| runs.len()).sum();
    let target = total
        .div_ceil(rayon::current_num_threads() * BLOCKS_PER_THREAD)
        .max(1);
    let mut blocks = Vec::new();
    for (cell, runs) in spans {
        let mut start = runs.start;
        while start < runs.end {
            let end = match every {
                0 => runs.end,
                _ => runs.end.min((start / every + 1).saturating_mul(every)),
            };
            let (len, pieces) = (end - start, (end - start).div_ceil(target));
            blocks.extend((0..pieces).map(|k| Block {
                cell: *cell,
                runs: start + len * k / pieces..start + len * (k + 1) / pieces,
            }));
            start = end;
        }
    }
    blocks
}

/// What a pass does at each block end, with the block and its cell's
/// prefix accumulator: continue, or stop the pass.
type Hook<'h> = dyn FnMut(&Block, &BatchAccumulator) -> ControlFlow<()> + Send + 'h;

/// The state the workers of one pass share.
struct Pass<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cells: &'a [PassCell<'a>],
    blocks: &'a [Block],
    pool: &'a ScratchPool,
    /// The next block no worker has claimed.
    next: AtomicUsize,
    /// Set when the hook stops the pass or a worker panics: no further
    /// block is claimed.
    stop: AtomicBool,
    /// Finished block accumulators, by block index, until merged.
    finished: Mutex<Vec<Option<Box<BatchAccumulator>>>>,
    /// Signalled when a block finishes or `stop` is set.
    progress: Condvar,
}

/// Sets `stop` and wakes the merging thread when a worker unwinds, so no
/// thread waits for a block the panicking worker will never finish.
struct StopOnPanic<'p, 'a>(&'p Pass<'a>);

impl Drop for StopOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop.store(true, Ordering::SeqCst);
            // Taking the lock orders this store before the merging
            // thread's next check of `stop`; a poisoned lock is held too.
            let _held = self.0.finished.lock();
            self.0.progress.notify_all();
        }
    }
}

impl Pass<'_> {
    fn finished(&self) -> MutexGuard<'_, Vec<Option<Box<BatchAccumulator>>>> {
        // Nothing panics while holding the lock.
        self.finished
            .lock()
            .expect("batch pass: finished-block lock poisoned")
    }

    fn claim(&self) -> Option<usize> {
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        let b = self.next.fetch_add(1, Ordering::SeqCst);
        (b < self.blocks.len()).then_some(b)
    }

    /// Claims and runs one block through the worker's arena (taken from
    /// the pool at its first block) and files its accumulator. Returns
    /// whether a block was left to claim.
    fn work_one(&self, arena: &mut Option<Box<EngineScratch>>) -> bool {
        let Some(b) = self.claim() else {
            return false;
        };
        let block = &self.blocks[b];
        let cell = &self.cells[block.cell];
        let scratch = arena.get_or_insert_with(|| self.pool.take());
        let m = self.inst.num_procs();
        let mut acc = BatchAccumulator::new(self.sched.latency());
        for i in block.runs.clone() {
            let scenario = cell.cfg.scenario_of_run(m, i);
            run_into(
                self.inst,
                self.sched,
                &scenario,
                &cell.cfg.engine,
                cell.policy,
                cell.plan,
                scratch,
                None,
                None,
            );
            acc.record(scenario.earliest_crash(), &scratch.outcome);
        }
        self.finished()[b] = Some(Box::new(acc));
        self.progress.notify_all();
        true
    }

    /// A helper's whole share of the pass: blocks until none is left.
    fn help(&self) {
        let _guard = StopOnPanic(self);
        let mut arena = None;
        while self.work_one(&mut arena) {}
        if let Some(scratch) = arena {
            self.pool.put(scratch);
        }
    }

    /// The calling thread's share: merges finished blocks in order and
    /// runs the hook, works while the next block in order is unfinished,
    /// and waits only for a block some running worker holds.
    fn drive(&self, accs: &mut [BatchAccumulator], hook: &mut Hook<'_>) -> ControlFlow<()> {
        let _guard = StopOnPanic(self);
        let mut arena = None;
        let mut flow = ControlFlow::Continue(());
        for (b, block) in self.blocks.iter().enumerate() {
            let acc = loop {
                let mut finished = self.finished();
                if let Some(acc) = finished[b].take() {
                    break Some(acc);
                }
                if self.stop.load(Ordering::SeqCst) {
                    break None; // a worker panicked; the scope re-raises it
                }
                if self.next.load(Ordering::SeqCst) < self.blocks.len() {
                    drop(finished);
                    self.work_one(&mut arena);
                } else {
                    drop(
                        self.progress
                            .wait(finished)
                            .expect("batch pass: finished-block lock poisoned"),
                    );
                }
            };
            let Some(acc) = acc else { break };
            accs[block.cell].merge_in(*acc);
            flow = hook(block, &accs[block.cell]);
            if flow.is_break() {
                self.stop.store(true, Ordering::SeqCst);
                break;
            }
        }
        if let Some(scratch) = arena {
            self.pool.put(scratch);
        }
        flow
    }
}

/// Runs `blocks` of `cells` — the one executor under every batch form.
/// Each block's runs are merged into `accs[block.cell]`, in block order,
/// and `hook` sees the prefix after each block. Returns `Break` when the
/// hook stopped the pass; every block still running has ended by then.
/// A panic in a run ends the pass with that panic's payload, after every
/// other worker has finished its block.
fn run_pass(
    inst: &Instance,
    sched: &FtSchedule,
    cells: &[PassCell<'_>],
    blocks: &[Block],
    pool: &ScratchPool,
    accs: &mut [BatchAccumulator],
    hook: &mut Hook<'_>,
) -> ControlFlow<()> {
    let pass = Pass {
        inst,
        sched,
        cells,
        blocks,
        pool,
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        finished: Mutex::new(blocks.iter().map(|_| None).collect()),
        progress: Condvar::new(),
    };
    let workers = rayon::current_num_threads().min(blocks.len());
    if workers <= 1 {
        return pass.drive(accs, hook);
    }
    rayon::scope(|s| {
        for _ in 1..workers {
            s.spawn(|_| pass.help());
        }
        pass.drive(accs, hook)
    })
}

/// Runs a whole parameter grid — one [`MonteCarloConfig`] per cell, all
/// over the same `(inst, sched)` — as one pass: every cell's runs are
/// pulled by the same workers, with one [`StaticPlan`] per distinct
/// recovery policy and one warm arena per worker for the whole grid.
///
/// Each summary is **byte-identical** to `simulate_many(inst, sched,
/// &cells[i])` — sharing amortizes setup and balances load across cells,
/// it never couples them (pinned by this module's tests and the
/// `ft-serve` identity tests that run through this path).
pub fn simulate_grid(
    inst: &Instance,
    sched: &FtSchedule,
    cells: &[MonteCarloConfig],
) -> Vec<BatchSummary> {
    simulate_grid_streamed(inst, sched, cells, 0, |_| ControlFlow::Continue(()))
        .expect("a hook that never stops lets the pass finish")
}

/// Where a [`simulate_grid_streamed`] pass stands at an observed
/// boundary of one cell.
pub struct GridProgress<'p> {
    /// The cell's index in the grid.
    pub cell: usize,
    /// Runs of the cell executed so far (runs `0..completed_runs`).
    pub completed_runs: usize,
    /// The cell's run count.
    pub total_runs: usize,
    policy: RecoveryPolicy,
    acc: &'p BatchAccumulator,
}

impl GridProgress<'_> {
    /// The cell's exact summary over its completed runs — the same bytes
    /// as [`ChunkedBatch::snapshot`] after those runs.
    pub fn snapshot(&self) -> BatchSummary {
        self.acc.clone().finish(self.policy)
    }
}

/// [`simulate_grid`] with a hook at observed boundaries: after runs
/// `0..k` of a cell, for every `k` that is a multiple of `every` (when
/// `every > 0`) and at the cell's last run. Cells are observed in grid
/// order and each cell's boundaries in run order, whatever the thread
/// count. The hook may stop the pass, in which case this returns `None`
/// once every block still running has ended; otherwise it returns the
/// summaries of [`simulate_grid`].
pub fn simulate_grid_streamed(
    inst: &Instance,
    sched: &FtSchedule,
    cells: &[MonteCarloConfig],
    every: usize,
    mut hook: impl FnMut(&GridProgress<'_>) -> ControlFlow<()> + Send,
) -> Option<Vec<BatchSummary>> {
    let mut plans: Vec<(RecoveryPolicy, StaticPlan)> = Vec::new();
    let mut plan_of = Vec::with_capacity(cells.len());
    for cfg in cells {
        let policy = cfg.engine.policy;
        plan_of.push(match plans.iter().position(|(p, _)| *p == policy) {
            Some(i) => i,
            None => {
                plans.push((policy, StaticPlan::new(inst, sched, &policy)));
                plans.len() - 1
            }
        });
    }
    let pass_cells: Vec<PassCell<'_>> = cells
        .iter()
        .zip(plan_of)
        .map(|(cfg, i)| PassCell {
            cfg,
            policy: &cfg.engine.policy,
            plan: &plans[i].1,
        })
        .collect();
    let accs = grid_pass(
        inst,
        sched,
        &pass_cells,
        every,
        &ScratchPool::new(),
        &mut hook,
    )?;
    Some(
        accs.into_iter()
            .zip(cells)
            .map(|(acc, cfg)| acc.finish(cfg.engine.policy))
            .collect(),
    )
}

/// The pass behind [`simulate_grid_streamed`], over cells that carry
/// their own policy and plan: one accumulator per cell, or `None` when
/// the hook stopped the pass.
fn grid_pass(
    inst: &Instance,
    sched: &FtSchedule,
    cells: &[PassCell<'_>],
    every: usize,
    pool: &ScratchPool,
    hook: &mut (dyn FnMut(&GridProgress<'_>) -> ControlFlow<()> + Send),
) -> Option<Vec<BatchAccumulator>> {
    let spans: Vec<_> = (0..cells.len())
        .map(|c| (c, 0..cells[c].cfg.runs))
        .collect();
    let mut accs: Vec<_> = cells
        .iter()
        .map(|_| BatchAccumulator::new(sched.latency()))
        .collect();
    let flow = run_pass(
        inst,
        sched,
        cells,
        &blocks_of(&spans, every),
        pool,
        &mut accs,
        &mut |block, acc| {
            let cfg = cells[block.cell].cfg;
            let done = block.runs.end;
            if done != cfg.runs && (every == 0 || done % every != 0) {
                return ControlFlow::Continue(());
            }
            hook(&GridProgress {
                cell: block.cell,
                completed_runs: done,
                total_runs: cfg.runs,
                policy: cfg.engine.policy,
                acc,
            })
        },
    );
    flow.is_continue().then_some(accs)
}

/// A resumable, chunked Monte-Carlo batch under any [`Policy`] — the one
/// batch loop behind [`simulate_many`] and
/// [`Simulation::monte_carlo`](crate::Simulation::monte_carlo). The
/// batch's runs are executed in caller-paced chunks, each chunk one pass
/// of the batch executor (see the module docs), and folded into one held
/// [`BatchAccumulator`]. Between chunks the caller can take a
/// [`snapshot`](ChunkedBatch::snapshot) — a well-defined partial
/// [`BatchSummary`] over the runs executed so far — or abandon the batch
/// entirely (cancellation).
///
/// Because run `i`'s scenario depends only on `(cfg.seed, i)` and the
/// accumulator merge is bit-exact (see the module docs), the final
/// summary is **byte-identical** regardless of how the runs were
/// chunked — the property `ft-serve`
/// leans on to stream result deltas without changing the science.
///
/// # Example
///
/// ```
/// use ft_runtime::{
///     simulate_many, ChunkedBatch, EngineConfig, FailureKind, LifetimeDist, MonteCarloConfig,
///     RecoveryPolicy,
/// };
/// use ft_algos::{caft, CommModel};
/// use ft_graph::gen::{random_layered, RandomDagParams};
/// use ft_platform::{random_instance, PlatformParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
/// let inst = random_instance(g, &PlatformParams::default(), 1.0, &mut rng);
/// let sched = caft(&inst, 1, CommModel::OnePort, 5);
/// let cfg = MonteCarloConfig {
///     runs: 60,
///     lifetime: LifetimeDist::Exponential { mean: 2.0 * sched.latency() },
///     failure: FailureKind::Permanent,
///     engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
///     seed: 9,
/// };
/// let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
/// while chunked.run_chunk(17) > 0 {
///     let partial = chunked.snapshot();
///     assert_eq!(partial.runs, chunked.completed_runs());
/// }
/// // Any chunking yields the same bytes as the one-shot batch.
/// let direct = simulate_many(&inst, &sched, &cfg);
/// assert_eq!(
///     serde_json::to_string(&chunked.finish()).unwrap(),
///     serde_json::to_string(&direct).unwrap(),
/// );
/// ```
pub struct ChunkedBatch<'a> {
    inst: &'a Instance,
    sched: &'a FtSchedule,
    cfg: &'a MonteCarloConfig,
    policy: &'a dyn Policy,
    plan: StaticPlan,
    pool: Arc<ScratchPool>,
    acc: BatchAccumulator,
    next_run: usize,
}

impl<'a> ChunkedBatch<'a> {
    /// Opens the batch described by `cfg` for chunked execution under an
    /// explicit [`Policy`] (pass `&cfg.engine.policy` for the built-in
    /// path, exactly as [`simulate_many`] does). No runs are executed
    /// yet.
    pub fn new(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        cfg: &'a MonteCarloConfig,
        policy: &'a dyn Policy,
    ) -> Self {
        Self::with_pool(inst, sched, cfg, policy, Arc::new(ScratchPool::new()))
    }

    /// [`ChunkedBatch::new`] over a caller-shared [`ScratchPool`]: arenas
    /// warmed by this batch's chunks are drawn from — and returned to —
    /// `pool`, so consecutive batches (the cells of a multi-cell job)
    /// reuse each other's warm-up instead of re-allocating per cell.
    /// Sharing a pool never changes a summary byte: arenas carry no
    /// run state between takes, only capacity.
    pub fn with_pool(
        inst: &'a Instance,
        sched: &'a FtSchedule,
        cfg: &'a MonteCarloConfig,
        policy: &'a dyn Policy,
        pool: Arc<ScratchPool>,
    ) -> Self {
        ChunkedBatch {
            inst,
            sched,
            cfg,
            policy,
            plan: StaticPlan::new(inst, sched, policy),
            pool,
            acc: BatchAccumulator::new(sched.latency()),
            next_run: 0,
        }
    }

    /// Runs executed so far.
    pub fn completed_runs(&self) -> usize {
        self.next_run
    }

    /// Runs not yet executed.
    pub fn remaining_runs(&self) -> usize {
        self.cfg.runs - self.next_run
    }

    /// Whether every run of the batch has been executed.
    pub fn is_done(&self) -> bool {
        self.next_run >= self.cfg.runs
    }

    /// Executes the next (up to) `n` runs of the batch as one pass of the
    /// batch executor and folds them into the held accumulator. Returns
    /// the number of runs actually executed (less than `n` only at the
    /// tail; `0` once the batch is done).
    pub fn run_chunk(&mut self, n: usize) -> usize {
        let start = self.next_run;
        let end = self.cfg.runs.min(start.saturating_add(n));
        if start >= end {
            return 0;
        }
        let cell = PassCell {
            cfg: self.cfg,
            policy: self.policy,
            plan: &self.plan,
        };
        let _ = run_pass(
            self.inst,
            self.sched,
            &[cell],
            &blocks_of(&[(0, start..end)], 0),
            &self.pool,
            std::slice::from_mut(&mut self.acc),
            &mut |_, _| ControlFlow::Continue(()),
        );
        self.next_run = end;
        end - start
    }

    /// A partial [`BatchSummary`] over the runs executed so far — the
    /// exact summary of a batch of
    /// [`completed_runs`](ChunkedBatch::completed_runs) runs. Mergeable
    /// downstream: successive snapshots supersede each other (each covers
    /// all runs so far, not a delta).
    pub fn snapshot(&self) -> BatchSummary {
        self.acc
            .clone()
            .finish_labeled(self.cfg.engine.policy, self.policy.label())
    }

    /// Executes any outstanding runs, then closes the batch. The result
    /// is the same bytes for the same configuration, regardless of prior
    /// chunking.
    pub fn finish(mut self) -> BatchSummary {
        while self.run_chunk(usize::MAX) > 0 {}
        self.acc
            .finish_labeled(self.cfg.engine.policy, self.policy.label())
    }
}

impl std::fmt::Debug for ChunkedBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedBatch")
            .field("next_run", &self.next_run)
            .field("total_runs", &self.cfg.runs)
            .finish_non_exhaustive()
    }
}

/// Streaming aggregate of run outcomes: constant-size, mergeable, and
/// bit-exact under any merge tree.
///
/// Feed outcomes with [`record`](BatchAccumulator::record) (in any
/// grouping), combine partial accumulators with
/// [`merge`](BatchAccumulator::merge), and close with
/// [`finish`](BatchAccumulator::finish). All floating-point totals are
/// held as [`ExactSum`]s, so the final [`BatchSummary`] does not depend
/// on how the runs were partitioned — the property that lets
/// [`simulate_many`] parallelize without giving up byte-identical output.
#[derive(Clone, Debug)]
pub struct BatchAccumulator {
    /// The schedule's nominal latency (slowdown denominator).
    nominal: f64,
    disturbed: usize,
    failures: usize,
    tasks_recovered: usize,
    checkpoint_overhead: ExactSum,
    /// Also the source of the run, completion, latency, slowdown, rejoin,
    /// recovery and work-saved fields of the summary.
    metrics: MetricSet,
}

impl BatchAccumulator {
    /// An empty accumulator for a schedule of the given nominal (0-crash)
    /// latency.
    pub fn new(nominal: f64) -> Self {
        BatchAccumulator {
            nominal,
            disturbed: 0,
            failures: 0,
            tasks_recovered: 0,
            checkpoint_overhead: ExactSum::new(),
            metrics: MetricSet::for_nominal(nominal),
        }
    }

    /// Folds one run into the aggregate. `earliest_crash` is the run's
    /// earliest scenario crash time (`None` = failure-free), used for the
    /// `disturbed` count.
    pub fn record(&mut self, earliest_crash: Option<f64>, out: &RunOutcome) {
        self.failures += out.num_failures;
        self.tasks_recovered += out.tasks_recovered();
        self.checkpoint_overhead.add(out.checkpoint_overhead);
        if earliest_crash.is_some_and(|t| t < self.nominal) {
            self.disturbed += 1;
        }
        self.metrics.record(self.nominal, out);
    }

    /// Combines two partial aggregates. Associative and commutative to
    /// the bit (integer counters, max, and exact sums), so any merge tree
    /// over the same runs produces the same final summary.
    pub fn merge(mut self, other: Self) -> Self {
        self.merge_in(other);
        self
    }

    /// [`merge`](BatchAccumulator::merge) in place.
    fn merge_in(&mut self, other: Self) {
        let (runs, other_runs) = (self.metrics.runs(), other.metrics.runs());
        debug_assert!(
            other_runs == 0 || runs == 0 || self.nominal == other.nominal,
            "merging accumulators of different schedules"
        );
        if runs == 0 {
            // Adopt the non-empty side's shape (a pass's prefix
            // accumulators are built with the same nominal, but a generic
            // caller may merge into a default-shaped empty accumulator).
            self.nominal = other.nominal;
            self.metrics = other.metrics; // adopt the bucket shape
        } else if other_runs > 0 {
            self.metrics.merge(&other.metrics);
        }
        self.disturbed += other.disturbed;
        self.failures += other.failures;
        self.tasks_recovered += other.tasks_recovered;
        self.checkpoint_overhead.merge(&other.checkpoint_overhead);
    }

    /// Closes the aggregate into a [`BatchSummary`] for runs executed
    /// under the built-in `policy`.
    pub fn finish(self, policy: RecoveryPolicy) -> BatchSummary {
        let label = policy.label();
        self.finish_labeled(policy, label)
    }

    /// [`finish`](BatchAccumulator::finish) with an explicit label for
    /// the policy that actually ran — the custom-[`Policy`] batch path,
    /// where `policy` is only the serializable placeholder from the
    /// engine config.
    pub fn finish_labeled(self, policy: RecoveryPolicy, policy_label: String) -> BatchSummary {
        let m = &self.metrics;
        let runs = m.runs() as usize;
        let completed = m.latency.count as usize;
        let denom = completed.max(1) as f64;
        BatchSummary {
            policy,
            policy_label,
            runs,
            completed,
            disturbed: self.disturbed,
            rejoins: m.rejoins as usize,
            mean_latency: m.latency.sum.value() / denom,
            // The histogram's max is NaN until a run completes.
            max_latency: if completed == 0 { 0.0 } else { m.latency.max },
            mean_slowdown: m.slowdown.sum.value() / denom,
            mean_failures: self.failures as f64 / (runs.max(1)) as f64,
            tasks_recovered: self.tasks_recovered,
            recovery_replicas: m.spawned_replicas as usize,
            recovery_messages: m.recovery_messages as usize,
            checkpoint_overhead: self.checkpoint_overhead.value(),
            work_saved: m.work_saved.sum.value(),
            metrics: self.metrics,
        }
    }
}

/// Span of the fixed-point window in 32-bit limbs: bit `0` of limb `0` is
/// 2⁻¹⁰⁷⁴ (the smallest subnormal), the top limb covers past 2¹⁰²⁴, so
/// every finite non-negative `f64` lands fully inside the window.
const LIMBS: usize = (1074 + 1024 + 63) / 32 + 2;

/// How many [`ExactSum::add`]s may elapse between carry normalizations:
/// each add deposits < 2³³ per limb, so 2²⁹ adds stay clear of `i64`
/// overflow with a wide margin.
const NORMALIZE_EVERY: u32 = 1 << 29;

/// An exact accumulator of non-negative `f64`s: a 2098-bit fixed-point
/// integer stored as 32-bit limbs in `i64` slots (carries are absorbed
/// lazily). Integer addition is associative and commutative, so the
/// represented value — and therefore [`value`](ExactSum::value) — is
/// independent of insertion order *and* of how partial sums are
/// [`merge`](ExactSum::merge)d, which is what makes
/// [`BatchAccumulator::merge`] bit-exact.
///
/// # Example
///
/// ```
/// use ft_runtime::batch::ExactSum;
///
/// // 0.1 ten times: naive f64 summation gives 0.9999999999999999.
/// let mut s = ExactSum::new();
/// for _ in 0..10 {
///     s.add(0.1);
/// }
/// // The exact sum of ten copies of the double nearest 0.1 rounds to 1.0.
/// assert_eq!(s.value(), 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct ExactSum {
    limbs: [i64; LIMBS],
    pending: u32,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// The zero sum.
    pub fn new() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            pending: 0,
        }
    }

    /// Adds a finite non-negative `f64` exactly.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite input (the engine's aggregated
    /// metrics — latencies, slowdowns, overheads — are all finite and
    /// non-negative by construction).
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite() && x >= 0.0, "ExactSum::add({x})");
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let mantissa = if raw_exp == 0 {
            bits & ((1 << 52) - 1) // subnormal: no implicit leading 1
        } else {
            (bits & ((1 << 52) - 1)) | (1 << 52)
        };
        // Offset of the mantissa's bit 0 from 2^-1074.
        let pos = if raw_exp == 0 { 0 } else { raw_exp - 1 } as u64;
        let (limb, shift) = ((pos / 32) as usize, pos % 32);
        let wide = (mantissa as u128) << shift; // ≤ 53 + 31 = 84 bits
        self.limbs[limb] += (wide & 0xFFFF_FFFF) as i64;
        self.limbs[limb + 1] += ((wide >> 32) & 0xFFFF_FFFF) as i64;
        self.limbs[limb + 2] += ((wide >> 64) & 0xFFFF_FFFF) as i64;
        self.pending += 1;
        if self.pending >= NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Adds another exact sum (exactly).
    pub fn merge(&mut self, other: &ExactSum) {
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
        // Both sides carry < 2^33 per limb pre-normalization headroom;
        // normalizing after every merge keeps the invariant simple.
        self.normalize();
    }

    /// Propagates carries so every limb is a canonical 32-bit digit.
    fn normalize(&mut self) {
        let mut carry = 0i64;
        for l in &mut self.limbs {
            let v = *l + carry;
            *l = v & 0xFFFF_FFFF;
            carry = v >> 32;
        }
        debug_assert_eq!(carry, 0, "ExactSum window overflow");
        self.pending = 0;
    }

    /// Rounds the exact value to the nearest `f64` representable from the
    /// top 96 significant bits (ample for a 53-bit mantissa; deterministic
    /// because the canonical limb form is unique).
    pub fn value(&self) -> f64 {
        let mut canon = self.clone();
        canon.normalize();
        let Some(top) = canon.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let lo = top.saturating_sub(2);
        let mut word: u128 = 0;
        for i in (lo..=top).rev() {
            word = (word << 32) | canon.limbs[i] as u128;
        }
        // Sticky bit: any nonzero limb below the 96-bit window nudges the
        // value off an exact halfway case before the final rounding.
        if canon.limbs[..lo].iter().any(|&l| l != 0) {
            word |= 1;
        }
        (word as f64) * exp2i(32 * lo as i32 - 1074)
    }
}

/// An `ExactSum` serializes as its rounded [`value`](ExactSum::value) —
/// the f64 consumers care about. This is intentionally lossy (the limb
/// form is an implementation detail): a deserialized sum re-seeds a fresh
/// accumulator with that one rounded value, which round-trips the
/// serialized form exactly (`to_value ∘ from_value ∘ to_value` is
/// `to_value`).
impl serde::Serialize for ExactSum {
    fn to_value(&self) -> serde::Value {
        serde::Value::Float(self.value())
    }
}

impl serde::Deserialize for ExactSum {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let x = <f64 as serde::Deserialize>::from_value(v)?;
        if !x.is_finite() || x < 0.0 {
            return Err(serde::Error::msg(format!(
                "ExactSum must be a finite non-negative number, got {x}"
            )));
        }
        let mut sum = ExactSum::new();
        sum.add(x);
        Ok(sum)
    }
}

/// `2^e` for the limb scale (exact: splits the exponent so each factor is
/// a normal power of two).
fn exp2i(e: i32) -> f64 {
    let half = e / 2;
    f64::powi(2.0, half) * f64::powi(2.0, e - half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::DetectionModel;
    use crate::Executor;
    use ft_algos::{caft, CommModel};
    use ft_graph::gen::{random_layered, RandomDagParams};
    use ft_platform::{random_instance, PlatformParams};

    fn setup() -> (Instance, FtSchedule) {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_layered(&RandomDagParams::default().with_tasks(25), &mut rng);
        let inst = random_instance(g, &PlatformParams::default().with_procs(6), 1.0, &mut rng);
        let sched = caft(&inst, 1, CommModel::OnePort, 0);
        (inst, sched)
    }

    #[test]
    fn exact_sum_is_grouping_independent() {
        let values: Vec<f64> = (0..2000)
            .map(|i| ((i as f64) * 0.7618).sin().abs() * 1e3 + 1e-12)
            .collect();
        let mut seq = ExactSum::new();
        for &v in &values {
            seq.add(v);
        }
        // Adversarial grouping: tiny chunks merged in a skewed tree, in
        // reversed order.
        let mut chunks: Vec<ExactSum> = values
            .chunks(7)
            .map(|c| {
                let mut s = ExactSum::new();
                for &v in c {
                    s.add(v);
                }
                s
            })
            .collect();
        chunks.reverse();
        let mut merged = ExactSum::new();
        for c in &chunks {
            merged.merge(c);
        }
        assert_eq!(seq.value().to_bits(), merged.value().to_bits());
    }

    #[test]
    fn exact_sum_handles_extreme_scales() {
        let mut s = ExactSum::new();
        s.add(f64::MIN_POSITIVE / 4.0); // subnormal
        s.add(1e300);
        s.add(1e-300);
        s.add(0.0);
        assert_eq!(s.value(), 1e300);
        let mut t = ExactSum::new();
        t.add(1.0);
        for _ in 0..1000 {
            t.add(f64::EPSILON / 2.0); // each individually rounds away
        }
        assert!(t.value() > 1.0, "exact accumulation keeps the tail");
    }

    #[test]
    fn batch_is_deterministic() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 64,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 2.0,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 77,
        };
        let a = simulate_many(&inst, &sched, &cfg);
        let b = simulate_many(&inst, &sched, &cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.runs, 64);
    }

    #[test]
    fn streaming_matches_sequential_accumulation() {
        // The collect-then-summarize reference path, one run at a time
        // through a single accumulator, must reproduce the parallel
        // fold/reduce byte-for-byte (also pinned as a property in
        // tests/timed_model.rs).
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 100,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 13,
        };
        let streamed = simulate_many(&inst, &sched, &cfg);
        let m = inst.num_procs();
        let mut acc = BatchAccumulator::new(sched.latency());
        let mut exec = Executor::new(&inst, &sched, &cfg.engine);
        for i in 0..cfg.runs {
            let scenario = cfg.scenario_of_run(m, i);
            acc.record(scenario.earliest_crash(), exec.run(&scenario));
        }
        let sequential = acc.finish(cfg.engine.policy);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&sequential).unwrap()
        );
    }

    #[test]
    fn chunked_batch_matches_simulate_many_for_any_chunking() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 100,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 13,
        };
        let direct = serde_json::to_string(&simulate_many(&inst, &sched, &cfg)).unwrap();
        // Chunk sizes: single runs, irregular, one-shot, larger-than-batch.
        for &n in &[1usize, 7, 33, 100, 1000] {
            let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
            while chunked.run_chunk(n) > 0 {}
            assert!(chunked.is_done());
            assert_eq!(chunked.remaining_runs(), 0);
            assert_eq!(
                serde_json::to_string(&chunked.finish()).unwrap(),
                direct,
                "chunk size {n} changed the summary bytes"
            );
        }
    }

    #[test]
    fn chunked_batch_snapshot_is_the_prefix_batch() {
        // A snapshot after k runs must be byte-identical to a direct
        // simulate_many over a k-run batch of the same seed: prefixes of
        // the scenario stream are themselves well-formed batches.
        let (inst, sched) = setup();
        let mk = |runs| MonteCarloConfig {
            runs,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::Reschedule),
            seed: 99,
        };
        let cfg = mk(60);
        let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
        let mut done = 0;
        while !chunked.is_done() {
            done += chunked.run_chunk(23);
            assert_eq!(chunked.completed_runs(), done);
            let prefix_cfg = mk(done);
            assert_eq!(
                serde_json::to_string(&chunked.snapshot()).unwrap(),
                serde_json::to_string(&simulate_many(&inst, &sched, &prefix_cfg)).unwrap(),
                "snapshot after {done} runs diverged from the {done}-run batch"
            );
        }
    }

    #[test]
    fn chunked_batch_finish_runs_the_outstanding_tail() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 40,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 2.0,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
            seed: 5,
        };
        let mut chunked = ChunkedBatch::new(&inst, &sched, &cfg, &cfg.engine.policy);
        chunked.run_chunk(11); // leave a tail outstanding
        let finished = chunked.finish();
        assert_eq!(finished.runs, 40);
        assert_eq!(
            serde_json::to_string(&finished).unwrap(),
            serde_json::to_string(&simulate_many(&inst, &sched, &cfg)).unwrap()
        );
    }

    #[test]
    fn batch_metrics_are_consistent_with_the_headline_fields() {
        let (inst, sched) = setup();
        // A batch with some crashes, and one in which every processor
        // dies at once so that no run completes.
        for mean in [sched.latency(), 1e-9] {
            let cfg = MonteCarloConfig {
                runs: 64,
                lifetime: LifetimeDist::Exponential { mean },
                failure: FailureKind::Permanent,
                engine: EngineConfig::with_policy(RecoveryPolicy::ReReplicate),
                seed: 7,
            };
            let s = simulate_many(&inst, &sched, &cfg);
            let m = &s.metrics;
            assert_eq!(m.latency.count as usize, s.completed);
            assert_eq!(m.slowdown.count as usize, s.completed);
            assert_eq!(m.incomplete_runs as usize, s.runs - s.completed);
            assert_eq!(m.spawned_replicas as usize, s.recovery_replicas);
            assert_eq!(m.recovery_messages as usize, s.recovery_messages);
            assert_eq!(m.rejoins as usize, s.rejoins);
            // Histogram mean of latency = batch mean (same ExactSum machinery).
            if s.completed > 0 {
                assert!((m.latency.mean() - s.mean_latency).abs() < 1e-9);
                assert!((m.slowdown.mean() - s.mean_slowdown).abs() < 1e-12);
                assert_eq!(m.latency.max, s.max_latency);
            } else {
                // The empty histograms' NaN must not leak into the summary.
                let json = serde_json::to_string(&s).unwrap();
                for field in ["mean_latency", "max_latency", "mean_slowdown"] {
                    assert!(json.contains(&format!("\"{field}\":0,")), "{field}: {json}");
                }
            }
            assert!(m.detections > 0, "the batch should see some crashes");
            assert_eq!(s.completed == 0, mean < 1.0, "mean {mean}");
        }
    }

    #[test]
    fn never_failing_batch_is_all_nominal() {
        let (inst, sched) = setup();
        let cfg = MonteCarloConfig {
            runs: 16,
            lifetime: LifetimeDist::Never,
            failure: FailureKind::Permanent,
            engine: EngineConfig::with_policy(RecoveryPolicy::Reschedule),
            seed: 1,
        };
        let s = simulate_many(&inst, &sched, &cfg);
        assert_eq!(s.completed, 16);
        assert_eq!(s.disturbed, 0);
        assert!((s.mean_latency - sched.latency()).abs() < 1e-9);
        assert!((s.mean_slowdown - 1.0).abs() < 1e-12);
        assert_eq!(s.recovery_replicas, 0);
    }

    #[test]
    fn checkpoint_resume_batches_are_deterministic() {
        // Resume decisions depend on recorded partial progress — pin that
        // the whole (progress tracking + resume) pipeline is a pure
        // function of the batch seed, and that it actually resumes.
        let (inst, sched) = setup();
        let interval = inst.mean_task_cost() * 0.25;
        let cfg = MonteCarloConfig {
            runs: 128,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy: RecoveryPolicy::checkpoint(interval, 0.02),
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 23,
        };
        let a = simulate_many(&inst, &sched, &cfg);
        let b = simulate_many(&inst, &sched, &cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "checkpoint-resume batches must be seed-deterministic"
        );
        assert!(a.work_saved > 0.0, "some run must resume from a checkpoint");
        assert!(a.checkpoint_overhead > 0.0);
    }

    #[test]
    fn checkpoint_interval_infinity_matches_re_replicate_batches() {
        let (inst, sched) = setup();
        let mk = |policy| MonteCarloConfig {
            runs: 96,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * 1.5,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 29,
        };
        let ck = simulate_many(
            &inst,
            &sched,
            &mk(RecoveryPolicy::checkpoint(f64::INFINITY, 0.4)),
        );
        let rr = simulate_many(&inst, &sched, &mk(RecoveryPolicy::ReReplicate));
        assert_eq!(ck.completed, rr.completed);
        assert_eq!(ck.recovery_replicas, rr.recovery_replicas);
        assert_eq!(ck.recovery_messages, rr.recovery_messages);
        assert!((ck.mean_latency - rr.mean_latency).abs() < 1e-12);
        assert_eq!(ck.work_saved, 0.0);
        assert_eq!(ck.checkpoint_overhead, 0.0);
    }

    #[test]
    fn recovery_policies_dominate_absorb_on_completion() {
        let (inst, sched) = setup();
        let mk = |policy| MonteCarloConfig {
            runs: 200,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed: 11,
        };
        let absorb = simulate_many(&inst, &sched, &mk(RecoveryPolicy::Absorb));
        let rerep = simulate_many(&inst, &sched, &mk(RecoveryPolicy::ReReplicate));
        let resched = simulate_many(&inst, &sched, &mk(RecoveryPolicy::Reschedule));
        // Same seed ⇒ identical fault draws per run, so completion counts
        // are directly comparable.
        assert!(
            rerep.completed >= absorb.completed,
            "re-replicate {} < absorb {}",
            rerep.completed,
            absorb.completed
        );
        assert!(
            resched.completed >= absorb.completed,
            "reschedule {} < absorb {}",
            resched.completed,
            absorb.completed
        );
        assert!(absorb.disturbed > 0, "test should actually inject failures");
    }

    /// The grid entry point shares arenas and per-policy plans across
    /// cells; every cell summary must still be byte-identical to an
    /// independent `simulate_many` of that cell — including across
    /// policy changes mid-grid (plan cache) and repeated configurations
    /// (warm arenas carrying capacity from other cells).
    #[test]
    fn simulate_grid_matches_per_cell_simulate_many() {
        let (inst, sched) = setup();
        let cell = |policy, mean_factor: f64, seed| MonteCarloConfig {
            runs: 150,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency() * mean_factor,
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed,
        };
        let cells = vec![
            cell(RecoveryPolicy::ReReplicate, 2.0, 11),
            cell(RecoveryPolicy::Absorb, 1.0, 12),
            cell(RecoveryPolicy::ReReplicate, 0.5, 13),
            cell(RecoveryPolicy::checkpoint(2.0, 0.05), 1.5, 14),
            cell(RecoveryPolicy::Reschedule, 1.0, 15),
            cell(RecoveryPolicy::ReReplicate, 2.0, 11), // repeat of cell 0
        ];
        let grid = simulate_grid(&inst, &sched, &cells);
        assert_eq!(grid.len(), cells.len());
        for (i, (cfg, summary)) in cells.iter().zip(&grid).enumerate() {
            let direct = simulate_many(&inst, &sched, cfg);
            assert_eq!(
                serde_json::to_string(summary).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "cell {i} diverged from its standalone batch"
            );
        }
    }

    /// Re-replicates like the built-in, but panics at the first crash
    /// detection of one chosen run (matched by its detection instant).
    struct PanicsOnRun {
        run: usize,
        detected_at: f64,
    }

    impl Policy for PanicsOnRun {
        fn on_crash(
            &self,
            view: &crate::PolicyView<'_>,
            event: &crate::PolicyEvent,
            actions: &mut Vec<crate::RecoveryAction>,
        ) {
            if event.first && (event.time - self.detected_at).abs() <= 1e-9 * self.detected_at {
                panic!("chosen run {} panics", self.run);
            }
            RecoveryPolicy::ReReplicate.on_crash(view, event, actions);
        }
    }

    fn crashy_batch(sched: &FtSchedule, seed: u64) -> MonteCarloConfig {
        MonteCarloConfig {
            runs: 64,
            lifetime: LifetimeDist::Exponential {
                mean: sched.latency(),
            },
            failure: FailureKind::Permanent,
            engine: EngineConfig {
                policy: RecoveryPolicy::ReReplicate,
                detection: DetectionModel::Uniform(0.5),
                seed: 3,
                ..EngineConfig::default()
            },
            seed,
        }
    }

    /// Runs `f` on its own thread and returns its panic message, failing
    /// the test if `f` returns normally or does not end within a minute.
    fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let message = caught
                .err()
                .map(|payload| match payload.downcast::<String>() {
                    Ok(message) => *message,
                    Err(_) => "<not a String payload>".to_string(),
                });
            tx.send(message).ok();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the batch hung after a run panicked")
            .expect("the batch returned although a run panicked")
    }

    #[test]
    fn a_panicking_run_ends_the_pass_with_its_payload_and_spares_later_batches() {
        let (inst, sched) = setup();
        let (ok_cell, cfg) = (crashy_batch(&sched, 40), crashy_batch(&sched, 41));
        let m = inst.num_procs();
        let run = (10..cfg.runs)
            .find(|&i| {
                cfg.scenario_of_run(m, i)
                    .earliest_crash()
                    .is_some_and(|t| t < 0.3 * sched.latency())
            })
            .expect("some run crashes early");
        let detected_at = cfg.scenario_of_run(m, run).earliest_crash().unwrap() + 0.5;
        let expected = format!("chosen run {run} panics");
        let json = |s: &BatchSummary| serde_json::to_string(s).unwrap();
        let pool = Arc::new(ScratchPool::new());
        let reference = json(
            &ChunkedBatch::with_pool(&inst, &sched, &cfg, &cfg.engine.policy, Arc::clone(&pool))
                .finish(),
        );
        let grid_cells = [ok_cell.clone(), cfg.clone()];
        let grid_reference: Vec<String> = simulate_grid(&inst, &sched, &grid_cells)
            .iter()
            .map(json)
            .collect();

        // One chunk over the whole batch, sharing the arena pool.
        let (i, s, c, p) = (inst.clone(), sched.clone(), cfg.clone(), Arc::clone(&pool));
        let message = panic_message_of(move || {
            let policy = PanicsOnRun { run, detected_at };
            ChunkedBatch::with_pool(&i, &s, &c, &policy, p).run_chunk(c.runs);
        });
        assert_eq!(message, expected);

        // A grid pass whose second cell holds the chosen run.
        let (i, s, p) = (inst.clone(), sched.clone(), Arc::clone(&pool));
        let message = panic_message_of(move || {
            let policy = PanicsOnRun { run, detected_at };
            let (ok_plan, plan) = (
                StaticPlan::new(&i, &s, &grid_cells[0].engine.policy),
                StaticPlan::new(&i, &s, &policy),
            );
            let cells = [
                PassCell {
                    cfg: &grid_cells[0],
                    policy: &grid_cells[0].engine.policy,
                    plan: &ok_plan,
                },
                PassCell {
                    cfg: &grid_cells[1],
                    policy: &policy,
                    plan: &plan,
                },
            ];
            grid_pass(&i, &s, &cells, 0, &p, &mut |_| ControlFlow::Continue(()));
        });
        assert_eq!(message, expected);

        // Later batches, through the same pool, keep their bytes.
        assert_eq!(
            json(&ChunkedBatch::with_pool(&inst, &sched, &cfg, &cfg.engine.policy, pool).finish()),
            reference
        );
        let grid: Vec<String> = simulate_grid(&inst, &sched, &[ok_cell, cfg])
            .iter()
            .map(json)
            .collect();
        assert_eq!(grid, grid_reference);
    }

    /// Re-replicates like the built-in, but holds every run of a thread
    /// other than `driver` at its first crash detection until the gate
    /// opens, counting the runs that entered and left the gate.
    struct Gate {
        driver: std::thread::ThreadId,
        state: Mutex<(usize, usize, bool)>,
        changed: Condvar,
    }

    impl Policy for Gate {
        fn on_crash(
            &self,
            view: &crate::PolicyView<'_>,
            event: &crate::PolicyEvent,
            actions: &mut Vec<crate::RecoveryAction>,
        ) {
            if event.first && std::thread::current().id() != self.driver {
                let mut state = self.state.lock().unwrap();
                state.0 += 1;
                self.changed.notify_all();
                let deadline = std::time::Duration::from_secs(30);
                state = self
                    .changed
                    .wait_timeout_while(state, deadline, |s| !s.2)
                    .unwrap()
                    .0;
                state.1 += 1;
            }
            RecoveryPolicy::ReReplicate.on_crash(view, event, actions);
        }
    }

    #[test]
    fn a_stopping_hook_leaves_no_block_running() {
        let (inst, sched) = setup();
        let cfgs = [crashy_batch(&sched, 50), crashy_batch(&sched, 51)];
        let gate = Gate {
            driver: std::thread::current().id(),
            state: Mutex::new((0, 0, false)),
            changed: Condvar::new(),
        };
        // The first cell runs ungated, so the first hook call never
        // waits for a held run.
        let plan = StaticPlan::new(&inst, &sched, &gate);
        let cells = [
            PassCell {
                cfg: &cfgs[0],
                policy: &cfgs[0].engine.policy,
                plan: &plan,
            },
            PassCell {
                cfg: &cfgs[1],
                policy: &gate,
                plan: &plan,
            },
        ];
        let mut hook_calls = 0;
        let out = grid_pass(&inst, &sched, &cells, 1, &ScratchPool::new(), &mut |_| {
            hook_calls += 1;
            // Stop while a helper is held inside a run (when there is
            // a helper), then let it finish.
            let mut state = gate.state.lock().unwrap();
            if rayon::current_num_threads() > 1 {
                let deadline = std::time::Duration::from_secs(30);
                state = gate
                    .changed
                    .wait_timeout_while(state, deadline, |s| s.0 == s.1)
                    .unwrap()
                    .0;
            }
            state.2 = true;
            gate.changed.notify_all();
            ControlFlow::Break(())
        });
        assert!(out.is_none(), "a stopped pass returns no summaries");
        assert_eq!(hook_calls, 1, "no hook runs after the stop");
        let (entered, left, _) = *gate.state.lock().unwrap();
        assert_eq!(
            entered, left,
            "a run was still in flight after the pass returned"
        );
        if rayon::current_num_threads() > 1 {
            assert!(entered > 0, "no helper was held in a run at the stop");
        }
    }
}
