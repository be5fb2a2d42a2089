//! The two ft-serve workloads, both a closed loop of one client with one
//! outstanding job: `JobQueue::submit`, then an in-process
//! `Daemon::run_until_idle` with one worker.
//!
//! * `sweep-warm` — degradation-style grids over a pool of workloads
//!   resolved during set-up, so every `ArtifactCache::resolve` hits and
//!   the time goes to the engine.
//! * `sched-cold` — a fresh workload on the paper's v/m/ε axes per job,
//!   one policy and a few runs, so every resolve misses and the time
//!   goes to CAFT and the queue's file I/O.
//!
//! The traced run replays the daemon's job path call by call through the
//! crates' public functions (the same calls `Daemon::run_until_idle`
//! makes, in the same order), with a span around each, and checks that
//! it writes the same `final.json` bytes as the daemon did.

use crate::trace::{by_name, Tracer};
use crate::{guarded, mix, peak_rss_mb, Args, CoreRotation, Report, SetupClock, WorkDir, POLICIES};
use ft_experiments::{DetectionKind, SweepGrid, WorkloadSpec};
use ft_model::{validate_schedule, FtSchedule};
use ft_platform::Instance;
use ft_runtime::{BatchAccumulator, ChunkedBatch, Contention, Executor, ScratchPool};
use ft_serve::{
    read_final, ArtifactCache, CellResult, Daemon, DeltaRecord, FinalRecord, JobQueue, JobSpec,
    JobState, ServeError,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workloads resolved during `sweep-warm` set-up (the daemon's default
/// cache holds 32 instances, so every job's resolve hits).
const WARM_POOL: usize = 32;
/// Jobs whose outputs define the science metrics; every run does at
/// least this many, so those metrics are exact for a seed.
const SCIENCE_JOBS: [usize; 2] = [100, 240];
/// `sweep-warm` jobs replayed single-threaded in the traced run.
const WARM_REPLAY_JOBS: usize = 3;
/// `sched-cold` jobs re-scheduled and replayed in the traced run.
const COLD_REPLAY_JOBS: usize = 240;
/// Interval between set-up repetitions during a run (the median is
/// reported).
const SETUP_EVERY: [Duration; 2] = [Duration::from_secs(1), Duration::from_millis(250)];
/// Every `VERIFY_EVERY`-th job is checked against a direct
/// (daemon-free) execution of its spec.
const VERIFY_EVERY: [usize; 2] = [40, 25];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
}

impl Kind {
    fn at<T: Copy>(self, per_kind: [T; 2]) -> T {
        per_kind[self as usize]
    }
}

/// The job stream of one seed.
struct Plan {
    kind: Kind,
    seed: u64,
    pool: Vec<WorkloadSpec>,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Plan {
        let pool = match kind {
            Kind::Warm => (0..WARM_POOL as u64)
                .map(|i| WorkloadSpec {
                    tasks: 60,
                    procs: 10,
                    eps: 1,
                    granularity: 1.0,
                    seed: mix(seed, 1, i),
                })
                .collect(),
            Kind::Cold => Vec::new(),
        };
        Plan { kind, seed, pool }
    }

    fn id(k: usize) -> String {
        format!("job-{k:06}")
    }

    /// Job `k`. Warm: pool workload `k mod 32` under a fresh grid seed.
    /// Cold: a fresh workload from a fixed cycle over v ∈ {50, 100, 150,
    /// 200}, m ∈ {10, 20}, ε ∈ {1, 2, 3}.
    fn job(&self, k: usize) -> JobSpec {
        let grid_seed = mix(self.seed, 2, k as u64);
        match self.kind {
            Kind::Warm => JobSpec {
                tenant: "warm".into(),
                workload: self.pool[k % self.pool.len()].clone(),
                grid: SweepGrid {
                    mttf_factors: vec![8.0, 2.0],
                    mttr_factors: vec![None, Some(0.25)],
                    detections: vec![DetectionKind::Uniform],
                    checkpoint_intervals: vec![0.25],
                    checkpoint_overhead: 0.005,
                    only_policy: None,
                    runs: 16,
                    detection_latency: 1.0,
                    seed: grid_seed,
                    contention: Contention::Ideal,
                },
                delta_every: 8,
            },
            Kind::Cold => JobSpec {
                tenant: "cold".into(),
                workload: WorkloadSpec {
                    tasks: [50, 100, 150, 200][k % 4],
                    procs: [10, 20][(k / 4) % 2],
                    eps: [1, 2, 3][(k / 8) % 3],
                    granularity: 1.0,
                    seed: mix(self.seed, 3, k as u64),
                },
                grid: SweepGrid {
                    mttf_factors: vec![8.0],
                    mttr_factors: vec![None],
                    detections: vec![DetectionKind::Uniform],
                    checkpoint_intervals: vec![],
                    checkpoint_overhead: 0.005,
                    only_policy: Some("absorb".into()),
                    runs: 8,
                    detection_latency: 1.0,
                    seed: grid_seed,
                    contention: Contention::Ideal,
                },
                delta_every: 0,
            },
        }
    }

    /// Engine runs one job executes.
    fn runs_per_job(&self) -> usize {
        let spec = self.job(0);
        spec.grid.cells(1.0, 1.0).len() * spec.grid.runs
    }
}

/// A queue root with its daemon, set up as a workload run needs it.
struct Service {
    root: PathBuf,
    daemon: Daemon,
}

impl Service {
    fn queue(&self) -> &JobQueue {
        self.daemon.queue()
    }

    fn cache(&self) -> &Arc<ArtifactCache> {
        self.daemon.cache()
    }
}

/// Opens the queue at `root` (creating it on first use; a later set-up
/// re-opens it, as a restarted daemon does), creates the one-worker
/// daemon with a fresh cache, and for `sweep-warm` resolves every pool
/// workload so later jobs hit the cache.
fn set_up(plan: &Plan, root: PathBuf) -> Result<Service, String> {
    let daemon = Daemon::new(&root)
        .map_err(|e| format!("opening {}: {e}", root.display()))?
        .with_workers(1);
    for spec in &plan.pool {
        daemon.cache().resolve(spec);
    }
    Ok(Service { root, daemon })
}

/// Per-job bookkeeping of one pass over the job stream.
struct Pass {
    latency_s: Vec<f64>,
    failures: Vec<Option<String>>,
}

impl Pass {
    fn jobs(&self) -> usize {
        self.latency_s.len()
    }

    fn busy_s(&self) -> f64 {
        self.latency_s.iter().sum()
    }
}

/// Runs the closed loop through the real daemon until `budget` has
/// passed and at least `min_jobs` jobs finished. `after_job` runs
/// outside the job's timed interval.
fn daemon_pass(
    plan: &Plan,
    svc: &Service,
    budget: Duration,
    min_jobs: usize,
    mut after_job: impl FnMut(usize, &JobSpec) -> Option<String>,
) -> Pass {
    let started = Instant::now();
    let mut pass = Pass {
        latency_s: Vec::new(),
        failures: Vec::new(),
    };
    let mut cores = CoreRotation::default();
    loop {
        let k = pass.jobs();
        if k >= min_jobs && started.elapsed() >= budget {
            return pass;
        }
        let spec = plan.job(k);
        let id = Plan::id(k);
        cores.advance();
        let t = Instant::now();
        let ran = svc
            .queue()
            .submit(Some(&id), &spec)
            .and_then(|_| svc.daemon.run_until_idle());
        let final_exists = svc.queue().results_dir(&id).join("final.json").exists();
        pass.latency_s.push(t.elapsed().as_secs_f64());
        let failure =
            job_failure(svc.queue(), &id, ran, final_exists).or_else(|| after_job(k, &spec));
        pass.failures.push(failure);
    }
}

fn job_failure(
    queue: &JobQueue,
    id: &str,
    ran: Result<(), ServeError>,
    final_exists: bool,
) -> Option<String> {
    if let Err(e) = ran {
        return Some(format!("{id}: {e}"));
    }
    match queue.state(id) {
        Some(JobState::Done) if final_exists => None,
        Some(JobState::Done) => Some(format!("{id}: done without final.json")),
        Some(JobState::Failed) => Some(format!(
            "{id}: failed: {}",
            queue.read_error(id).unwrap_or_default().trim()
        )),
        other => Some(format!("{id}: left in state {other:?}")),
    }
}

/// Checks a job's `final.json` cells byte for byte against a direct,
/// daemon-free execution of its spec.
fn verify_direct(root: &Path, plan: &Plan, k: usize) -> Option<String> {
    let id = Plan::id(k);
    let rec = match read_final(root, &id) {
        Ok(rec) => rec,
        Err(e) => return Some(format!("{id}: reading final.json: {e}")),
    };
    let direct = match guarded(|| plan.job(k).direct_cell_results()) {
        Ok(direct) => direct,
        Err(panic) => return Some(format!("{id}: direct execution panicked: {panic}")),
    };
    let got = serde_json::to_string(&rec.cells).ok();
    let want = serde_json::to_string(&direct).ok();
    (got.is_none() || got != want)
        .then(|| format!("{id}: final.json cells differ from direct execution"))
}

/// Normalized makespan: schedule latency in mean task costs (the
/// paper's normalization).
fn makespan(inst: &Instance, sched: &FtSchedule) -> f64 {
    sched.latency() / inst.mean_task_cost()
}

/// Completed and attempted engine runs over the final records of jobs
/// `0..n` (a job without one already counts as failed).
fn completion(root: &Path, n: usize) -> (usize, usize) {
    let mut done = (0, 0);
    for rec in (0..n).filter_map(|k| read_final(root, &Plan::id(k)).ok()) {
        for cell in &rec.cells {
            done.0 += cell.summary.completed;
            done.1 += cell.summary.runs;
        }
    }
    done
}

fn kind_of(args: &Args) -> Kind {
    match args.workload.as_str() {
        "sweep-warm" => Kind::Warm,
        _ => Kind::Cold,
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let plan = Plan::new(kind_of(args), args.seed);
    if args.trace {
        traced(args, work, &plan)
    } else {
        untraced(args, work, &plan)
    }
}

fn untraced(args: &Args, work: &WorkDir, plan: &Plan) -> Result<Report, String> {
    let kind = plan.kind;
    let mut report = Report::default();
    let (mut setup, svc) =
        SetupClock::first(kind.at(SETUP_EVERY), || set_up(plan, work.sub("root")))?;
    let science = kind.at(SCIENCE_JOBS);

    // Cold jobs: every schedule the daemon built must pass
    // validate_schedule; the cache still holds it right after the job.
    let mut cold_makespans = Vec::new();
    let validate = |k: usize, spec: &JobSpec, makespans: &mut Vec<f64>| -> Option<String> {
        let r = svc.cache().resolve(&spec.workload);
        if k < science {
            makespans.push(makespan(&r.inst, &r.sched));
        }
        let errors = validate_schedule(&r.inst, &r.sched);
        (!errors.is_empty()).then(|| format!("{}: schedule invalid: {}", Plan::id(k), errors[0]))
    };
    let pass = daemon_pass(
        plan,
        &svc,
        Duration::from_secs_f64(args.seconds),
        science,
        |k, spec| {
            let failure = match kind {
                Kind::Cold => validate(k, spec, &mut cold_makespans),
                Kind::Warm => None,
            };
            failure.or(setup.tick(|| set_up(plan, svc.root.clone())))
        },
    );

    // The workload's memory high-water mark, before the checks below.
    let peak_rss = peak_rss_mb();
    let makespans: Vec<f64> = match kind {
        Kind::Cold => cold_makespans,
        Kind::Warm => plan
            .pool
            .iter()
            .map(|spec| {
                let r = svc.cache().resolve(spec);
                makespan(&r.inst, &r.sched)
            })
            .collect(),
    };
    let mut failures = pass.failures.clone();
    for k in (0..pass.jobs()).step_by(kind.at(VERIFY_EVERY)) {
        if failures[k].is_none() {
            failures[k] = verify_direct(&svc.root, plan, k);
        }
    }
    for f in failures {
        report.op(f);
    }
    let (completed, runs) = completion(&svc.root, science);

    let n = pass.jobs();
    report.set("setup_s", setup.median_s());
    crate::timing_metrics(&mut report, &pass.latency_s, plan.runs_per_job());
    report.set("peak_rss_mb", peak_rss);
    report.set("completion_rate", completed as f64 / runs as f64);
    report.set(
        "makespan_mean",
        makespans.iter().sum::<f64>() / makespans.len() as f64,
    );
    report.note(format!(
        "{n} jobs in {:.3} s busy ({} engine runs each); science over jobs 0..{science}; \
         every {}th job verified against direct execution; {} set-ups",
        pass.busy_s(),
        plan.runs_per_job(),
        kind.at(VERIFY_EVERY),
        setup.reps()
    ));
    let stats = svc.cache().stats();
    report.note(format!(
        "cache: schedule hits {} misses {} (includes set-up and check resolves)",
        stats.schedule_hits, stats.schedule_misses
    ));
    Ok(report)
}

// ---------------------------------------------------------------------------
// The traced run

/// Executes job `k` through the same public calls `Daemon::run_until_idle`
/// makes, with a span around each. Returns whether the resolve hit.
fn traced_job(tr: &mut Tracer, svc: &Service, k: usize, spec: &JobSpec) -> Result<bool, String> {
    let id = Plan::id(k);
    let queue = svc.queue();
    tr.leaf("ft-serve.submit", || queue.submit(Some(&id), spec))
        .map_err(|e| e.to_string())?;
    let lock = tr
        .leaf("ft-serve.lock_daemon", || queue.lock_daemon())
        .map_err(|e| e.to_string())?;
    tr.leaf("ft-serve.recover", || queue.recover())
        .map_err(|e| e.to_string())?;
    let worker = std::thread::scope(|s| {
        s.spawn(|| -> Result<bool, String> {
            let claim = tr
                .leaf("ft-serve.claim", || queue.claim())
                .map_err(|e| e.to_string())?
                .ok_or("claim found no pending job")?;
            let hit = traced_execute(tr, svc, &claim.id, spec).map_err(|e| e.to_string())?;
            tr.leaf("ft-serve.mark_done", || queue.mark_done(&claim.id))
                .map_err(|e| e.to_string())?;
            let idle = tr
                .leaf("ft-serve.claim_idle", || queue.claim())
                .map_err(|e| e.to_string())?;
            if idle.is_some() {
                return Err("queue not idle after one job".into());
            }
            Ok(hit)
        })
        .join()
    });
    drop(lock);
    worker.map_err(|_| "traced worker panicked".to_string())?
}

/// The daemon's `run_job`, call for call.
fn traced_execute(
    tr: &mut Tracer,
    svc: &Service,
    id: &str,
    spec: &JobSpec,
) -> Result<bool, ServeError> {
    let queue = svc.queue();
    if tr.leaf("ft-serve.cancel_check", || queue.cancelled(id)) {
        return Err(ServeError::Message("cancelled".into()));
    }
    let resolved = tr.leaf("ft-serve.resolve", || svc.cache().resolve(&spec.workload));
    let cells = tr.leaf("ft-experiments.cells", || {
        spec.grid
            .cells(resolved.inst.mean_task_cost(), resolved.sched.latency())
    });
    let results_dir = queue.results_dir(id);
    let mut deltas = tr.leaf("ft-serve.results_open", || -> Result<_, ServeError> {
        std::fs::create_dir_all(&results_dir)?;
        Ok(if spec.delta_every > 0 {
            Some(std::fs::File::create(results_dir.join("deltas.jsonl"))?)
        } else {
            None
        })
    })?;
    let mut finished = Vec::with_capacity(cells.len());
    let pool = Arc::new(ScratchPool::new());
    for (idx, cell) in cells.iter().enumerate() {
        let mc = tr.leaf("ft-experiments.cell_config", || {
            cell.monte_carlo_config(&resolved.inst, &resolved.sched)
        });
        let mut chunked = tr.leaf("ft-runtime.plan", || {
            ChunkedBatch::with_pool(
                &resolved.inst,
                &resolved.sched,
                &mc,
                &mc.engine.policy,
                Arc::clone(&pool),
            )
        });
        let chunk = if spec.delta_every > 0 {
            spec.delta_every
        } else {
            usize::MAX
        };
        while !chunked.is_done() {
            if tr.leaf("ft-serve.cancel_check", || queue.cancelled(id)) {
                return Err(ServeError::Message("cancelled".into()));
            }
            tr.leaf("ft-runtime.run_chunk", || chunked.run_chunk(chunk));
            if let Some(out) = deltas.as_mut() {
                let summary = tr.leaf("ft-runtime.snapshot", || chunked.snapshot());
                tr.leaf("ft-serve.delta_write", || -> Result<(), ServeError> {
                    let record = DeltaRecord {
                        job: id.to_string(),
                        cell: idx,
                        label: cell.label(),
                        completed_runs: chunked.completed_runs(),
                        total_runs: mc.runs,
                        summary,
                    };
                    let line = serde_json::to_string(&record)
                        .map_err(|e| ServeError::Message(e.to_string()))?;
                    writeln!(out, "{line}")?;
                    out.flush()?;
                    Ok(())
                })?;
            }
        }
        let summary = tr.leaf("ft-runtime.finish", || chunked.finish());
        finished.push(CellResult {
            label: cell.label(),
            summary,
        });
    }
    tr.leaf("ft-serve.final_write", || -> Result<(), ServeError> {
        let record = FinalRecord {
            job: id.to_string(),
            tenant: spec.tenant.clone(),
            cells: finished,
            cache: resolved.outcome,
        };
        let tmp = results_dir.join("final.json.tmp");
        std::fs::write(
            &tmp,
            serde_json::to_string_pretty(&record)
                .map_err(|e| ServeError::Message(e.to_string()))?,
        )?;
        std::fs::rename(&tmp, results_dir.join("final.json"))?;
        Ok(())
    })?;
    Ok(resolved.outcome.schedule_hit)
}

/// Engine-layer figures gathered by the single-threaded replay.
#[derive(Default)]
struct Replay {
    runs: usize,
    reschedules: usize,
    recovery_replicas: usize,
    rejected: usize,
    rejoins: usize,
    /// Job indices replayed (their `run_chunk` spans are the parallel
    /// counterpart of the replay's per-run spans).
    jobs: Vec<usize>,
}

/// Times one workload build split into its two layers.
fn probe_build(tr: &mut Tracer, spec: &WorkloadSpec) -> (Instance, FtSchedule) {
    let inst = tr.leaf("ft-platform.build_instance", || spec.build_instance());
    let sched = tr.leaf("ft-algos.caft", || spec.schedule(&inst));
    (inst, sched)
}

/// Replays every cell of job `k` single-threaded through `Executor`,
/// timing the scenario draw, the engine run (tagged by policy) and the
/// accumulation of each run, and checks the result against the cells
/// the traced daemon path wrote.
fn replay_job(
    tr: &mut Tracer,
    root: &Path,
    plan: &Plan,
    k: usize,
    inst: &Instance,
    sched: &FtSchedule,
    acc: &mut Replay,
) -> Option<String> {
    let id = Plan::id(k);
    let rec = match read_final(root, &id) {
        Ok(rec) => rec,
        Err(e) => return Some(format!("{id}: reading final.json: {e}")),
    };
    let spec = plan.job(k);
    let cells = spec.grid.cells(inst.mean_task_cost(), sched.latency());
    let m = inst.num_procs();
    acc.jobs.push(k);
    for (cell, want) in cells.iter().zip(&rec.cells) {
        let mc = cell.monte_carlo_config(inst, sched);
        let tag = policy_tag(mc.engine.policy.name());
        let mut exec = tr.leaf("ft-runtime.executor_new", || {
            Executor::new(inst, sched, &mc.engine)
        });
        let mut batch = BatchAccumulator::new(sched.latency());
        for i in 0..mc.runs {
            let scenario = tr.leaf("ft-runtime.draw", || mc.scenario_of_run(m, i));
            let out = tr.leaf_tagged("ft-runtime.engine", tag, || exec.run(&scenario));
            acc.runs += 1;
            acc.reschedules += out.reschedules;
            acc.recovery_replicas += out.recovery_replicas;
            acc.rejected += out.rejected_actions;
            acc.rejoins += out.rejoins;
            tr.leaf("ft-runtime.record", || {
                batch.record(scenario.earliest_crash(), out)
            });
        }
        let got = serde_json::to_string(&batch.finish(mc.engine.policy)).ok();
        if got.is_none() || got != serde_json::to_string(&want.summary).ok() {
            return Some(format!(
                "{id}: single-threaded replay of cell {} differs from the batch",
                cell.label()
            ));
        }
    }
    (rec.cells.len() != cells.len()).then(|| format!("{id}: cell count differs"))
}

pub fn policy_tag(name: &str) -> u16 {
    POLICIES
        .iter()
        .position(|p| *p == name)
        .unwrap_or_else(|| panic!("unknown policy {name}")) as u16
}

fn traced(args: &Args, work: &WorkDir, plan: &Plan) -> Result<Report, String> {
    let kind = plan.kind;
    let mut report = Report::default();
    let half = Duration::from_secs_f64(args.seconds / 2.0);

    // Untraced reference: the real daemon for half the budget.
    let svc_a = set_up(plan, work.sub("untraced"))?;
    let pass_a = daemon_pass(plan, &svc_a, half, 8, |_, _| None);
    let n = pass_a.jobs();

    // Traced: the same jobs through the instrumented daemon path.
    let mut tr = Tracer::new();
    let svc_b = set_up(plan, work.sub("traced"))?;
    let mut hits = 0usize;
    let mut traced_s = 0.0;
    let mut failures = pass_a.failures.clone();
    let mut cores = CoreRotation::default();
    for (k, failure) in failures.iter_mut().enumerate() {
        let spec = plan.job(k);
        cores.advance();
        tr.set_job(k as u32);
        let job = tr.begin("job");
        let ran = traced_job(&mut tr, &svc_b, k, &spec);
        traced_s += tr.end(job).dur_ns() as f64 / 1e9;
        match ran {
            Ok(hit) => hits += usize::from(hit),
            Err(e) => {
                failure.get_or_insert(format!("{}: traced path: {e}", Plan::id(k)));
            }
        }
        if failure.is_none() {
            let read = |root: &Path| {
                std::fs::read(root.join("results").join(Plan::id(k)).join("final.json")).ok()
            };
            if read(&svc_a.root).is_none() || read(&svc_a.root) != read(&svc_b.root) {
                *failure = Some(format!(
                    "{}: traced final.json differs from the daemon's",
                    Plan::id(k)
                ));
            }
        }
    }

    // Probes and single-threaded replay, outside both timed passes.
    tr.set_job(u32::MAX);
    let mut replay = Replay::default();
    let mut messages = Vec::new();
    let replay_jobs = match kind {
        Kind::Warm => WARM_REPLAY_JOBS,
        Kind::Cold => COLD_REPLAY_JOBS,
    }
    .min(n);
    let pool: Vec<(Instance, FtSchedule)> =
        plan.pool.iter().map(|s| probe_build(&mut tr, s)).collect();
    messages.extend(pool.iter().map(|(_, s)| s.num_remote_messages() as f64));
    for k in 0..replay_jobs {
        tr.set_job(k as u32);
        let built;
        let (inst, sched) = match kind {
            Kind::Warm => {
                let (i, s) = &pool[k % pool.len()];
                (i, s)
            }
            Kind::Cold => {
                built = probe_build(&mut tr, &plan.job(k).workload);
                messages.push(built.1.num_remote_messages() as f64);
                (&built.0, &built.1)
            }
        };
        let mut failure = (!validate_schedule(inst, sched).is_empty())
            .then(|| format!("{}: schedule invalid", Plan::id(k)));
        if failure.is_none() {
            failure =
                guarded(|| replay_job(&mut tr, &svc_b.root, plan, k, inst, sched, &mut replay))
                    .unwrap_or_else(|panic| {
                        Some(format!("{}: replay panicked: {panic}", Plan::id(k)))
                    });
        }
        if failures[k].is_none() {
            failures[k] = failure;
        }
    }
    for k in (0..n).step_by(kind.at(VERIFY_EVERY)) {
        if failures[k].is_none() {
            failures[k] = verify_direct(&svc_b.root, plan, k);
        }
    }
    for f in failures {
        report.op(f);
    }

    let totals = tr.totals();
    let mean_ms = |name: &str| by_name(&totals, name).mean_us() / 1e3;
    let mean_us = |name: &str| by_name(&totals, name).mean_us();
    let engine_us = |p: usize| {
        totals
            .get(&("ft-runtime.engine", p as u16))
            .map_or(0.0, |t| t.mean_us())
    };
    let job = by_name(&totals, "job");
    let per_run = |x: usize| x as f64 / replay.runs.max(1) as f64;

    // Parallel batch time of the replayed jobs against the summed
    // single-threaded time of the same runs.
    let chunk_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "ft-runtime.run_chunk" && replay.jobs.contains(&(s.job as usize)))
        .map(|s| s.dur_ns())
        .sum();
    let serial_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "ft-runtime.draw" | "ft-runtime.engine" | "ft-runtime.record"
            ) && replay.jobs.contains(&(s.job as usize))
        })
        .map(|s| s.dur_ns())
        .sum();

    report.set("ft-serve.submit_ms", mean_ms("ft-serve.submit"));
    report.set("ft-serve.claim_ms", mean_ms("ft-serve.claim"));
    report.set("ft-serve.final_write_ms", mean_ms("ft-serve.final_write"));
    report.set("ft-serve.resolve_ms", mean_ms("ft-serve.resolve"));
    report.set("ft-serve.cache_hit_share", hits as f64 / n as f64);
    report.set("ft-serve.delta_write_us", mean_us("ft-serve.delta_write"));
    report.set(
        "ft-serve.residual_share",
        job.self_ns as f64 / job.total_ns as f64,
    );
    report.set(
        "ft-platform.build_instance_ms",
        mean_ms("ft-platform.build_instance"),
    );
    report.set("ft-algos.caft_ms", mean_ms("ft-algos.caft"));
    report.set(
        "ft-algos.messages_per_sched",
        messages.iter().sum::<f64>() / messages.len().max(1) as f64,
    );
    report.set(
        "ft-algos.replan_us_per_run",
        engine_us(policy_tag("reschedule") as usize)
            - engine_us(policy_tag("re-replicate") as usize),
    );
    report.set("ft-runtime.plan_us", mean_us("ft-runtime.plan"));
    report.set("ft-runtime.chunk_ms", mean_ms("ft-runtime.run_chunk"));
    report.set("ft-runtime.snapshot_us", mean_us("ft-runtime.snapshot"));
    report.set("ft-runtime.draw_us", mean_us("ft-runtime.draw"));
    report.set("ft-runtime.record_us", mean_us("ft-runtime.record"));
    for (p, name) in POLICIES.iter().enumerate() {
        report.set(&format!("ft-runtime.engine_us.{name}"), engine_us(p));
    }
    report.set(
        "ft-runtime.batch_speedup",
        serial_ns as f64 / chunk_ns.max(1) as f64,
    );
    report.set(
        "ft-runtime.reschedules_per_run",
        per_run(replay.reschedules),
    );
    report.set(
        "ft-runtime.recovery_replicas_per_run",
        per_run(replay.recovery_replicas),
    );
    report.set("ft-runtime.rejected_per_run", per_run(replay.rejected));
    report.set("ft-runtime.rejoins_per_run", per_run(replay.rejoins));

    // ft-net: the serve workloads run under Contention::Ideal, where the
    // network layer is never consulted; read its counters from the
    // replayed jobs' records to show it.
    let (mut transfers, mut contended, mut delay, mut runs) = (0u64, 0u64, 0.0, 0usize);
    for &k in &replay.jobs {
        if let Ok(rec) = read_final(&svc_b.root, &Plan::id(k)) {
            for c in &rec.cells {
                transfers += c.summary.metrics.net_transfers;
                contended += c.summary.metrics.net_contended;
                delay += c.summary.metrics.net_delay.value();
                runs += c.summary.runs;
            }
        }
    }
    report.set("ft-net.surcharge_us.exclusive", 0.0);
    report.set("ft-net.surcharge_us.fair-share", 0.0);
    report.set(
        "ft-net.transfers_per_run",
        transfers as f64 / runs.max(1) as f64,
    );
    report.set(
        "ft-net.contended_share",
        contended as f64 / transfers.max(1) as f64,
    );
    report.set("ft-net.delay_per_run", delay / runs.max(1) as f64);
    report.set(
        "trace.overhead_share",
        (traced_s - pass_a.busy_s()) / pass_a.busy_s(),
    );

    report.note(format!(
        "{n} jobs untraced in {:.3} s busy, traced in {traced_s:.3} s; {} jobs replayed single-threaded ({} runs)",
        pass_a.busy_s(),
        replay.jobs.len(),
        replay.runs
    ));
    report.note("self time per span over the traced jobs (ms per job):".into());
    for ((name, tag), t) in &totals {
        if t.calls > 0 {
            report.note(format!(
                "  {name:<28} tag {tag:<2} calls {:>8}  total {:>10.3}  self {:>10.3}",
                t.calls,
                t.total_ns as f64 / 1e6 / n as f64,
                t.self_ns as f64 / 1e6 / n as f64
            ));
        }
    }
    let spans = crate::write_spans(args, &tr)?;
    report.note(format!("spans written to {}", spans.display()));
    Ok(report)
}
