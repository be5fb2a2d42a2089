//! `storm-contended`: repeated `ft_experiments::run_storm` calls on the
//! Beneš B(3) recovery-storm configuration (bursts {2, 3} × {Ideal,
//! Exclusive, FairShare} × the four built-in policies), each call with a
//! fresh storm seed derived from the run seed. Single-threaded: the
//! storm sweep drives `Executor` run by run.
//!
//! The traced run repeats the same calls through the public functions
//! `run_storm` is made of, with a span around each, and checks that the
//! rows are byte-identical to `run_storm`'s.

use crate::serve::policy_tag;
use crate::trace::{by_name, Totals, Tracer};
use crate::{guarded, mix, peak_rss_mb, Args, CoreRotation, Report, SetupClock, POLICIES};
use ft_algos::{caft, CommModel};
use ft_experiments::{run_storm, StormConfig, StormRow};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_platform::{random_instance, PlatformParams, Topology};
use ft_runtime::{BatchAccumulator, Contention, Executor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Monte-Carlo runs per (burst, contention, policy) cell of one call.
const RUNS: usize = 16;
/// Calls whose outputs define the science metrics; every run makes at
/// least this many, so those metrics are exact for a seed.
const SCIENCE_CALLS: usize = 100;
/// Interval between set-up repetitions during a run (the median is
/// reported).
const SETUP_EVERY: Duration = Duration::from_millis(500);
const MODES: [Contention; 3] = [
    Contention::Ideal,
    Contention::Exclusive,
    Contention::FairShare,
];

fn config(seed: u64, call: usize) -> StormConfig {
    StormConfig {
        runs: RUNS,
        seed: mix(seed, 4, call as u64),
        ..StormConfig::default()
    }
}

fn mode_index(mode: Contention) -> u16 {
    MODES
        .iter()
        .position(|m| *m == mode)
        .expect("known contention mode") as u16
}

/// The storm checks: every cell present, Ideal cells never touch the
/// network, contended cells charge at least one transfer.
fn check_rows(cfg: &StormConfig, rows: &[StormRow]) -> Option<String> {
    let want = cfg.burst_sizes.len() * cfg.contentions.len() * cfg.roster().len();
    if rows.len() != want {
        return Some(format!(
            "seed {:#x}: {} rows, expected {want}",
            cfg.seed,
            rows.len()
        ));
    }
    rows.iter().find_map(|r| {
        let transfers = r.summary.metrics.net_transfers;
        let ok = if r.contention.is_contended() {
            transfers > 0
        } else {
            transfers == 0
        };
        (!ok).then(|| {
            format!(
                "seed {:#x}: burst {} {} {} charged {transfers} transfers",
                cfg.seed,
                r.burst,
                r.contention.name(),
                r.summary.policy_label
            )
        })
    })
}

/// What an untraced pass over the storm calls hands back.
struct Pass {
    latency_s: Vec<f64>,
    failures: Vec<Option<String>>,
    /// Completed and attempted engine runs over the first
    /// `SCIENCE_CALLS` calls.
    completion: (usize, usize),
    /// Normalized makespans of the first `SCIENCE_CALLS` schedules.
    makespans: Vec<f64>,
    /// Each call's rows, serialized (kept only when asked for).
    rows: Vec<String>,
}

/// Runs storm calls until `budget` has passed and at least `min_calls`
/// finished. Checks, science and `between` run outside each call's
/// timed interval.
fn untraced_pass(
    seed: u64,
    budget: Duration,
    min_calls: usize,
    keep_rows: bool,
    mut between: impl FnMut() -> Option<String>,
) -> Pass {
    let started = Instant::now();
    let mut pass = Pass {
        latency_s: Vec::new(),
        failures: Vec::new(),
        completion: (0, 0),
        makespans: Vec::new(),
        rows: Vec::new(),
    };
    let mut cores = CoreRotation::default();
    while pass.latency_s.len() < min_calls || started.elapsed() < budget {
        let call = pass.latency_s.len();
        let cfg = config(seed, call);
        cores.advance();
        let t = Instant::now();
        let rows = guarded(|| run_storm(&cfg));
        pass.latency_s.push(t.elapsed().as_secs_f64());
        let rows = match rows {
            Ok(rows) => rows,
            Err(panic) => {
                pass.failures.push(Some(format!(
                    "seed {:#x}: run_storm panicked: {panic}",
                    cfg.seed
                )));
                pass.rows.push(String::new());
                continue;
            }
        };
        pass.failures
            .push(check_rows(&cfg, &rows).or_else(&mut between));
        if keep_rows {
            pass.rows
                .push(serde_json::to_string(&rows).unwrap_or_default());
        }
        if call < SCIENCE_CALLS {
            for row in &rows {
                pass.completion.0 += row.summary.completed;
                pass.completion.1 += row.summary.runs;
            }
            let (inst, sched) = cfg.build();
            pass.makespans.push(sched.latency() / inst.mean_task_cost());
        }
    }
    pass
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let first = config(args.seed, 0);
    let (mut setup, _) = SetupClock::first(SETUP_EVERY, || Ok(first.build()))?;
    let pass = untraced_pass(
        args.seed,
        Duration::from_secs_f64(args.seconds),
        SCIENCE_CALLS,
        false,
        || setup.tick(|| Ok(first.build())),
    );
    for f in &pass.failures {
        report.op(f.clone());
    }

    let lat = &pass.latency_s;
    let busy: f64 = lat.iter().sum();
    let runs_per_call =
        first.burst_sizes.len() * first.contentions.len() * first.roster().len() * RUNS;
    report.set("setup_s", setup.median_s());
    crate::timing_metrics(&mut report, lat, runs_per_call);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set(
        "completion_rate",
        pass.completion.0 as f64 / pass.completion.1 as f64,
    );
    report.set(
        "makespan_mean",
        pass.makespans.iter().sum::<f64>() / pass.makespans.len() as f64,
    );
    report.note(format!(
        "{} storm calls in {busy:.3} s ({runs_per_call} engine runs each); science over calls 0..{SCIENCE_CALLS}",
        lat.len()
    ));
    Ok(report)
}

/// Counts read from every traced run's `RunOutcome`.
#[derive(Default)]
struct Counts {
    runs: usize,
    reschedules: usize,
    recovery_replicas: usize,
    rejected: usize,
    rejoins: usize,
}

/// One storm call through `run_storm`'s public building blocks, with a
/// span around each.
fn traced_call(
    tr: &mut Tracer,
    cfg: &StormConfig,
    counts: &mut Counts,
    messages: &mut Vec<f64>,
) -> Vec<StormRow> {
    // StormConfig::build, split into its instance and schedule layers.
    let inst = tr.leaf("ft-platform.build_instance", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let graph = random_layered(&RandomDagParams::default().with_tasks(cfg.tasks), &mut rng);
        let params = PlatformParams::default()
            .with_procs(cfg.procs)
            .with_topology(Topology::Benes {
                log2_m: cfg.procs.trailing_zeros(),
            });
        random_instance(graph, &params, cfg.granularity, &mut rng)
    });
    let sched = tr.leaf("ft-algos.caft", || {
        caft(&inst, cfg.eps, CommModel::OnePort, cfg.seed)
    });
    messages.push(sched.num_remote_messages() as f64);
    let nominal = sched.latency();
    let mut rows = Vec::new();
    for &burst in &cfg.burst_sizes {
        let scenarios: Vec<_> = (0..cfg.runs)
            .map(|r| tr.leaf("ft-runtime.draw", || cfg.scenario(burst, r, nominal)))
            .collect();
        for &mode in &cfg.contentions {
            for policy in cfg.roster() {
                let tag = policy_tag(policy.name()) * 3 + mode_index(mode);
                let engine = cfg.engine_config(burst, policy, mode);
                let mut exec = tr.leaf("ft-runtime.plan", || Executor::new(&inst, &sched, &engine));
                let mut acc = BatchAccumulator::new(nominal);
                for scenario in &scenarios {
                    let out = tr.leaf_tagged("ft-runtime.engine", tag, || exec.run(scenario));
                    counts.runs += 1;
                    counts.reschedules += out.reschedules;
                    counts.recovery_replicas += out.recovery_replicas;
                    counts.rejected += out.rejected_actions;
                    counts.rejoins += out.rejoins;
                    tr.leaf("ft-runtime.record", || {
                        acc.record(scenario.earliest_crash(), out)
                    });
                }
                rows.push(StormRow {
                    burst,
                    contention: mode,
                    summary: acc.finish(policy),
                });
            }
        }
    }
    rows
}

fn traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let pass = untraced_pass(
        args.seed,
        Duration::from_secs_f64(args.seconds / 2.0),
        8,
        true,
        || None,
    );
    let (lat, mut failures) = (pass.latency_s, pass.failures);
    let untraced_s: f64 = lat.iter().sum();

    let mut tr = Tracer::new();
    let mut cores = CoreRotation::default();
    let mut counts = Counts::default();
    let mut messages = Vec::new();
    let (mut transfers, mut contended, mut delay, mut contended_runs) = (0u64, 0u64, 0.0, 0usize);
    let mut traced_s = 0.0;
    for (call, failure) in failures.iter_mut().enumerate() {
        let cfg = config(args.seed, call);
        tr.set_job(call as u32);
        cores.advance();
        let open = tr.begin("storm_call");
        let rows = guarded(|| traced_call(&mut tr, &cfg, &mut counts, &mut messages));
        traced_s += tr.end(open).dur_ns() as f64 / 1e9;
        let rows = match rows {
            Ok(rows) => rows,
            Err(panic) => {
                failure.get_or_insert(format!(
                    "seed {:#x}: traced call panicked: {panic}",
                    cfg.seed
                ));
                continue;
            }
        };
        for r in rows.iter().filter(|r| r.contention.is_contended()) {
            transfers += r.summary.metrics.net_transfers;
            contended += r.summary.metrics.net_contended;
            delay += r.summary.metrics.net_delay.value();
            contended_runs += r.summary.runs;
        }
        if failure.is_none() {
            let same = serde_json::to_string(&rows).ok().as_ref() == Some(&pass.rows[call]);
            *failure =
                (!same).then(|| format!("seed {:#x}: traced rows differ from run_storm", cfg.seed));
        }
    }
    for f in failures {
        report.op(f);
    }

    let totals = tr.totals();
    let engine = |p: u16, m: u16| {
        totals
            .get(&("ft-runtime.engine", p * 3 + m))
            .copied()
            .unwrap_or_default()
    };
    let engine_us = |p: u16| engine(p, 0).mean_us();
    // Mean per-run engine time under `mode` minus Ideal, over the same
    // scenarios and policies.
    let surcharge = |m: u16| {
        let (mut under, mut ideal) = (Totals::default(), Totals::default());
        for p in 0..POLICIES.len() as u16 {
            under.merge(&engine(p, m));
            ideal.merge(&engine(p, 0));
        }
        under.mean_us() - ideal.mean_us()
    };
    let per_run = |x: usize| x as f64 / counts.runs.max(1) as f64;
    let call = by_name(&totals, "storm_call");

    for name in [
        "ft-serve.submit_ms",
        "ft-serve.claim_ms",
        "ft-serve.final_write_ms",
        "ft-serve.resolve_ms",
        "ft-serve.cache_hit_share",
        "ft-serve.delta_write_us",
        "ft-serve.residual_share",
        "ft-runtime.chunk_ms",
        "ft-runtime.snapshot_us",
        "ft-runtime.batch_speedup",
    ] {
        report.set(name, 0.0);
    }
    report.set(
        "ft-platform.build_instance_ms",
        by_name(&totals, "ft-platform.build_instance").mean_us() / 1e3,
    );
    report.set(
        "ft-algos.caft_ms",
        by_name(&totals, "ft-algos.caft").mean_us() / 1e3,
    );
    report.set(
        "ft-algos.messages_per_sched",
        messages.iter().sum::<f64>() / messages.len().max(1) as f64,
    );
    report.set(
        "ft-algos.replan_us_per_run",
        engine_us(policy_tag("reschedule")) - engine_us(policy_tag("re-replicate")),
    );
    report.set(
        "ft-runtime.plan_us",
        by_name(&totals, "ft-runtime.plan").mean_us(),
    );
    report.set(
        "ft-runtime.draw_us",
        by_name(&totals, "ft-runtime.draw").mean_us(),
    );
    report.set(
        "ft-runtime.record_us",
        by_name(&totals, "ft-runtime.record").mean_us(),
    );
    for (p, name) in POLICIES.iter().enumerate() {
        report.set(&format!("ft-runtime.engine_us.{name}"), engine_us(p as u16));
    }
    report.set(
        "ft-runtime.reschedules_per_run",
        per_run(counts.reschedules),
    );
    report.set(
        "ft-runtime.recovery_replicas_per_run",
        per_run(counts.recovery_replicas),
    );
    report.set("ft-runtime.rejected_per_run", per_run(counts.rejected));
    report.set("ft-runtime.rejoins_per_run", per_run(counts.rejoins));
    report.set(
        "ft-net.surcharge_us.exclusive",
        surcharge(mode_index(Contention::Exclusive)),
    );
    report.set(
        "ft-net.surcharge_us.fair-share",
        surcharge(mode_index(Contention::FairShare)),
    );
    report.set(
        "ft-net.transfers_per_run",
        transfers as f64 / contended_runs.max(1) as f64,
    );
    report.set(
        "ft-net.contended_share",
        contended as f64 / transfers.max(1) as f64,
    );
    report.set("ft-net.delay_per_run", delay / contended_runs.max(1) as f64);
    report.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

    report.note(format!(
        "{} storm calls untraced in {untraced_s:.3} s, traced in {traced_s:.3} s; \
         storm-call residual (time no span covers) {:.4}",
        lat.len(),
        call.self_ns as f64 / call.total_ns.max(1) as f64
    ));
    for ((name, tag), t) in &totals {
        report.note(format!(
            "  {name:<28} tag {tag:<2} calls {:>8}  mean {:>10.3} us  self {:>10.3} ms/call",
            t.calls,
            t.mean_us(),
            t.self_ns as f64 / 1e6 / lat.len() as f64
        ));
    }
    let spans = crate::write_spans(args, &tr)?;
    report.note(format!("spans written to {}", spans.display()));
    Ok(report)
}
