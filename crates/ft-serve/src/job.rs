//! The serde job surface: what clients submit and what the daemon
//! streams back.

use ft_experiments::{CellSpec, DetectionKind, SweepGrid, WorkloadSpec};
use ft_runtime::{BatchSummary, Contention};
use serde::{Deserialize, Serialize};

/// A simulation job: one tenant's workload plus the scenario grid to
/// sweep over it. Everything the daemon needs is in the spec — resolved
/// workload artifacts are shared through the
/// [`ArtifactCache`](crate::ArtifactCache), so two jobs naming the same
/// [`WorkloadSpec`] build it once.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    /// The submitting tenant (fairness domain of the worker pool; also
    /// the namespace of auto-generated job ids).
    pub tenant: String,
    /// The workload recipe (graph → instance → CAFT schedule).
    pub workload: WorkloadSpec,
    /// The scenario axes swept over the workload.
    pub grid: SweepGrid,
    /// Delta-snapshot interval in Monte-Carlo runs: while a cell runs,
    /// a partial [`BatchSummary`] snapshot is appended to the job's
    /// `deltas.jsonl` every `delta_every` runs. `0` disables streaming
    /// (only the final record is written). Any value yields the same
    /// final bytes — chunking cannot change the science.
    pub delta_every: usize,
}

impl JobSpec {
    /// A small, fast example job for `tenant` — the spec behind
    /// `ft-serve example-spec`, sized for tests and CI acceptance (a
    /// 2-rate × full-roster grid over a 25-task workload).
    pub fn example(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            workload: WorkloadSpec {
                tasks: 25,
                procs: 6,
                eps: 1,
                granularity: 1.0,
                seed: 0x5EED,
            },
            grid: SweepGrid {
                mttf_factors: vec![8.0, 2.0],
                mttr_factors: vec![None],
                detections: vec![DetectionKind::Uniform],
                checkpoint_intervals: vec![0.25],
                checkpoint_overhead: 0.005,
                only_policy: None,
                runs: 40,
                detection_latency: 1.0,
                seed: 0x5EED,
                contention: Contention::Ideal,
            },
            delta_every: 16,
        }
    }

    /// The job's resolved cell list (requires building the workload to
    /// scale the grid; the daemon resolves through the cache instead).
    pub fn cells(&self) -> Vec<CellSpec> {
        let (inst, sched) = self.workload.build();
        self.grid.cells(inst.mean_task_cost(), sched.latency())
    }

    /// Executes every cell directly through
    /// [`simulate_many`](ft_runtime::simulate_many) — the reference the
    /// daemon's final record must match byte-for-byte (the `ft-serve
    /// verify` path).
    pub fn direct_cell_results(&self) -> Vec<CellResult> {
        let (inst, sched) = self.workload.build();
        self.grid
            .cells(inst.mean_task_cost(), sched.latency())
            .iter()
            .map(|cell| CellResult {
                label: cell.label(),
                summary: cell.run(&inst, &sched),
            })
            .collect()
    }

    /// Validates the spec's cheap invariants (non-empty tenant and axes,
    /// positive run count, a buildable workload, grid knobs the engine
    /// accepts) so misconfigured jobs
    /// fail at submit/claim time with a message instead of producing an
    /// empty sweep — or panicking inside the shared workload build.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        if self.grid.runs == 0 {
            return Err("grid.runs must be positive".into());
        }
        if self.grid.mttf_factors.is_empty()
            || self.grid.mttr_factors.is_empty()
            || self.grid.detections.is_empty()
        {
            return Err("grid axes must be non-empty".into());
        }
        let w = &self.workload;
        if w.tasks == 0 || w.procs == 0 {
            return Err("workload must have tasks and processors".into());
        }
        if w.eps >= w.procs {
            return Err(format!(
                "workload.eps = {} needs eps + 1 distinct processors, but workload.procs = {}",
                w.eps, w.procs
            ));
        }
        if !(w.granularity.is_finite() && w.granularity > 0.0) {
            return Err(format!(
                "workload.granularity must be a positive finite number, got {}",
                w.granularity
            ));
        }
        // The grid knobs, checked against exactly what the engine's
        // constructors assert once the cells resolve.
        let g = &self.grid;
        let positive = |x: &f64| x.is_finite() && *x > 0.0;
        let reject =
            |field: &str, want: &str, x: f64| Err(format!("grid.{field} must be {want}, got {x}"));
        if let Some(&f) = g.mttf_factors.iter().find(|f| !positive(f)) {
            return reject("mttf_factors", "positive and finite", f);
        }
        if let Some(&f) = g.mttr_factors.iter().flatten().find(|f| !positive(f)) {
            return reject("mttr_factors", "null or positive and finite", f);
        }
        let bad_interval = |iv: &&f64| **iv <= 0.0 || iv.is_nan();
        if let Some(&iv) = g.checkpoint_intervals.iter().find(bad_interval) {
            return reject("checkpoint_intervals", "positive (∞ disables them)", iv);
        }
        // Every roster carries an adaptive-checkpoint entry, whose
        // Young/Daly interval needs a positive overhead.
        let (overhead, latency) = (g.checkpoint_overhead, g.detection_latency);
        if !positive(&overhead) {
            return reject("checkpoint_overhead", "positive and finite", overhead);
        }
        if !(latency.is_finite() && latency >= 0.0) {
            return reject("detection_latency", "non-negative and finite", latency);
        }
        // Gossip detection runs its rounds at half the latency.
        if latency == 0.0 && g.detections.contains(&DetectionKind::Gossip) {
            return reject("detection_latency", "positive under gossip", latency);
        }
        Ok(())
    }
}

/// One finished cell of a job: the cell's key and its Monte-Carlo
/// aggregate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell key (see [`CellSpec::label`]).
    pub label: String,
    /// The cell's batch aggregate.
    pub summary: BatchSummary,
}

/// One streaming delta: a partial snapshot of a cell in progress,
/// appended to `results/<job>/deltas.jsonl`. Each snapshot covers **all
/// runs of the cell so far** (snapshots supersede each other — a client
/// only needs the latest line per cell).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// The job id.
    pub job: String,
    /// Index of the cell in the job's cell list.
    pub cell: usize,
    /// The cell key (see [`CellSpec::label`]).
    pub label: String,
    /// Runs executed so far.
    pub completed_runs: usize,
    /// Total runs of the cell.
    pub total_runs: usize,
    /// The partial aggregate over the runs so far — a well-defined
    /// [`BatchSummary`] (exactly the summary a `completed_runs`-run
    /// batch would produce).
    pub summary: BatchSummary,
}

/// The final record of a job, written atomically to
/// `results/<job>/final.json` when every cell finished.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FinalRecord {
    /// The job id.
    pub job: String,
    /// The submitting tenant.
    pub tenant: String,
    /// Every cell's final aggregate, in grid order — byte-identical to
    /// the same grid run directly through
    /// [`simulate_many`](ft_runtime::simulate_many).
    pub cells: Vec<CellResult>,
    /// Whether this job's workload resolution hit the artifact cache.
    pub cache: crate::cache::ResolveOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_spec_round_trips_and_validates() {
        let spec = JobSpec::example("alice");
        spec.validate().unwrap();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tenant, "alice");
        assert_eq!(back.grid.runs, spec.grid.runs);
        assert_eq!(back.delta_every, spec.delta_every);
        assert_eq!(back.cells().len(), spec.cells().len());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut spec = JobSpec::example("");
        assert!(spec.validate().is_err(), "empty tenant");
        spec.tenant = "t".into();
        spec.grid.runs = 0;
        assert!(spec.validate().is_err(), "zero runs");
        spec.grid.runs = 1;
        spec.grid.mttf_factors.clear();
        assert!(spec.validate().is_err(), "empty axis");
    }

    #[test]
    fn validate_rejects_unbuildable_workloads() {
        let ok = JobSpec::example("t");
        let mut spec = ok.clone();
        spec.workload.eps = spec.workload.procs;
        assert!(spec.validate().unwrap_err().contains("eps"));
        for g in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut spec = ok.clone();
            spec.workload.granularity = g;
            assert!(
                spec.validate().unwrap_err().contains("granularity"),
                "granularity {g}"
            );
        }
        // Grid knobs the engine's own asserts reject mid-run.
        type Break = fn(&mut SweepGrid);
        let cases: [(&str, Break); 15] = [
            ("mttf_factors", |g| g.mttf_factors.push(-1.0)),
            ("mttf_factors", |g| g.mttf_factors.push(0.0)),
            ("mttf_factors", |g| g.mttf_factors.push(f64::NAN)),
            ("mttf_factors", |g| g.mttf_factors.push(f64::INFINITY)),
            ("mttr_factors", |g| g.mttr_factors.push(Some(-1.0))),
            ("mttr_factors", |g| g.mttr_factors.push(Some(0.0))),
            ("mttr_factors", |g| g.mttr_factors.push(Some(f64::NAN))),
            ("checkpoint_intervals", |g| {
                g.checkpoint_intervals.push(-1.0)
            }),
            ("checkpoint_intervals", |g| {
                g.checkpoint_intervals.push(f64::NAN)
            }),
            ("checkpoint_overhead", |g| g.checkpoint_overhead = -1.0),
            ("checkpoint_overhead", |g| g.checkpoint_overhead = f64::NAN),
            // The roster's adaptive entry needs a positive overhead.
            ("checkpoint_overhead", |g| g.checkpoint_overhead = 0.0),
            ("detection_latency", |g| g.detection_latency = -1.0),
            ("detection_latency", |g| g.detection_latency = f64::NAN),
            ("detection_latency", |g| {
                g.detection_latency = 0.0;
                g.detections.push(DetectionKind::Gossip);
            }),
        ];
        for (i, (field, break_it)) in cases.iter().enumerate() {
            let mut spec = ok.clone();
            break_it(&mut spec.grid);
            let err = spec.validate().unwrap_err();
            assert!(err.contains(field), "case {i}: {err}");
        }
        // The edges the engine accepts stay accepted.
        let mut edge = ok.clone();
        edge.grid.checkpoint_intervals.push(f64::INFINITY);
        edge.grid.detection_latency = 0.0;
        edge.grid.mttr_factors.push(Some(0.5));
        edge.validate().unwrap();
    }
}
