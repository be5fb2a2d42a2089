//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <sweep-warm|sched-cold|storm-contended> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the workload
//! untraced and reports every end-to-end metric of `BENCHMARK.json`;
//! `--trace 1` runs the same workload once untraced and once through the
//! span recorder and reports every per-layer metric. Inputs derive only
//! from `--seed`. Outputs are checked outside the timed window, and every
//! failed check counts as a failed operation. The last line of standard
//! output is one JSON object; the lines before it record the
//! environment and explain the numbers.

mod serve;
mod storm;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["sweep-warm", "sched-cold", "storm-contended"];

/// Engine policy names, in the order `engine_us.<policy>` metrics and
/// span tags use.
pub const POLICIES: [&str; 6] = [
    "absorb",
    "re-replicate",
    "reschedule",
    "warm-spare",
    "checkpoint",
    "adaptive-checkpoint",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run hands back: operations attempted and failed,
/// the metrics by name, and human-readable notes printed above the JSON.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one operation; `failure` names what went wrong, if anything.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {why}"));
            }
        }
    }
}

/// Runs one operation of the program, turning a panic into an error so
/// that it counts as a failed operation instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// SplitMix64 finalizer: decorrelated per-item seeds from the run seed.
pub fn mix(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile `q` of `xs` (sorted in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// Set-up timings of one run. The first set-up builds what the run
/// uses; further repetitions are spread over the measurement window
/// (at most one per `every`, between operations and outside their timed
/// intervals), so their median samples the host across the whole run
/// rather than one moment of it.
pub struct SetupClock {
    times: Vec<f64>,
    every: Duration,
    next: Instant,
}

impl SetupClock {
    pub fn first<T>(
        every: Duration,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(SetupClock, T), String> {
        let t = Instant::now();
        let built = setup()?;
        let clock = SetupClock {
            times: vec![t.elapsed().as_secs_f64()],
            every,
            next: Instant::now() + every,
        };
        Ok((clock, built))
    }

    /// Times one more set-up if the interval has passed; the product is
    /// dropped. Returns the set-up's error, if any.
    pub fn tick<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Option<String> {
        if Instant::now() < self.next {
            return None;
        }
        let t = Instant::now();
        let built = setup();
        self.times.push(t.elapsed().as_secs_f64());
        self.next = Instant::now() + self.every;
        built.err()
    }

    pub fn reps(&self) -> usize {
        self.times.len()
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Sets the closed-loop timing metrics from per-operation latencies (in
/// completion order): throughput and engine runs per busy second, and
/// the latency median and 90th percentile.
pub fn timing_metrics(report: &mut Report, latency_s: &[f64], runs_per_op: usize) {
    let busy: f64 = latency_s.iter().sum();
    let mut ms: Vec<f64> = latency_s.iter().map(|s| s * 1e3).collect();
    report.set("jobs_per_s", latency_s.len() as f64 / busy);
    report.set("runs_per_s", (latency_s.len() * runs_per_op) as f64 / busy);
    report.set("job_ms_p50", quantile(&mut ms, 0.5));
    report.set("job_ms_p90", quantile(&mut ms, 0.9));
}

/// Words of a CPU mask (room for 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Starts each operation on the next of the cores the process may use.
/// On a shared host the cores do not run at the same speed (on the
/// 2-vCPU host this was tuned on, one ran a fixed loop 10% slower than
/// the other), and a mostly single-threaded loop stays on whichever core
/// the scheduler first gave it, so a run's figures depended on that
/// draw. `advance` moves the calling thread by narrowing its affinity to
/// one core and then restores the full mask, so threads spawned later
/// may still use every core. Does nothing if the affinity calls fail.
pub struct CoreRotation {
    all: [u64; MASK_WORDS],
    cores: Vec<usize>,
    next: usize,
}

impl Default for CoreRotation {
    fn default() -> Self {
        let mut all = [0u64; MASK_WORDS];
        // SAFETY: `all` is a writable buffer of exactly the size passed
        // and outlives the call; pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&all), all.as_mut_ptr()) } == 0;
        let cores = (0..MASK_WORDS * 64)
            .filter(|&c| ok && (all[c / 64] >> (c % 64)) & 1 == 1)
            .collect();
        CoreRotation {
            all,
            cores,
            next: 0,
        }
    }
}

impl CoreRotation {
    pub fn advance(&mut self) {
        if self.cores.len() < 2 {
            return;
        }
        let core = self.cores[self.next % self.cores.len()];
        self.next += 1;
        let mut one = [0u64; MASK_WORDS];
        one[core / 64] |= 1 << (core % 64);
        for mask in [&one, &self.all] {
            // SAFETY: `mask` is an initialized buffer of exactly the size
            // passed and outlives the call; pid 0 names the calling
            // thread. A failure leaves the affinity unchanged, which only
            // skips this move.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        }
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Caps rayon at the core count and returns (cores, rayon threads).
fn pin_threads() -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let threads = requested.map_or(cores, |n| n.min(cores));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    (cores, threads)
}

fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// Metric names and units promised by `BENCHMARK.json` for one mode.
fn contract(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let serde::Value::Seq(entries) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    entries
        .iter()
        .map(|e| match (e.get("name"), e.get("unit")) {
            (serde::Value::Str(n), serde::Value::Str(u)) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
        })
        .collect()
}

/// The scratch directory of one run, inside the checkout.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let path = Path::new(".perfbench_work").join(format!(
            "{}-seed{}-trace{}-pid{}",
            args.workload,
            args.seed,
            u8::from(args.trace),
            std::process::id()
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("clearing {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// The path of a sub-directory (e.g. one service root); `name`
    /// must be unique within the run.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes the recorded spans next to the work directories; they outlive
/// the run's scratch directory.
pub fn write_spans(args: &Args, tracer: &trace::Tracer) -> Result<PathBuf, String> {
    let dir = Path::new(".perfbench_work").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let promised = contract(args.trace)?;
    let (cores, rayon_threads) = pin_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env nproc={cores} rayon_threads={rayon_threads} daemon_workers=1 rev={}",
        revision()
    );
    let work = WorkDir::create(&args)?;
    let report = match args.workload.as_str() {
        "storm-contended" => storm::run(&args)?,
        _ => serve::run(&args, &work)?,
    };
    drop(work);
    for line in &report.notes {
        println!("  {line}");
    }
    println!(
        "failed_share={} ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    // Every promised metric, in BENCHMARK.json order, and nothing else.
    let mut emitted: Vec<&String> = report.metrics.keys().collect();
    let mut names: Vec<&String> = promised.iter().map(|(n, _)| n).collect();
    emitted.sort();
    names.sort();
    if emitted != names {
        return Err(format!(
            "metric set differs from BENCHMARK.json: emitted {emitted:?}, promised {names:?}"
        ));
    }
    let mut fields = Vec::with_capacity(promised.len());
    for (name, unit) in &promised {
        let value = report.metrics[name];
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if report.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(x: f64) -> String {
    let s = format!("{x:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
