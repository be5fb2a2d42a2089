//! Schedule-identity golden: every scheduler's output, byte for byte.
//!
//! Digests of the serialized `caft`, `caft_hardened`, `ftsa`, `ftbar`,
//! windowed-CAFT and insertion-CAFT schedules on 50 seeded random
//! instances spread over the paper's v/m/ε axes (plus granularity,
//! topology and communication model), and of `caft_on_subdag` outcomes on seeded random remnant,
//! frontier, survivor and release specs. A refactor of the scheduling
//! machinery that changes a single placement, message or float bit fails
//! here, so the old implementation need not be kept around to compare
//! against.
//!
//! To bless an intentional change, regenerate the file:
//!
//! ```text
//! BLESS_SCHEDULE_GOLDEN=1 cargo test -p ft-algos --test schedule_identity
//! ```

use ft_algos::{
    caft, caft_hardened, caft_on_subdag, caft_windowed, caft_with, ftbar, ftsa, CaftOptions,
    CommModel, SubDagSpec,
};
use ft_graph::gen::{random_layered, RandomDagParams};
use ft_graph::{topological_order, TaskId};
use ft_model::{FtSchedule, Replica, ReplicaRef};
use ft_platform::{random_instance, Instance, PlatformParams, ProcId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/schedule_identity.txt");

/// FNV-1a over the bytes: stable across platforms and toolchains.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn schedule_digest(s: &FtSchedule) -> u64 {
    digest(
        serde_json::to_string(s)
            .expect("schedules serialize")
            .as_bytes(),
    )
}

/// One seeded instance on the v/m/ε axes.
struct Case {
    inst: Instance,
    eps: usize,
    model: CommModel,
    label: String,
}

fn case(i: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + i);
    let v = [20usize, 35, 50, 65, 80][rng.gen_range(0..5usize)];
    let m = [4usize, 6, 8, 10, 12][rng.gen_range(0..5usize)];
    let eps = rng.gen_range(0..4usize).min(m - 1);
    let gran = [0.2, 1.0, 5.0][rng.gen_range(0..3usize)];
    let topology = match rng.gen_range(0..6u32) {
        0 => Topology::Ring,
        1 => Topology::Star,
        _ => Topology::Clique,
    };
    let model = if rng.gen_range(0..4u32) == 0 {
        CommModel::MacroDataflow
    } else {
        CommModel::OnePort
    };
    let g = random_layered(&RandomDagParams::default().with_tasks(v), &mut rng);
    let params = PlatformParams::default()
        .with_procs(m)
        .with_topology(topology.clone());
    let inst = random_instance(g, &params, gran, &mut rng);
    let label = format!("v={v} m={m} eps={eps} gran={gran} {topology:?} {model:?}");
    Case {
        inst,
        eps,
        model,
        label,
    }
}

/// A seeded random repair spec: a topological prefix has executed, its
/// outputs survive on a random subset of processors (sometimes nowhere),
/// and a random subset of the platform may host the new placements.
fn subdag_spec(inst: &Instance, rng: &mut StdRng) -> SubDagSpec {
    let v = inst.num_tasks();
    let m = inst.num_procs();
    let order = topological_order(&inst.graph);
    let executed = rng.gen_range(0..v);
    let mut remnant = vec![true; v];
    let mut finish = vec![0.0f64; v];
    let mut clock = 0.0;
    for &t in &order[..executed] {
        remnant[t.index()] = false;
        clock += rng.gen_range(0.5..2.0);
        finish[t.index()] = clock;
    }
    let release = clock + rng.gen_range(0.0..3.0);
    let mut sources = vec![Vec::new(); v];
    for &t in &order[..executed] {
        let feeds_remnant = inst.graph.successors(t).any(|s: TaskId| remnant[s.index()]);
        if !feeds_remnant {
            continue;
        }
        // 0..=3 surviving copies on distinct processors (0 = data lost).
        let copies = rng.gen_range(0..4usize).min(m);
        let mut procs: Vec<usize> = (0..m).collect();
        for c in 0..copies {
            let k = rng.gen_range(c..m);
            procs.swap(c, k);
            let at = finish[t.index()] + rng.gen_range(0.0..1.0);
            sources[t.index()].push(Replica {
                of: ReplicaRef::new(t, c),
                proc: ProcId::from_index(procs[c]),
                start: at,
                finish: at,
            });
        }
    }
    let mut alive: Vec<ProcId> = (0..m)
        .filter(|_| rng.gen_range(0..4u32) != 0)
        .map(ProcId::from_index)
        .collect();
    if alive.is_empty() {
        alive.push(ProcId::from_index(rng.gen_range(0..m)));
    }
    SubDagSpec {
        remnant,
        sources,
        alive,
        release,
    }
}

fn render() -> String {
    let mut out = String::new();
    for i in 0..50u64 {
        let c = case(i);
        let seed = i * 7 + 1;
        let insertion = CaftOptions {
            eps: c.eps,
            model: c.model,
            seed,
            insertion: true,
            ..CaftOptions::default()
        };
        let runs: [(&str, FtSchedule); 6] = [
            ("caft", caft(&c.inst, c.eps, c.model, seed)),
            (
                "caft_hardened",
                caft_hardened(&c.inst, c.eps, c.model, seed),
            ),
            ("ftsa", ftsa(&c.inst, c.eps, c.model, seed)),
            ("ftbar", ftbar(&c.inst, c.eps, c.model, seed)),
            (
                "caft_windowed4",
                caft_windowed(&c.inst, c.eps, c.model, seed, 4),
            ),
            ("caft_insertion", caft_with(&c.inst, insertion)),
        ];
        for (name, s) in &runs {
            writeln!(
                out,
                "inst{i:02} {name:<15} {:<40} msgs={:<5} {:016x}",
                c.label,
                s.messages.len(),
                schedule_digest(s)
            )
            .unwrap();
        }
    }
    for i in 0..30u64 {
        let c = case(100 + i);
        let mut rng = StdRng::seed_from_u64(0xd1ff_0000 + i);
        let spec = subdag_spec(&c.inst, &mut rng);
        let opts = CaftOptions {
            eps: rng.gen_range(0..4usize),
            model: c.model,
            seed: rng.gen(),
            disjoint_lineages: rng.gen_range(0..4u32) == 0,
            ..CaftOptions::default()
        };
        let outcome = caft_on_subdag(&c.inst, &spec, &opts);
        let unscheduled: Vec<u32> = outcome.unscheduled.iter().map(|t| t.0).collect();
        writeln!(
            out,
            "subdag{i:02} {:<40} alive={:<2} eps={} hardened={:<5} msgs={:<5} unscheduled={:<3} {:016x} {:016x}",
            c.label,
            spec.alive.len(),
            opts.eps,
            opts.disjoint_lineages,
            outcome.schedule.messages.len(),
            unscheduled.len(),
            schedule_digest(&outcome.schedule),
            digest(format!("{unscheduled:?}").as_bytes())
        )
        .unwrap();
    }
    out
}

#[test]
fn schedules_match_the_golden_digests() {
    let rendered = render();
    if std::env::var("BLESS_SCHEDULE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("writable golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing golden file — run with BLESS_SCHEDULE_GOLDEN=1 to generate it");
    let drifted: Vec<String> = golden
        .lines()
        .zip(rendered.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("golden:   {a}\nrendered: {b}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == rendered.lines().count(),
        "{} schedule(s) drifted from the golden digests.\n\
         If the change is intentional, bless it with BLESS_SCHEDULE_GOLDEN=1.\n\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
