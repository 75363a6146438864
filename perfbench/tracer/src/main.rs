//! Traced run of the perfbench workloads.
//!
//! The end-to-end numbers come from the real `lab` subcommands, which
//! carry no timers. This binary repeats each workload's work by
//! composing it from the layers' public calls, and times every call
//! from the outside:
//!
//! * `fig7_quick` / `serve_mix` cells: `bench_harness::build`
//!   (compiler), `BaselineStore::load` / `save` (bench), and
//!   `Workload::prepare` (workloads); the plain leg is a `Machine::run`
//!   loop and the ADORE leg the `Machine::run` → `Perfmon::on_overflow`
//!   → `Pipeline::run_window` loop that `adore::run` wraps;
//! * `fuzz_campaign`: `run_campaign` is one call, so the same number of
//!   freshly generated cases is timed through `oracle::generate`,
//!   `ProgSpec::assemble`, `Interp::run`, a plain `Machine::run` leg
//!   and `oracle::check_case`, alternating fast/threaded tiers by case
//!   seed as the campaign does. `check_case` repeats the assembly, the
//!   interpreter and both machine legs itself, so `oracle.check_ms`
//!   already contains work the separately timed calls measure again,
//!   and the `sim.*` counters describe only the extra plain leg.
//!
//! Usage:
//!
//! ```text
//! perfbench-tracer --workload fig7_quick|serve_mix|fuzz_campaign
//!                  --seed N [--store DIR]
//! ```
//!
//! One JSON object goes to stdout: per-layer `metrics`, the per-cell
//! simulated results (`cells`) the caller checks against the reference
//! rows, and any composed-loop mismatch found in-process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use adore::pipeline::OptContext;
use adore::{AdoreConfig, PassKind, Pipeline, RunReport};
use bench_harness::{BaselineStore, ExperimentSpec, StoredBaseline, FAMILY_ORDER, PAPER_ORDER};
use compiler::CompileOptions;
use obs::{Json, Report};
use oracle::{
    check_case, generate, CaseResult, CaseRunner, DiffConfig, GenConfig, Interp, Outcome,
};
use sim::{CacheConfig, ExecPath, Machine, MachineConfig, StopReason};
use workloads::Workload;

/// Pool workers, as the benchmark runs `lab` with `--jobs 2`.
const JOBS: usize = 2;
/// Traced fuzz cases: the untraced campaign's 16 rounds of 64.
const FUZZ_CASES: usize = 16 * 64;

/// Host time (ns) and work counts summed over one worker's calls.
#[derive(Debug, Default, Clone)]
struct Acc {
    ns: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
}

impl Acc {
    fn time<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.ns.entry(span).or_default() += t.elapsed().as_nanos() as u64;
        r
    }

    fn add(&mut self, key: &'static str, n: u64) {
        *self.count.entry(key).or_default() += n;
    }

    fn max(&mut self, key: &'static str, n: u64) {
        let e = self.count.entry(key).or_default();
        *e = (*e).max(n);
    }

    /// Adds another worker's totals; counts named `*_max` keep the
    /// larger value instead of summing.
    fn merge(&mut self, other: &Acc) {
        for (k, v) in &other.ns {
            *self.ns.entry(k).or_default() += v;
        }
        for (k, v) in &other.count {
            if k.ends_with("_max") {
                self.max(k, *v);
            } else {
                self.add(k, *v);
            }
        }
    }

    fn ns(&self, span: &str) -> u64 {
        self.ns.get(span).copied().unwrap_or(0)
    }

    fn n(&self, key: &str) -> u64 {
        self.count.get(key).copied().unwrap_or(0)
    }

    /// Folds a finished machine's architectural and cache counters into
    /// the `sim` totals. `generation0` is the code-store generation the
    /// run started from: it keeps counting across `Machine::reset`.
    fn machine(&mut self, m: &Machine, generation0: u64) {
        let c = &m.pmu().counters;
        self.add("sim.retired", m.retired());
        self.add("sim.cycles", m.cycles());
        self.add("sim.dtlb_misses", c.dtlb_misses);
        self.add("sim.stall_mem_cycles", c.stall_mem);
        self.add("sim.overhead_cycles", c.overhead_cycles);
        let [l1d, _l1i, l2, l3] = m.caches().cache_stats();
        self.add("sim.l1d_misses", l1d.1);
        self.add("sim.l2_misses", l2.1);
        self.add("sim.l3_misses", l3.1);
        let (issued, dropped) = m.caches().lfetch_stats();
        self.add("sim.lfetch_issued", issued);
        self.add("sim.lfetch_dropped", dropped);
        self.add("sim.code_generation", m.code_generation() - generation0);
        if let Some(j) = m.jit_stats() {
            self.add("sim.jit_regions_compiled", j.regions_compiled);
            self.add("sim.jit_deopts", j.deopts);
            self.add("sim.jit_region_entries", j.region_entries);
        }
    }
}

/// The ADORE leg as `adore::run` composes it, with each layer call
/// timed: `Machine::run` until the sample buffer overflows, then
/// `Perfmon::on_overflow` and `Pipeline::run_window` on the window.
/// Returns the report `adore::run` would return, minus the detach
/// teardown (which zeroes instrumentation buffers and touches neither
/// cycles nor retired counts).
fn composed_adore(m: &mut Machine, config: &AdoreConfig, acc: &mut Acc) -> RunReport {
    let mut perfmon = perfmon::Perfmon::new(config.perfmon.clone());
    let mut pipeline = Pipeline::from_config(&config.pipeline);
    let mut ctx = OptContext::new(config);
    loop {
        let retired = m.retired();
        let stop = acc.time("sim.sampled", || m.run(u64::MAX));
        acc.add("sim.retired.sampled", m.retired() - retired);
        if stop != StopReason::SampleBufferOverflow {
            break;
        }
        let window = acc.time("perfmon.overflow", || perfmon.on_overflow(m).clone());
        acc.add("perfmon.samples", window.samples.len() as u64);
        acc.time("adore.window", || {
            pipeline.run_window(&mut ctx, m, &window, perfmon.ueb())
        });
    }
    let mut report = RunReport {
        cycles: m.cycles(),
        retired: m.retired(),
        windows: perfmon.windows_produced(),
        ..RunReport::default()
    };
    ctx.finish(&mut report);
    report
}

/// Per-pass, stream, patch and policy counts of one ADORE leg.
fn adore_counts(r: &RunReport, acc: &mut Acc) {
    acc.add("perfmon.windows", r.windows);
    acc.add("adore.traces_patched", r.traces_patched as u64);
    acc.add("adore.traces_unpatched", r.traces_unpatched as u64);
    acc.add("adore.streams", r.stats.total() as u64);
    acc.add("adore.policy_fallbacks", r.policy.fallbacks);
    let trials = r
        .policy
        .decisions
        .iter()
        .filter(|d| d.action == "trial")
        .count();
    acc.add("adore.policy_trials", trials as u64);
    for (kind, l) in r.ledger.entries() {
        let i = PassKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("known pass");
        *acc.ns.entry(PASS_WALL[i]).or_default() += l.wall_ns;
        acc.add(PASS_CHARGED[i], l.charged_cycles);
        acc.add(PASS_ACCEPTED[i], l.accepted);
        acc.add(PASS_REJECTED[i], l.rejections.values().sum());
    }
}

macro_rules! pass_keys {
    ($suffix:literal) => {
        [
            concat!("adore.instr_promote.", $suffix),
            concat!("adore.phase_gate.", $suffix),
            concat!("adore.unpatch_monitor.", $suffix),
            concat!("adore.reopt_gate.", $suffix),
            concat!("adore.trace_select.", $suffix),
            concat!("adore.delinq_filter.", $suffix),
            concat!("adore.pattern_analyze.", $suffix),
            concat!("adore.prefetch_schedule.", $suffix),
            concat!("adore.patch_deploy.", $suffix),
        ]
    };
}

// Indexed like `PassKind::ALL`; `pass_names_follow_pass_kind_order`
// pins the correspondence.
const PASS_WALL: [&str; 9] = pass_keys!("wall");
const PASS_CHARGED: [&str; 9] = pass_keys!("charged_cycles");
const PASS_ACCEPTED: [&str; 9] = pass_keys!("accepted");
const PASS_REJECTED: [&str; 9] = pass_keys!("rejected");

/// The engine's per-cell sampling seed: FNV-1a over the cell identity,
/// finalized splitmix-style (mirrors `bench_harness::engine`, whose
/// helper is crate-private; the reference-row checks catch any drift).
fn cell_seed(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for b in p.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Measure {
    Plain,
    Comparison,
    Policy,
}

#[derive(Debug, Clone)]
struct CellSpec {
    workload: &'static str,
    o3: bool,
    tool: &'static str,
    section: &'static str,
    measure: Measure,
}

/// A plain baseline: from the store on a hit, simulated (and saved) on
/// a miss.
fn baseline(
    w: &Workload,
    opts: &CompileOptions,
    bin: &compiler::CompiledBinary,
    store: &BaselineStore,
    acc: &mut Acc,
) -> u64 {
    let machine = ExperimentSpec::paper_machine_config();
    let key = BaselineStore::key(w, opts, &machine);
    if let Some(hit) = acc.time("bench.store_load", || store.load(key)) {
        acc.add("bench.store_hits", 1);
        return hit.cycles;
    }
    acc.add("bench.store_misses", 1);
    let mut m = acc.time("workloads.prepare", || w.prepare(bin, machine));
    acc.add("workloads.prepared", 1);
    acc.add("sim.machine_builds", 1);
    let generation0 = m.code_generation();
    // No sampling on the plain leg: one call runs it to the end.
    acc.time("sim.plain", || m.run(u64::MAX));
    acc.add("sim.retired.plain", m.retired());
    acc.machine(&m, generation0);
    let entry = StoredBaseline {
        cycles: m.cycles(),
        counters: m.pmu().counters,
        stats: bench_harness::machine_stats_json(&m),
    };
    acc.time("bench.store_save", || store.save(key, &entry));
    entry.cycles
}

/// One ADORE leg: prepare a sampling machine and run the composed loop.
fn adore_leg(
    w: &Workload,
    bin: &compiler::CompiledBinary,
    config: &AdoreConfig,
    acc: &mut Acc,
) -> RunReport {
    let mcfg = config.machine_config(ExperimentSpec::paper_machine_config());
    let mut m = acc.time("workloads.prepare", || w.prepare(bin, mcfg));
    acc.add("workloads.prepared", 1);
    acc.add("sim.machine_builds", 1);
    let generation0 = m.code_generation();
    let r = composed_adore(&mut m, config, acc);
    acc.machine(&m, generation0);
    adore_counts(&r, acc);
    r
}

/// Runs `adore::run` on a fresh machine and reports whether the
/// composed leg reproduced its cycles and retired count.
fn matches_adore_run(
    w: &Workload,
    bin: &compiler::CompiledBinary,
    c: &AdoreConfig,
    r: &RunReport,
) -> bool {
    let mut m = w.prepare(
        bin,
        c.machine_config(ExperimentSpec::paper_machine_config()),
    );
    let want = adore::run(&mut m, c);
    (want.cycles, want.retired) == (r.cycles, r.retired)
}

/// Executes one engine cell from public calls; returns its simulated
/// result for the caller's checks.
fn engine_cell(spec: &CellSpec, suite: &[Workload], store: &BaselineStore, acc: &mut Acc) -> Json {
    let t = Instant::now();
    let w = suite
        .iter()
        .find(|w| w.name == spec.workload)
        .expect("known workload");
    let opts = if spec.o3 {
        CompileOptions::o3()
    } else {
        CompileOptions::o2()
    };
    let bin = acc
        .time("compiler.compile", || bench_harness::build(w, &opts))
        .expect("suite workloads compile");
    acc.add("compiler.binaries", 1);
    acc.add("compiler.bundles", bin.program.len() as u64);
    let base_cycles = baseline(w, &opts, &bin, store, acc);
    let mut out = Json::object()
        .with("workload", spec.workload)
        .with("tool", spec.tool)
        .with("section", spec.section)
        .with("base_cycles", base_cycles);
    let mut config = ExperimentSpec::paper_adore_config();
    config.sampling.seed = cell_seed(&[spec.tool, spec.section, spec.workload]);
    match spec.measure {
        Measure::Plain => {}
        Measure::Comparison => {
            let r = adore_leg(w, &bin, &config, acc);
            out.set("adore_cycles", r.cycles);
            out.set("adore_retired", r.retired);
        }
        Measure::Policy => {
            for (enable, key) in [(false, "static"), (true, "adaptive")] {
                config.policy.enable = enable;
                let r = adore_leg(w, &bin, &config, acc);
                out.set(&format!("{key}_cycles"), r.cycles);
                out.set(&format!("{key}_retired"), r.retired);
                // Policy rows carry no retired count to check against,
                // so these legs are checked against adore::run here.
                let ok = acc.time("verify", || matches_adore_run(w, &bin, &config, &r));
                out.set(&format!("{key}_matches_adore_run"), ok);
            }
        }
    }
    let ns = t.elapsed().as_nanos() as u64;
    acc.add("bench.cell_ns_sum", ns);
    acc.max("bench.cell_ns_max", ns);
    out
}

fn cells_for(workload: &str) -> (Vec<CellSpec>, Vec<CellSpec>) {
    let cell = |workload, o3, tool, section, measure| CellSpec {
        workload,
        o3,
        tool,
        section,
        measure,
    };
    match workload {
        "fig7_quick" => {
            let mut cells = Vec::new();
            for (o3, section) in [(false, "part_a"), (true, "part_b")] {
                for w in PAPER_ORDER {
                    cells.push(cell(w, o3, "fig7", section, Measure::Comparison));
                }
            }
            (Vec::new(), cells)
        }
        "serve_mix" => {
            let names: Vec<&'static str> = PAPER_ORDER
                .iter()
                .chain(FAMILY_ORDER.iter())
                .copied()
                .collect();
            let warm = names
                .iter()
                .map(|w| cell(w, false, "serve", "cells", Measure::Plain))
                .collect();
            let mut cells: Vec<CellSpec> = names
                .iter()
                .map(|w| cell(w, false, "fig7", "part_a", Measure::Comparison))
                .collect();
            cells.extend(
                names
                    .iter()
                    .map(|w| cell(w, false, "policy", "grid", Measure::Policy)),
            );
            (warm, cells)
        }
        other => panic!("no engine cells for workload `{other}`"),
    }
}

fn traced_engine(
    workload: &str,
    store_dir: PathBuf,
) -> (Acc, Vec<Json>, obs::pool::PoolStats, u64) {
    let suite = workloads::all(bench_harness::QUICK_SCALE);
    let store = BaselineStore::open(store_dir).expect("open baseline store");
    let (warm, cells) = cells_for(workload);
    // Setup (serve_mix): warm the store untraced, as the benchmark does
    // before its timed region.
    obs::pool::run_indexed(
        JOBS,
        warm,
        |_| Acc::default(),
        |acc, _, c| engine_cell(&c, &suite, &store, acc),
    );
    let t = Instant::now();
    let (rows, accs, stats) = obs::pool::run_indexed(
        JOBS,
        cells,
        |_| Acc::default(),
        |acc, _, c| engine_cell(&c, &suite, &store, acc),
    );
    let mut acc = Acc::default();
    for a in &accs {
        acc.merge(a);
    }
    // The report layer: serialize the traced rows into a report and
    // write it next to the store.
    acc.time("obs.report", || {
        let mut report = Report::new("perfbench_trace");
        report.set("rows", rows.as_slice());
        report.save().expect("write trace report")
    });
    (acc, rows, stats, t.elapsed().as_nanos() as u64)
}

/// Mirrors the oracle harness's machine geometry for the fuzz plain
/// leg (shrunken caches, 64 KiB scratch beyond the arena); the leg's
/// retired count is checked against the interpreter's.
fn fuzz_machine_config(spec: &oracle::ProgSpec, path: ExecPath) -> MachineConfig {
    MachineConfig {
        cache: CacheConfig {
            l1d_size: 4096,
            l2_size: 16 * 1024,
            l3_size: 48 * 1024,
            ..CacheConfig::default()
        },
        mem_capacity: (spec.arena_bytes + 64 * 1024) as usize,
        sampling: None,
        exec_path: path,
        ..MachineConfig::default()
    }
}

#[derive(Default)]
struct FuzzWorker {
    acc: Acc,
    runner: CaseRunner,
    plain: [Option<Machine>; 3],
}

fn fuzz_case(st: &mut FuzzWorker, case_seed: u64) -> Json {
    let t = Instant::now();
    let acc = &mut st.acc;
    let diff = DiffConfig {
        exec_path: if case_seed % 2 == 1 {
            ExecPath::Threaded
        } else {
            ExecPath::Fast
        },
        ..DiffConfig::default()
    };
    let (spec, _) = acc.time("oracle.generate", || {
        generate(case_seed, &GenConfig::default())
    });
    acc.add("oracle.cases", 1);
    let mut out = Json::object().with("seed", case_seed);
    let Ok(program) = acc.time("isa.assemble", || spec.assemble()) else {
        return out.with("verdict", "undecided");
    };
    let mcfg = fuzz_machine_config(&spec, diff.exec_path);
    let mut interp = Interp::new(program.clone(), mcfg.mem_capacity);
    spec.init_memory(interp.mem_mut());
    let outcome = acc.time("oracle.interp", || interp.run(diff.fuel));
    acc.add("oracle.interp_retired", interp.retired());

    // Plain leg on a per-tier machine, reset in place like the oracle's
    // runner, for the sim-layer counters check_case keeps private.
    let slot = &mut st.plain[diff.exec_path as usize];
    let m = match slot {
        Some(m) if m.mem().capacity() == mcfg.mem_capacity => {
            m.reset(program, None);
            m
        }
        _ => slot.insert(Machine::new(program, mcfg)),
    };
    spec.init_memory(m.mem_mut());
    let generation0 = m.code_generation();
    let stop = acc.time("sim.plain", || m.run(diff.cycle_limit));
    acc.add("sim.retired.plain", m.retired());
    acc.machine(m, generation0);
    if outcome == Outcome::Halted && stop == StopReason::Halted && m.retired() != interp.retired() {
        out.set("plain_retired_mismatch", true);
    }

    let (result, _) = acc.time("oracle.check", || check_case(&spec, &diff, &mut st.runner));
    let verdict = match result {
        CaseResult::Agree { .. } => "agree",
        CaseResult::Inconclusive { .. } => "inconclusive",
        CaseResult::Undecided(_) => "undecided",
        CaseResult::Mismatch(_) => "mismatch",
    };
    let ns = t.elapsed().as_nanos() as u64;
    acc.add("bench.cell_ns_sum", ns);
    acc.max("bench.cell_ns_max", ns);
    out.with("verdict", verdict)
}

/// SplitMix64 step: the traced fuzz run's case seeds.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn traced_fuzz(seed: u64) -> (Acc, Vec<Json>, obs::pool::PoolStats, u64) {
    let mut state = seed;
    let seeds: Vec<u64> = (0..FUZZ_CASES).map(|_| splitmix(&mut state)).collect();
    let t = Instant::now();
    let (rows, workers, stats) = obs::pool::run_indexed(
        JOBS,
        seeds,
        |_| FuzzWorker::default(),
        |st, _, s| fuzz_case(st, s),
    );
    let mut acc = Acc::default();
    for w in &workers {
        acc.merge(&w.acc);
        acc.add("sim.machine_builds", w.runner.builds);
        acc.add("sim.machine_resets", w.runner.resets);
    }
    (acc, rows, stats, t.elapsed().as_nanos() as u64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The timed calls made inside a cell, which do not overlap each
/// other (per-pass wall time sits inside `adore.window`).
const CELL_SPANS: [&str; 13] = [
    "sim.plain",
    "sim.sampled",
    "perfmon.overflow",
    "adore.window",
    "compiler.compile",
    "workloads.prepare",
    "bench.store_load",
    "bench.store_save",
    "oracle.generate",
    "oracle.interp",
    "oracle.check",
    "isa.assemble",
    "verify",
];

/// The per-layer metric table (names as in `BENCHMARK.json`).
fn metrics(acc: &Acc, stats: &obs::pool::PoolStats) -> Json {
    let mut m = Json::object();
    let plain = acc.ns("sim.plain");
    let sampled = acc.ns("sim.sampled");
    m.set("sim.run_ms", ms(plain + sampled));
    m.set(
        "sim.ns_per_insn.plain",
        ratio(plain, acc.n("sim.retired.plain")),
    );
    m.set(
        "sim.ns_per_insn.sampled",
        ratio(sampled, acc.n("sim.retired.sampled")),
    );
    for k in [
        "sim.retired",
        "sim.cycles",
        "sim.l1d_misses",
        "sim.l2_misses",
        "sim.l3_misses",
        "sim.dtlb_misses",
        "sim.stall_mem_cycles",
        "sim.lfetch_issued",
        "sim.code_generation",
        "sim.jit_regions_compiled",
        "sim.jit_deopts",
        "sim.jit_region_entries",
        "sim.machine_builds",
        "sim.machine_resets",
        "perfmon.windows",
        "perfmon.samples",
        "adore.traces_patched",
        "adore.traces_unpatched",
        "adore.streams",
        "adore.policy_trials",
        "adore.policy_fallbacks",
        "oracle.cases",
        "compiler.binaries",
        "compiler.bundles",
        "workloads.prepared",
        "bench.store_hits",
        "bench.store_misses",
    ] {
        m.set(k, acc.n(k));
    }
    m.set(
        "sim.lfetch_drop_ratio",
        ratio(acc.n("sim.lfetch_dropped"), acc.n("sim.lfetch_issued")),
    );
    m.set("perfmon.overflow_ms", ms(acc.ns("perfmon.overflow")));
    m.set("adore.window_ms", ms(acc.ns("adore.window")));
    for i in 0..PassKind::ALL.len() {
        m.set(
            &PASS_WALL[i].replace(".wall", ".wall_ms"),
            ms(acc.ns(PASS_WALL[i])),
        );
        m.set(PASS_CHARGED[i], acc.n(PASS_CHARGED[i]));
        m.set(PASS_ACCEPTED[i], acc.n(PASS_ACCEPTED[i]));
        m.set(PASS_REJECTED[i], acc.n(PASS_REJECTED[i]));
    }
    // Fig. 11's share: cycles the runtime charged to the main thread
    // (sampling, handler copies, patch publication) over ADORE-leg
    // cycles. Plain legs charge none.
    m.set(
        "adore.overhead_pct",
        100.0 * ratio(acc.n("sim.overhead_cycles"), acc.n("sim.cycles.adore")),
    );
    m.set("oracle.generate_ms", ms(acc.ns("oracle.generate")));
    m.set("oracle.interp_ms", ms(acc.ns("oracle.interp")));
    m.set(
        "oracle.interp_ns_per_insn",
        ratio(acc.ns("oracle.interp"), acc.n("oracle.interp_retired")),
    );
    m.set("oracle.check_ms", ms(acc.ns("oracle.check")));
    m.set("isa.assemble_ms", ms(acc.ns("isa.assemble")));
    m.set("compiler.compile_ms", ms(acc.ns("compiler.compile")));
    m.set("workloads.prepare_ms", ms(acc.ns("workloads.prepare")));
    m.set("bench.cell_ms_sum", ms(acc.n("bench.cell_ns_sum")));
    m.set("bench.cell_ms_max", ms(acc.n("bench.cell_ns_max")));
    m.set("bench.store_load_ms", ms(acc.ns("bench.store_load")));
    m.set("bench.store_save_ms", ms(acc.ns("bench.store_save")));
    m.set("obs.report_ms", ms(acc.ns("obs.report")));
    m.set("obs.pool_stolen", stats.stolen);
    m.set("obs.pool_queue_hwm", stats.queue_hwm as u64);
    // Time inside cells that no timed call covers (glue, row building).
    let spans: u64 = CELL_SPANS.iter().map(|s| acc.ns(s)).sum();
    m.set(
        "trace.unattributed_ms",
        ms(acc.n("bench.cell_ns_sum").saturating_sub(spans)),
    );
    m.set("trace.verify_ms", ms(acc.ns("verify")));
    m
}

/// Command-line options, checked where they enter.
struct Opts {
    workload: String,
    seed: u64,
    store: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let store = value("--store").map(PathBuf::from);
    match workload.as_str() {
        "fuzz_campaign" => {}
        "fig7_quick" | "serve_mix" if store.is_some() => {}
        "fig7_quick" | "serve_mix" => return Err("--store is required".into()),
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(Opts {
        workload,
        seed,
        store,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = parse_opts(&args).unwrap_or_else(|e| {
        eprintln!(
            "perfbench-tracer: {e}\nusage: perfbench-tracer --workload \
             fig7_quick|serve_mix|fuzz_campaign --seed N [--store DIR]"
        );
        std::process::exit(2);
    });
    let workload = opts.workload.as_str();
    let (mut acc, rows, stats, wall_ns) = match (workload, opts.store) {
        ("fuzz_campaign", _) => traced_fuzz(opts.seed),
        (_, Some(store)) => traced_engine(workload, store),
        (_, None) => unreachable!("parse_opts requires --store for engine workloads"),
    };
    // ADORE-leg cycles are total cycles minus plain-leg cycles, which
    // only the per-leg split can tell apart: recompute from rows.
    let adore_cycles: u64 = rows
        .iter()
        .map(|r| {
            ["adore_cycles", "static_cycles", "adaptive_cycles"]
                .iter()
                .filter_map(|k| r.get(k).and_then(Json::as_u64))
                .sum::<u64>()
        })
        .sum();
    acc.add("sim.cycles.adore", adore_cycles);
    let out = Json::object()
        .with("workload", workload)
        .with("wall_ms", ms(wall_ns))
        .with("metrics", metrics(&acc, &stats))
        .with("cells", rows.as_slice());
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_names_follow_pass_kind_order() {
        for (i, kind) in PassKind::ALL.iter().enumerate() {
            assert_eq!(PASS_WALL[i], format!("adore.{}.wall", kind.name()));
        }
    }

    /// The composed loop must reproduce `adore::run` exactly: same
    /// cycles, same retired count, same windows and patches.
    #[test]
    fn composed_loop_matches_adore_run() {
        let suite = workloads::all(0.05);
        let w = suite.iter().find(|w| w.name == "mcf").expect("mcf");
        let bin = bench_harness::build(w, &CompileOptions::o2()).expect("compile");
        let mut config = ExperimentSpec::paper_adore_config();
        config.sampling.seed = cell_seed(&["fig7", "part_a", "mcf"]);
        let mut acc = Acc::default();
        let r = adore_leg(w, &bin, &config, &mut acc);
        assert!(r.windows > 0, "the leg must sample");
        let mut m = w.prepare(
            &bin,
            config.machine_config(ExperimentSpec::paper_machine_config()),
        );
        let want = adore::run(&mut m, &config);
        assert_eq!(
            (r.cycles, r.retired, r.windows),
            (want.cycles, want.retired, want.windows)
        );
        assert_eq!(r.traces_patched, want.traces_patched);
        assert!(matches_adore_run(w, &bin, &config, &r));
    }
}
