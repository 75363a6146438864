//! `lab fuzz` — differential fuzzing driver: proves ADORE preserves
//! program semantics (see `crates/oracle` and DESIGN.md §"Differential
//! oracle").
//!
//! Two modes share the three-way oracle (reference interpreter, plain
//! machine, ADORE machine) and the `results/fuzz.json` report:
//!
//! * **classic** (default): generates `--cases` independent seeded
//!   programs and checks each once, fanned out over
//!   [`obs::pool::run_indexed`] with one snapshot-reset
//!   [`CaseRunner`] per worker shard;
//! * **campaign** (`--campaign`): the coverage-guided engine from
//!   `oracle::campaign` — corpus scheduling, bundle-level mutation,
//!   snapshot-reset machines, and a persistent minimized corpus
//!   directory.
//!
//! Either way, any architectural divergence fails the run (exit 1);
//! mismatching cases are shrunk and written to `tests/corpus/`, where
//! the `corpus_replay` test re-checks them on every `cargo test`.
//!
//! `--pass=NAME` restricts the ADORE leg to a pipeline with that single
//! pass active (see `adore::PassKind` for names) — a targeted probe
//! that any pass alone, run against an otherwise empty pipeline, still
//! preserves semantics.
//!
//! The campaign corpus directory resolves from `--campaign-dir=`, then
//! the `ADORE_CAMPAIGN_DIR` environment variable, then
//! `corpus/campaign/` under the workspace root.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use obs::{Json, Report};
use oracle::{
    check_case, generate, run_campaign, shrink, CampaignConfig, CaseResult, CaseRunner, Coverage,
    DiffConfig, GenConfig,
};

use crate::cli::{Cli, Registry};
use crate::lab::workspace_path;

pub(crate) const ABOUT: &str = "differential fuzzing of ADORE semantics (classic or campaign)";

pub(crate) fn registry() -> Registry {
    Registry::new("fuzz", ABOUT)
        .uint("cases", None, "classic mode: case count (default: 512, or 128 with --quick)")
        .uint("seed", Some("1"), "base RNG seed")
        .value(
            "exec-path",
            Some("fast"),
            format!(
                "simulator execution path: {}; campaign mode alternates \
                 fast/threaded per case when unset",
                sim::ExecPath::VALUE_LIST
            ),
        )
        .value("pass", None, "restrict the ADORE leg to this single pipeline pass")
        .value("policy", None, "force the adaptive policy controller: on | off (default: alternate by seed)")
        .flag("campaign", "run the coverage-guided campaign instead of classic mode")
        .uint("rounds", None, "campaign: mutation rounds")
        .uint("batch", None, "campaign: cases per round")
        .uint("minimize-evals", None, "campaign: shrink budget per mismatch")
        .value("campaign-dir", None, "campaign: corpus directory (env ADORE_CAMPAIGN_DIR)")
        .flag("progress", "campaign: per-round progress on stderr")
}

/// Simulator execution path selected by `--exec-path=...` (any of
/// [`sim::ExecPath::VALUE_LIST`]). `None` when the flag is absent:
/// classic mode then defaults to the fast path, campaign mode
/// alternates fast/threaded per case seed.
fn exec_path_flag(cli: &Cli) -> Option<sim::ExecPath> {
    cli.flag_value("exec-path").map(|v| {
        v.parse().unwrap_or_else(|e: String| {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        })
    })
}

/// `--policy=on|off` controller override for the ADORE leg; absent
/// keeps the oracle's seed-derived alternation.
fn policy_flag(cli: &Cli) -> Option<bool> {
    cli.flag_value("policy").map(|v| match v {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("fuzz: --policy: expected on|off, got {other:?}");
            std::process::exit(2);
        }
    })
}

/// `--pass=NAME` pipeline restriction for the ADORE leg.
fn only_pass_flag(cli: &Cli) -> Option<adore::PassKind> {
    cli.flag_value("pass").map(|name| {
        name.parse().unwrap_or_else(|e: String| {
            eprintln!("fuzz: --pass: {e}");
            std::process::exit(2);
        })
    })
}

/// `tests/corpus/` (mismatch reproducers), overridable with
/// `ADORE_CORPUS_DIR`.
fn corpus_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("ADORE_CORPUS_DIR") {
        return PathBuf::from(dir);
    }
    workspace_path("tests/corpus")
}

/// Shrinks a mismatching spec and writes its reproducer to
/// `tests/corpus/`, returning the file path and shrunk size.
fn write_reproducer(spec: &oracle::ProgSpec, case_seed: u64) -> (PathBuf, usize) {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let file = dir.join(format!("fuzz_{case_seed:016x}.txt"));
    std::fs::write(&file, oracle::serialize_repro(spec)).expect("write reproducer");
    (file, spec.items.len())
}

enum CaseReport {
    Agree { outcome_label: &'static str, traces_patched: usize },
    Inconclusive { leg: &'static str, why: String },
    Undecided { why: String },
    Mismatch { stage: &'static str, detail: String, shrunk_items: usize, file: PathBuf },
}

pub(crate) fn run(cli: Cli) {
    if cli.flag("campaign") {
        campaign_main(&cli);
        return;
    }
    classic_main(&cli);
}

/// The coverage-guided campaign mode (`--campaign`).
fn campaign_main(cli: &Cli) {
    let exec_path = exec_path_flag(cli);
    let only_pass = only_pass_flag(cli);
    let campaign_dir = cli
        .flag_value("campaign-dir")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("ADORE_CAMPAIGN_DIR").map(PathBuf::from))
        .unwrap_or_else(|| workspace_path("corpus/campaign"));
    // An explicit --exec-path pins every case to that tier; leaving it
    // unset lets the campaign alternate fast/threaded by case seed so
    // one run exercises both the cycle-exact loop and the compile tier.
    let path_label =
        exec_path.map_or_else(|| "alternate".to_string(), |p| p.to_string());
    let defaults = CampaignConfig::default();
    let cfg = CampaignConfig {
        rounds: cli.flag_uint("rounds").unwrap_or(defaults.rounds as u64) as usize,
        batch: cli.flag_uint("batch").unwrap_or(defaults.batch as u64) as usize,
        seed: cli.flag_uint("seed").unwrap_or(1),
        jobs: cli.jobs.max(1),
        alternate_exec: exec_path.is_none(),
        diff: DiffConfig {
            exec_path: exec_path.unwrap_or(sim::ExecPath::Fast),
            pipeline: only_pass.map(adore::PipelineConfig::only),
            policy: policy_flag(cli),
            ..DiffConfig::default()
        },
        corpus_dir: Some(campaign_dir),
        minimize_evals: cli
            .flag_uint("minimize-evals")
            .unwrap_or(defaults.minimize_evals as u64) as usize,
        progress: cli.flag("progress"),
        ..defaults
    };

    let started = Instant::now();
    let stats = run_campaign(&cfg);
    let wall = started.elapsed();

    let mut mismatch_rows = Json::array();
    for m in &stats.mismatches {
        let (file, shrunk_items) = write_reproducer(&m.spec, m.case_seed);
        eprintln!(
            "[fuzz] MISMATCH seed {:#x} at {}: {} — reproducer {}",
            m.case_seed,
            m.stage,
            m.detail,
            file.display()
        );
        mismatch_rows.push(
            Json::object()
                .with("seed", m.case_seed)
                .with("stage", m.stage)
                .with("detail", m.detail.as_str())
                .with("shrunk_items", shrunk_items as u64)
                .with("corpus_file", file.display().to_string()),
        );
    }

    let mut outcome_obj = Json::object();
    for (label, count) in &stats.outcomes {
        outcome_obj.set(label, *count);
    }
    let mut coverage_obj = Json::object();
    for (name, count) in stats.features.fields() {
        coverage_obj.set(name, count);
    }
    let mut hits_obj = Json::object();
    for (key, count) in &stats.coverage {
        hits_obj.set(key, *count);
    }
    let mut mutations_obj = Json::object();
    for (op, count) in &stats.mutations {
        mutations_obj.set(op, *count);
    }
    let mut origins_obj = Json::object();
    for (origin, count) in &stats.origins {
        origins_obj.set(origin, *count);
    }
    let campaign_obj = Json::object()
        .with("rounds", stats.rounds as u64)
        .with("batch", cfg.batch as u64)
        .with("corpus_imported", stats.corpus_imported)
        .with("corpus_added", stats.corpus_added)
        .with("corpus_len", stats.corpus.len() as u64)
        .with("new_key_events", stats.new_key_events)
        .with("coverage_keys", stats.coverage.len() as u64)
        .with("coverage_hits", hits_obj)
        .with("mutations", mutations_obj)
        .with("origins", origins_obj);

    let mismatches = stats.mismatches.len() as u64;
    let mut report = Report::new("fuzz");
    report.set("args", cli.report_args.clone());
    report.set("mode", "campaign");
    report.set("seed", cfg.seed);
    report.set("exec_path", path_label.clone());
    report.set("only_pass", only_pass.map(|k| k.name().to_string()));
    report.set("policy", policy_flag(cli).map(|on| if on { "on" } else { "off" }.to_string()));
    report.set("cases", stats.cases);
    report.set("mismatches", mismatches);
    report.set("inconclusive", stats.inconclusive);
    report.set("undecided", stats.undecided);
    report.set("outcomes", outcome_obj);
    report.set("coverage", coverage_obj);
    report.set("campaign", campaign_obj);
    report.set("cases_with_patches", stats.cases_with_patches);
    report.set("traces_patched_total", stats.traces_patched_total);
    report.set("mismatch_details", mismatch_rows);
    report.save().expect("write results/fuzz.json");

    // Machine build/reset counters are per-worker and therefore
    // jobs-dependent: stderr only, never in the report.
    eprintln!(
        "[fuzz] campaign wall {:.2}s, machines built {} / reset {}",
        wall.as_secs_f64(),
        stats.machine_builds,
        stats.machine_resets
    );
    println!(
        "fuzz[{path_label}] campaign: {} cases over {} rounds, {mismatches} mismatches, \
         {} inconclusive, {} undecided, corpus +{} (now {}), {} coverage keys",
        stats.cases,
        stats.rounds,
        stats.inconclusive,
        stats.undecided,
        stats.corpus_added,
        stats.corpus.len(),
        stats.coverage.len()
    );
    for (label, count) in &stats.outcomes {
        println!("  {label}: {count}");
    }
    if mismatches > 0 {
        eprintln!("[fuzz] FAIL: {mismatches} semantic mismatches (reproducers in tests/corpus/)");
        std::process::exit(1);
    }
}

/// The classic fixed-case mode: independent seeded cases, one check
/// each, fanned out over the shared work-stealing pool. Each worker
/// shard leases snapshot-reset machines from its own [`CaseRunner`]
/// state, harvested at the end for the build/reset totals.
fn classic_main(cli: &Cli) {
    let cases =
        cli.flag_uint("cases").unwrap_or(if cli.flag("quick") { 128 } else { 512 }) as usize;
    let base_seed = cli.flag_uint("seed").unwrap_or(1);
    let exec_path = exec_path_flag(cli).unwrap_or(sim::ExecPath::Fast);
    let only_pass = only_pass_flag(cli);
    let gen_cfg = GenConfig::default();
    let diff_cfg = DiffConfig {
        exec_path,
        pipeline: only_pass.map(adore::PipelineConfig::only),
        policy: policy_flag(cli),
        ..DiffConfig::default()
    };

    let done = AtomicUsize::new(0);
    let (results, runners, _stats) = obs::pool::run_indexed(
        cli.jobs.max(1),
        (0..cases).collect(),
        |_| CaseRunner::new(),
        |runner: &mut CaseRunner, _i, case: usize| {
            let case_seed = base_seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (spec, cov) = generate(case_seed, &gen_cfg);
            let report = match check_case(&spec, &diff_cfg, runner).0 {
                CaseResult::Agree { outcome, traces_patched, .. } => {
                    CaseReport::Agree { outcome_label: outcome.label(), traces_patched }
                }
                CaseResult::Inconclusive { leg, why } => CaseReport::Inconclusive { leg, why },
                CaseResult::Undecided(why) => CaseReport::Undecided { why },
                CaseResult::Mismatch(m) => {
                    eprintln!(
                        "[fuzz] MISMATCH seed {case_seed:#x} at {}: {} — shrinking",
                        m.stage, m.detail
                    );
                    let small = shrink(&spec, &diff_cfg);
                    let (file, shrunk_items) = write_reproducer(&small, case_seed);
                    CaseReport::Mismatch { stage: m.stage, detail: m.detail, shrunk_items, file }
                }
            };
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if d % 64 == 0 || d == cases {
                eprintln!("[fuzz] {d}/{cases} cases");
            }
            (case_seed, cov, report)
        },
    );
    let (builds, resets) = runners
        .iter()
        .fold((0u64, 0u64), |(b, r), runner| (b + runner.builds, r + runner.resets));

    let mut coverage = Coverage::default();
    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut mismatches = 0u64;
    let mut inconclusive = 0u64;
    let mut undecided = 0u64;
    let mut cases_with_patches = 0u64;
    let mut traces_patched_total = 0u64;
    let mut mismatch_rows = Json::array();
    for (case_seed, cov, report) in &results {
        coverage.absorb(cov);
        match report {
            CaseReport::Agree { outcome_label, traces_patched } => {
                *outcomes.entry(outcome_label).or_insert(0) += 1;
                if *traces_patched > 0 {
                    cases_with_patches += 1;
                }
                traces_patched_total += *traces_patched as u64;
            }
            CaseReport::Inconclusive { leg, why } => {
                inconclusive += 1;
                eprintln!("[fuzz] inconclusive seed {case_seed:#x} ({leg} leg): {why}");
            }
            CaseReport::Undecided { why } => {
                undecided += 1;
                eprintln!("[fuzz] undecided seed {case_seed:#x}: {why}");
            }
            CaseReport::Mismatch { stage, detail, shrunk_items, file } => {
                mismatches += 1;
                mismatch_rows.push(
                    Json::object()
                        .with("seed", *case_seed)
                        .with("stage", *stage)
                        .with("detail", detail.as_str())
                        .with("shrunk_items", *shrunk_items as u64)
                        .with("corpus_file", file.display().to_string()),
                );
            }
        }
    }

    let mut outcome_obj = Json::object();
    for (label, count) in &outcomes {
        outcome_obj.set(label, *count);
    }
    let mut coverage_obj = Json::object();
    for (name, count) in coverage.fields() {
        coverage_obj.set(name, count);
    }

    let mut report = Report::new("fuzz");
    report.set("args", cli.report_args.clone());
    report.set("mode", "fuzz");
    report.set("seed", base_seed);
    report.set("exec_path", exec_path.to_string());
    report.set("only_pass", only_pass.map(|k| k.name().to_string()));
    report.set("policy", policy_flag(cli).map(|on| if on { "on" } else { "off" }.to_string()));
    report.set("cases", cases as u64);
    report.set("mismatches", mismatches);
    report.set("inconclusive", inconclusive);
    report.set("undecided", undecided);
    report.set("outcomes", outcome_obj);
    report.set("coverage", coverage_obj);
    report.set("cases_with_patches", cases_with_patches);
    report.set("traces_patched_total", traces_patched_total);
    report.set("mismatch_details", mismatch_rows);
    report.save().expect("write results/fuzz.json");

    eprintln!("[fuzz] machines built {builds} / reset {resets}");
    println!(
        "fuzz[{exec_path}]: {cases} cases, {mismatches} mismatches, {inconclusive} inconclusive, \
         {undecided} undecided, {cases_with_patches} cases patched ({traces_patched_total} traces)"
    );
    for (label, count) in &outcomes {
        println!("  {label}: {count}");
    }
    if mismatches > 0 {
        eprintln!("[fuzz] FAIL: {mismatches} semantic mismatches (reproducers in tests/corpus/)");
        std::process::exit(1);
    }
}
