#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of `lab`.

Run from the repository root:

    python3 perfbench/run.py --workload fig7_quick --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``fig7_quick``    -- ``lab fig7 --quick``: 34 cells, an empty baseline store.
* ``serve_mix``     -- ``lab serve --quick``: 40 cells in a closed loop with
  2 outstanding requests, against a baseline store warmed during set-up.
* ``fuzz_campaign`` -- ``lab fuzz --campaign``: 16 rounds x 64 cases, fresh
  corpus. Not listed in BENCHMARK.json: for a few seeds the campaign finds
  a real ADORE mismatch, and the run then fails its check (HISTORY.md).

``--trace 0`` measures the real ``lab`` subcommands, which carry no timers,
and reports the end-to-end metrics. ``--trace 1`` runs the workload once
untraced and once through ``perfbench-tracer`` (perfbench/tracer), which
times calls into each layer from outside the crates, and reports the
per-layer metrics.

Every run checks the outputs against ``results/fig7.json`` and checks that
deterministic metrics never drift (across repetitions, across the traced run,
and across runs of the same sources via ``.bench_work/ledger.json``). A
failed check prints ``"correct": false`` and exits 1. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("fig7_quick", "fuzz_campaign", "serve_mix")
JOBS = 2
FUZZ_ROUNDS = 16
FUZZ_BATCH = 64
SERVE_WINDOW = 2
# Set-ups before each repetition; the median of all is reported. A
# serve_mix set-up warms a fresh store (6-10 s) and runs once, before the
# first session; the others only create fresh directories (well under a
# millisecond), so they repeat often enough for a steady median.
SETUP_REPEATS = {"fig7_quick": 101, "fuzz_campaign": 101, "serve_mix": 1}
# Repetitions of each workload's timed region per 20 s of --seconds. One
# fig7 grid, one fuzz campaign and one serve session take about 15-25,
# 8-11 and 17-27 s on a 2-core host, depending on how loaded the host is.
# serve_mix runs two sessions, in two seeded orders, so it measures about
# 45 s: in one session the median latency moves by up to 13 % between
# runs of the same order, as timing decides which cells share the two
# workers; the two sessions' 80 samples narrow that.
REPS_PER_20S = {"fig7_quick": 1, "fuzz_campaign": 2, "serve_mix": 2}
# Hard cap on any one child process, so a hung program cannot hang the run.
CHILD_TIMEOUT_S = 170

PAPER_ORDER = ["bzip2", "gzip", "mcf", "vpr", "parser", "gap", "vortex", "gcc", "ammp", "art",
               "applu", "equake", "facerec", "fma3d", "lucas", "mesa", "swim"]
FAMILY_ORDER = ["server", "graph", "gc"]

# End-to-end metrics every workload reports (the final JSON line).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
}
# Deterministic results of the workloads that produce them. They are
# printed with the end-to-end metrics, pinned by the output and
# determinism checks, and carried in the traced run's per-layer table as
# `result.<name>` (0 where a workload does not produce them).
RESULTS = {
    "adore_speedup_gm_pct": "%",
    "paper_err_pp": "pp",
    "cov_keys": "count",
    "fail_frac": "ratio",
}
# Per-layer values that depend on thread scheduling or host speed.
VOLATILE_LAYER = ("obs.pool_stolen", "obs.pool_queue_hwm")


class CheckFailed(Exception):
    """An output or determinism check failed."""


# ---------------------------------------------------------------------------
# Metric math (pure; covered by perfbench/test_run.py)
# ---------------------------------------------------------------------------

def tail_percentile(samples, beyond=10):
    """The highest whole percentile with at least `beyond` samples above it.

    Nearest-rank: percentile p is the ceil(p/100 * n)-th smallest sample.
    Returns (p, value, n). With too few samples for any percentile from 50
    up, returns the median as p50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return p, xs[rank - 1], n
    return 50, statistics.median(xs), n


def speedup_gm_pct(pairs):
    """Geometric mean of base/adore cycle ratios, minus 1, in percent."""
    # fsum is exactly rounded, so the result does not depend on row order
    # (serve_mix rows arrive in a seed-shuffled order).
    logs = [math.log(base / adore) for base, adore in pairs]
    return (math.exp(math.fsum(logs) / len(logs)) - 1.0) * 100.0


def paper_err_pp(pairs):
    """Mean absolute gap, in percentage points, between measured and paper speedups."""
    return math.fsum(abs(measured - paper) for measured, paper in pairs) / len(pairs)


def fig7_summary(rows):
    """(adore_speedup_gm_pct, paper_err_pp) over fig7 grid rows."""
    gm = speedup_gm_pct([(r["base_cycles"], r["adore_cycles"]) for r in rows])
    err = paper_err_pp([(r["speedup_pct"], r["paper_speedup_pct"]) for r in rows])
    return gm, err


def check_fig7_rows(got, ref):
    """The fig7 grid must reproduce the reference report row for row."""
    errors = []
    for part in ("part_a", "part_b"):
        g, r = got.get(part, []), ref[part]
        if len(g) != len(r):
            errors.append(f"fig7 {part}: {len(g)} rows, reference has {len(r)}")
            continue
        for a, b in zip(g, r):
            if a != b:
                errors.append(f"fig7 {part}/{b.get('bench')}: row differs from results/fig7.json")
    return errors


def check_serve_rows(rows, ref_part_a):
    """Serve rows carry no error; comparison rows equal fig7's part_a rows
    minus the grid's extra columns."""
    errors = []
    ref = {r["bench"]: r for r in ref_part_a}
    for req, row in rows:
        name = req["workload"]
        if "error" in row:
            errors.append(f"serve {req['measure']}/{name}: error row: {row['error']}")
            continue
        if req["measure"] != "comparison" or name not in ref:
            continue
        want = ref[name]
        extra = set(want) - set(row)
        if extra - {"paper_speedup_pct"} or set(row) - set(want):
            errors.append(f"serve comparison/{name}: columns differ from fig7 part_a")
        elif any(row[k] != want[k] for k in row):
            errors.append(f"serve comparison/{name}: row differs from fig7 part_a")
    return errors


def ledger_scope(workload, digest, seed, reps):
    """The ledger key that deterministic values are pinned under: the
    built sources, so another commit may move them, and the workload. fig7
    and serve results do not depend on the seed; a fuzz run's do, and on
    how many campaigns (each with its own seed) it ran."""
    scope = f"{digest}/{workload}"
    if workload == "fuzz_campaign":
        scope += f"/seed={seed}/campaigns={reps}"
    return scope


def check_ledger(ledger, scope, values):
    """Records deterministic values under `scope`; returns drift errors.

    The first run of a scope records; every later run must match.
    """
    errors = []
    seen = ledger.setdefault(scope, {})
    for key, value in sorted(values.items()):
        if key in seen and seen[key] != value:
            errors.append(f"determinism: {scope} {key} = {value!r}, an earlier run had {seen[key]!r}")
        seen.setdefault(key, value)
    return errors


def same_values(label, runs):
    """All dicts in `runs` must be equal (deterministic metrics across repetitions)."""
    errors = []
    for i, r in enumerate(runs[1:], start=2):
        for k in sorted(set(r) | set(runs[0])):
            if r.get(k) != runs[0].get(k):
                errors.append(f"determinism: {label} {k} differs between repetition 1 and {i}: "
                              f"{runs[0].get(k)!r} vs {r.get(k)!r}")
    return errors


# ---------------------------------------------------------------------------
# Environment, build, provenance
# ---------------------------------------------------------------------------

def check_checkout(root):
    for rel in ("Cargo.toml", "Cargo.lock", "crates/bench/Cargo.toml", "results/fig7.json",
                "perfbench/tracer/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, rel)):
            print(f"perfbench: not a repository checkout: {rel} is missing under {root}",
                  file=sys.stderr)
            sys.exit(2)


def child_env(root, work):
    env = dict(os.environ)
    for k in ("ADORE_JOBS", "ADORE_BASELINE_CAP_BYTES"):
        env.pop(k, None)
    env["CARGO_TARGET_DIR"] = target_dir(root)
    env["ADORE_RESULTS_DIR"] = os.path.join(work, "results")
    env["ADORE_BASELINE_DIR"] = os.path.join(work, "store")
    env["ADORE_CAMPAIGN_DIR"] = os.path.join(work, "corpus")
    env["ADORE_CORPUS_DIR"] = os.path.join(work, "reproducers")
    return env


def target_dir(root):
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(root, t)


def build(root, env):
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "adore-bench", "--bin", "lab"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", "perfbench/tracer/Cargo.toml"]):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr.fileno(),
                           stderr=sys.stderr.fileno())
        if r.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(3)
    release = os.path.join(target_dir(root), "release")
    return os.path.join(release, "lab"), os.path.join(release, "perfbench-tracer")


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            paths += [os.path.relpath(os.path.join(d, f), root) for f in sorted(files)]
    for p in paths:
        h.update(p.encode())
        with open(os.path.join(root, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def provenance(root, digest, seed, reps):
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "source_sha256": digest, "nproc": os.cpu_count(),
            "cpu": cpu, "rustc": rustc, "seed": seed, "repetitions": reps, "jobs": JOBS}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Child:
    """A child process whose peak RSS is collected when it is reaped. A
    watchdog kills it after CHILD_TIMEOUT_S, which also unblocks readers
    of its pipes."""

    def __init__(self, args, env, stdin=None, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(args, env=env, stdin=stdin, stdout=stdout, stderr=stderr,
                                  text=True, bufsize=1)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.p.kill)
        self.watchdog.start()

    def reap(self):
        """Waits for exit; returns (exit code, peak RSS in MB)."""
        _, status, usage = os.wait4(self.p.pid, 0)
        self.watchdog.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return self.p.returncode, usage.ru_maxrss / 1024.0

    def kill(self):
        self.watchdog.cancel()
        if self.p.returncode is None:
            self.p.kill()
            self.p.wait()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ---------------------------------------------------------------------------
# Workloads: untraced runs
# ---------------------------------------------------------------------------

PROGRESS_RE = re.compile(r"^\[(\w+)\] (\d+)/(\d+) (.*) (\d+)ms$")


def run_fig7(ctx, rep):
    """One `lab fig7 --quick` grid on an empty store. Cell latency is each
    cell's compute time from the engine's progress lines."""
    env = ctx["env"]
    work = ctx["work"]
    child = Child([ctx["lab"], "fig7", "--quick", "--jobs", str(JOBS)], env)
    cells = []
    try:
        for line in child.p.stderr:
            m = PROGRESS_RE.match(line.strip())
            if m and m.group(1) == "fig7":
                cells.append(float(m.group(5)))
        code, rss = child.reap()
    finally:
        child.kill()
    wall = time.perf_counter() - child.t0
    if code != 0:
        raise CheckFailed(f"lab fig7 exited {code}")
    with open(os.path.join(work, "results", "fig7.json")) as f:
        got = json.load(f)
    errors = check_fig7_rows(got, ctx["ref"])
    rows = got["part_a"] + got["part_b"]
    gm, err = fig7_summary(rows)
    failed = sum(1 for r in rows if "error" in r)
    legs = {(part, r["bench"]): comparison_leg(r) for part in ("part_a", "part_b")
            for r in got[part] if "error" not in r}
    return {"wall_s": wall, "rss_mb": rss, "cells_ms": cells, "attempted": len(rows),
            "failed": failed, "errors": errors, "legs": legs,
            "det": {"adore_speedup_gm_pct": gm, "paper_err_pp": err}}


def comparison_leg(row):
    """What a traced comparison cell must reproduce from an untraced row."""
    return (row["base_cycles"], row["adore_cycles"], row["adore"]["pmu"]["retired"])


def run_fuzz(ctx, rep):
    """One campaign: 16 rounds x 64 cases. Cell latency is one round, taken
    between consecutive round-completion progress lines. The first
    campaign's seed is --seed; later ones get their own, so a run averages
    over more than one seed's programs."""
    env = ctx["env"]
    seed = ctx["seed"] + rep * 1_000_003
    args = [ctx["lab"], "fuzz", "--campaign", "--jobs", str(JOBS), "--seed", str(seed),
            "--rounds", str(FUZZ_ROUNDS), "--batch", str(FUZZ_BATCH), "--progress"]
    child = Child(args, env)
    rounds, last = [], child.t0
    try:
        for line in child.p.stderr:
            m = PROGRESS_RE.match(line.strip())
            if m and m.group(1) == "campaign" and m.group(2) == m.group(3):
                now = time.perf_counter()
                rounds.append((now - last) * 1000.0)
                last = now
        code, rss = child.reap()
    finally:
        child.kill()
    wall = time.perf_counter() - child.t0
    with open(os.path.join(ctx["work"], "results", "fuzz.json")) as f:
        report = json.load(f)
    errors = []
    if code != 0 or report["mismatches"] != 0:
        errors.append(f"fuzz campaign: exit {code}, {report['mismatches']} mismatches")
    if report["cases"] != FUZZ_ROUNDS * FUZZ_BATCH or len(rounds) != FUZZ_ROUNDS:
        errors.append(f"fuzz campaign: {report['cases']} cases in {len(rounds)} rounds")
    keys = {k for k in report["campaign"]["coverage_hits"] if not k.startswith("tier:")}
    return {"wall_s": wall, "rss_mb": rss, "cells_ms": rounds, "attempted": report["cases"],
            "failed": report["mismatches"] + report["undecided"],
            "corpus_added": report["campaign"]["corpus_added"], "errors": errors, "keys": keys,
            "det": {"inconclusive": report["inconclusive"]}}


def serve_requests(seed, rep=0):
    """fig7 part_a comparison cells and policy cells for all 20 workloads,
    in an order shuffled by the seed (and the repetition)."""
    names = PAPER_ORDER + FAMILY_ORDER
    reqs = [{"workload": w, "tool": "fig7", "section": "part_a", "opts": "o2",
             "measure": "comparison"} for w in names]
    reqs += [{"workload": w, "tool": "policy", "section": "grid", "opts": "o2",
              "measure": "policy"} for w in names]
    random.Random(f"{seed}:{rep}").shuffle(reqs)
    return reqs


def serve_session(ctx, reqs, window):
    """Drives `lab serve` as a closed loop with `window` requests
    outstanding. Returns (rows, latencies in ms, wall s, peak RSS MB)."""
    child = Child([ctx["lab"], "serve", "--quick", "--jobs", str(JOBS)], ctx["env"],
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    sent, lat, rows = {}, [], [None] * len(reqs)
    try:
        nxt = 0

        def send():
            nonlocal nxt
            sent[nxt] = time.perf_counter()
            child.p.stdin.write(json.dumps(reqs[nxt]) + "\n")
            child.p.stdin.flush()
            nxt += 1

        while nxt < min(window, len(reqs)):
            send()
        for _ in reqs:
            line = child.p.stdout.readline()
            if not line:
                raise CheckFailed("lab serve closed its output early")
            t = time.perf_counter()
            env = json.loads(line)
            lat.append((t - sent[env["index"]]) * 1000.0)
            rows[env["index"]] = env["row"]
            if nxt < len(reqs):
                send()
        child.p.stdin.close()
        code, rss = child.reap()
    finally:
        child.kill()
    wall = time.perf_counter() - child.t0
    if code != 0:
        raise CheckFailed(f"lab serve exited {code}")
    return rows, lat, wall, rss


def serve_warm(ctx):
    """Set-up for serve_mix: plain baselines of all 20 workloads into the
    fresh store (every later cell reads them back), sent in a fixed order
    through the same closed loop, so set-up time does not depend on how
    the pool happens to balance a burst."""
    reqs = [{"workload": w, "opts": "o2", "measure": "plain"} for w in PAPER_ORDER + FAMILY_ORDER]
    rows, _, _, _ = serve_session(ctx, reqs, SERVE_WINDOW)
    errors = [f"serve warm-up/{r['bench']}: {r['error']}" for r in rows if "error" in r]
    if errors:
        raise CheckFailed("; ".join(errors))


def run_serve(ctx, rep):
    reqs = serve_requests(ctx["seed"], rep)
    rows, lat, wall, rss = serve_session(ctx, reqs, SERVE_WINDOW)
    pairs = list(zip(reqs, rows))
    errors = check_serve_rows(pairs, ctx["ref"]["part_a"])
    paper = {r["bench"]: r["paper_speedup_pct"] for r in ctx["ref"]["part_a"]}
    speed, err = [], []
    for req, row in pairs:
        if "error" in row:
            continue
        if req["measure"] == "comparison":
            speed.append((row["base_cycles"], row["adore_cycles"]))
            if row["bench"] in paper:
                err.append((row["speedup_pct"], paper[row["bench"]]))
        else:
            speed.append((row["base_cycles"], row["adaptive_cycles"]))
    failed = sum(1 for _, r in pairs if "error" in r)
    det = {"adore_speedup_gm_pct": speedup_gm_pct(speed), "paper_err_pp": paper_err_pp(err)}
    legs = {}
    for req, row in pairs:
        if "error" in row:
            continue
        if req["measure"] == "comparison":
            legs[("part_a", req["workload"])] = comparison_leg(row)
        else:
            legs[("grid", req["workload"])] = (row["base_cycles"], row["static_cycles"],
                                                row["adaptive_cycles"])
    return {"wall_s": wall, "rss_mb": rss, "cells_ms": lat, "attempted": len(rows),
            "failed": failed, "errors": errors, "det": det, "legs": legs}


RUNNERS = {"fig7_quick": run_fig7, "fuzz_campaign": run_fuzz, "serve_mix": run_serve}


def setup(ctx, workload):
    """Set-up: fresh results, store and corpus directories, and for
    serve_mix the store warm-up. Sets up SETUP_REPEATS times and returns
    each time in seconds; the timed region uses the last set-up's state."""
    dirs = [os.path.join(ctx["work"], d) for d in ("results", "store", "corpus", "reproducers")]

    def once():
        t = time.perf_counter()
        for d in dirs:
            fresh_dir(d)
        if workload == "serve_mix":
            serve_warm(ctx)
        return time.perf_counter() - t

    return [once() for _ in range(SETUP_REPEATS[workload])]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced(ctx, workload, untraced):
    """Runs perfbench-tracer and checks its composed loops."""
    store = os.path.join(ctx["work"], "trace_store")
    fresh_dir(store)
    args = [ctx["tracer"], "--workload", workload, "--seed", str(ctx["seed"]), "--store", store]
    child = Child(args, ctx["env"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = child.p.stdout.read()
        code, _ = child.reap()
    finally:
        child.kill()
    if code != 0:
        raise CheckFailed(f"perfbench-tracer exited {code}")
    t = json.loads(out)
    errors = []
    legs = untraced.get("legs", {})
    for c in t["cells"]:
        label = f"trace {c.get('section')}/{c.get('workload')}"
        if "adore_cycles" in c:
            got = (c["base_cycles"], c["adore_cycles"], c["adore_retired"])
            if got != legs.get((c["section"], c["workload"])):
                errors.append(f"{label}: composed loop gave (base, cycles, retired) {got}, "
                              f"adore::run gave {legs.get((c['section'], c['workload']))}")
        if "static_cycles" in c:
            if not (c["static_matches_adore_run"] and c["adaptive_matches_adore_run"]):
                errors.append(f"{label}: composed loop differs from adore::run")
            got = (c["base_cycles"], c["static_cycles"], c["adaptive_cycles"])
            if got != legs.get((c["section"], c["workload"])):
                errors.append(f"{label}: cycles {got} differ from the serve row")
        if c.get("plain_retired_mismatch") or c.get("verdict") == "mismatch":
            errors.append(f"trace fuzz case {c['seed']:#x}: plain leg or oracle disagrees")
    m = t["metrics"]
    if workload == "fuzz_campaign":
        m["oracle.corpus_added"] = untraced["corpus_added"]
    else:
        m["oracle.corpus_added"] = 0
    m["trace.wall_ms"] = t["wall_ms"]
    m["trace.untraced_wall_ms"] = untraced["wall_s"] * 1000.0
    m["trace.overhead_ms"] = t["wall_ms"] - untraced["wall_s"] * 1000.0
    return m, errors, t["cells"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_ledger(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_ledger(path, ledger):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run(args, root):
    workload = args.workload
    env0 = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    lab, tracer = build(root, env0)
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{workload}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    with open(os.path.join(root, "results", "fig7.json")) as f:
        ref = json.load(f)
    ctx = {"lab": lab, "tracer": tracer, "work": work, "env": child_env(root, work),
           "seed": args.seed, "ref": ref}
    reps = 1 if args.trace else max(1, REPS_PER_20S[workload] * args.seconds // 20)
    runner = RUNNERS[workload]
    errors, results, setups = [], [], []
    try:
        for rep in range(reps):
            # Serve sessions only read the store, so one warm-up serves them all.
            if rep == 0 or workload != "serve_mix":
                setups += setup(ctx, workload)
            res = runner(ctx, rep)
            errors += res["errors"]
            results.append(res)
        if workload == "fuzz_campaign":
            # Each campaign has its own seed: coverage is their union.
            det = {"cov_keys": len(set().union(*(r["keys"] for r in results))),
                   "inconclusive": sum(r["det"]["inconclusive"] for r in results)}
        else:
            errors += same_values(workload, [r["det"] for r in results])
            det = dict(results[0]["det"])
        layer = None
        if args.trace:
            layer, trace_errors, cells = traced(ctx, workload, results[0])
            errors += trace_errors
            if workload != "fuzz_campaign":
                # The traced cells must reproduce the untraced summary too.
                comp = [(c["base_cycles"], c["adore_cycles"]) for c in cells if "adore_cycles" in c]
                comp += [(c["base_cycles"], c["adaptive_cycles"]) for c in cells
                         if "adaptive_cycles" in c]
                if speedup_gm_pct(comp) != det["adore_speedup_gm_pct"]:
                    errors.append("determinism: traced adore_speedup_gm_pct differs from untraced")
            det.update({f"trace:{k}": v for k, v in layer.items()
                        if not isinstance(v, float) and k not in VOLATILE_LAYER})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = source_digest(root)
    ledger_path = os.path.join(work_root, "ledger.json")
    ledger = load_ledger(ledger_path)
    errors += check_ledger(ledger, ledger_scope(workload, digest, args.seed, reps), det)
    if not errors:
        save_ledger(ledger_path, ledger)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    cells = [x for r in results for x in r["cells_ms"]]
    # The tail is taken per serve session (each has its own request
    # order) and the median reported; one fuzz campaign has only 16
    # rounds, too few for a tail, so campaigns are pooled.
    groups = [r["cells_ms"] for r in results] if workload == "serve_mix" else [cells]
    tails = [tail_percentile(g) for g in groups]
    tail = statistics.median(t[1] for t in tails)
    p, _, n = tails[0]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "cell_p50_ms": statistics.median(cells),
        "cell_tail_ms": tail,
    }
    res = {k: det[k] for k in RESULTS if k in det}
    res["fail_frac"] = failed / attempted
    prov = provenance(root, digest, args.seed, reps)
    print(json.dumps({"provenance": prov}))
    print(f"# {workload}: {reps} repetition(s), {attempted} operations, {failed} failed "
          f"(fail_frac {failed / attempted:.4f})"
          + (f", {det['inconclusive']} inconclusive (no verdict: a hang budget ran out)"
             if workload == "fuzz_campaign" else ""))
    print(f"# cell_tail_ms is p{p} of {n} cell latencies ({n - math.ceil(p * n / 100)} beyond)"
          + (f", median over {len(groups)} sessions" if len(groups) > 1 else ""))
    for i, r in enumerate(results, start=1):
        print(f"# repetition {i}: wall_s {r['wall_s']:.4f}, peak_rss_mb {r['rss_mb']:.4f}, "
              f"cell_p50_ms {statistics.median(r['cells_ms']):.4f}")
    for k, v in e2e.items():
        print(f"{k:<24} {v:>14.4f} {END_TO_END[k]}")
    for k, v in res.items():
        print(f"{k:<24} {v:>14.4f} {RESULTS[k]}  (deterministic)")
    if layer is not None:
        for k in RESULTS:
            layer[f"result.{k}"] = res.get(k, 0)
        print("# per-layer numbers: calls timed from outside the crates (perfbench/tracer)")
        if workload == "fuzz_campaign":
            print(f"# run_campaign is one call: the tracer timed generate, assemble, Interp::run,"
                  f" a plain Machine::run leg and check_case on {layer['oracle.cases']} freshly"
                  f" generated cases (odd case seeds on the threaded tier), not the campaign's"
                  f" mutated cases. check_case repeats assemble, Interp::run and both machine"
                  f" legs, so oracle.check_ms includes work also timed on its own, and the sim.*"
                  f" counters describe only the extra plain leg")
        for k, v in layer.items():
            print(f"{k:<40} {v}")

    units = load_units(root)
    if args.trace:
        missing = sorted(set(units) - set(layer))
        if missing:
            errors.append(f"traced run lacks per-layer metrics {missing}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items() if k in layer}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    emit(not errors, attempted, failed, metrics)
    return 1 if errors else 0


def load_units(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m["unit"] for m in b["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    check_checkout(root)
    try:
        return run(args, root)
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        print(f"perfbench: CHECK FAILED: {e!r}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1


if __name__ == "__main__":
    sys.exit(main())
