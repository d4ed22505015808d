#!/usr/bin/env python3
"""Cold end-to-end benchmark of xtest campaigns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver (perfbench/CMakeLists.txt) under .bench_build/, writes
the workload's scenario text from --seed, and runs fresh driver processes
back to back for about --seconds, so every memo starts cold.  Each run's
verdicts are checked against perfbench/pinned.json (or, for a seed without
a pin, against each other) before any number counts.  --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced runs and
reports the per-layer metrics plus a self-time table.  The last line of
stdout is the result object; the exit code is non-zero when any run fails
or any verdict mismatches.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench" / "perfbench_driver"
PINS = HERE / "pinned.json"
MIN_RUNS = 3          # timed runs per invocation, whatever --seconds says
RUN_TIMEOUT_S = 150   # one driver process
BUDGET_S = 170        # the whole invocation, build excluded


def fail(msg, code=1):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once (Release), then brings the driver and xtest up to
    date."""
    bdir = BUILD / "perfbench"
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        # Ninja when present: its no-op check, paid by every invocation,
        # is much cheaper than recursive make's.
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


class Run:
    """One driver process: wall clock, rusage and its JSON summary."""

    def __init__(self, argv, logdir, index):
        self.index = index
        tag = f"run{index}"
        env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
        env.pop("XTEST_THREADS", None)
        env.pop("XTEST_FAULTS", None)
        out_path, err_path = logdir / f"{tag}.out", logdir / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
        self.start_ns = time.monotonic_ns()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions,
                             setpgroup=0)
        timer = threading.Timer(RUN_TIMEOUT_S, _killpg, (pid,))
        timer.start()
        _, status, ru = os.wait4(pid, 0)
        self.end_ns = time.monotonic_ns()
        timer.cancel()
        _killpg(pid)  # anything the driver left behind in its group
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_kib = ru.ru_maxrss
        self.wall_s = (self.end_ns - self.start_ns) * 1e-9
        self.summary = None
        lines = out_path.read_text().strip().splitlines()
        if self.exit_code == 0 and lines:
            try:
                self.summary = json.loads(lines[-1])
            except ValueError:
                pass
        if self.summary is None:
            err = err_path.read_text().strip().splitlines()[-3:]
            print(f"run {tag} failed: exit {self.exit_code}: "
                  f"{' | '.join(err)}", file=sys.stderr)

    @property
    def ok(self):
        return self.summary is not None


def _killpg(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file()
            and "__pycache__" not in p.parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def env_stamp(args, summary):
    return {
        "workload": args.workload, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": summary.get("build_type"),
        "compiler": "gcc " + str(summary.get("compiler")),
        "hardware_concurrency": summary.get("hardware_concurrency"),
        "git_commit": git_commit(), "source_digest": source_digest(),
        "python": platform.python_version(),
    }


# --- measurement loops ------------------------------------------------------


def timed_loop(args, one_run):
    """Calls one_run(i, traced) until --seconds is used up (at least
    MIN_RUNS times).  With --trace 1 untraced and traced runs alternate."""
    runs = []
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append((traced, one_run(len(runs), traced)))
        elapsed = time.monotonic() - t0
        typical = statistics.median(r.wall_s for _, r in runs)
        enough = len(runs) >= (2 * MIN_RUNS if args.trace else MIN_RUNS)
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed + typical > BUDGET_S:
            break
        if not runs[-1][1].ok:
            break
    return runs


def campaign_runs(args, work):
    scn = work / "scenario.scn"
    scn.write_text(benchlib.scenario_text(args.workload, args.seed))

    def one(i, traced):
        argv = [str(DRIVER), "campaign", str(scn), "--request", str(i)]
        if traced:
            argv += ["--trace", str(work / f"spans{i}.json")]
        return Run(argv, work, i)
    return timed_loop(args, one)


def serve_runs(args, work):
    jobs = []
    for k in range(benchlib.JOBS_PER_STREAM):
        p = work / f"job{k}.scn"
        p.write_text(benchlib.scenario_text(args.workload, args.seed, k))
        jobs.append(str(p))

    def one(i, traced):
        d = work / f"d{i}"
        d.mkdir()
        argv = [str(DRIVER), "serve-jobs", "--dir",
                os.path.relpath(d, ROOT)] + jobs
        if traced:
            argv += ["--trace", str(work / f"spans{i}.json")]
        return Run(argv, work, i)
    return timed_loop(args, one)


# --- metrics ----------------------------------------------------------------


def med(xs):
    return statistics.median(xs)


def end_to_end(args, runs):
    """End-to-end metrics of untraced runs, plus the tail description."""
    rs = [r for traced, r in runs if not traced and r.ok]
    if args.workload == "serve-jobs":
        lat = [j["latency_s"] for r in rs for j in r.summary["jobs"]]
        n_jobs = [len(r.summary["jobs"]) for r in rs]
        stream = [r.summary["stream_s"] for r in rs]
        # Every defect of a job gets exactly one verdict.
        defects = [sum(j[k] for j in r.summary["jobs"] for k in
                       ("detected", "timeout", "undetected", "sim_errors"))
                   for r in rs]
        m = {
            "wall_s": med(stream),
            "setup_s": med(r.summary["setup_s"] for r in rs),
            "defects_per_s": med(d / s for d, s in zip(defects, stream)),
            "cpu_s": med(r.cpu_s for r in rs),
            "peak_rss_mb": med(r.summary["peak_rss_kib"] / 1024 for r in rs),
            "jobs_per_s": sum(n_jobs) / sum(stream),
        }
    else:
        lat = [r.wall_s for r in rs]
        m = {
            "wall_s": med(lat),
            "setup_s": med((r.summary["campaign_ns"] - r.start_ns) * 1e-9
                           for r in rs),
            "defects_per_s": med(r.summary["defects"] /
                                 r.summary["campaign_s"] for r in rs),
            "cpu_s": med(r.cpu_s for r in rs),
            "peak_rss_mb": med(r.maxrss_kib / 1024 for r in rs),
            "jobs_per_s": len(rs) / sum(lat),
        }
    pct, value, beyond = benchlib.tail(lat)
    m["job_latency_p50_s"] = med(lat)
    m["job_latency_tail_s"] = value
    note = (f"job_latency_tail_s is p{pct:.1f} of {len(lat)} jobs, "
            f"{beyond} samples beyond it")
    return m, note


def per_layer(args, runs):
    """Per-layer metrics of the traced runs (medians over them)."""
    traced = [r for t, r in runs if t and r.ok]
    plain = [r for t, r in runs if not t and r.ok]
    serve = args.workload == "serve-jobs"
    probes = [r.summary["probe"] if serve else r.summary for r in traced]

    def pm(key):
        return med(p[key] for p in probes)

    def rm(key):
        """Median of a serve-only driver field; 0 on other workloads."""
        return med(r.summary[key] for r in traced) if serve else 0

    p0 = probes[0]
    simulated = p0["slots"] - p0["screened"] - p0["run_reuses"]
    # Cycles the campaign really simulated: its counter also books each
    # session's gold run and every screened slot at gold length.  The
    # screen's per-session split is not reported, so screened slots are
    # charged the mean gold length.
    gold_mean = p0["gold_cycles"] / max(1, p0["sessions"])
    run_cycles = (p0["simulated_cycles"] - p0["gold_cycles"] -
                  p0["screened"] * gold_mean)
    if serve:
        timed = [r.summary["stream_s"] for r in traced]
        base = [r.summary["stream_s"] for r in plain]
        jobs = [j for r in traced for j in r.summary["jobs"]]
    else:
        timed = [(r.summary["end_ns"] - r.start_ns) * 1e-9 for r in traced]
        base = [(r.summary["end_ns"] - r.start_ns) * 1e-9 for r in plain]
        jobs = []

    def jm(key):
        return med(j[key] for j in jobs) if jobs else 0.0

    return {
        "xtalk.library_s": pm("library_s"),
        "xtalk.library_candidates": p0["candidates"],
        "xtalk.library_accept_ratio": p0["defects"] / p0["candidates"],
        "soc.network_set_us": pm("network_set_us"),
        "sbst.program_s": pm("program_s"),
        "sbst.sessions": p0["sessions"],
        "sbst.tests_placed": p0["tests_placed"],
        "soc.defect_run_us": pm("defect_run_us"),
        "soc.ns_per_cycle": pm("ns_per_cycle"),
        "soc.sample_cycles": p0["sample_cycles"],
        "sim.gold_s": pm("gold_s"),
        "sim.gold_cycles": p0["gold_cycles"],
        "sim.campaign_s": pm("campaign_s"),
        "sim.slots": p0["slots"],
        "sim.simulated": simulated,
        "sim.screened": p0["screened"],
        "sim.screen_useful_ratio":
            p0["screened"] / p0["batch_lanes"] if p0["batch_lanes"] else 0.0,
        "sim.cache_hit_ratio": pm("cache_hit_ratio"),
        "sim.run_reuses": p0["run_reuses"],
        "sim.gold_reuses": p0["gold_reuses"],
        "sim.simulated_cycles": p0["simulated_cycles"],
        "sim.sim_errors": p0["stats_sim_errors"],
        "sim.retries": p0["retries"],
        "sim.engine_overhead_s":
            pm("campaign_s") - pm("gold_s") -
            run_cycles * pm("ns_per_cycle") * 1e-9 / max(1, p0["threads"]),
        "sim.online_rounds": p0["online_rounds"],
        "sim.online_latency_mean_cycles":
            p0["online_latency_cycles"] / p0["online_latency_samples"]
            if p0["online_latency_samples"] else 0.0,
        "sim.online_deadlines_missed": p0["online_deadlines_missed"],
        "sim.supervisor_spawns": rm("supervisor_spawns"),
        "sim.supervisor_heartbeats": rm("supervisor_heartbeats"),
        "sim.supervisor_overhead_s": rm("supervised_s") - rm("inprocess_s"),
        "sim.checkpoint_flush_ms": rm("checkpoint_flush_ms"),
        "serve.submit_ack_ms": jm("submit_ack_ms"),
        "serve.first_event_s": jm("first_event_s"),
        "serve.job_s": jm("job_s"),
        "util.threads": p0["threads"],
        "bench.trace_overhead_frac": med(timed) / med(base) - 1.0,
    }


def self_time_table(runs, work):
    """Merges the runner's process spans with each traced driver's spans,
    writes them out, and prints self time per span name."""
    spans = []
    for traced, r in runs:
        path = work / f"spans{r.index}.json"
        if not traced or not r.ok or not path.exists():
            continue
        root = len(spans)
        spans.append({"name": "bench.process", "start_ns": r.start_ns,
                      "end_ns": r.end_ns, "parent": -1, "request": r.index})
        base = len(spans)
        for s in json.loads(path.read_text()):
            s["parent"] = root if s["parent"] < 0 else s["parent"] + base
            s["request"] = r.index * 1000 + s["request"]
            spans.append(s)
    (work / "spans.json").write_text(json.dumps(spans))
    own = benchlib.self_times(spans)
    total = sum(own.values()) or 1
    print(f"{'layer':8} {'span':28} {'self_s':>10} {'share':>7}")
    for name, ns in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"{name.split('.')[0]:8} {name:28} {ns * 1e-9:10.4f} "
              f"{ns / total:7.1%}")


# --- verdict gate -------------------------------------------------------------


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_verdicts(args, runs):
    """Returns (per-run failure flags, gate problems, verdict keys)."""
    keys = [benchlib.verdict_key(r.summary) for _, r in runs if r.ok]
    pinned = load_pins().get(args.workload, {}).get(str(args.seed))
    problems = benchlib.gate(keys, pinned)
    ref = pinned if pinned is not None else (keys[0] if keys else None)
    bad = []
    for _, r in runs:
        if not r.ok:
            bad.append(True)
            continue
        s = r.summary
        errors = sum(j["sim_errors"] + j["failed"] for j in s["jobs"]) \
            if "jobs" in s else s["sim_errors"]
        # A traced serve-jobs run re-runs its first job supervised; the
        # supervisor figures count only if that run matched in full.
        errors += s.get("supervisor_degraded", 0)
        errors += 1 - s.get("supervised_matches", 1)
        bad.append(errors > 0 or benchlib.verdict_key(s) != ref)
    return bad, problems, keys


def write_pin(args, key):
    pins = load_pins()
    pins.setdefault(args.workload, {})[str(args.seed)] = key
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# --- main -------------------------------------------------------------------


def metric_units():
    """Metric name -> unit, for both sets, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(benchlib.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSONL)")
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's verdicts in pinned.json")
    args = ap.parse_args()

    os.chdir(ROOT)
    e2e_units, layer_units = metric_units()
    build()
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    serve = args.workload == "serve-jobs"
    runs = (serve_runs if serve else campaign_runs)(args, work)
    good = [r for _, r in runs if r.ok]
    kinds = (False, True) if args.trace else (False,)
    if not all(any(r.ok for t, r in runs if t == k) for k in kinds):
        fail("no run completed")
    env = env_stamp(args, good[0].summary)
    if env["build_type"] != "Release":
        fail(f"driver was built as {env['build_type']}, not Release", 2)

    bad, problems, keys = check_verdicts(args, runs)
    for p in problems:
        print(f"verdict mismatch: {p}", file=sys.stderr)
    # On serve-jobs the unit of work is a job; a failed run fails all of
    # its jobs.
    per_run = benchlib.JOBS_PER_STREAM if serve else 1
    attempted = len(runs) * per_run
    failed = sum(bad) * per_run
    correct = not problems and failed == 0

    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        self_time_table(runs, work)
        values, units = per_layer(args, runs), layer_units
    else:
        values, note = end_to_end(args, runs)
        units = e2e_units
        print(note)
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} do not match "
             "BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k:32} {m['value']:>16.6g} {m['unit']}")
    if args.pin and correct and keys:
        write_pin(args, keys[0])
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(result, env=env, trace=args.trace)) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
