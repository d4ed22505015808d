"""Pure logic of the cold end-to-end benchmark.

Workload definitions and the scenario text generated from a seed,
statistics (quartiles, the tail rule), span self time, the
verdict gate and the parent/change comparison rule.  Nothing here runs a
process; run.py and compare.py do, and tests/test_benchlib.py covers this
module on synthetic inputs.
"""

import hashlib
import statistics

# Why each workload exists; BENCHMARK.json and README.md repeat these.
# Library sizes keep one cold run near a second, so a 20 s invocation
# holds 15-40 of them: the host's speed swings by 10-30% from one run to
# the next, and a median over a handful of 4 s runs moved as much.
WORKLOADS = {
    "addr-cold": {
        "why": "paper-baseline address bus at 5k defects, 6 sessions, 4 "
               "threads: library generation and the batch screen dominate",
        "lines": ["bus = addr", "defects = 5000", "campaign.threads = 4"],
    },
    "ctrl-sim": {
        "why": "control bus at 15k defects, 4 threads: per-defect simulation "
               "(cpu, bus transfer, evaluator build) dominates, the screen "
               "does almost nothing",
        "lines": ["bus = ctrl", "defects = 15000", "campaign.threads = 4"],
    },
    "online": {
        "why": "online-baseline at 5k defects, 4 threads: the second "
               "campaign engine, resumable slices and MMIO heartbeats, no "
               "screen",
        "lines": ["bus = addr", "defects = 5000", "campaign.threads = 4",
                  "online.enabled = true"],
    },
    "serve-jobs": {
        "why": "closed-loop client against one xtest serve daemon; each job "
               "is paper-baseline at 500 defects, workers 2, threads 2: the "
               "only path through serve, the supervisor and checkpoints",
        # 500 defects keep a job near 0.2 s, so a 20 s run finishes about
        # 90 jobs and the latency tail, with 10 samples beyond it, sits
        # well above the median.
        "lines": ["bus = addr", "defects = 500", "campaign.threads = 2",
                  "campaign.workers = 2"],
    },
}

# Jobs per daemon lifetime on serve-jobs; a run starts several daemons.
JOBS_PER_STREAM = 10


def derive_seed(workload, seed, index=0):
    """Library seed of job `index` of `workload` under benchmark `seed`."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2_000_000_000 + 1


def scenario_text(workload, seed, index=0):
    """The scenario file the program under test receives."""
    spec = WORKLOADS[workload]
    lines = [f"name = {workload}"] + spec["lines"] + [
        f"seed = {derive_seed(workload, seed, index)}"]
    return "".join(line + "\n" for line in lines)


# --- statistics ---------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def iqr(values):
    q1, _, q3 = quartiles(values)
    return q3 - q1


def tail(values, beyond=10):
    """Highest percentile of `values` with at least `beyond` samples above
    it: returns (percentile, value, samples_above).  Until that percentile
    passes the median (more than 2 * beyond samples) the median is
    returned instead, with the count of samples above it, so the caller
    can print how thin the tail is.  The median, not the maximum: a run
    count that crosses 2 * beyond then moves the value by one rank, not
    from the maximum down to the middle."""
    xs = sorted(values)
    n = len(xs)
    if n > 2 * beyond:
        return 100.0 * (n - beyond) / n, xs[n - beyond - 1], beyond
    mid = statistics.median(xs)
    return 50.0, mid, sum(1 for x in xs if x > mid)


# --- spans ----------------------------------------------------------------


def self_times(spans):
    """Self time per span name: each span's duration minus the part of its
    interval that its children cover.  Children may overlap each other
    (parallel work), so their intervals are merged before subtracting.
    `spans` is a list of dicts with start_ns, end_ns, name and parent (an
    index into the same list, or -1)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], lo), min(c["end_ns"], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["name"]] = out.get(s["name"], 0) + (hi - lo - covered)
    return out


# --- verdict gate -----------------------------------------------------------

# Fields of a run summary that are pure functions of (scenario, seed).
VERDICT_FIELDS = ("detected", "timeout", "undetected", "sim_errors",
                  "coverage", "simulated_cycles", "latency_sum",
                  "verdict_digest")


def verdict_key(summary):
    """The verdict-pure part of one run's summary.  serve-jobs runs carry a
    list of per-job summaries, each keyed by its digest."""
    if "jobs" in summary:
        return {"jobs": [verdict_key(j) for j in summary["jobs"]]}
    return {k: summary[k] for k in VERDICT_FIELDS if k in summary}


def gate(keys, pinned):
    """Mismatch messages for a list of verdict keys of one workload and
    seed.  With a pin every run must equal it; without one all runs must
    agree with each other (and there must be at least two)."""
    problems = []
    ref = pinned
    if ref is None:
        if len(keys) < 2:
            return ["unpinned seed needs at least two runs to cross-check"]
        ref = keys[0]
    for i, k in enumerate(keys):
        if k != ref:
            problems.append(f"run {i}: verdicts {k} != "
                            f"{'pinned' if pinned is not None else 'run 0'} "
                            f"{ref}")
    return problems


# --- parent/change comparison (choosing-metrics section 8) ----------------


def compare(parent, change, better, bound=None):
    """Classifies one (workload, metric) from paired runs.

    `parent` and `change` are equally long lists; pair i ran back to back.
    Improved: the change wins at least 9/10 of the pairs (ties count for
    neither side) and the medians differ by more than the parent's IQR.
    Regressed: the same rule the other way, or the change median is worse
    than the parent's by more than `bound` (a share of the parent median).
    Unresolved: the parent's own spread is wider than `bound` and not every
    change run beats every parent run.  Otherwise unchanged.
    Returns (status, info) with the medians, ratio and win counts."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs equally many parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    n = len(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    gap = abs(cm - pm)
    info = {"parent_median": pm, "change_median": cm,
            "ratio": cm / pm if pm else float("inf"),
            "parent_iqr": spread, "wins": wins, "losses": losses, "pairs": n}
    if wins * 10 >= 9 * n and gap > spread:
        return "improved", info
    if losses * 10 >= 9 * n and gap > spread:
        return "regressed", info
    if bound is not None:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        if pm and spread / abs(pm) > bound and not all_better:
            return "unresolved", info
        if pm and sign * (cm - pm) / abs(pm) < -bound:
            return "regressed", info
    return "unchanged", info
