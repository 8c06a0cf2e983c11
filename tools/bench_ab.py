#!/usr/bin/env python3
"""A/B the end-to-end benchmark between a base revision and HEAD.

    python3 tools/bench_ab.py BASE [--workloads W1,W2] [--seeds 1,2]
                              [--workdir DIR]
    python3 tools/bench_ab.py --self-test

Run from inside the repository.  BASE and HEAD are each exported with
`git archive` into their own fresh directory, and every run goes through
that tree's own `vecfd_bench/run.py`, the launcher BENCHMARK.json names:
its first call builds the tree's fresh .bench_build/, so the two sides
never share a build directory or a CMakeCache.txt.  Each workload runs in
10 pairs per seed, alternating which side goes first, for BENCHMARK.json's
run_seconds per run, with tracing off.

For every end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles, the change/base ratio of the medians, the share of
pairs the change won (ties count for neither side) and a verdict:

  failed      the change failed a larger share of its operations than
              the base
  gain        the change won at least 9/10 of the pairs and its median
              beats the base's by more than the base's interquartile range
  unresolved  a side's interquartile range is wider than the metric's bound
              (relative to its median) and not every change run beats every
              base run
  worse       the change's median is worse than the base's by more than the
              metric's bound
  same        none of the above

Failed operations are reported per side as failed/attempted.  The two
sides are exported under a fresh temporary directory, or under --workdir,
which must not hold a previous side; the directory is kept afterwards.
"""
import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
PAIRS = 10  # the win rule needs 9 of 10 pairs


def pair_order(i):
    """Which side runs first in pair @p i: alternate, base first in pair 0."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value @p a is strictly better than @p b."""
    return a < b if direction == "lower" else a > b


def fail_share(runs):
    """Share of the attempted operations of @p runs that failed."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(base, change, direction, bound, fails=(0.0, 0.0)):
    """Compare paired samples of one metric (see the module docstring);
    @p fails is the (base, change) share of failed operations."""
    wins = sum(better(c, b, direction) for b, c in zip(base, change))
    share = wins / len(base)
    if fails[1] > fails[0]:
        return "failed", share
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if share >= 0.9 and better(cmed, bmed, direction) and \
            abs(cmed - bmed) > bq3 - bq1:
        return "gain", share
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(better(c, b, direction) for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved", share
    worse_by = (cmed - bmed) if direction == "lower" else (bmed - cmed)
    if worse_by > bound * abs(bmed):
        return "worse", share
    return "same", share


def run_pairs(run_one):
    """Collect PAIRS pairs of samples; run_one(side, i) -> result dict
    ({"metrics": {name: value}, "attempted": n, "failed": n})."""
    samples = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in pair_order(i):
            samples[side].append(run_one(side, i))
    return samples


def report(workload, samples, end_to_end, out=sys.stdout):
    """Print one workload's table; returns {metric: verdict}."""
    print("== %s  (%d pairs)" % (workload, len(samples["base"])), file=out)
    for side in SIDES:
        att = sum(r["attempted"] for r in samples[side])
        fail = sum(r["failed"] for r in samples[side])
        print("   %-6s failed %d/%d" % (side, fail, att), file=out)
    fails = tuple(fail_share(samples[side]) for side in SIDES)
    print("   %-20s %-36s %-36s %6s %4s  %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]",
        "ratio", "won", "verdict"), file=out)
    verdicts = {}
    for m in end_to_end:
        name = m["name"]
        base = [r["metrics"][name] for r in samples["base"]]
        change = [r["metrics"][name] for r in samples["change"]]
        v, share = verdict(base, change, m["better"], m["bound"], fails)
        verdicts[name] = v
        cells = []
        for xs in (base, change):
            q1, med, q3 = quartiles(xs)
            cells.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
        bmed = quartiles(base)[1]
        ratio = quartiles(change)[1] / bmed if bmed else float("nan")
        print("   %-20s %-36s %-36s %6.3f %3.0f%%  %s" % (
            name, cells[0], cells[1], ratio, 100 * share, v), file=out)
    return verdicts


def export_side(rev, directory):
    """Export @p rev into the fresh @p directory."""
    if os.path.exists(directory):
        sys.exit("bench_ab: %s exists; each side needs a fresh directory"
                 % directory)
    os.makedirs(directory)
    tar = directory + ".tar"
    for cmd in (["git", "-C", ROOT, "archive", "--format=tar", "-o", tar,
                 rev], ["tar", "-x", "-f", tar, "-C", directory]):
        subprocess.run(cmd, check=True)
    os.remove(tar)


def run_side(directory, workload, seed, seconds):
    """One run of @p workload through the side's own vecfd_bench/run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(directory, "vecfd_bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         "%g" % seconds, "--trace", "0"],
        capture_output=True, text=True, cwd=directory)
    if proc.returncode != 0:
        sys.exit("bench_ab: %s failed on %s:\n%s" %
                 (directory, workload, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        sys.exit("bench_ab: %s reported an incorrect run of %s" %
                 (directory, workload))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def self_test():
    order = []
    fake = run_pairs(lambda side, i: order.append((i, side)) or {})
    assert order[:8] == [(0, "base"), (0, "change"), (1, "change"),
                         (1, "base"), (2, "base"), (2, "change"),
                         (3, "change"), (3, "base")]
    assert len(order) == 2 * PAIRS == 20
    assert len(fake["base"]) == len(fake["change"]) == PAIRS
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    # Half the time on every pair: a gain.
    assert verdict(base, [x / 2 for x in base], "lower", 0.25)[0] == "gain"
    # The same rule for a higher-is-better metric.
    assert verdict(base, [x * 2 for x in base], "higher", 0.25)[0] == "gain"
    # 8 wins in 10 pairs is short of 9/10, however large the saving.
    eight = [x / 2 for x in base[:8]] + base[8:]
    v, share = verdict(base, eight, "lower", 0.25)
    assert share == 0.8 and v == "same", (v, share)
    # Ties count for neither side: 9 wins and a tie still make 9/10.
    nine = [x / 2 for x in base[:9]] + base[9:]
    assert verdict(base, nine, "lower", 0.25) == ("gain", 0.9)
    # Wins on every pair but inside the base's own spread: no gain.
    wide = [9.0, 11.0] * 5
    assert verdict(wide, [x - 0.01 for x in wide], "lower", 5.0)[0] == "same"
    # Worse by more than the bound with a tight spread.
    assert verdict(base, [x * 1.5 for x in base], "lower", 0.25)[0] == "worse"
    assert verdict(base, [x * 1.1 for x in base], "lower", 0.25)[0] == "same"
    # A spread wider than the bound is unresolved unless every change run
    # beats every base run.
    assert verdict(wide, wide, "lower", 0.1)[0] == "unresolved"
    assert verdict(wide, [x / 10 for x in wide], "lower", 0.1)[0] == "gain"
    # Exact counts: identical samples are the same.
    counts = [55246400.52] * 10
    assert verdict(counts, counts, "lower", 1e-9) == ("same", 0.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    # The report reads each side's samples in pair order.
    runs = {"base": base, "change": [x / 2 for x in base]}
    run_s = [{"name": "run_s", "better": "lower", "bound": 0.25}]

    def sample(failed):
        return lambda side, i: {"metrics": {"run_s": runs[side][i]},
                                "attempted": 4, "failed": failed[side][i]}

    out = io.StringIO()
    none = {side: [0] * PAIRS for side in SIDES}
    got = report("w", run_pairs(sample(none)), run_s, out)
    assert got == {"run_s": "gain"}, got
    assert "failed 0/40" in out.getvalue() and " 0.500 " in out.getvalue()
    # A change that fails a larger share of its operations gains nothing,
    # however much faster it runs.
    more = {"base": [0] * PAIRS, "change": [1] + [0] * (PAIRS - 1)}
    out = io.StringIO()
    assert report("w", run_pairs(sample(more)), run_s, out) == \
        {"run_s": "failed"}
    assert "change failed 1/40" in out.getvalue()
    assert verdict(base, [x / 2 for x in base], "lower", 0.25,
                   (0.1, 0.1))[0] == "gain"
    assert fail_share([{"attempted": 3, "failed": 1},
                       {"attempted": 1, "failed": 0}]) == 0.25
    print("bench_ab self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?", help="base revision")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--workdir", help="where the two sides are exported")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.base:
        ap.error("a base revision is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_ab-")
    dirs = {side: os.path.join(workdir, side) for side in SIDES}
    for side, rev in zip(SIDES, (args.base, "HEAD")):
        export_side(rev, dirs[side])
    print("bench_ab: base %s, change HEAD, %g s per run, workdir %s" %
          (args.base, seconds, workdir))
    for seed in (int(x) for x in args.seeds.split(",")):
        for w in workloads:
            samples = run_pairs(lambda side, i: run_side(
                dirs[side], w, seed, seconds))
            report("%s seed %d" % (w, seed), samples, bench["end_to_end"])
            sys.stdout.flush()


if __name__ == "__main__":
    main()
