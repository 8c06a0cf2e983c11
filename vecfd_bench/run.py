#!/usr/bin/env python3
"""Build vecfd_bench from this checkout and run it.

    python3 vecfd_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark (and the vecfd library it links) into .bench_build/; later calls
rebuild only what changed.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  With --trace 1 the spans of the
traced pass are written to .bench_build/spans-<workload>-seed<N>.json.
All arguments are passed to the binary, which validates them.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vecfd_bench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "campaign.h")):
        sys.exit("run.py: no vecfd sources under %s/src; run from a full "
                 "checkout of the repository" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "vecfd_bench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vecfd_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main():
    build()
    args = sys.argv[1:]

    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else None

    if value("--trace") == "1" and "--spans" not in args:
        args += ["--spans", os.path.join(
            BUILD, "spans-%s-seed%s.json" % (value("--workload") or "all",
                                            value("--seed") or "1"))]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
