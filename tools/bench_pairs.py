"""Paired benchmark runs of two latgas checkouts, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json

Each of PAIRS pairs runs ``python3 bench/run.py --workload W --seed 7 --seconds T``
once in each checkout, for every workload W of ``BENCHMARK.json``, at its
``run_seconds`` T, with the parent first in even pairs and the change first in
odd ones, so a slow spell of a shared machine does not fall on one side.  The
file holds every run's end-to-end metrics and failed-operation counts, and per
workload and metric both sides' quartiles and the pairs the change won.  Both
checkouts must be git checkouts whose ``src/`` and ``bench/`` match their
HEAD, so the commits and src trees the file records name the code that ran;
each runs its own ``bench/``.  Their git-ignored files under ``src/`` and
``bench/`` must be the same: a byte-code cache on one side only lets that
side skip compiling latgas where PYTHONDONTWRITEBYTECODE is set.  Their
absolute paths must be of equal length: the length alone moves
``peak_rss_mb`` by about 0.2 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")  # all lower is better
PAIRS = 10
SEED = 7
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def _run(root: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(SECONDS)],
                          cwd=root, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    return {"failed": last["failed"], "attempted": last["attempted"],
            **{name: last["metrics"][name]["value"] for name in METRICS}}


def _rev(root: Path, rev: str) -> str:
    proc = subprocess.run(["git", "rev-parse", rev], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _unclean(root: Path) -> str:
    """Why the checkout's src/ and bench/ may differ from its HEAD, or ''."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all",
                           "--", "src", "bench"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return "is not a git checkout"
    changed = proc.stdout.rstrip()
    return f"differs from its HEAD in src/ or bench/:\n{changed}" if changed else ""


def _ignored(root: Path) -> set[str]:
    """The git-ignored files under src/ and bench/, byte-code caches among them."""
    proc = subprocess.run(["git", "ls-files", "--others", "--ignored", "--exclude-standard",
                           "--", "src", "bench"], cwd=root, capture_output=True, text=True)
    return set(proc.stdout.splitlines())


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarise(parent: list[dict], change: list[dict]) -> dict:
    """Per metric: each side's quartiles [q1, median, q3] and the pairs the
    change won (ties count for neither side)."""
    return {name: {"parent_quartiles": _quartiles([r[name] for r in parent]),
                   "change_quartiles": _quartiles([r[name] for r in change]),
                   "change_wins": sum(c[name] < p[name] for p, c in zip(parent, change)),
                   "pairs": len(parent)}
            for name in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for side in ("parent", "change"):
        why = _unclean(getattr(args, side))
        if why:
            print(f"bench_pairs: {side} checkout {getattr(args, side)} {why}", file=sys.stderr)
            return 1
    ignored = {side: _ignored(getattr(args, side)) for side in ("parent", "change")}
    if ignored["parent"] != ignored["change"]:
        print(f"bench_pairs: the checkouts' git-ignored files under src/ and bench/ differ, "
              f"so one side may skip compiling latgas: only in the parent "
              f"{sorted(ignored['parent'] - ignored['change'])}, only in the change "
              f"{sorted(ignored['change'] - ignored['parent'])}", file=sys.stderr)
        return 1
    paths = [str(getattr(args, side).resolve()) for side in ("parent", "change")]
    if len(paths[0]) != len(paths[1]):
        print(f"bench_pairs: the checkouts' absolute paths differ in length, which alone "
              f"moves peak_rss_mb by about 0.2 MB: parent {paths[0]} ({len(paths[0])} "
              f"characters), change {paths[1]} ({len(paths[1])})", file=sys.stderr)
        return 1

    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for i in range(PAIRS):
        for workload in WORKLOADS:
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                root = getattr(args, side)
                runs[workload][side].append(_run(root, workload))
            print(f"pair {i}, {workload}: parent {runs[workload]['parent'][-1]}, "
                  f"change {runs[workload]['change'][-1]}", file=sys.stderr, flush=True)

    record = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T",
        "seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
        # the src tree hash names the measured code across later amends
        "environment": {**{f"{side}_{what}": _rev(getattr(args, side), rev)
                           for side in ("parent", "change")
                           for what, rev in (("commit", "HEAD"), ("src_tree", "HEAD:src"))},
                        "nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {w: {"summary": summarise(r["parent"], r["change"]), "runs": r}
                      for w, r in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
