"""The latgas benchmark: one run of one workload.

    python3 bench/run.py --workload accept|beta-scan|cli-oneshot \\
        --seed N --seconds S --trace 0|1

Run it from the root of a latgas checkout; it imports the package from
``src`` there and writes only under ``.bench_run/`` there.  A run is a
closed loop of one caller:

1. set-up: ``SETUP_SAMPLES`` fresh interpreters each import latgas and run
   one tiny ``latgas oracle`` job in-process.  Half of them run before the
   passes and half after; one more, untimed, fills the byte-code cache
   first;
2. passes: each pass runs the whole workload once in a fresh child process
   (``workloads.py``).  There is no untimed warm-up pass, so a cache pays
   for its fill inside ``wall_s``.  Passes repeat while another one fits
   in ``--seconds``; there is always at least one.  With ``--trace 1`` a
   run is one untraced pass and one traced pass instead, and their
   difference is the tracing overhead.

The metric names and units come from BENCHMARK.json.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (medians over passes) with
``--trace 0``, the per-layer metrics of the traced pass with ``--trace 1``.
Everything else (inputs, per-job outcomes, environment, spans) goes to
``.bench_run/<run>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("accept", "beta-scan", "cli-oneshot")

SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
import latgas, latgas.cli
t1 = time.perf_counter()
rc = latgas.cli.main(["oracle", "--config", sys.argv[1], "--out", sys.argv[2]])
t2 = time.perf_counter()
import numpy, scipy
print(json.dumps({"rc": rc, "import_s": t1 - t0, "first_call_s": t2 - t1,
                  "latgas": getattr(latgas, "__version__", "?"),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env(root: Path, run_dir: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(run_dir / "tmp")
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def setup_samples(root: Path, run_dir: Path, env: dict, count: int,
                  deadline: float) -> list[dict]:
    work = run_dir / "setup"
    work.mkdir(exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps({"dimension": 1, "side": 4, "beta": 0.5,
                                  "boundary": "periodic"}))
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config), str(work)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if sample["rc"] != 0:
            raise BenchError(f"set-up oracle job exited {sample['rc']}:\n{proc.stderr}")
        samples.append({**sample, "setup_s": seconds})
    return samples


def run_pass(root: Path, run_dir: Path, env: dict, args, trace: bool, index: int,
             deadline: float) -> dict:
    out = run_dir / f"pass{index:02d}{'-traced' if trace else ''}"
    out.mkdir()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(trace)), "--src", str(root / "src"),
           "--nproc", env["OMP_NUM_THREADS"], "--out", str(out)]
    with open(out / "log.txt", "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=_remaining(deadline))
    if proc.returncode != 0:
        tail = (out / "log.txt").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"pass exited {proc.returncode}:\n{tail}")
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def _summary(workload: str, seed: int, passes: list[dict], metrics: dict, units: dict) -> None:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {workload}, seed {seed}: {len(passes)} pass(es)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for i, p in enumerate(passes):
        for job in p["jobs"]:
            if job.get("error") or job.get("passed") is False:
                known = f" [known defect: {job['probe']}]" if job.get("probe") else ""
                print(f"  FAILED pass {i}, {job['name']}: "
                      f"{job.get('error') or job['detail']}{known}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "latgas" / "__init__.py").is_file():
        print("bench: no latgas package under ./src; run from the root of a latgas "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    nproc = _nproc()
    (root / ".bench_run").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=root / ".bench_run",
                                    prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-"))
    (run_dir / "tmp").mkdir()
    env = _child_env(root, run_dir, nproc)

    try:
        # the first interpreter fills the byte-code cache and is not counted
        setup = setup_samples(root, run_dir, env, 1 + SETUP_SAMPLES // 2, deadline)[1:]
        passes = []
        if args.trace:
            passes = [run_pass(root, run_dir, env, args, False, 0, deadline),
                      run_pass(root, run_dir, env, args, True, 1, deadline)]
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(root, run_dir, env, args, False, len(passes), deadline))
                last = time.perf_counter() - t0
                if time.perf_counter() - start + last > args.seconds:
                    break
        # half the set-up samples come after the passes, so that one slow
        # spell of a shared machine does not set them all
        setup += setup_samples(root, run_dir, env, SETUP_SAMPLES - len(setup), deadline)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
    }
    if args.trace:
        traced = passes[1]
        values = {**traced["layers"],
                  "setup.import_s": statistics.median(s["import_s"] for s in setup),
                  "setup.first_call_s": statistics.median(s["first_call_s"] for s in setup),
                  "trace.overhead_frac": (traced["wall_s"] - values["wall_s"]) / values["wall_s"]}
    missing = [name for name in units if name not in values]
    if missing:
        print(f"bench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: values[name] for name in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "commit": _commit(root), "nproc": nproc, "python": platform.python_version(),
            "latgas": setup[0]["latgas"], "numpy": setup[0]["numpy"],
            "scipy": setup[0]["scipy"], "thread_caps": {v: env[v] for v in THREAD_VARS},
        },
        "setup": setup, "passes": passes, "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    _summary(args.workload, args.seed, passes, metrics, units)
    print(json.dumps({
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
