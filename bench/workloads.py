"""Workloads of the latgas benchmark: seeded inputs, one timed pass, checks.

Run as a script, this executes one pass of one workload in the current
(fresh) process and writes ``result.json`` into ``--out``; ``run.py``
starts it once per pass.  NOTES.md says why each workload was chosen.

* ``accept``: ``latgas.acceptance.run_all()``, the ten criteria with their
  budgets enforced.  Its inputs are frozen in the package; the seed is
  unused.
* ``beta-scan``: fixed boxes at seeded temperatures plus one cold point.
  Every geometry is reused at every beta.
* ``cli-oneshot``: one CLI job per distinct geometry, each at one seeded
  beta.  No geometry is reused.

Each CLI job, and each acceptance criterion, is one operation.  It fails
when it raises, exits non-zero or fails its check.  Jobs with a ``probe``
reproduce a known defect of the program and fail until it is fixed; they
stay in the workload so the defect shows.  Checks run after the timed
jobs, untraced.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BETA_SCAN_POINTS = 2
COLD_BETA = 25.0
CLI_COMMANDS = ("oracle", "series", "correlate", "deviate", "radii")


@dataclass
class Job:
    name: str
    command: str
    config: dict
    threads: int = 1
    probe: str = ""  # the known defect this job reproduces, if any
    checks: tuple = field(default=(), repr=False)


# ---------------------------------------------------------------------------
# Checks.  Each returns {check name: residual}; a residual above the
# check's tolerance fails the job.  Relative residuals are |a - b| divided
# by max(1, |b|), so values near zero are compared absolutely.

TOLERANCE = {
    "enum_vs_tm": 1e-12,
    "particle_hole": 1e-12,
    "corr_sum_rules": 1e-10,
    "corr_csv": 1e-12,
    "beta1": 1e-12,
    "nonfinite_csv_fields": 0,
    "radii_sign_change_errors": 0,
}
RELATIVE_CHECKS = ("enum_vs_tm", "particle_hole", "corr_sum_rules", "corr_csv", "beta1")


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _log_z(out: Path) -> np.ndarray:
    return np.array([float(r["logZ"]) for r in _read_csv(out / "canonical_table.csv")])


def _is_sentinel(name: str, column: str, row: dict, value: float) -> bool:
    """Non-finite values the CLI documents: M_IS, M_LG = -inf at beta = 0;
    no error envelope E at alpha = 1 (precise large deviations); b_n and
    beta_n = nan above the orders the cluster sums are guarded to."""
    from latgas import series
    if name.startswith("radii_") and column in ("M_IS", "M_LG"):
        return value == -math.inf and float(row["beta"]) == 0.0
    if name == "deviations.csv" and column == "E":
        return math.isnan(value) and float(row["alpha"]) == 1.0
    if name == "series.csv" and column in ("b_n", "beta_n"):
        cap = getattr(series, "MAX_B_ORDER" if column == "b_n" else "MAX_BETA_IRR_ORDER", 0)
        return math.isnan(value) and int(row["n"]) > cap
    return False


def check_finite_csvs(job: Job, out: Path) -> dict:
    paths = sorted(out.glob("*.csv"))
    if not paths:
        raise ValueError("job wrote no CSV")
    bad = 0
    for path in paths:
        for row in _read_csv(path):
            for column, text in row.items():
                try:
                    value = float(text)
                except ValueError:  # labels such as site coordinates "0/1"
                    continue
                if not math.isfinite(value) and not _is_sentinel(path.name, column, row, value):
                    bad += 1
    return {"nonfinite_csv_fields": bad}


def check_enum_vs_tm(job: Job, out: Path) -> dict:
    """Enumeration table against the periodic transfer matrix on the ring."""
    from latgas import PotentialSpec, transfer_matrix_table
    cfg = job.config
    ref = transfer_matrix_table(cfg["side"], PotentialSpec(), cfg["beta"], "periodic")
    return {"enum_vs_tm": _rel(_log_z(out), ref.log_z)}


def check_particle_hole(job: Job, out: Path) -> dict:
    """log Z(|L|-N) = log Z(N) + 4 beta J (|E| - 2 d N) on a periodic box."""
    cfg = job.config
    d, sites = cfg["dimension"], cfg["side"] ** cfg["dimension"]
    edges = d * sites
    log_z = _log_z(out)
    n = np.arange(sites + 1)
    rhs = log_z + 4.0 * cfg["beta"] * 1.0 * (edges - 2 * d * n)
    return {"particle_hole": _rel(log_z[::-1], rhs)}


def check_correlations(job: Job, out: Path) -> dict:
    """Sum rules on the correlation table, and the CSV against that table.

    sum_i rho1(i) = N and sum_j rho2(i, j) = (N - 1) rho1(i); the CSV's
    u2_exact column must be |u2| of the same table in site-pair order.
    """
    from latgas import LatticeSpec, PotentialSpec, exact_correlations
    cfg = job.config
    n = cfg["particles"]
    table = exact_correlations(LatticeSpec(cfg["dimension"], cfg["side"], "periodic"),
                               PotentialSpec(), cfg["beta"], n)
    rule1 = abs(table.rho1.sum() - n) / n
    rule2 = float(np.max(np.abs(table.rho2.sum(axis=1) / (n - 1) - table.rho1) / table.rho1))
    rows = _read_csv(out / "correlation_bound.csv")
    csv_u2 = np.array([float(r["u2_exact"]) for r in rows])
    exact = np.abs(table.u2).ravel()
    if len(csv_u2) != len(exact):
        raise ValueError(f"correlation CSV has {len(csv_u2)} rows, expected {len(exact)}")
    return {"corr_sum_rules": max(rule1, rule2),
            "corr_csv": float(np.max(np.abs(csv_u2 - exact)) / max(np.max(exact), 1e-300))}


def check_beta1(job: Job, out: Path) -> dict:
    """The series CSV's beta_1 against the closed form."""
    from latgas import PotentialSpec
    from latgas.series import beta1_closed_form
    cfg = job.config
    row = next(r for r in _read_csv(out / "series.csv") if r["n"] == "1")
    ref = beta1_closed_form(cfg["dimension"], PotentialSpec(), cfg["beta"])
    return {"beta1": _rel(float(row["beta_n"]), ref)}


def _sign_changes(values) -> int:
    arr = [v for v in values if math.isfinite(v)]
    scale = max((abs(v) for v in arr), default=0.0)
    signs = [v > 0 for v in arr if abs(v) > 1e-13 * scale]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def check_radii(job: Job, out: Path) -> dict:
    """Every J = 1 sweep keeps exactly one R_C - R-bar_C sign change."""
    paths = sorted(out.glob("radii_d*_J1.csv"))
    if not paths:
        raise ValueError("no J = 1 radii sweep written")
    errors = 0
    for path in paths:
        rows = _read_csv(path)
        errors += abs(_sign_changes([float(r["R_C"]) - float(r["R_C_bar"]) for r in rows]) - 1)
    return {"radii_sign_change_errors": errors}


# ---------------------------------------------------------------------------
# Seeded inputs.  Ranges keep every non-probe job inside the program's
# guards; the probes fail on the defect they name (NOTES.md).

RING = {"dimension": 1, "boundary": "periodic"}
TORUS = {"dimension": 2, "side": 4, "boundary": "periodic"}
PH_CHECKS = (check_finite_csvs, check_particle_hole)
CORR_CHECKS = (check_finite_csvs, check_correlations)


def beta_scan(rng: random.Random, nproc: int) -> list[Job]:
    jobs = []
    for i in range(BETA_SCAN_POINTS):
        beta = rng.uniform(0.05, 1.0)
        mu = rng.uniform(-6.0, -2.0)
        jobs += [
            Job(f"oracle ring24 #{i}", "oracle",
                {**RING, "side": 24, "beta": beta, "mu": mu},
                checks=PH_CHECKS + (check_enum_vs_tm,)),
            Job(f"series ring24 #{i}", "series",
                {**RING, "side": 24, "beta": beta, "order": 5},
                checks=(check_finite_csvs,)),
            Job(f"correlate ring18 #{i}", "correlate",
                {**RING, "side": 18, "beta": beta, "particles": 9}, checks=CORR_CHECKS),
            Job(f"oracle ring4096 #{i}", "oracle",
                {**RING, "side": 4096, "beta": beta, "mu": mu},
                checks=(check_finite_csvs,)),
            Job(f"oracle torus4x4 #{i}", "oracle", {**TORUS, "beta": beta},
                checks=PH_CHECKS),
        ]
    jobs += [
        Job("oracle torus4x4 cold", "oracle", {**TORUS, "beta": COLD_BETA}, checks=PH_CHECKS),
        Job("correlate torus4x4 cold", "correlate",
            {**TORUS, "beta": COLD_BETA, "particles": 8}, checks=CORR_CHECKS,
            probe="exact_correlations overflows math.exp at beta = 25; the "
                  "OverflowError escapes cli.main"),
    ]
    return jobs


def cli_oneshot(rng: random.Random, nproc: int) -> list[Job]:
    def beta() -> float:
        return rng.uniform(0.05, 1.0)

    def deviate_beta() -> float:
        # above ~0.2 the mu0 default puts the target density outside (0, 1)
        return rng.uniform(0.02, 0.15)

    probe_sides = rng.sample([64, 256, 1024], 2)
    return [
        Job("series box3x3", "series",
            {"dimension": 2, "side": 3, "boundary": "periodic", "beta": beta(), "order": 4},
            checks=(check_finite_csvs, check_beta1)),
        Job("radii grid401", "radii",
            {"beta_grid": {"start": 0.0, "stop": rng.uniform(0.8, 1.2), "count": 401}},
            threads=min(2, nproc), checks=(check_finite_csvs, check_radii)),
        Job("oracle kac3 chain4096", "oracle",
            {"dimension": 1, "side": 4096, "beta": beta(),
             "potential": {"kind": "kac", "range": 3}}, checks=(check_finite_csvs,)),
        Job("oracle kac4 chain4096", "oracle",
            {"dimension": 1, "side": 4096, "beta": beta(),
             "potential": {"kind": "kac", "range": 4}}, checks=(check_finite_csvs,)),
        Job("oracle chain23", "oracle", {"dimension": 1, "side": 23, "beta": beta()},
            checks=(check_finite_csvs,)),
        Job("deviate ring4096", "deviate",
            {**RING, "side": 4096, "beta": deviate_beta(),
             "alphas": [0.5, 1.0], "us": [0.0, 0.05]}, checks=(check_finite_csvs,)),
        Job("correlate torus4x4", "correlate", {**TORUS, "beta": beta(), "particles": 8},
            checks=CORR_CHECKS),
        *[Job(f"deviate chain{side} defaults", "deviate",
              {"dimension": 1, "side": side, "beta": deviate_beta()},
              checks=(check_finite_csvs,),
              probe="the default alphas/us put the target density above the 0.4 "
                    "cap: exit 3") for side in probe_sides],
        Job("series ring40", "series", {**RING, "side": 40, "beta": beta()},
            checks=(check_finite_csvs, check_beta1),
            probe="series uses enumeration only and exits 3 on its 24-site guard, "
                  "where oracle and deviate switch to the transfer matrix"),
    ]


BUILDERS = {"beta-scan": beta_scan, "cli-oneshot": cli_oneshot}
WORKLOADS = ("accept", *BUILDERS)


# ---------------------------------------------------------------------------
# One pass

def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(job: Job, out: Path, main) -> str:
    """Run one CLI job; return '' on success or the failure."""
    try:
        rc = main([job.command, "--config", str(out / "config.json"),
                   "--out", str(out), "--threads", str(job.threads)])
    except Exception as e:  # a job that raises is a failed operation; the pass goes on
        return f"{type(e).__name__}: {e}"
    return "" if rc == 0 else f"exit {rc}"


def _check_job(job: Job, out: Path) -> tuple[dict, str]:
    residuals: dict = {}
    try:
        for check in job.checks:
            residuals.update(check(job, out))
    except (OSError, ValueError, KeyError, StopIteration, ArithmeticError) as e:
        return residuals, f"check could not run: {type(e).__name__}: {e}"
    over = [k for k, v in residuals.items() if not v <= TOLERANCE[k]]
    return residuals, (f"check failed: {', '.join(over)}" if over else "")


def cli_pass(workload: str, seed: int, trace: bool, out: Path, nproc: int) -> dict:
    from latgas import cli
    jobs = BUILDERS[workload](random.Random(seed), nproc)
    dirs = []
    for i, job in enumerate(jobs):
        job_dir = out / f"job{i:02d}"
        job_dir.mkdir(parents=True)
        (job_dir / "config.json").write_text(json.dumps(job.config))
        dirs.append(job_dir)

    recorder = _start_trace(trace)
    records = []
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    for job, job_dir in zip(jobs, dirs):
        if recorder:
            recorder.job = job.name
        t0, c0 = time.perf_counter(), _cpu_s()
        error = _run_job(job, job_dir, cli.main)
        records.append({"name": job.name, "command": job.command, "config": job.config,
                        "threads": job.threads, "probe": job.probe, "error": error,
                        "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0})
    wall, cpu, rss = time.perf_counter() - wall0, _cpu_s() - cpu0, _peak_rss_mb()
    layers = _stop_trace(recorder, out)

    residuals: dict[str, float] = {}
    for job, job_dir, rec in zip(jobs, dirs, records):
        if not rec["error"]:
            rec["residuals"], rec["error"] = _check_job(job, job_dir)
            for k, v in rec["residuals"].items():
                residuals[k] = max(residuals.get(k, 0.0), v)
        shutil.rmtree(job_dir)

    layers.update(_boundary_layers(records=records, residuals=residuals))
    failed = [r for r in records if r["error"]]
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        "attempted": len(records), "failed": len(failed),
        # a failing probe is the known defect; any other failure, or a probe
        # whose output is wrong, means the program's answers cannot be trusted
        "correct": all(r["probe"] and not r["error"].startswith("check")
                       for r in failed),
        "jobs": records, "layers": layers,
    }


def accept_pass(trace: bool, out: Path) -> dict:
    from latgas import acceptance
    recorder = _start_trace(trace)
    if recorder:
        recorder.job = "accept"
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    results = acceptance.run_all()
    wall, cpu, rss = time.perf_counter() - wall0, _cpu_s() - cpu0, _peak_rss_mb()
    layers = _stop_trace(recorder, out)
    records = [{"name": f"criterion {r.index}: {r.name}", "passed": r.passed,
                "detail": r.detail, "seconds": r.seconds} for r in results]
    layers.update(_boundary_layers(criteria=results))
    failed = sum(1 for r in results if not r.passed)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "attempted": len(results), "failed": failed, "correct": failed == 0,
            "jobs": records, "layers": layers}


def _boundary_layers(records=(), criteria=(), residuals=None) -> dict:
    """Per-layer metrics taken at job boundaries, 0 where a layer did not run.

    ``cli.main`` dispatches through its ``COMMANDS`` table, so the CLI
    layers are timed here, around each job, rather than by the recorder.
    """
    residuals = residuals or {}
    layers = {f"cli.{cmd}.wall_s": sum(r["wall_s"] for r in records if r["command"] == cmd)
              for cmd in CLI_COMMANDS}
    layers.update({f"acceptance.c{i:02d}_s": 0.0 for i in range(1, 11)})
    layers.update({f"acceptance.c{r.index:02d}_s": r.seconds for r in criteria})
    layers.update({f"check.{name}.max_rel_residual": residuals.get(name, 0.0)
                   for name in RELATIVE_CHECKS})
    return layers


def _start_trace(trace: bool):
    if not trace:
        return None
    from tracing import Recorder
    recorder = Recorder()
    recorder.install()
    return recorder


def _stop_trace(recorder, out: Path) -> dict:
    if recorder is None:
        return {}
    recorder.uninstall()
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    layers = recorder.layer_metrics()
    layers["trace.unannotated_calls"] = recorder.unannotated
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One timed pass of a latgas workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for this pass's files")
    args = parser.parse_args(argv)

    import latgas
    src = Path(args.src).resolve()
    if src not in Path(latgas.__file__).resolve().parents:
        print(f"latgas imported from {latgas.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "accept":
        result = accept_pass(bool(args.trace), out)
    else:
        result = cli_pass(args.workload, args.seed, bool(args.trace), out, args.nproc)
    result["traced"] = bool(args.trace)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
