"""Command-line front end.

Subcommands: ``radii``, ``series``, ``oracle``, ``correlate``, ``deviate``,
``accept``.  Configuration is a JSON file passed with ``--config``; a
top-level key the command does not name is a configuration error.  Each
command returns {file name: rows}, numbers left as numbers; ``main``
writes them under ``--out`` once the command has returned, so a run that
exits 2, 3 or 5 writes no file.  Exit codes: 0 success, 2 configuration
error, 3 guard violation, 4 acceptance failure, 5 numerical failure (an
``ArithmeticError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, correlations, deviations, radii, series
from .csvfmt import write_csv
from .model import GuardError, LatticeSpec, PotentialSpec
from .oracle import canonical_table, exact_correlations, grand_canonical_eval
from .oracle import exact_canonical_table  # noqa: F401  read by bench/test_bench.py


class ConfigError(ValueError):
    """A configuration key is missing, malformed, or out of range."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _check(v, key: str, kind, legal: str):
    """The config value ``v`` of ``key`` as ``kind`` (int or float)."""
    if kind is float and type(v) is int:
        v = float(v)
    # exact types, since isinstance counts JSON's true and false as ints and
    # int() truncates 2.7; and JSON admits NaN and Infinity, which would run
    # through to all-nan CSVs
    if type(v) is not kind or (kind is float and not math.isfinite(v)):
        raise ConfigError(f"key '{key}' must be {legal}, got {v!r}")
    return v


MODEL_KEYS = ("dimension", "side", "boundary", "beta", "coupling", "potential")


def _only(cfg: dict, *keys: str) -> None:
    """Reject a top-level key the command does not name: a misspelt key
    would otherwise leave its default in force unnoticed."""
    unknown = sorted(cfg.keys() - set(keys))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}'; this command takes "
                          f"{', '.join(keys) or 'no keys'}")


def _need(cfg: dict, key: str, kind, legal: str):
    if key not in cfg:
        raise ConfigError(f"missing key '{key}' ({legal})")
    return _check(cfg[key], key, kind, legal)


def _parse_boundary(cfg: dict) -> tuple[str, tuple]:
    b = cfg.get("boundary", "zero")
    if b in ("zero", "periodic"):
        return b, ()
    if isinstance(b, str) and b.startswith("fixed:"):
        try:
            sites = json.loads(b[len("fixed:"):])
            return "fixed", tuple(tuple(_check(c, "boundary", int, "integer coordinates")
                                        for c in s) for s in sites)
        except (json.JSONDecodeError, TypeError, ValueError) as e:
            raise ConfigError(
                "key 'boundary' fixed form must be 'fixed:<JSON site list>', "
                f"e.g. 'fixed:[[-1],[4]]': {e}") from e
    raise ConfigError("key 'boundary' must be one of zero | periodic | "
                      "fixed:<site list>")


def _parse_potential(cfg: dict) -> PotentialSpec:
    pot_cfg = cfg.get("potential", {})
    if not isinstance(pot_cfg, dict):
        raise ConfigError("key 'potential' must be an object with 'kind'/'range'")
    kind = pot_cfg.get("kind", "standard")
    if kind not in ("standard", "kac"):
        raise ConfigError("key 'potential.kind' must be standard | kac")
    coupling = _need(cfg, "coupling", float, "a positive real") if "coupling" in cfg else 1.0
    if coupling <= 0:
        raise ConfigError("key 'coupling' must be a positive real")
    rng = _check(pot_cfg.get("range", 1), "potential.range", int, "a positive integer")
    if rng < 1:
        raise ConfigError("key 'potential.range' must be a positive integer")
    return PotentialSpec(kind, coupling, rng)


def _parse_model(cfg: dict) -> tuple[LatticeSpec, PotentialSpec, float]:
    d = _need(cfg, "dimension", int, "a positive integer")
    if d < 1:
        raise ConfigError("key 'dimension' must be >= 1")
    side = _need(cfg, "side", int, "an integer >= 2")
    if side < 2:
        raise ConfigError("key 'side' must be >= 2")
    beta = _need(cfg, "beta", float, "a finite real >= 0")
    if beta < 0:
        raise ConfigError("key 'beta' must be >= 0")
    boundary, gamma = _parse_boundary(cfg)
    pot = _parse_potential(cfg)
    lattice = LatticeSpec(d, side, boundary, gamma)
    return lattice, pot, beta


def _beta_grid(cfg: dict) -> np.ndarray:
    grid = cfg.get("beta_grid", {"start": 0.0, "stop": 1.0, "count": 101})
    if not isinstance(grid, dict) or not {"start", "stop", "count"} <= grid.keys():
        raise ConfigError("key 'beta_grid' must be {start, stop, count}")
    start, stop = (_check(grid[k], f"beta_grid.{k}", float, "a finite real")
                   for k in ("start", "stop"))
    count = _check(grid["count"], "beta_grid.count", int, "a positive integer")
    if count < 1:
        raise ConfigError("key 'beta_grid.count' must be >= 1")
    return np.linspace(start, stop, count)


def _order(cfg: dict, lattice: LatticeSpec) -> int:
    """The series order: extracting B(1..order) reads log Z up to
    N = order + 1, so the order runs from 1 to |Lambda| - 1."""
    order = _check(cfg.get("order", 4), "order", int, "an integer in [1, |Lambda|-1]")
    if not 1 <= order <= lattice.n_sites - 1:
        raise ConfigError("key 'order' must satisfy 1 <= order <= |Lambda|-1")
    return order


def cmd_radii(cfg: dict) -> dict:
    betas = _beta_grid(cfg)
    legal = "a list of [dimension >= 1, coupling > 0]"
    pairs = []
    for pair in cfg.get("pairs", [[1, 1.0], [2, 1.0], [3, 1.0], [1, 2.0]]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"key 'pairs' must be {legal}, got {pair!r}")
        d, coupling = _check(pair[0], "pairs", int, legal), _check(pair[1], "pairs", float, legal)
        if d < 1 or coupling <= 0:
            raise ConfigError(f"key 'pairs' must be {legal}, got {pair!r}")
        pairs.append((d, coupling))
    _only(cfg, "beta_grid", "pairs")
    return {f"radii_d{d}_J{coupling:g}.csv": [
        ("beta", "R_C", "R_C_bar", "M_IS", "M_LG", "R_V", "a_star_RC", "a_star_RCbar"),
        *((r.beta, r.r_c, r.r_c_bar, r.m_is, r.m_lg, r.r_v, r.a_star_rc, r.a_star_rcbar)
          for r in radii.sweep_radii(d, PotentialSpec("standard", coupling), betas))]
        for d, coupling in pairs}


def cmd_oracle(cfg: dict) -> dict:
    lattice, pot, beta = _parse_model(cfg)
    mu = _need(cfg, "mu", float, "a finite real") if "mu" in cfg else None
    _only(cfg, *MODEL_KEYS, "mu")
    table = canonical_table(lattice, pot, beta)
    files = {"canonical_table.csv": [("N", "logZ"), *enumerate(table.log_z.tolist())]}
    if mu is not None:
        probs = grand_canonical_eval(table, mu).probs
        files["probabilities.csv"] = [("N", "prob"), *enumerate(probs.tolist())]
    return files


def cmd_series(cfg: dict) -> dict:
    lattice, pot, beta = _parse_model(cfg)
    order = _order(cfg, lattice)
    particles = _check(cfg.get("particles", order + 1), "particles", int,
                       "an integer in [1, |Lambda|]")
    if not 1 <= particles <= lattice.n_sites:
        raise ConfigError("key 'particles' must satisfy 1 <= particles <= |Lambda|")
    _only(cfg, *MODEL_KEYS, "order", "particles")
    table = canonical_table(lattice, pot, beta)
    fe = series.extract_b_lambda(table, order)
    rows = [("n", "b_n", "beta_n", "B_Lambda_n", "F_coeff")]
    for n in range(1, order + 1):
        b_n = (series.connected_coefficient(n, lattice.dimension, pot, beta)
               if n <= series.MAX_B_ORDER else math.nan)
        beta_n = (series.irreducible_coefficient(n, lattice.dimension, pot, beta)
                  if n <= series.MAX_BETA_IRR_ORDER else math.nan)
        f_val = series.f_coefficient(particles, lattice.n_sites, n, fe.coeffs[n])
        rows.append((n, b_n, beta_n, fe.coeffs[n], f_val))
    return {"series.csv": rows}


def cmd_correlate(cfg: dict) -> dict:
    lattice, pot, beta = _parse_model(cfg)
    particles = _need(cfg, "particles", int, "an integer in [2, |Lambda|]")
    if ("c_const" in cfg) != ("c1_const" in cfg):
        raise ConfigError("keys 'c_const' and 'c1_const' go together: give both or neither")
    given = [_need(cfg, key, float, "a finite real")
             for key in ("c_const", "c1_const") if key in cfg]
    _only(cfg, *MODEL_KEYS, "particles", "c_const", "c1_const")
    table = exact_correlations(lattice, pot, beta, particles)
    if given:
        c_val, c1_val = given
    else:
        cal = correlations.calibrate_constants([table])
        c_val, c1_val = cal.c_min, cal.c1_min
    report = correlations.pair_rows(table, c_val, c1_val)
    return {"correlation_bound.csv": [
        ("q1", "q2", "dist", "u2_exact", "rhs", "feasible"),
        *(("/".join(map(str, r.q1)), "/".join(map(str, r.q2)), r.dist, r.u2_exact, r.rhs,
           r.feasible) for r in report.rows)]}


def _reals(cfg: dict, key: str, default: list) -> list[float]:
    """The config list ``key`` (``default`` if absent), each entry a finite
    real; an empty list would write a CSV of headers only."""
    values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"key '{key}' must be a non-empty list of finite reals, got {values!r}")
    return [_check(v, key, float, "a non-empty list of finite reals") for v in values]


def cmd_deviate(cfg: dict) -> dict:
    lattice, pot, beta = _parse_model(cfg)
    order = _order(cfg, lattice)
    alphas = _reals(cfg, "alphas", [0.5, 1.0])
    if not all(0.5 <= a <= 1.0 for a in alphas):
        raise ConfigError("key 'alphas' entries must lie in [1/2, 1]")
    # at the default mu0, u = 0.5 already puts the alpha = 1 target past
    # deviations.DENSITY_HARD_CAP on chains of 64 to 1024 sites
    us = _reals(cfg, "us", [0.0, 0.05])
    if "mu0" in cfg:
        mu0 = _need(cfg, "mu0", float, "a finite real")
    else:
        mu0 = radii.lattice_gas_threshold(lattice.dimension, pot, beta) - 1.0
        if beta == 0:
            raise ConfigError("key 'mu0' required when beta = 0 (threshold sentinel)")
        if not math.isfinite(mu0):
            raise ConfigError(f"key 'mu0' required: its default M_LG - 1 is not finite "
                              f"at beta = {beta!r}")
    _only(cfg, *MODEL_KEYS, "order", "alphas", "us", "mu0")
    table = canonical_table(lattice, pot, beta)
    fe = series.extract_b_lambda(table, order)
    gc0 = grand_canonical_eval(table, mu0)
    rows = [("L", "mu0", "alpha", "u", "N_bar", "N_star", "N_tilde", "mu_tilde", "I_GC", "D",
             "D_alpha", "D_alpha_plus", "m_alpha", "E", "p_exact", "p_formula", "gap")]
    for alpha in alphas:
        for u in us:
            r = deviations.formula_probability(gc0, alpha, u, fe)
            rows.append((r.volume, r.mu0, r.alpha, r.u, r.n_bar, r.n_star, r.n_tilde,
                         r.mu_tilde, r.rate, r.d_plain, r.d_alpha, r.d_alpha_plus,
                         r.m_alpha, r.error_term, r.p_exact, r.p_formula, r.gap))
    return {"deviations.csv": rows}


def cmd_accept(cfg: dict) -> tuple[dict, int]:
    _only(cfg)
    results = acceptance.run_all()
    # timings go to stdout only, keeping the CSV byte-identical across runs
    rows = [("index", "criterion", "passed", "detail")]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.index:2d}. {r.name} ({r.seconds:.1f}s)")
        print(f"        {r.detail}")
        rows.append((r.index, r.name, status, r.detail))
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return {"acceptance.csv": rows}, 0 if n_fail == 0 else 4


COMMANDS = {
    "radii": cmd_radii,
    "oracle": cmd_oracle,
    "series": cmd_series,
    "correlate": cmd_correlate,
    "deviate": cmd_deviate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latgas",
        description="Lattice-gas cluster-expansion toolkit: exact oracles, "
                    "Mayer coefficients, convergence thresholds, correlation "
                    "bounds and deviation probabilities.")
    parser.add_argument("command", choices=sorted(COMMANDS) + ["accept"])
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.command == "accept":  # a failed criterion is a result: exit 4 writes its table
            files, code = cmd_accept(cfg)
        else:
            files, code = COMMANDS[args.command](cfg), 0
    except GuardError as e:
        print(f"guard violation: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # ConfigError included
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 5
    for name, rows in files.items():
        write_csv(Path(args.out) / name, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
