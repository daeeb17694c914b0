"""Mutants of latgas that the tests must kill.

    python3 tools/mutants.py

Each entry of MUTANTS is (file, snippet, replacement, node ids): the exact
snippet must occur once in the file, and with the replacement in its place
every named pytest node must fail.  Each mutant runs in its own temporary
copy of ``src/`` and ``tests/``, with the copy's ``src/`` first on the
import path, and only its named nodes run, at a fixed hypothesis seed.  The
nodes first run once on an unmutated copy, where all must pass.  One line
per mutant goes to stdout; the exit code is 1 when a snippet does not occur
exactly once, a node fails unmutated, or a mutant survives (one of its
nodes passes or does not run).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLE, DEVIATIONS = "src/latgas/oracle.py", "src/latgas/deviations.py"
GRAPHS, CORRELATIONS = "src/latgas/graphs.py", "src/latgas/correlations.py"
SERIES, MODEL = "src/latgas/series.py", "src/latgas/model.py"
CLI, CSVFMT = "src/latgas/cli.py", "src/latgas/csvfmt.py"
T_ORACLE, T_DEVIATIONS = "tests/test_oracle.py::", "tests/test_deviations.py::"
T_SERIES, T_CLI = "tests/test_series.py::", "tests/test_cli.py::"
BRUTE = T_ORACLE + "test_correlations_equal_brute_force"
WINDOWED = T_ORACLE + "test_windowed_transfer_matrix_equals_aligned_bit_for_bit"
BANDED = T_ORACLE + "test_banded_windows_equal_aligned_bit_for_bit"
GROUND = T_ORACLE + "test_transfer_matrix_ground_states_at_huge_beta"
FIND_N_STAR = (T_DEVIATIONS + "test_find_n_star_equals_the_loop_on_planted_steps",)
BETA = T_ORACLE + "test_oracles_take_beta_from_zero_to_inf"
GC_GUARD = T_DEVIATIONS + "test_grand_canonical_layer_raises_guard_error_past_the_float_range"
SERIES_GUARD = T_SERIES + "test_coefficients_past_float_range_raise_guard_error"
GROWTH = T_SERIES + "test_patterns_equal_the_set_growth"

MUTANTS = [
    # the correlation oracle: u2 by cancellation, the diagonal rounded twice,
    # c(N, k) from the wrong row
    (ORACLE, """        u2 = [sum((S * S * p - n * n * c) * weights[top - k]
                  for k, (p, c) in enumerate(zip(row, counts))) / (z * S * S)
              for row in pairs.tolist()]""",
     "        u2 = [x - decimal.Decimal(n * n) / (S * S) for x in rho2]",
     (BRUTE + "[25.0-lattice3-8]", BRUTE + "[25.0-lattice4-6]", BRUTE + "[25.0-lattice5-2]")),
    (ORACLE, "u2[0] = -(n * n) / (S * S)", "u2[0] = -(n / S) ** 2",
     (T_ORACLE + "test_correlations_over_the_guarded_space",)),
    (ORACLE, "counts = _density_of_states(lattice, pot.support_radius)[n]\n",
     "counts = _density_of_states(lattice, pot.support_radius)[n - 1]\n",
     (BRUTE + "[0.3-lattice0-3]", T_ORACLE + "test_correlation_sum_rules")),
    # the transfer matrix: no band shift of the compensation c; no -inf
    # exponent for the band's unwritten column; the full row rounded twice;
    # frozen columns without their c moved to the column, without the bond
    # exponent in their factors, or past the bound
    (ORACLE, "            np.ldexp(c_band, c_sh, out=c_band)\n", "",
     (BANDED + "[pot0-6.0-300]", BANDED + "[pot1-3.5-200]")),
    (ORACLE, "                band_e[1, :, 0] = -math.inf\n", "",
     (WINDOWED + "[1e+300-pot5-zero]", GROUND + "[10000.0]", GROUND + "[1e+300]",
      T_ORACLE + "test_transfer_matrix_is_within_an_ulp_of_the_closed_form_ring[200.0-257]",
      BANDED + "[pot0-6.0-300]", BANDED + "[pot1-3.5-200]")),
    (ORACLE, "log_z = np.append(log_z, float(_EXACT.fma(top_level, x, 0)))",
     "log_z = np.append(log_z, top_level * float(x))",
     (T_ORACLE + "test_transfer_matrix_full_row_is_rounded_once",)),
    (ORACLE, "    np.ldexp(comp[:, :n0 + 1], sh[:half], out=comp[:, :n0 + 1])\n", "",
     (WINDOWED + "[0.3-pot4-zero]", WINDOWED + "[0.3-pot5-zero]")),
    (ORACLE, "    np.add(top[:-1], bond[1], out=factors)\n",
     "    np.copyto(factors, top[:-1])\n", (WINDOWED + "[0.3-pot0-zero]",)),
    (ORACLE, "frozen = columns and np.count_nonzero(size >= tiny) == np.count_nonzero(size)\n",
     "frozen = True\n",
     (T_ORACLE + "test_window_paths", WINDOWED + "[1e+300-pot0-zero]",
      WINDOWED + "[1e+300-pot5-zero]")),
    # the graph engine: Pruefer block digits reversed; edges out of pair order
    (GRAPHS, "n ** np.arange(free - 1, -1, -1) % n", "n ** np.arange(free) % n",
     ("tests/test_graphs.py::test_pruefer_round_trip",)),
    (GRAPHS, "return [p for b, p in enumerate(_pair_table(n)) if graph >> b & 1]",
     "return [p for b, p in enumerate(_pair_table(n)) if graph >> b & 1][::-1]",
     ("tests/test_graphs.py::test_bitmask_route_equals_dfs_route",)),
    # find_n_star: no tie loop, the first near-tie only, nan not handled,
    # always the running maximum
    (DEVIATIONS, """    for n in climbs[stall:].tolist():
        if v[n] > best_v + 1e-12 * max(1.0, abs(best_v)):
            best_n, best_v = n, float(v[n])
""", "", FIND_N_STAR),
    (DEVIATIONS, "for n in climbs[stall:].tolist():", "for n in climbs[stall:stall + 1].tolist():",
     FIND_N_STAR),
    (DEVIATIONS, "    v[1:][np.isnan(v[1:])] = -np.inf", "    pass", FIND_N_STAR),
    (DEVIATIONS, "stall = len(clear) if clear.all() else int(np.argmin(clear))",
     "stall = len(clear)", FIND_N_STAR),
    # typed errors: beta outside [0, inf); a nan target; past the float range
    (ORACLE, "    if not 0 <= beta < math.inf:\n", "    if False:\n",
     (BETA + "[enumeration-20--1.0]", BETA + "[correlations-20-nan]",
      BETA + "[transfer-matrix-30-inf]", BETA + "[canonical-table-20-nan]")),
    (DEVIATIONS, "    if math.isnan(n_tilde):\n", "    if False:\n",
     (T_DEVIATIONS + "test_a_nan_target_raises_value_error",)),
    (DEVIATIONS, "    except OverflowError:\n        raise GuardError(f\"J^C_mu",
     "    except ZeroDivisionError:\n        raise GuardError(f\"J^C_mu",
     (GC_GUARD + "[appendix_ratio_quotient]",)),
    (DEVIATIONS, "    if not math.isfinite(rate):", "    if False:", (GC_GUARD + "[rate_function]",)),
    (ORACLE, "    check_tilt(table, mu)\n    beta = table.beta\n", "    beta = table.beta\n",
     (GC_GUARD + "[grand_canonical_eval]", GC_GUARD + "[mean_occupation]",
      "tests/test_cli.py::test_float_range_exits_as_a_guard[oracle-extra0]")),
    (DEVIATIONS, "    check_tilt(table, mu)\n    log_num", "    log_num",
     (GC_GUARD + "[appendix_ratio]",)),
    (DEVIATIONS, "    check_tilt(table, mu0)\n", "",
     (GC_GUARD + "[find_n_star]",)),
    # the grand-canonical mean not divided by the float sum of the probabilities
    (ORACLE, "return float(np.dot(ns, self.probs) / self.probs.sum())",
     "return float(np.dot(ns, self.probs))",
     (T_DEVIATIONS + "test_mean_occupation_is_normalised_on_a_dense_chain",)),
    (DEVIATIONS, "    if table.beta == 0:\n", "    if False:\n",
     (T_DEVIATIONS + "test_tilted_potential_at_beta_zero_raises_for_an_interior_target",)),
    (CORRELATIONS, "    if rhs == math.inf:\n", "    if False:\n",
     ("tests/test_correlations.py::test_bound_rhs_past_the_float_range_raises_guard_error",)),
    (SERIES, "    except OverflowError:\n        raise GuardError(f\"{kind} graph sum",
     "    except OverflowError:\n        return math.inf\n        raise GuardError(f\"{kind} graph sum",
     (SERIES_GUARD, T_CLI + "test_series_past_float_range_exits_as_a_guard[config1]")),
    (SERIES, "    if beta1 == math.inf:\n", "    if False:\n", (SERIES_GUARD,)),
    (MODEL, "            raise GuardError(f\"Mayer f", "            return math.inf\n            raise GuardError(f\"Mayer f",
     (SERIES_GUARD,)),
    (SERIES, "            if len(grown) > MAX_CLUSTER_CONFIGS:\n", "            if False:\n",
     (T_SERIES + "test_cluster_sums_past_the_configuration_guard_raise_guard_error",
      GROWTH + "[n4-d2-R3]")),
    # the array growth: insertion before x_1; no coincident site; the
    # pattern key with pair 0 least significant, out of row order
    (SERIES, "for j in range(1, size + 1)])", "for j in range(size + 1)])",
     (GROWTH + "[n3-d1-R1]", T_SERIES + "test_geometry_counts_are_pinned")),
    (SERIES, "if sum(c * c for c in v) <= radius ** 2], dtype=dtype)",
     "if 0 < sum(c * c for c in v) <= radius ** 2], dtype=dtype)",
     (GROWTH + "[n2-d1-R1]", T_SERIES + "test_b2_closed_form")),
    (SERIES, "    for column in cats.T:\n", "    for column in cats.T[::-1]:\n",
     (GROWTH + "[n3-d1-R1]", GROWTH + "[n5-d2-R1]")),
    # the graph sums: in-range and coincident pair masks swapped
    (SERIES, "for c in (0, 1, 2))", "for c in (0, 2, 1))",
     (T_SERIES + "test_b2_closed_form",
      T_SERIES + "test_coefficients_are_correctly_rounded_fraction_sums[1]")),
    # the series layer: the range test made strict; the last term's division
    (SERIES, "np.where(r2 <= radius ** 2, 1, 0)", "np.where(r2 < radius ** 2, 1, 0)",
     (T_SERIES + "test_geometry_counts_are_pinned", T_SERIES + "test_b2_closed_form")),
    (SERIES, "b[n_particles - 1] = acc / p  #", "b[n_particles - 1] = acc / (n_particles * p)  #",
     (T_SERIES + "test_extracted_b1_closed_form", T_SERIES + "test_reconstruction_round_trip")),
    # the CLI: 16 significant digits; a file written before the command runs;
    # an unknown key let through
    (CSVFMT, '"%.17g"', '"%.16g"',
     (T_CLI + "test_oracle_command_matches_example",)),
    (CLI, "        if args.command == \"accept\":",
     "        write_csv(Path(args.out) / \"canonical_table.csv\", [(\"N\", \"logZ\")])\n"
     "        if args.command == \"accept\":",
     (T_CLI + "test_float_range_exits_as_a_guard[oracle-extra0]",
      T_CLI + "test_series_past_float_range_exits_as_a_guard[config0]")),
    (CLI, "    if unknown:\n", "    if False:\n",
     (T_CLI + "test_unknown_config_keys_are_config_errors[oracle-partcles-cfg0]",
      T_CLI + "test_unknown_config_keys_are_config_errors[accept-beta-cfg6]")),
]


def _copy(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _failures(root: Path, nodes) -> set[str] | None:
    """The named nodes that fail in the copy ``root``; None when pytest
    stopped short of running them (a missing node, a collection error) or
    imported latgas from elsewhere."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    where = subprocess.run([sys.executable, "-c", "import latgas; print(latgas.__file__)"],
                           cwd=root, env=env, capture_output=True, text=True)
    if not where.stdout.startswith(str(root / "src")):
        return None
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           "--hypothesis-seed=0", *nodes],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return None
    return {line.removeprefix("FAILED ").split(" - ")[0] for line in proc.stdout.splitlines()
            if line.startswith("FAILED ")}


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        nodes = sorted({node for *_, named in MUTANTS for node in named})
        failed = _failures(_copy(Path(tmp) / "clean"), nodes)
        if failed != set():
            print(f"unmutated copy: {'pytest did not run' if failed is None else sorted(failed)}")
            return 1
        for index, (path, snippet, replacement, named) in enumerate(MUTANTS):
            text = (ROOT / path).read_text(encoding="utf-8")
            removed, added = ([a.strip() for a in x.splitlines() if a not in y.splitlines()]
                              for x, y in ((snippet, replacement), (replacement, snippet)))
            change = (f"{removed[0]!r} -> " + (repr(added[0]) if added else "deleted")
                      if removed else f"inserted {added[0]!r}")
            if text.count(snippet) != 1:
                print(f"STALE     #{index} {path} {change}: the snippet occurs "
                      f"{text.count(snippet)} times")
                bad += 1
                continue
            line = text[:text.find(snippet)].count("\n") + 1
            label = f"#{index} {path}:{line} {change}"
            root = _copy(Path(tmp) / f"mutant{index}")
            (root / path).write_text(text.replace(snippet, replacement), encoding="utf-8")
            failed = _failures(root, named)
            alive = sorted(named) if failed is None else sorted(set(named) - failed)
            print(f"SURVIVED  {label}: {alive}" if alive else f"killed    {label}")
            bad += bool(alive)
            shutil.rmtree(root)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
