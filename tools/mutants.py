"""Mutants of latgas that the tests must kill.

    python3 tools/mutants.py

Each entry of MUTANTS is (file, snippet, replacement, node ids): the exact
snippet must occur once in the file, and with the replacement in its place
every named pytest node must fail.  Each mutant runs in its own temporary
copy of ``src/``, ``tests/``, ``tools/`` and ``BENCHMARK.json``, with the
copy's ``src/`` first on the import path, and only its named nodes run, at
a fixed hypothesis seed.  The nodes first run once on an unmutated copy,
where all must pass.  One line per mutant goes to stdout; the exit code is
1 when a snippet does not occur exactly once, a node fails unmutated, or a
mutant survives (one of its nodes passes or does not run).
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
ACCEPTANCE, BENCH_PAIRS = "src/latgas/acceptance.py", "tools/bench_pairs.py"
T_ORACLE, T_DEVIATIONS = "tests/test_oracle.py::", "tests/test_deviations.py::"
T_SERIES, T_CLI = "tests/test_series.py::", "tests/test_cli.py::"
T_GRAPHS, T_ACCEPTANCE = "tests/test_graphs.py::", "tests/test_acceptance.py::"
BRUTE = T_ORACLE + "test_correlations_equal_brute_force"
SPLIT = T_ORACLE + "test_split_density_of_states_equals_whole_array"
WINDOWED = T_ORACLE + "test_windowed_transfer_matrix_equals_aligned_bit_for_bit"
BANDED = T_ORACLE + "test_banded_windows_equal_aligned_bit_for_bit"
GROUND = T_ORACLE + "test_transfer_matrix_ground_states_at_huge_beta"
PINNED = T_ORACLE + "test_chain_sums_bits_are_pinned"
CACHE_LINE = T_ORACLE + "test_every_array_a_site_writes_starts_on_a_cache_line"
FIND_N_STAR = (T_DEVIATIONS + "test_find_n_star_equals_the_loop_on_planted_steps",)
BETA = T_ORACLE + "test_oracles_take_beta_from_zero_to_inf"
GC_GUARD = T_DEVIATIONS + "test_grand_canonical_layer_raises_guard_error_past_the_float_range"
SERIES_GUARD = T_SERIES + "test_coefficients_past_float_range_raise_guard_error"
GROWTH = T_SERIES + "test_patterns_equal_the_set_growth"
BOUND_DOMAIN = "tests/test_correlations.py::test_bound_rhs_outside_its_domain_raises_value_error"
SERIES_EDGES = T_SERIES + "test_series_helpers_raise_typed_errors_at_their_edges"
VIRIAL = T_SERIES + "test_virial_series_are_the_exact_reversion_rounded_once"
DEVIATION_EDGES = T_DEVIATIONS + "test_deviation_helpers_raise_typed_errors_at_their_edges"
MODEL_EDGES = "tests/test_model.py::test_model_constants_reject_nan_beta_and_dimension_zero"
MAYER = T_ACCEPTANCE + "test_a_coefficient_off_by_1e_9_fails_the_mayer_relations"

MUTANTS = [
    # the correlation oracle: u2 by cancellation, the diagonal rounded twice,
    # c(N, k) from the wrong row
    (ORACLE, """        u2 = [sum((S * S * p - n * n * c) * weights[top - k]
                  for k, (p, c) in enumerate(zip(row, counts))) / (z * S * S)
              for row in pairs]""",
     "        u2 = [x - decimal.Decimal(n * n) / (S * S) for x in rho2]",
     (BRUTE + "[25.0-lattice3-8]", BRUTE + "[25.0-lattice4-6]", BRUTE + "[25.0-lattice5-2]")),
    (ORACLE, "u2[0] = -(n * n) / (S * S)", "u2[0] = -(n / S) ** 2",
     (T_ORACLE + "test_correlations_over_the_guarded_space",)),
    (ORACLE, "    counts = dos[n]\n", "    counts = dos[n - 1]\n",
     (BRUTE + "[0.3-lattice0-3]", T_ORACLE + "test_correlation_sum_rules")),
    # the subset kernel: a mark's low sites or its high sites not required
    (ORACLE, "mark >> b & 1 or slice(None)", "slice(None)",
     (BRUTE + "[0.3-lattice0-3]", SPLIT)),
    (ORACLE, "if not (mark & ~high) >> low_bits:", "if True:",
     (T_ORACLE + "test_blocked_correlations_equal_one_block[lattice2-9]", SPLIT)),
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
    # the buffer plan: the shared occupied slab from np.empty, so its column
    # 0 and the columns not yet live are not zero; the c fold's product in
    # the state's own c, which the c adds still read; the row finish summing
    # the cells without first shifting each to its row's exponent
    (ORACLE, "    slab, shared = _aligned(np.zeros,", "    slab, shared = _aligned(np.empty,",
     (PINNED + "[1-130-0.5]", PINNED + "[4-130-25.0]", BANDED + "[pot0-6.0-300]")),
    (ORACLE, "    c_term = next_comp[:, :hi - 1]\n", "    c_term = comp[:, :hi - 1]\n",
     (PINNED + "[2-130-0.5]", PINNED + "[3-4096-0.5]", WINDOWED + "[0.3-pot4-zero]")),
    (ORACLE, "return np.ldexp(mant, shifts, out=mant).sum(axis=0), top",
     "return mant.sum(axis=0), top",
     (PINNED + "[4-130-25.0]", BANDED + "[pot1-3.5-200]", WINDOWED + "[1e+300-pot0-zero]")),
    # the layout, which changes no bit: the shared occupied block and
    # band_e's occupied block on a cache line in place of 7 doubles past
    # one; buffers where numpy puts them, not on a cache line
    (ORACLE, "(3 * block + 7,)), 2 * block + 7\n", "(3 * block + 7,)), 2 * block\n",
     (CACHE_LINE + "[0.5-1]", CACHE_LINE + "[25.0-4]")),
    (ORACLE, "0, block + 7, shape)", "0, block, shape)", (CACHE_LINE + "[25.0-2]",)),
    (ORACLE, "    skip = -raw.ctypes.data % 64 // raw.itemsize\n", "    skip = 0\n",
     (CACHE_LINE + "[0.5-3]", CACHE_LINE + "[25.0-1]")),
    # the tilt: no stop at a step within 2 ulps, so the mean's rounding
    # noise stalls the steps into bisection; a plain Newton step on the mean
    # in place of its logit
    (DEVIATIONS, "        if abs(step) <= 2 * math.ulp(mu):\n", "        if abs(step) <= 0:\n",
     (T_DEVIATIONS + "test_newton_tilt_lands_within_ulps_of_the_root[4096-0.15-periodic-tilts4]",)),
    (DEVIATIONS, "            step = -logit * mean * (volume - mean) / slope\n",
     "            step = -d * volume / slope\n",
     (T_DEVIATIONS + "test_newton_tilt_reaches_tail_targets_in_few_evaluations[256-0.0258-zero]",
      T_DEVIATIONS + "test_newton_tilt_reaches_tail_targets_in_few_evaluations[4096-0.15-periodic]")),
    # the graph engine: neighbours read from edges out of pair order;
    # reachability one round short; the deletion loop skipping the last
    # vertex; trees as every connected graph with at least n - 1 edges (at
    # most n - 1 would be an equivalent mutant: a connected graph has n - 1
    # edges or more)
    (GRAPHS, "    for p, (i, j) in enumerate(_pair_table(n)):\n        bit = graphs >> p & 1\n",
     "    for p, (i, j) in enumerate(_pair_table(n)[::-1]):\n        bit = graphs >> p & 1\n",
     (T_GRAPHS + "test_bitmask_route_equals_dfs_route",
      T_GRAPHS + "test_array_reachability_equals_classify_on_drawn_masks")),
    (GRAPHS, "for _ in range(len(inside) - 1):", "for _ in range(len(inside) - 2):",
     (T_GRAPHS + "test_connected_counts", T_GRAPHS + "test_class_arrays_equal_the_sorted_brute_force")),
    (GRAPHS, "    for v in range(n):\n        flags &=", "    for v in range(n - 1):\n        flags &=",
     (T_GRAPHS + "test_biconnected_counts", T_GRAPHS + "test_class_arrays_equal_the_sorted_brute_force")),
    (GRAPHS, "np.bitwise_count(graphs) == n - 1]", "np.bitwise_count(graphs) >= n - 1]",
     (T_GRAPHS + "test_tree_counts_cayley", T_GRAPHS + "test_class_arrays_equal_the_sorted_brute_force",
      T_ACCEPTANCE + "test_acceptance_criterion[criterion_01]")),
    # criterion 1 without Cayley's count, blind to a tree both routes miss
    (ACCEPTANCE, "    ok = ok and trees == [n ** max(0, n - 2) for n in range(1, 7)]\n", "",
     (T_ACCEPTANCE + "test_a_tree_missing_from_both_routes_fails_the_graph_engine[5]",
      T_ACCEPTANCE + "test_a_tree_missing_from_both_routes_fails_the_graph_engine[6]")),
    # find_n_star: no tie loop, the first near-tie only, always the running
    # maximum
    (DEVIATIONS, """    for n in climbs[stall:].tolist():
        if v[n] > best_v + 1e-12 * max(1.0, abs(best_v)):
            best_n, best_v = n, float(v[n])
""", "", FIND_N_STAR),
    (DEVIATIONS, "for n in climbs[stall:].tolist():", "for n in climbs[stall:stall + 1].tolist():",
     FIND_N_STAR),
    (DEVIATIONS, "stall = len(clear) if clear.all() else int(np.argmin(clear))",
     "stall = len(clear)", FIND_N_STAR),
    # typed errors: beta outside [0, inf); a float or bool side; an infinite
    # coupling; a nan target; past the float range
    (ORACLE, "    if not 0 <= beta < math.inf:\n", "    if False:\n",
     (BETA + "[enumeration-20--1.0]", BETA + "[correlations-20-nan]",
      BETA + "[transfer-matrix-30-inf]", BETA + "[canonical-table-20-nan]")),
    (ORACLE, "    side = _integer(\"side\", side, 2)\n", "",
     (T_ORACLE + "test_transfer_matrix_guards",)),
    (MODEL, "if not 0 < self.coupling < math.inf:", "if not self.coupling > 0:",
     ("tests/test_model.py::test_lattice_guards",)),
    (DEVIATIONS, "    if math.isnan(n_tilde):\n", "    if False:\n",
     (T_DEVIATIONS + "test_a_nan_target_raises_value_error",)),
    (DEVIATIONS, "    if not math.isfinite(rate):", "    if False:", (GC_GUARD + "[rate_function]",)),
    # (where beta mu N is +inf, log Xi is too and its own guard answers)
    (ORACLE, "    if not math.isfinite(table.beta * mu * table.n_sites):\n", "    if False:\n",
     (GC_GUARD + "[mean_particles]", GC_GUARD + "[find_n_star]")),
    # a table with a nan entry, one with a +inf row of log Z(N), and log Xi = +inf
    (ORACLE, "        if np.isnan(self.log_z).any():\n", "        if False:\n",
     (T_ORACLE + "test_canonical_table_raises_value_error_on_a_nan_entry",)),
    (ORACLE, "    if np.isposinf(table.log_z).any():\n", "    if False:\n",
     (T_ORACLE + "test_canonical_table_raises_guard_error_on_inf_rows",)),
    (ORACLE, "    if log_xi == math.inf:", "    if False:",
     (T_ORACLE + "test_grand_canonical_eval_raises_guard_error_where_log_xi_is_inf",)),
    # the grand-canonical mean not divided by the float sum of the probabilities
    (ORACLE, "return float(np.dot(ns, self.probs) / self.probs.sum())",
     "return float(np.dot(ns, self.probs))",
     (T_DEVIATIONS + "test_mean_particles_is_normalised_on_a_dense_chain",)),
    (DEVIATIONS, "    if table.beta == 0:\n", "    if False:\n",
     (T_DEVIATIONS + "test_tilted_potential_at_beta_zero_raises_for_an_interior_target",)),
    (CORRELATIONS, "    if not math.isfinite(rhs):\n", "    if False:\n",
     ("tests/test_correlations.py::test_bound_rhs_past_the_float_range_raises_guard_error",)),
    (CORRELATIONS, "    if not 0 <= beta < math.inf:\n", "    if False:\n",
     (BOUND_DOMAIN + "[args1]", BOUND_DOMAIN + "[args5]")),
    (CORRELATIONS, "    if not all(map(math.isfinite, (coupling, c_const, c1_const))):\n",
     "    if False:\n", (BOUND_DOMAIN + "[args0]", BOUND_DOMAIN + "[args2]")),
    (CORRELATIONS, "    if n_particles < 1 or volume < 1:\n", "    if False:\n",
     (BOUND_DOMAIN + "[args3]", BOUND_DOMAIN + "[args4]")),
    (SERIES, "    except OverflowError:\n        raise GuardError(f\"{kind} graph sum",
     "    except OverflowError:\n        return math.inf\n        raise GuardError(f\"{kind} graph sum",
     (SERIES_GUARD, T_CLI + "test_series_past_float_range_exits_as_a_guard[config1]")),
    (SERIES, "    if beta1 == math.inf:\n", "    if False:\n", (SERIES_GUARD,)),
    # a nan or negative beta let into each series entry point
    *[(SERIES, f"    _check_beta(beta)\n    if {first}", f"    if {first}", (SERIES_EDGES,))
      for first in ("n > MAX_B_ORDER:", "n > MAX_BETA_IRR_ORDER:",
                    'pot.kind == "kac" and d != 1:', "n > MAX_TREE_CHECK_ORDER:")],
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
    # the virial inversion: Lagrange's power n - 1 read as n; e^{+n m} in
    # place of e^{-n m}; the pressure's coefficient not divided by n
    *[(SERIES, snippet, replacement,
       (T_SERIES + "test_fugacity_series_consistency", VIRIAL + "[1-pot0]", VIRIAL + "[1-pot3]"))
      for snippet, replacement in (
          ("_exp_series([-n * c for c in m[:n]], n - 1)[n - 1] / n",
           "_exp_series([-n * c for c in m], n)[n] / n"),
          ("[-n * c for c in m[:n]]", "[n * c for c in m[:n]]"),
          ("c / n for n, c in enumerate(rho, 1)", "c for n, c in enumerate(rho, 1)"))],
    # criterion 4 with its fugacity cross-check a hundred times looser, or
    # stopping at b_3; criterion 10 with its bound ten times looser
    (ACCEPTANCE, "ok = ok and fug_err <= 1e-12", "ok = ok and fug_err <= 1e-10",
     (T_ACCEPTANCE + "test_b5_off_by_1e_11_fails_the_mayer_relations",)),
    (ACCEPTANCE, "                  for n in range(1, 6))", "                  for n in range(1, 4))",
     tuple(MAYER + f"[{case}]" for case in ("connected_coefficient-4-1.00e-09",
                                            "connected_coefficient-5-1.00e-09",
                                            "irreducible_coefficient-3-2.55e-08",
                                            "irreducible_coefficient-4-1.37e-08"))),
    (ACCEPTANCE, "ok = all(abs(g) <= 1.0 for g in gaps)", "ok = all(abs(g) <= 10.0 for g in gaps)",
     (T_ACCEPTANCE + "test_log_xi_off_by_1e_2_fails_the_peak_clt[L256]",
      T_ACCEPTANCE + "test_a_variance_2_percent_high_fails_the_peak_clt")),
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
    # typed errors at the edges of the series, deviation and model layers: a
    # free-energy derivative, B_Lambda, log Z or a virial series past the
    # float range; a virial order not an integer >= 1 or a beta_n not finite;
    # a volume below 1, and a free energy's volume not None or an integer
    # >= 1; an extraction order that is not an integer; u', beta or mu0 not
    # finite; alpha outside [1/2, 1) in the variance terms; a free energy of
    # another volume in the deviation formulas; u |Lambda|^alpha past the
    # float range; alpha = -inf; a nan beta or d = 0 in the model constants;
    # the pressure at beta = 0
    (SERIES, "        if not math.isfinite(value):\n", "        if False:\n",
     (SERIES_EDGES, T_SERIES + "test_series_layer_over_the_guarded_space")),
    (SERIES, "    if not np.isfinite(vals).all():\n", "    if False:\n", (SERIES_EDGES,)),
    (SERIES, "    if not math.isfinite(acc):\n", "    if False:\n", (SERIES_EDGES,)),
    (SERIES, "        if not finite:\n            raise GuardError(f\"the virial series",
     "        if False:\n            raise GuardError(f\"the virial series", (SERIES_EDGES,)),
    (SERIES, "        except OverflowError:\n            finite = False\n",
     "        except ZeroDivisionError:\n            finite = False\n", (SERIES_EDGES,)),
    (SERIES, '        object.__setattr__(self, "order", _integer("order", self.order, 1))\n', "",
     (SERIES_EDGES,)),
    (SERIES, "        if not np.isfinite(self.beta_irr).all():\n", "        if False:\n",
     (SERIES_EDGES,)),
    (SERIES, "    if volume < 1:\n", "    if False:\n", (SERIES_EDGES,)),
    (SERIES, '            object.__setattr__(self, "volume", _integer("volume", self.volume, 1))\n',
     "            pass\n", (SERIES_EDGES,)),
    (SERIES, '    n_max = _integer("n_max", n_max, 1)\n', "", (SERIES_EDGES,)),
    (DEVIATIONS, "    if volume < 1:\n", "    if False:\n", (DEVIATION_EDGES,)),
    (DEVIATIONS, "    if not all(map(math.isfinite, (u_prime, beta, mu0))):\n", "    if False:\n",
     (DEVIATION_EDGES,)),
    (DEVIATIONS, "    except (OverflowError, ZeroDivisionError):\n",
     "    except ZeroDivisionError:\n", (DEVIATION_EDGES,)),
    (DEVIATIONS, "    if not math.isfinite(shift):\n", "    if False:\n", (DEVIATION_EDGES,)),
    (DEVIATIONS, "    if fe.volume not in (None, volume):\n", "    if False:\n",
     (T_DEVIATIONS + "test_formula_probability_guards",)),
    (DEVIATIONS, "    if not -math.inf < alpha < 1:", "    if not alpha < 1:", (DEVIATION_EDGES,)),
    (DEVIATIONS, "    if not 0.5 <= alpha < 1:", "    if False:", (DEVIATION_EDGES,)),
    (MODEL, "    if not beta >= 0:\n", "    if beta < 0:\n",
     (MODEL_EDGES, "tests/test_model.py::test_model_constants_over_the_guarded_space")),
    (MODEL, '    dimension = _integer("dimension", dimension, 1)\n', "", (MODEL_EDGES,)),
    (ORACLE, "        if self.table.beta == 0:\n", "        if False:\n",
     (T_ORACLE + "test_pressure_at_beta_zero_raises_value_error",)),
    # paired benchmark runs of checkouts whose byte-code caches differ
    (BENCH_PAIRS, "    if ignored[\"parent\"] != ignored[\"change\"]:\n", "    if False:\n",
     ("tests/test_bench_pairs.py::test_checkouts_whose_ignored_files_differ_are_refused",)),
]


def _copy(dest: Path) -> Path:
    for part in ("src", "tests", "tools"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for part in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / part, dest)
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
