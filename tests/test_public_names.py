import ast
import functools
import types
from pathlib import Path

import latgas

# the 43 names the package exports, by the module that defines them
PUBLIC_NAMES = {
    # model
    "EXCLUDED", "GuardError", "LatticeSpec", "ModelConstants", "PotentialSpec",
    "model_constants",
    # oracle
    "CanonicalTable", "CorrelationTable", "GrandCanonicalEval", "canonical_table",
    "exact_canonical_table", "exact_correlations", "grand_canonical_eval",
    "transfer_matrix_table",
    # series
    "CanonicalFreeEnergy", "VirialSeries", "connected_coefficient", "extract_b_lambda",
    "irreducible_coefficient", "reconstruct_log_z", "stirling_remainder",
    "tree_graph_check",
    # radii
    "RadiusReport", "contour_threshold", "lattice_gas_threshold", "maximize_big_f",
    "radius_canonical", "radius_canonical_penrose", "radius_report", "radius_virial",
    "sweep_radii",
    # correlations
    "bound_rhs", "calibrate_constants", "decay_fit", "pair_rows",
    # deviations
    "appendix_normalization", "appendix_ratio", "find_n_star", "formula_probability",
    "mean_occupation", "rate_function", "tilted_potential", "variance_terms",
}


def test_the_package_exports_exactly_the_public_names():
    # submodules become attributes of the package as they load; they are
    # not names it exports
    exported = {name for name, value in vars(latgas).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


SERIES = "test_series.py::test_series_layer_over_the_guarded_space"
SERIES_EDGES = "test_series.py::test_series_helpers_raise_typed_errors_at_their_edges"
RADII = "test_radii.py::test_radii_over_the_guarded_space"
CORRELATIONS = "test_correlations.py::test_correlation_layer_over_the_guarded_space"
DEVIATIONS = "test_deviations.py::test_deviation_layer_over_the_guarded_space"
MODEL = "test_model.py::test_model_constants_over_the_guarded_space"
BETA = "test_oracle.py::test_oracles_take_beta_from_zero_to_inf"
NEVER_NAN = "test_oracle.py::test_transfer_matrix_is_never_nan"
GRAND_CANONICAL = ("test_deviations.py::"
                   "test_grand_canonical_layer_raises_guard_error_past_the_float_range")

# the contract tests of each public name: over its guarded space, each call
# returns a finite value or a documented sentinel, or raises GuardError or
# ValueError.  A function is called by each of its tests; a type or a
# constant is built or checked by them
CONTRACT_TESTS = {
    # model
    "EXCLUDED": ("test_model.py::test_kac_pair_energy_support",),
    "GuardError": (SERIES_EDGES, GRAND_CANONICAL),
    "LatticeSpec": ("test_model.py::test_lattice_guards",),
    "ModelConstants": (MODEL,),
    "PotentialSpec": ("test_model.py::test_lattice_guards", MODEL),
    "model_constants": (MODEL,
                        "test_model.py::test_model_constants_reject_nan_beta_and_dimension_zero"),
    # oracle
    "CanonicalTable": (BETA, NEVER_NAN,
                       "test_oracle.py::test_canonical_table_raises_value_error_on_a_nan_entry"),
    "CorrelationTable": ("test_oracle.py::test_correlations_over_the_guarded_space",),
    "GrandCanonicalEval": (GRAND_CANONICAL,
                           "test_oracle.py::test_pressure_at_beta_zero_raises_value_error"),
    "canonical_table": (BETA, DEVIATIONS, SERIES),
    "exact_canonical_table": (BETA,),
    "exact_correlations": (BETA, "test_oracle.py::test_correlations_over_the_guarded_space",
                           CORRELATIONS),
    "grand_canonical_eval": (GRAND_CANONICAL,
                             "test_oracle.py::test_pressure_at_beta_zero_raises_value_error"),
    "transfer_matrix_table": (BETA, NEVER_NAN),
    # series
    "CanonicalFreeEnergy": (SERIES,),
    "VirialSeries": (SERIES, SERIES_EDGES),
    "connected_coefficient": (
        "test_series.py::test_connected_coefficient_over_the_guarded_space",),
    "extract_b_lambda": (SERIES,),
    "irreducible_coefficient": (
        "test_series.py::test_irreducible_coefficient_over_the_guarded_space",),
    "reconstruct_log_z": (SERIES,),
    "stirling_remainder": (SERIES,),
    "tree_graph_check": ("test_series.py::test_tree_graph_check_over_the_guarded_space",),
    # radii
    "RadiusReport": (RADII,),
    "contour_threshold": (RADII,),
    "lattice_gas_threshold": (RADII,),
    "maximize_big_f": (RADII,),
    "radius_canonical": (RADII,),
    "radius_canonical_penrose": (RADII,),
    "radius_report": (RADII,),
    "radius_virial": (RADII,),
    "sweep_radii": (RADII,),
    # correlations
    "bound_rhs": (CORRELATIONS,),
    "calibrate_constants": (CORRELATIONS,),
    "decay_fit": (CORRELATIONS,),
    "pair_rows": (CORRELATIONS,),
    # deviations
    "appendix_normalization": (DEVIATIONS,),
    "appendix_ratio": (DEVIATIONS,),
    "find_n_star": (DEVIATIONS,),
    "formula_probability": (DEVIATIONS,),
    "mean_occupation": (DEVIATIONS,),
    "rate_function": (DEVIATIONS,),
    "tilted_potential": (DEVIATIONS,),
    "variance_terms": (DEVIATIONS,),
}


@functools.cache
def _test_sources(file: str) -> dict[str, str]:
    """The source of each module-level test in ``tests/<file>``, its
    decorators (where parametrized calls live) included."""
    text = (Path(__file__).parent / file).read_text(encoding="utf-8")
    lines = text.splitlines()
    sources = {}
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            sources[node.name] = "\n".join(lines[start - 1:node.end_lineno])
    return sources


def test_every_public_name_has_a_contract_test():
    assert CONTRACT_TESTS.keys() == PUBLIC_NAMES
    for name, tests in CONTRACT_TESTS.items():
        assert tests, name
        is_function = isinstance(getattr(latgas, name), types.FunctionType)
        for test in tests:
            file, func = test.split("::")
            source = _test_sources(file).get(func)
            assert source is not None, f"{name}: no test {test}"
            assert not is_function or name in source, f"{test} does not call {name}"
