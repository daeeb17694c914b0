import types

import latgas

# the 47 names the package exports, by the module that defines them
PUBLIC_NAMES = {
    # model
    "EXCLUDED", "GuardError", "LatticeSpec", "ModelConstants", "PotentialSpec",
    "model_constants",
    # oracle
    "CanonicalTable", "CorrelationTable", "GrandCanonicalEval", "canonical_table",
    "exact_canonical_table", "exact_correlations", "grand_canonical_eval",
    "transfer_matrix_table",
    # series
    "CanonicalFreeEnergy", "SeriesCoefficients", "VirialSeries", "connected_coefficient",
    "extract_b_lambda", "free_energy_from_extraction", "free_energy_thermodynamic",
    "irreducible_coefficient", "reconstruct_log_z", "stirling_remainder",
    "tree_graph_check", "virial_series",
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
