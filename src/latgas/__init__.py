"""Cluster-expansion toolkit for the lattice-gas Ising model in the
canonical ensemble, validated at desk scale against exact enumeration and
transfer-matrix oracles."""

from .model import (EXCLUDED, GuardError, LatticeSpec, ModelConstants,
                    PotentialSpec, model_constants)
from .oracle import (CanonicalTable, CorrelationTable, GrandCanonicalEval,
                     canonical_table, exact_canonical_table, exact_correlations,
                     grand_canonical_eval, transfer_matrix_table)
from .series import (CanonicalFreeEnergy, VirialSeries, connected_coefficient,
                     extract_b_lambda, irreducible_coefficient, reconstruct_log_z,
                     stirling_remainder, tree_graph_check)
from .radii import (RadiusReport, contour_threshold, lattice_gas_threshold,
                    maximize_big_f, radius_canonical,
                    radius_canonical_penrose, radius_report, radius_virial,
                    sweep_radii)
from .correlations import (bound_rhs, calibrate_constants, decay_fit,
                           pair_rows)
from .deviations import (appendix_normalization, appendix_ratio,
                         find_n_star, formula_probability, mean_occupation,
                         rate_function, tilted_potential, variance_terms)

__version__ = "0.1.0"
