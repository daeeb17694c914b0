"""Large and moderate deviations checked against exact probabilities.

Fixes a dilute chemical potential one unit inside the fugacity threshold,
then compares exact P(A_N) from the transfer-matrix oracle with the
local-CLT and precise-large-deviation formulas along a ladder of chain
lengths.  The local-CLT gap shrinks like 1/sqrt(L); the large-deviation
normalization is accurate to a few parts in a thousand already at L = 64.
"""

import math

from latgas import PotentialSpec, grand_canonical_eval, transfer_matrix_table
from latgas.deviations import formula_probability
from latgas.radii import lattice_gas_threshold
from latgas.series import extract_b_lambda

pot = PotentialSpec("standard", 1.0)
beta = 0.0258
mu0 = lattice_gas_threshold(1, pot, beta) - 1.0
print(f"beta = {beta}, fugacity threshold M_LG = {mu0 + 1:.3f}, mu0 = {mu0:.3f}")

print("\n=== local CLT (alpha = 1/2) along the ladder ===")
for side in (64, 128, 256):
    table = transfer_matrix_table(side, pot, beta, "zero")
    fe = extract_b_lambda(table, 4)
    gc0 = grand_canonical_eval(table, mu0)
    worst = 0.0
    for u in (0.0, 0.5, 1.0):
        rep = formula_probability(gc0, 0.5, u, fe)
        worst = max(worst, rep.relative_gap)
    print(f"  L = {side:3d}: worst relative gap over u in {{0, 0.5, 1}} "
          f"= {worst:.4f}")
print("  successive ratios sit near sqrt(2), the 1/sqrt(L) signature.")

print("\n=== precise large deviations (alpha = 1, u = 0.05) ===")
for side in (64, 128, 256):
    table = transfer_matrix_table(side, pot, beta, "zero")
    fe = extract_b_lambda(table, 4)
    rep = formula_probability(grand_canonical_eval(table, mu0), 1.0, 0.05, fe)
    q = abs(math.log(rep.p_exact) + side * rep.rate
            + 0.5 * math.log(2 * math.pi * rep.d_plain * side))
    print(f"  L = {side:3d}: N~ = {rep.n_tilde:3d}, I^GC = {rep.rate:.6f}, "
          f"P_exact = {rep.p_exact:.3e}, log-normalization gap = {q:.4f}")

print("\n=== one full report row (L = 128, alpha = 1/2, u = 0.5) ===")
table = transfer_matrix_table(128, pot, beta, "zero")
fe = extract_b_lambda(table, 4)
rep = formula_probability(grand_canonical_eval(table, mu0), 0.5, 0.5, fe)
print(f"  N_bar = {rep.n_bar}, N* = {rep.n_star}, N~ = {rep.n_tilde}, "
      f"u' = {rep.u_prime:.4f}")
print(f"  mu~ = {rep.mu_tilde:.4f}, D = {rep.d_plain:.5f}, "
      f"E = {rep.error_term:.4f}")
print(f"  P_exact = {rep.p_exact:.5e} vs formula = {rep.p_formula:.5e} "
      f"(gap {rep.relative_gap:.2%})")
