"""Finite-volume cluster coefficients pulled out of exact data.

The canonical expansion writes log Z(N) as the ideal-gas term plus
N * sum_n P_{N,|Lambda|}(n) B(n)/(n+1), and P(n) = 0 for n >= N makes the
system triangular: each new N reveals one more coefficient.  The script
extracts B(n) from an exact table, reconstructs every log Z(N) from them,
and watches B(n) drift toward the irreducible coefficients beta_n as the
box grows.
"""

from latgas import LatticeSpec, PotentialSpec, canonical_table, exact_canonical_table
from latgas.series import (extract_b_lambda, irreducible_coefficient,
                           reconstruct_log_z)

pot = PotentialSpec("standard", 1.0)
beta = 0.2

print("=== extraction and round trip on a 10-site ring ===")
table = exact_canonical_table(LatticeSpec(1, 10, "periodic"), pot, beta)
fe = extract_b_lambda(table, n_max=5)
for n in range(1, 6):
    print(f"  B({n}) = {fe.coeffs[n]:+.8f}")
print("  reconstruction residuals:")
for n_particles in range(2, 7):
    resid = reconstruct_log_z(fe, n_particles) - table.log_z_of(n_particles)
    print(f"    N = {n_particles}: {resid:+.2e}")

print("\n=== drift toward the irreducible coefficients ===")
beta1 = irreducible_coefficient(1, 1, pot, beta)
beta2 = irreducible_coefficient(2, 1, pot, beta)
print(f"  beta_1 = {beta1:+.8f}, beta_2 = {beta2:+.8f}")
for side in (10, 20, 40, 80):
    t = canonical_table(LatticeSpec(1, side, "periodic"), pot, beta)
    fe = extract_b_lambda(t, 2)
    print(f"  L = {side:3d}: |B(1)-beta_1| = {abs(fe.coeffs[1]-beta1):.5f}   "
          f"|B(2)-beta_2| = {abs(fe.coeffs[2]-beta2):.5f}")
print("  (both gaps halve per doubling: the O(1/L) finite-volume correction)")
