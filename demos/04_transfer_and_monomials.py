"""Transfer matrices, generating functions, and symbolic path weights.

Closed-path weights of an analysis graph are generated by
Z(t) = det(I - tA) through Tr A(t) = -t Z'(t)/Z(t); reading off the
low-order terms reproduces the cycle constraint lists.  Mismatch-path
weights are tracked symbolically as monomials w_{ab} in the pairwise
inner products.
"""

import numpy as np

from qca1d import (
    make_family,
    pair_graph,
    path_monomials,
    rule_graph,
    trace_series,
    transfer_matrix,
    z_polynomial,
)

rule = make_family("f31", {"r1": 1.2, "r2": 0.7, "r6": 1.4, "theta": 0.9,
                           "p1": 0.3, "p2": 1.0, "p4": 2.1})

a1 = transfer_matrix(rule_graph(rule))
print("norm-graph transfer matrix (4 x 4, real weights):")
print(np.round(a1.real, 4))

z = z_polynomial(a1)
print("\nZ(t) = det(I - tA) coefficients:", np.round(z.real, 6))
ts = trace_series(a1, 6)
print("closed-walk weight sums Tr(A^n), n = 1..6:", np.round(ts[1:].real, 6))
print("(each equals the trace of the matrix power, here all cycles have weight 1)")

# The simplified pair-graph convention zeroes diagonal self-loops and sets
# the remaining diagonal edges to one, isolating mismatch-path structure.
# For frame-built size-3 rules the result is parameter independent.
a2 = transfer_matrix(pair_graph(rule), "simplified")
z2 = z_polynomial(a2)
print("\nsimplified pair-graph Z(t):", np.round(z2.real, 9)[:6], "...")
print("expected for any single-frame size-3 rule: 1 - t^2 - 2t^3 - t^4")

# One search lists the monomials of every length up to the bound, one
# enumeration budget (QCA_CYCLE_CAP) for the whole list.
print("\nmismatch-path monomials terminating on the diagonal (k = 3):")
by_length = path_monomials(rule, 4)
for n in (3, 4):
    monomials = by_length[n - 1]
    print(f"  length {n}: {len(monomials)} monomials")
    row = "  ".join(str(m) for m in monomials[:8])
    print(f"    {row} ...")

print("\neach monomial evaluates to a product of inner products; for this")
print("frame rule every one vanishes, which is exactly condition P-iii:")
values = [abs(m.evaluate(rule)) for m in by_length[2]]
print(f"  max |monomial| over the length-3 list: {max(values):.2e}")
