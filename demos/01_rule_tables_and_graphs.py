"""Rule tables and their analysis graphs.

Builds the basic size-2 unitary family, prints its amplitude-vector table,
and walks through the two weighted de Bruijn graphs that the unitarity
decision reads: the norm graph (squared vector norms on neighborhoods) and
the pair graph (inner products on ordered neighborhood pairs).
"""

import numpy as np

from qca1d import (
    config_str,
    enumerate_cycles,
    inner,
    make_family,
    monomial_of,
    pair_graph,
    rule_graph,
    to_dot,
)

rule = make_family("f21", {"alpha": 0.3, "beta": 1.1, "theta": 0.7,
                           "phi1": 0.2, "phi2": 2.0, "rho": 1.5})

print("amplitude vectors of an f21 instance (rows: neighborhoods):")
for cfg in rule.configs():
    vec = rule.vector(cfg)
    print(f"  |{config_str(cfg)}>> = ({vec[0]:.4f}, {vec[1]:.4f})")

print("\nselected inner products (first argument conjugated):")
for a, b in (("00", "00"), ("00", "01"), ("00", "10"), ("01", "10")):
    print(f"  <<{a}|{b}>> = {inner(rule, a, b):.4f}")

g1 = rule_graph(rule)
print(f"\nnorm graph: {g1.n_vertices} vertices, {len(g1.edges)} edges")
for e, cfg in enumerate(g1.configs(g1.edges)):
    print(f"  {g1.vertex_name(g1.src[e])} -> {g1.vertex_name(g1.dst[e])}"
          f"  weight {g1.weight[e].real:.4f}   (neighborhood {config_str(cfg)})")

print("\nevery simple cycle of the norm graph must have weight 1:")
for cyc in enumerate_cycles(g1):
    labels = " ".join(config_str(cfg) for cfg in g1.configs(cyc))
    print(f"  cycle [{labels}]  weight {g1.product(cyc).real:.6f}"
          f"  monomial {monomial_of(g1, cyc)}")

g2 = pair_graph(rule)
print(f"\npair graph: {g2.n_vertices} vertices, {len(g2.edges)} edges "
      f"({g2.mismatch.sum()} mismatch edges carrying orthogonality constraints)")
print("mismatch cycles (their weights must vanish):")
for cyc in enumerate_cycles(g2, restrict="mismatch"):
    print(f"  {monomial_of(g2, cyc)} = {g2.product(cyc):.6f}")

print("\nGraphviz source for the norm graph:\n")
print(to_dot(g1, name="norm_graph"))
