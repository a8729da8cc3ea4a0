"""Simulating configuration-space wavefunctions on rings.

States live in the q^N-dimensional configuration space of an N-site ring.
The evolution contracts the per-site amplitude tensor around the ring, a
block of sites at a time, without materializing the evolution matrix, at
every ring size.
"""

import numpy as np

from qca1d import (
    basis_state,
    config_str,
    evolve,
    index_config,
    make_family,
    probabilities,
)

rule = make_family("f21", {"alpha": 0.3, "beta": 1.1, "theta": 0.7,
                           "phi1": 0.2, "phi2": 2.0, "rho": 1.5})

n = 10
state = basis_state(2, n, "0000100000")
print(f"single excitation on a {n}-site ring, top probabilities per step:")
for step in range(6):
    if step:
        state = evolve(rule, n, state, 1)
    probs = probabilities(state, tolerance=1e-7)
    order = np.argsort(-np.round(probs, 9), kind="stable")[:4]  # ties by config index
    tops = "  ".join(
        f"{config_str(index_config(int(i), 2, n))}:{probs[i]:.3f}" for i in order)
    print(f"  step {step}:  norm={np.linalg.norm(state):.9f}  {tops}")

print("\nlong run: 100 steps, norm drift stays at roundoff level:")
state = basis_state(2, n, "0000100000")
out = evolve(rule, n, state, 100)
print(f"  |norm - 1| = {abs(np.linalg.norm(out) - 1.0):.2e}")
print(f"  probabilities sum to {probabilities(out, tolerance=1e-7).sum():.12f}")

n_big = 14
print(f"\nevolution on {n_big} sites (dimension {2**n_big}):")
state = basis_state(2, n_big, "0" * (n_big // 2) + "1" + "0" * (n_big - n_big // 2 - 1))
out = evolve(rule, n_big, state, 10)
print(f"  after 10 steps: norm = {np.linalg.norm(out):.12f}")
spread = probabilities(out, tolerance=1e-7)
print(f"  probability mass on the 8 likeliest configurations: "
      f"{np.sort(spread)[-8:].sum():.3f}")
