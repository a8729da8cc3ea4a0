"""Unitarity analysis and simulation of one-dimensional quantum cellular automata.

Rules map length-k neighborhoods over q states to complex amplitude
vectors.  The package decides whether the induced global evolution is
unitary (on all periodic lattices at once, or on the infinite lattice),
constructs the known multiparameter families of unitary rules, and
cross-checks every verdict against brute-force evolution matrices on small
rings.
"""

from .rules import RuleTable, config_str, index_config, inner
from .graphs import deterministic_sector, enumerate_cycles, pair_graph, rule_graph, to_dot
from .transfer import monomial_of, path_monomials, trace_series, transfer_matrix, z_polynomial
from .unitarity import check_infinite, check_periodic, evaluate_condition, verdict_from_json
from .families import frame_rule, make_family, patt_rule, quantize, random_params
from .oracle import (
    basis_state,
    defect_estimate,
    evolve,
    global_matrix,
    is_permutation_matrix,
    probabilities,
    unitarity_defect,
)

__version__ = "0.1.0"
