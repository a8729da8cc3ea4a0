"""Unitarity analysis and simulation of one-dimensional quantum cellular automata.

Rules map length-k neighborhoods over q states to complex amplitude
vectors.  The package decides whether the induced global evolution is
unitary (on all periodic lattices at once, or on the infinite lattice),
constructs the known multiparameter families of unitary rules, and
cross-checks every verdict against brute-force evolution matrices on small
rings.
"""

from .rules import (
    DEFAULT_TOLERANCE,
    RuleFormatError,
    RuleTable,
    all_configs,
    as_config,
    config_index,
    config_str,
    dump_rule,
    index_config,
    inner,
    is_deterministic,
    load_rule,
    parity_transform,
    rule_from_dict,
    rule_to_dict,
    state_transpose,
    unit_configs,
)
from .graphs import (
    CapExceeded,
    Graph,
    deterministic_sector,
    enumerate_cycles,
    pair_graph,
    rule_graph,
    to_dot,
)
from .transfer import Monomial, monomial_of, path_monomials, trace_series, transfer_matrix, z_polynomial
from .unitarity import (
    INFINITE_CONDITIONS,
    PERIODIC_CONDITIONS,
    ConstraintReport,
    NoDeterministicSector,
    Verdict,
    check_infinite,
    check_periodic,
    evaluate_condition,
    verdict_from_json,
)
from .surjectivity import (
    border_scalar,
    check_surjectivity,
    det_factorization_check,
    extension_matrix,
    reduced_evolution,
    restricted_evolution,
    window_amplitude,
)
from .families import (
    ParameterError,
    family_names,
    frame_rule,
    make_family,
    patt_rule,
    quantize,
    random_params,
)
from .oracle import (
    apply_global,
    basis_state,
    defect_estimate,
    evolve,
    global_matrix,
    is_permutation_matrix,
    probabilities,
    random_state,
    ring_defect,
    unitarity_defect,
    walk_defect,
)

__version__ = "0.1.0"
