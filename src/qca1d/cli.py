"""Command-line front end.

Each subcommand declares only the options it reads: --tolerance (override
the rule's comparison tolerance) on verify, oracle, simulate, family and
graph, --json on verify and oracle, and --seed on oracle.

Exit codes: 0 success (or unitary verdict), 1 not-unitary verdict, 2 usage
or rule-file error (including a path that cannot be read, an empty
deterministic sector, and a ``simulate`` state that is not a list of
[re, im] number pairs, not finite or not normalized), 3 resource cap
exceeded.  The environment variable QCA_CYCLE_CAP overrides the cap on
the edges that witness listing examines.  Identical arguments produce
identical output.

In-process callers (test suites, benchmark harnesses, notebooks) may call
``main(argv)`` many times: it builds the argument parser on the first call
and reuses it, since parsing never changes it.  ``build_parser()`` returns
a fresh parser for a caller that wants to change one.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .families import FAMILIES, ParameterError, family_names, make_family
from .graphs import (
    CycleCapExceeded,
    deterministic_sector,
    format_weight,
    pair_graph,
    rule_graph,
    sector_subgraph,
    to_dot,
)
from .oracle import (
    DimensionCapExceeded,
    basis_state,
    defect_estimate,
    evolution_step,
    exact_defect_kernel,
    probabilities,
    state_dim,
)
from .rules import DEFAULT_TOLERANCE, RuleFormatError, RuleTable, config_str, dump_rule, index_config, load_rule
from .transfer import path_monomials, transfer_matrix, z_polynomial
from .unitarity import (
    INFINITE_CONDITIONS,
    PERIODIC_CONDITIONS,
    check_infinite,
    check_periodic,
    witness_str,
)


def _load(args) -> RuleTable:
    rule = load_rule(args.rulefile)
    if args.tolerance is not None:
        rule = rule.with_tolerance(args.tolerance)
    return rule


def _cmd_verify(args) -> int:
    rule = _load(args)
    if args.mode == "periodic":
        verdict = check_periodic(rule)
        conditions = PERIODIC_CONDITIONS
    else:
        verdict = check_infinite(rule)
        conditions = INFINITE_CONDITIONS
    if args.json:
        print(json.dumps(verdict.to_json()))
    else:
        print(f"mode: {verdict.mode}")
        by_condition = {}
        for r in verdict.reports:
            by_condition.setdefault(r.condition, []).append(r)
        for cond in conditions:
            reports = by_condition.get(cond, [])
            if not reports:
                print(f"{cond}: ok")
                continue
            print(f"{cond}: VIOLATED ({len(reports)} reported)")
            for r in reports:
                print(f"  value={format_weight(r.value, 12)} margin={r.margin:.6e} "
                      f"witness: {witness_str(r.witness)}")
        print("verdict: unitary" if verdict.unitary else "verdict: NOT unitary")
    return 0 if verdict.unitary else 1


def _cmd_oracle(args) -> int:
    if args.samples < 1:  # checked on both branches, though the exact one reads no sample
        raise ValueError(f"need at least one sample vector, got --samples {args.samples}")
    rule = _load(args)
    dim = state_dim(rule.q, args.sites)
    kernel = exact_defect_kernel(rule.q, rule.k, args.sites)
    exact = kernel is not None
    if exact:
        defect = kernel(rule, args.sites)
    else:
        rng = np.random.default_rng(args.seed)
        defect = defect_estimate(rule, args.sites, samples=args.samples, rng=rng)
    if args.defect_only:
        print(repr(defect))
        return 0
    if args.json:
        print(json.dumps({"sites": args.sites, "dimension": dim,
                          "defect": defect, "exact": exact}))
        return 0
    kind = "exact" if exact else f"estimated on {args.samples} random vectors"
    print(f"sites: {args.sites} (dimension {dim})")
    print(f"unitarity defect: {defect:.6e} ({kind})")
    print(f"within tolerance {rule.tolerance:g}: {'yes' if defect <= rule.tolerance else 'no'}")
    print("note: finite lattices sample the periodic family; agreement here is "
          "evidence for, not proof of, unitarity at every size")
    return 0


def _parse_initial(value: str, rule: RuleTable, n_sites: int) -> np.ndarray:
    """A basis state from a config string, or a state read from a JSON file
    of [re, im] pairs, which must be finite and of norm 1 within the rule's
    tolerance."""
    q = rule.q
    dim = state_dim(q, n_sites)
    if len(value) == n_sites and all(c.isdigit() and int(c) < q for c in value):
        return basis_state(q, n_sites, value)
    try:
        with open(value, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RuleFormatError(
            f"--initial {value!r} is neither a length-{n_sites} config string nor a "
            f"readable state file: {exc}")
    if not isinstance(data, list) or len(data) != dim or not all(
            isinstance(p, list) and len(p) == 2 for p in data):
        raise RuleFormatError(f"state file must hold {dim} [re, im] pairs")
    try:
        state = np.array([complex(re, im) for re, im in data])
    except (TypeError, OverflowError):  # a string, null, or an int past float range
        raise RuleFormatError(f"state file {value!r} holds a pair that is not two numbers") from None
    if not np.isfinite(state).all():
        raise RuleFormatError(f"state file {value!r} holds non-finite amplitudes")
    probabilities(state, rule.tolerance)  # raises unless |norm^2 - 1| <= tolerance
    return state


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ValueError(f"--steps must be nonnegative, got {args.steps}")
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative, got {args.top}")
    rule = _load(args)
    state = _parse_initial(args.initial, rule, args.sites)
    advance = evolution_step(rule, args.sites)
    print(f"sites: {args.sites}, steps: {args.steps}")
    for step in range(args.steps + 1):
        if step:
            state = advance(state)
        norm = float(np.linalg.norm(state))
        # rank by the probability rounded to the tolerance, then by config
        # index, so that rounding in the evolution cannot reorder tied configs
        rank = np.abs(state)
        rank **= 2
        rank /= rule.tolerance
        np.rint(rank, out=rank)
        top = min(args.top, len(rank))  # stable argsort's first --top, of values >= top-th
        cut = -np.partition(-rank, top - 1)[top - 1] if top > 0 else -np.inf
        keep = np.flatnonzero(~(rank < cut))  # keeps NaN, which both sorts rank last
        order = keep[np.argsort(-rank[keep], kind="stable")[: args.top]]
        tops = " ".join(
            f"{config_str(index_config(int(i), rule.q, args.sites))}:{p:.6f}"
            for i, p in zip(order, np.abs(state[order]) ** 2) if p > 0)
        print(f"step {step:4d}  norm={norm:.12f}  top: {tops}")
    return 0


def _parse_param(text: str):
    key, _, raw = text.partition("=")
    if not _:
        raise ParameterError(f"--param expects key=value, got {text!r}")
    for cast in (int, float, complex):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _cmd_family(args) -> int:
    if args.list:
        for name in family_names():
            family = FAMILIES[name]
            print(f"{name}: {family.doc}")
            for pname, desc in family.params.items():
                print(f"  {pname}" + (f" ({desc})" if desc else ""))
        return 0
    if not args.name:
        raise ParameterError("family name required (or use --list)")
    params = dict(_parse_param(p) for p in args.param or [])
    rule = make_family(args.name, params,
                       tolerance=DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance)
    print(dump_rule(rule))
    return 0


def _cmd_graph(args) -> int:
    rule = _load(args)
    if args.which in ("g1", "g2"):
        graph = rule_graph(rule) if args.which == "g1" else pair_graph(rule)
    else:
        sector = deterministic_sector(rule)
        base = rule_graph(rule) if args.which == "d1" else pair_graph(rule)
        graph = sector_subgraph(base, sector)
    print(to_dot(graph, name=args.which))
    return 0


def _cmd_paths(args) -> int:
    rule = load_rule(args.rulefile)
    for length in range(1, args.max_len + 1):
        monomials = path_monomials(rule, length)
        print(f"n = {length}: {len(monomials)} monomials")
        for m in monomials:
            print(f"  {m}")
    return 0


def _cmd_zpoly(args) -> int:
    rule = load_rule(args.rulefile)
    graph = rule_graph(rule) if args.which == "g1" else pair_graph(rule)
    coeffs = z_polynomial(transfer_matrix(graph, args.convention))
    for power, c in enumerate(coeffs):
        print(f"t^{power}: {format_weight(c, 12)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=float, default=None,
                           help="override the rule's comparison tolerance")

    parser = argparse.ArgumentParser(
        prog="qca1d",
        description="decide unitarity of one-dimensional quantum cellular automata")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[tolerance],
                       help="decide unitarity from the rule table")
    p.add_argument("rulefile", help="rule JSON file, or - for standard input")
    p.add_argument("--mode", choices=("periodic", "infinite"), required=True)
    p.add_argument("--json", action="store_true", help="print the verdict as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", parents=[tolerance],
                       help="brute-force unitarity defect of the global matrix")
    p.add_argument("rulefile")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--defect-only", action="store_true")
    p.add_argument("--json", action="store_true", help="print the defect report as JSON")
    p.add_argument("--samples", type=int, default=8,
                   help="random vectors for the matrix-free estimate, which runs only "
                        "when no exact kernel takes the ring")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random vectors of the matrix-free estimate")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", parents=[tolerance],
                       help="evolve a configuration-space vector")
    p.add_argument("rulefile")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--initial", required=True,
                   help="config string (length = sites) or JSON state file")
    p.add_argument("--top", type=int, default=8, help="probabilities printed per step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("family", parents=[tolerance], help="emit a family rule file")
    p.add_argument("name", nargs="?", help="family name (see --list)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--list", action="store_true", help="list families and parameters")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("graph", parents=[tolerance], help="DOT export of an analysis graph")
    p.add_argument("rulefile")
    p.add_argument("--which", choices=("g1", "g2", "d1", "d2"), default="g1")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("paths", help="mismatch-path weight monomials up to a length")
    p.add_argument("rulefile")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("zpoly", help="generating polynomial det(I - tA) of a transfer matrix")
    p.add_argument("rulefile")
    p.add_argument("--which", choices=("g1", "g2"), default="g1")
    p.add_argument("--convention", choices=("raw", "simplified"), default="raw")
    p.set_defaults(func=_cmd_zpoly)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: ``parse_args``
    makes a new namespace per call and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CycleCapExceeded, DimensionCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # covers rule-format, parameter and empty-sector errors, and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
