"""Command-line front end.

Each subcommand declares only the options it reads: --tolerance (override
the rule's comparison tolerance) on verify, oracle, simulate, family and
graph, --json on verify and oracle, and --seed on oracle.

Exit codes: 0 success (or unitary verdict), 1 not-unitary verdict, 2 usage
or rule-file error (including a path that cannot be read, an empty
deterministic sector, and a ``simulate`` state that is not a list of
[re, im] number pairs, not finite or not normalized), 3 an input over one
of the resource caps defined in ``qca1d.graphs`` (``graphs.CapExceeded``).
The environment variable QCA_CYCLE_CAP overrides the cap on the edges
that one enumeration (a condition's witness listing, a ``paths`` run)
examines.  Identical arguments produce identical output.

In-process callers (test suites, benchmark harnesses, notebooks) may call
``main(argv)`` many times: it builds the argument parser on the first call
and reuses it, since parsing never changes it.  It parses once per call:
a command's argv by that command's parser, the top-level parser reporting
what is left over; any other argv (help, none, an unknown command) by the
top-level parser.  ``build_parser()`` returns a fresh parser to change.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from .families import FAMILIES, ParameterError, family_names, make_family
from .graphs import (
    MAX_DIM_DIGITS,
    CapExceeded,
    check_cap,
    deterministic_sector,
    format_weight,
    pair_graph,
    rule_graph,
    sector_mask,
    to_dot,
)
from .oracle import (
    basis_state,
    defect_estimate,
    evolution_step,
    exact_defect_kernel,
    probabilities,
    state_dim,
)
from .rules import RuleFormatError, RuleTable, config_digits, dump_rule, load_rule
from .transfer import path_monomials, transfer_matrix, z_polynomial
from .unitarity import (
    INFINITE_CONDITIONS,
    PERIODIC_CONDITIONS,
    WitnessLabels,
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
        verdict.write_json(sys.stdout)
    else:
        print(f"mode: {verdict.mode}")
        labels = WitnessLabels()
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
                      f"witness: {witness_str(r.witness, labels)}")
        print("verdict: unitary" if verdict.unitary else "verdict: NOT unitary")
    return 0 if verdict.unitary else 1


def _cmd_oracle(args) -> int:
    if args.samples < 1:  # checked on both branches, though the exact one reads no sample
        raise ValueError(f"need at least one sample vector, got --samples {args.samples}")
    rule = _load(args)
    check_cap(int(args.sites * math.log10(rule.q)) + 1, MAX_DIM_DIGITS,  # exact near it, q <= 10
              f"ring dimension {rule.q}^{args.sites} has {{}} digits")
    kernel = exact_defect_kernel(rule.q, rule.k, args.sites)
    exact = kernel is not None
    if exact:
        defect = kernel(rule, args.sites)
    else:  # state_dim refuses a ring state over MAX_STATE_DIM
        rng = np.random.default_rng(args.seed)
        defect = defect_estimate(rule, args.sites, samples=args.samples, rng=rng)
    dim = rule.q**args.sites
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
    if len(value) == n_sites and all(c in "0123456789"[:q] for c in value):
        return basis_state(q, n_sites, value)
    try:
        with open(value, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RuleFormatError(
            f"--initial {value!r} is neither a length-{n_sites} config string nor a "
            f"readable state file: {exc}")
    try:  # numbers give a bool, int or float array; a string, null or an int past 64 bits do not
        pairs = np.array(data)
    except ValueError:  # ragged: a pair of another length, or a list in a pair
        pairs = np.zeros(0)
    if pairs.shape == (dim, 2) and pairs.dtype.kind in "biuf":
        state = pairs.astype(float, copy=False).view(complex).reshape(dim)
    elif not isinstance(data, list) or len(data) != dim or not all(
            isinstance(p, list) and len(p) == 2 for p in data):
        raise RuleFormatError(f"state file must hold {dim} [re, im] pairs")
    else:
        raise RuleFormatError(f"state file {value!r} holds a pair that is not two numbers")
    if not np.isfinite(state).all():
        raise RuleFormatError(f"state file {value!r} holds non-finite amplitudes")
    probabilities(state, rule.tolerance)  # raises unless |norm^2 - 1| <= tolerance
    return state


_TOP_CHUNK = 2**13  # amplitudes that simulate --top ranks at a time
_LABEL_ROWS = 2**10  # listed configs whose labels are rendered at a time


def _top_indices(state: np.ndarray, top: int, tolerance: float) -> np.ndarray:
    """The first ``top`` of a stable argsort of -rank, rank the probability rounded to the
    tolerance (NaN last), so that rounding in the evolution cannot reorder tied configs; a
    chunk at a time in one buffer, unless ``top`` is a chunk or more.  After the first chunk
    only a rank strictly before the top-th so far can enter (any but NaN if that is NaN):
    a tie comes later in index order."""
    index = np.zeros(0, dtype=int)
    size = _TOP_CHUNK if top < _TOP_CHUNK else len(state)
    buffer = np.empty(min(size, len(state)))
    for low in range(0, len(state) if top else 0, size):
        chunk = state[low:low + size]
        rank = np.abs(chunk, out=buffer[:len(chunk)])  # -rank, exactly, held in place
        rank **= 2
        rank /= -tolerance
        np.rint(rank, out=rank)
        if low:
            cut = ranks[-1]
            new = np.flatnonzero(rank < cut if cut == cut else rank == rank)
            if not len(new):
                continue
            index, rank = np.concatenate((index, new + low)), np.concatenate((ranks, rank[new]))
        last = min(top, len(rank)) - 1  # stable argsort's first top, of values <= the last
        keep = np.flatnonzero(~(rank > np.partition(rank, last)[last]))  # NaN too
        keep = keep[np.argsort(rank[keep], kind="stable")[:top]]
        index, ranks = index[keep] if low else keep, rank[keep]
    return index


def _norm(state: np.ndarray) -> float:
    """The 2-norm, the same for every BLAS thread count: numpy's pairwise sum of the
    squared real and imaginary parts, a chunk at a time in one buffer, chunk sums added in
    index order."""
    total = 0.0
    buffer = np.empty(2 * min(_TOP_CHUNK, len(state)))
    for low in range(0, len(state), _TOP_CHUNK):
        part = state[low:low + _TOP_CHUNK].view(float)
        total += float(np.square(part, out=buffer[:len(part)]).sum())
    return math.sqrt(total)


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ValueError(f"--steps must be nonnegative, got {args.steps}")
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative, got {args.top}")
    rule = _load(args)
    state, spare = _parse_initial(args.initial, rule, args.sites), None
    advance = evolution_step(rule, args.sites)
    chars = np.array(list("0123456789"))  # cell values as label characters
    print(f"sites: {args.sites}, steps: {args.steps}")
    for step in range(args.steps + 1):
        if step:  # two vectors for the run: each step writes into the one the last read
            state, spare = advance(state, out=spare), state
        norm = _norm(state)
        order = _top_indices(state, args.top, rule.tolerance)
        probs = np.abs(state[order]) ** 2
        order, probs = order[probs > 0], probs[probs > 0]
        rows = (chars[config_digits(rule.q, args.sites, order[low:low + _LABEL_ROWS]).T.copy()]
                for low in range(0, len(order), _LABEL_ROWS))
        labels = (label for row in rows for label in row.view(f"U{args.sites}").ravel().tolist())
        tops = " ".join(f"{label}:{p:.6f}" for label, p in zip(labels, probs))
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
    print(dump_rule(make_family(args.name, params, tolerance=args.tolerance)))
    return 0


def _cmd_graph(args) -> int:
    rule = _load(args)
    graph = rule_graph(rule) if args.which in ("g1", "d1") else pair_graph(rule)
    inside = None if args.which[0] == "g" else sector_mask(deterministic_sector(rule), rule.q, rule.k)
    if args.which == "d2":  # a pair edge is in the sector when both its configs are
        inside = (inside[:, None] & inside).ravel()
    print(to_dot(graph, args.which, inside))
    return 0


def _cmd_paths(args) -> int:
    # every length before any output, so an exit 3 leaves stdout empty
    lengths = path_monomials(load_rule(args.rulefile), args.max_len)
    for length, monomials in enumerate(lengths, 1):
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
    parser.commands = sub.choices  # command name -> its parser, read by main

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
    """The parser ``main`` uses, built on its first call: parsing makes a
    new namespace per call and leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:  # parser.parse_args(argv), without its pass over a command's argv
        args, extra = (parser.parse_known_args(argv) if command is None
                       else command.parse_known_args(argv[1:]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # covers rule-format, parameter and empty-sector errors, and unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
