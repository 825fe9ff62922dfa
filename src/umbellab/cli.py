"""Batch command-line front end.

Every subcommand prints a JSON document (moduli additionally as CSV) tagged
with schema "umbel-lab/1".  Exit codes: 0 success / inequality holds,
1 inequality violated, 2 validation error, 3 budget exceeded.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import types

import numpy as np

# each subcommand imports the library modules it calls, so a fresh process
# loads only those

SCHEMA = "umbel-lab/1"

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _document(obj) -> str:
    """obj as a strict JSON document with the schema tag; raises ValueError
    on non-finite values."""
    return json.dumps({"schema": SCHEMA, **obj}, indent=2, allow_nan=False)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, out: str | None) -> None:
    _write(_document(obj), out)


def cmd_invariant(args) -> int:
    from . import invariants, spaces, trees
    spec = trees.parse_tree_spec(args.tree)
    target = spaces.parse_space(args.target) if args.target else None
    f = invariants.named_map(args.map, spec, target)
    rep = invariants.report(invariants.InvariantId(args.invariant), f, args.p,
                            j_min=args.j_min)
    _emit({**rep.to_dict(), "seed": args.seed}, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import pointwise, spaces
    space = spaces.parse_space(args.space)
    ineq = pointwise.InequalityId(args.inequality)
    cfg = pointwise.InequalityConfig(args.q, args.K, args.C, args.slack)
    sampler = pointwise.ball_sampler(space, ineq, args.xs_count)
    rep = pointwise.certify(space, ineq, cfg, sampler, args.samples, args.seed)
    _emit(rep.to_dict(), args.out)
    return EXIT_OK if rep.violations == 0 else EXIT_VIOLATED


def cmd_embed(args) -> int:
    from . import embeddings, trees
    spec = trees.parse_tree_spec(args.tree)
    # --variant l1 and linf name the map's exponent; lp takes --p
    p = {"l1": 1.0, "linf": math.inf}.get(args.variant, args.p)
    f = embeddings.bourgain_embed(spec, p)
    obj = {"tree": args.tree, "p": args.p, "seed": args.seed}
    if spec.height > 0:
        rho, omega = embeddings.moduli(f)
        lip, colip, dist = embeddings.distortion_from_moduli(rho, omega)
        obj.update({"lip": lip, "colip": colip, "distortion": dist,
                    "compression_integral": embeddings.compression_integral(
                        rho, args.p, 2 * spec.height)})
        rows = zip(rho.breakpoints, rho.values, omega.values)
        csv = "\n".join(["t,rho,omega"] + [f"{t},{r},{w}" for t, r, w in rows])
    else:
        obj.update({"lip": 1.0, "colip": 1.0, "distortion": 1.0})
        csv = None
    text = _document(obj)  # before the CSV, so a failed document writes none
    if csv is not None and args.csv:
        _write(csv, args.csv)
    _write(text, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    from . import invariants, search, spaces, trees
    spec = trees.parse_tree_spec(args.tree)
    with open(args.target_file) as fh:
        target = spaces.FiniteMatrixSpace.from_json(fh.read())
    pins = {}
    if args.pins_file:
        with open(args.pins_file) as fh:
            pins = search.pins_from_json(json.load(fh))
    problem = search.SearchProblem(spec, target,
                                   invariants.InvariantId(args.invariant),
                                   args.p, pins)
    try:
        if args.mode == "exhaustive":
            budget = args.budget if args.budget is not None else search._EXHAUSTIVE_BUDGET
            result = search.exhaustive_max(problem, budget=budget)
        else:
            result = search.local_search_max(problem, args.restarts, args.steps,
                                             args.seed)
    except search.BudgetExceeded as exc:
        return _fail(exc, EXIT_BUDGET)
    line = json.dumps({"schema": SCHEMA, **result.to_dict(), "mode": args.mode,
                       "seed": args.seed, "tree": args.tree,
                       "invariant": args.invariant, "p": args.p},
                      allow_nan=False)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return EXIT_OK


def cmd_lift(args) -> int:
    from . import embeddings, invariants, spaces
    with open(args.oracle_file) as fh:
        obj = spaces.load_document(fh.read(), "lift oracle", domain=dict,
                                   target=dict, values=list, C=numbers.Real,
                                   K=numbers.Real)
    domain_space, target_space = (
        spaces.FiniteMatrixSpace(spaces.read_matrix(obj[key], f"lift oracle {key}"))
        for key in ("domain", "target"))
    oracle = embeddings.QuotientOracle(
        domain_space, tuple(range(domain_space.n)), target_space,
        tuple(obj["values"]), obj["C"], obj["K"])
    with open(args.map_file) as fh:
        g = invariants.TreeMap.from_json(fh.read(), target_space)
    h = embeddings.lift_map(g, oracle)
    ok = embeddings.verify_lift(g, h, oracle)
    _emit({"verified": ok, "lift": h.to_dict()}, args.out)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_morphism(args) -> int:
    from . import trees
    if args.j_const is not None:
        J = lambda m, n: args.j_const
    elif args.j_max < 1:
        raise ValueError(f"--j-max must be >= 1, got {args.j_max}")
    else:
        rng = np.random.default_rng(args.seed)
        cache = {}

        def J(m, n):
            key = (m, n)
            if key not in cache:
                cache[key] = int(rng.integers(1, args.j_max + 1))
            return cache[key]

    phi = trees.binary_to_increasing(args.k, J)
    ok = trees.check_star_property(args.k, J, phi)
    _emit({"k": args.k, "property_star": ok, "seed": args.seed,
           "mapping": [[list(e), list(i)] for e, i in
                       sorted(phi.items(), key=lambda kv: (len(kv[0]), kv[0]))]},
          args.out)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_heisenberg(args) -> int:
    from . import spaces
    space = spaces.HeisenbergMetricSpace(spaces.standard_symplectic(args.dim),
                                         spaces.parse_exponent(args.p), args.lam)
    est = spaces.quasi_constant_estimate(space, args.samples, args.seed)
    _emit({"dim": args.dim, "p": args.p, "lambda": args.lam,
           "samples": args.samples, "seed": args.seed,
           "quasi_constant_estimate": est}, args.out)
    return EXIT_OK


_REQUIRED = {"required": True}
_REQUIRED_FLOAT = {"type": float, "required": True}
_COMMON = {"--seed": {"type": int, "default": 0}, "--out": {}}

# the options of each subcommand besides _COMMON: flags (or a tuple of flag
# and aliases) -> add_argument keywords
_OPTIONS = {
    "invariant": {
        "--tree": _REQUIRED, "--map": {"default": "identity"},
        "--invariant": _REQUIRED, "--p": _REQUIRED_FLOAT, "--target": {},
        "--j-min": {"type": int}},
    "certify": {
        "--space": _REQUIRED, "--inequality": _REQUIRED,
        ("--q", "--p"): {"type": float, "default": 2.0},
        "--K": {"type": float, "default": 1.0},
        "--C": {"type": float, "default": 1.0},
        "--samples": {"type": int, "required": True},
        "--xs-count": {"type": int, "default": 4},
        "--slack": {"type": float, "default": 0.0}},
    "embed": {
        "--tree": _REQUIRED, "--p": _REQUIRED_FLOAT,
        "--variant": {"choices": ["lp", "l1", "linf"], "default": "lp"},
        "--csv": {}},
    "search": {
        "--tree": _REQUIRED, "--invariant": _REQUIRED, "--p": _REQUIRED_FLOAT,
        "--target-file": _REQUIRED, "--pins-file": {},
        "--mode": {"choices": ["exhaustive", "local"], "default": "local"},
        "--restarts": {"type": int, "default": 8},
        "--steps": {"type": int, "default": 100}, "--budget": {"type": int}},
    "lift": {"--map-file": _REQUIRED, "--oracle-file": _REQUIRED},
    "morphism": {
        "--k": {"type": int, "required": True}, "--j-const": {"type": int},
        "--j-max": {"type": int, "default": 8}},
    "heisenberg": {
        "--dim": {"type": int, "default": 2}, "--p": {"default": "inf"},
        ("--lam", "--lambda"): {"dest": "lam", "type": float, "default": 1.0},
        "--samples": {"type": int, "default": 10000}},
}


def _options(name: str):
    """(flags, dest, add_argument keywords) of each option of a subcommand."""
    for flags, kwargs in {**_COMMON, **_OPTIONS[name]}.items():
        flags = flags if isinstance(flags, tuple) else (flags,)
        yield flags, kwargs.get("dest", flags[0][2:].replace("-", "_")), kwargs


def _parsers():
    """The argparse parser of every subcommand, and its subparsers by name."""
    import argparse
    top = argparse.ArgumentParser(prog="umbel-lab")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _OPTIONS:
        parser = sub.add_parser(name)
        for flags, _, kwargs in _options(name):
            parser.add_argument(*flags, **kwargs)
    return top, sub.choices


def _read_table(argv: list) -> types.SimpleNamespace:
    """argv read from the option table as the full parser reads it.  Raises
    KeyError or ValueError unless argv is a subcommand and (flag, value)
    pairs of its exact flags, each value passing its type and choices and
    not starting with '-', with every required option given."""
    if len(argv) % 2 == 0 or argv[0] not in _OPTIONS:
        raise ValueError(argv)
    options = list(_options(argv[0]))
    by_flag = {flag: option for option in options for flag in option[0]}
    args = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        _, dest, kwargs = by_flag[flag]
        value = args[dest] = kwargs.get("type", str)(text)
        if text.startswith("-") or value not in kwargs.get("choices", [value]):
            raise ValueError(text)
    for flags, dest, kwargs in options:
        if dest not in args:
            if kwargs.get("required"):
                raise ValueError(flags)
            default = kwargs.get("default")  # typed if a str, as in argparse
            args[dest] = (kwargs.get("type", str)(default)
                          if isinstance(default, str) else default)
    return types.SimpleNamespace(command=argv[0], **args)


def parse_args(argv: list):
    """argv as the full parser reads it.  A well-formed argv is read from the
    option table; help and errors build the full parser, and a named
    subcommand's argv goes to its subparser, so that unrecognized arguments
    are reported with the subcommand's usage."""
    try:
        return _read_table(argv)
    except (KeyError, ValueError):
        top, commands = _parsers()
    if not (argv and argv[0] in commands):
        return top.parse_args(argv)
    return commands[argv[0]].parse_args(
        argv[1:], types.SimpleNamespace(command=argv[0]))


_HANDLERS = {
    "invariant": cmd_invariant,
    "certify": cmd_certify,
    "embed": cmd_embed,
    "search": cmd_search,
    "lift": cmd_lift,
    "morphism": cmd_morphism,
    "heisenberg": cmd_heisenberg,
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        return _fail(exc, EXIT_VALIDATION)
    except MemoryError as exc:  # an input too large to hold, such as a huge dim
        return _fail(f"out of memory: {str(exc) or 'an allocation failed'}", EXIT_VALIDATION)


def _fail(exc: Exception | str, code: int) -> int:
    print(json.dumps({"schema": SCHEMA, "error": str(exc)}, allow_nan=False),
          file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
