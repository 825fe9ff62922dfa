"""Batch command-line front end.

Every subcommand prints a JSON document (moduli additionally as CSV) tagged
with schema "umbel-lab/1".  Exit codes: 0 success / inequality holds,
1 inequality violated, 2 validation error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys

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
    obj = json.loads(rep.to_json())
    obj["seed"] = args.seed
    _emit(obj, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import pointwise, spaces
    space = spaces.parse_space(args.space)
    ineq = pointwise.InequalityId(args.inequality)
    cfg = pointwise.InequalityConfig(args.q if args.q is not None else args.p,
                                     args.K, args.C, args.slack)
    sampler = pointwise.ball_sampler(space, ineq, args.xs_count)
    rep = pointwise.certify(space, ineq, cfg, sampler, args.samples, args.seed)
    _emit(json.loads(rep.to_json()), args.out)
    return EXIT_OK if rep.violations == 0 else EXIT_VIOLATED


def cmd_embed(args) -> int:
    from . import embeddings, spaces, trees
    spec = trees.parse_tree_spec(args.tree)
    if args.p <= 1 and args.variant != "l1":
        raise spaces.SpaceError("p <= 1 needs --variant l1")
    f = embeddings.bourgain_embed(spec, args.p, variant=args.variant)
    obj = {"tree": args.tree, "p": args.p, "seed": args.seed}
    if spec.height > 0:
        rho, omega = embeddings.moduli(f)
        lip, colip, dist = embeddings.distortion_from_moduli(rho, omega)
        diameter = 2 * spec.height
        obj.update({"lip": lip, "colip": colip, "distortion": dist,
                    "compression_integral":
                        embeddings.compression_integral(rho, args.p, diameter)
                        if diameter > 1 else 0.0})
        csv = "\n".join(["t,rho,omega"] + [f"{t},{rho(t)},{omega(t)}"
                                           for t in rho.breakpoints])
    else:
        obj.update({"lip": 1.0, "colip": 1.0, "distortion": 1.0})
        csv = None
    text = _document(obj)  # before the CSV, so a failed document writes none
    if csv is not None:
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
    obj = json.loads(result.to_json())
    obj.update({"mode": args.mode, "seed": args.seed, "tree": args.tree,
                "invariant": args.invariant, "p": args.p})
    line = json.dumps({"schema": SCHEMA, **obj}, allow_nan=False)
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
        spaces.FiniteMatrixSpace(np.asarray(
            spaces.load_document(obj[key], f"lift oracle {key}", d=list)["d"]))
        for key in ("domain", "target"))
    oracle = embeddings.QuotientOracle(
        domain_space, tuple(range(domain_space.n)), target_space,
        tuple(obj["values"]), obj["C"], obj["K"])
    with open(args.map_file) as fh:
        g = invariants.TreeMap.from_json(fh.read(), target_space)
    h = embeddings.lift_map(g, oracle)
    ok = embeddings.verify_lift(g, h, oracle)
    _emit({"verified": ok,
           "lift": json.loads(h.to_json())}, args.out)
    return EXIT_OK if ok else EXIT_VIOLATED


def cmd_morphism(args) -> int:
    from . import trees
    if args.j_const is not None:
        J = lambda m, n: args.j_const
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

# the options of each subcommand besides --seed and --out: flags (or a tuple
# of flag and aliases) -> add_argument keywords
_OPTIONS = {
    "invariant": {
        "--tree": _REQUIRED, "--map": {"default": "identity"},
        "--invariant": _REQUIRED, "--p": _REQUIRED_FLOAT, "--target": {},
        "--j-min": {"type": int}},
    "certify": {
        "--space": _REQUIRED, "--inequality": _REQUIRED,
        "--p": {"type": float, "default": 2.0}, "--q": {"type": float},
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


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    for flags, kwargs in _OPTIONS[name].items():
        parser.add_argument(*(flags if isinstance(flags, tuple) else (flags,)),
                            **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand's options (the argv after its name), or
    by default the full parser of every subcommand.  The one-command parser
    has the prog, usage, help and errors of the full parser's subparser."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"umbel-lab {command}")
        _add_options(parser, command)
        return parser
    top = argparse.ArgumentParser(prog="umbel-lab")
    sub = top.add_subparsers(dest="command", required=True)
    for name in _OPTIONS:
        _add_options(sub.add_parser(name), name)
    return top


def parse_args(argv: list) -> argparse.Namespace:
    """argv as the full parser reads it.  A named subcommand's argv goes to
    that command's own parser; help and errors on the command name itself
    need the full one."""
    if not (argv and argv[0] in _OPTIONS):
        return build_parser().parse_args(argv)
    args = build_parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


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


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"schema": SCHEMA, "error": str(exc)}, allow_nan=False),
          file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
