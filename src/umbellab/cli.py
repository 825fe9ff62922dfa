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

from . import embeddings, invariants, pointwise, search, spaces, trees

SCHEMA = "umbel-lab/1"

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _emit(obj, out: str | None) -> None:
    obj = {"schema": SCHEMA, **obj}
    text = json.dumps(obj, indent=2, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_invariant(args) -> int:
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
    space = spaces.parse_space(args.space)
    ineq = pointwise.InequalityId(args.inequality)
    cfg = pointwise.InequalityConfig(args.q if args.q is not None else args.p,
                                     args.K, args.C, args.slack, args.xs_count)
    sampler = pointwise.ball_sampler(space, ineq, cfg.xs_count)
    rep = pointwise.certify(space, ineq, cfg, sampler, args.samples, args.seed)
    _emit(json.loads(rep.to_json()), args.out)
    return EXIT_OK if rep.violations == 0 else EXIT_VIOLATED


def cmd_embed(args) -> int:
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
        csv_lines = ["t,rho,omega"]
        for t in rho.breakpoints:
            csv_lines.append(f"{t},{rho(t)},{omega(t)}")
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("\n".join(csv_lines) + "\n")
        else:
            print("\n".join(csv_lines))
    else:
        obj.update({"lip": 1.0, "colip": 1.0, "distortion": 1.0})
    _emit(obj, args.out)
    return EXIT_OK


def cmd_search(args) -> int:
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
    if args.mode == "exhaustive":
        budget = args.budget if args.budget is not None else search._EXHAUSTIVE_BUDGET
        result = search.exhaustive_max(problem, budget=budget)
    else:
        result = search.local_search_max(problem, args.restarts, args.steps,
                                         args.seed)
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
    space = spaces.HeisenbergMetricSpace(spaces.standard_symplectic(args.dim),
                                         spaces.parse_exponent(args.p), args.lam)
    est = spaces.quasi_constant_estimate(space, lambda rng: space.sample(rng),
                                         args.samples, args.seed)
    _emit({"dim": args.dim, "p": args.p, "lambda": args.lam,
           "samples": args.samples, "seed": args.seed,
           "quasi_constant_estimate": est}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="umbel-lab")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("invariant")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--map", default="identity")
    p.add_argument("--invariant", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--j-min", type=int, default=None)

    p = sub.add_parser("certify")
    common(p)
    p.add_argument("--space", required=True)
    p.add_argument("--inequality", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--xs-count", type=int, default=4)
    p.add_argument("--slack", type=float, default=0.0)

    p = sub.add_parser("embed")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--variant", choices=["lp", "l1", "linf"], default="lp")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("search")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--invariant", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--target-file", required=True)
    p.add_argument("--pins-file", default=None)
    p.add_argument("--mode", choices=["exhaustive", "local"], default="local")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("lift")
    common(p)
    p.add_argument("--map-file", required=True)
    p.add_argument("--oracle-file", required=True)

    p = sub.add_parser("morphism")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j-const", type=int, default=None)
    p.add_argument("--j-max", type=int, default=8)

    p = sub.add_parser("heisenberg")
    common(p)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", default="inf")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10000)

    return top


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except search.BudgetExceeded as exc:
        return _fail(exc, EXIT_BUDGET)
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        return _fail(exc, EXIT_VALIDATION)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"schema": SCHEMA, "error": str(exc)}, allow_nan=False),
          file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
