"""umbellab: a numerical laboratory for metric invariants of trees.

Evaluates umbel/fork convexity and cotype functionals of maps from finite
trees into metric spaces, certifies the pointwise inequalities behind them,
builds explicit embeddings and liftings, and searches for extremal constants.

Importing the package loads none of its modules: each public name below
loads its module on first access (PEP 562), so a process pays only for the
modules it uses.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("trees", "TreeSpec parse_tree_spec vertices vertices_at_height "
              "binary_to_increasing check_star_property diamond_graph "
              "laakso_graph"),
    ("spaces", "LpSpace FiniteMatrixSpace GraphMetricSpace ProductSpace "
               "HeisenbergSpace HeisenbergMetricSpace HPoint horizontal_length "
               "quasi_constant_estimate standard_symplectic parse_space"),
    ("pointwise", "InequalityId InequalityConfig CheckReport CampaignReport "
                  "ModulusEstimate NoSolution check_inequality "
                  "check_parallelogram certify ball_sampler min_feasible_K "
                  "solve_umbel_K alpha_sequence modulus_delta "
                  "modulus_delta_tilde modulus_beta ramsey_refine "
                  "parallelogram_constants"),
    ("invariants", "InvariantId InvariantReport TreeMap lhs rhs report "
                   "lipschitz_constant markov_pair_expectation_exact "
                   "markov_pair_expectation_mc named_map"),
    ("embeddings", "ModulusCurve QuotientOracle bourgain_embed distortion "
                   "moduli compression_integral lift_map verify_lift"),
    ("search", "SearchProblem SearchResult exhaustive_max local_search_max "
               "BudgetExceeded"),
) for name in names.split()}
_MODULES = {"cli", *_EXPORTS.values()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here: the name always reads its module's current binding,
    # so a function patched in its module is seen patched, and restored
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
