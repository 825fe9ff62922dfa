"""umbellab: a numerical laboratory for metric invariants of trees.

Evaluates umbel/fork convexity and cotype functionals of maps from finite
trees into metric spaces, certifies the pointwise inequalities behind them,
builds explicit embeddings and liftings, and searches for extremal constants.
"""

from .trees import (TreeSpec, parse_tree_spec, vertices,
                    vertices_at_height, tree_distance, level_edges,
                    binary_to_increasing, check_star_property,
                    diamond_graph, laakso_graph)
from .spaces import (LpSpace, FiniteMatrixSpace, GraphMetricSpace,
                     ProductSpace, HeisenbergSpace, HeisenbergMetricSpace,
                     HPoint, h_mul, h_inv, h_dilate, koranyi_norm,
                     koranyi_dist, horizontal_length, quasi_constant_estimate,
                     standard_symplectic, parse_space)
from .pointwise import (InequalityId, InequalityConfig, CheckReport,
                        CampaignReport, ModulusEstimate, NoSolution,
                        check_inequality, check_parallelogram, certify,
                        ball_sampler, min_feasible_K, solve_umbel_K,
                        alpha_sequence, modulus_delta, modulus_delta_tilde,
                        modulus_beta, ramsey_refine, parallelogram_constants)
from .invariants import (InvariantId, InvariantReport, TreeMap, lhs, rhs,
                         report, lipschitz_constant,
                         markov_pair_expectation_exact,
                         markov_pair_expectation_mc, named_map)
from .embeddings import (ModulusCurve, QuotientOracle, bourgain_embed,
                         distortion, moduli, compression_integral, lift_map,
                         verify_lift)
from .search import (SearchProblem, SearchResult, exhaustive_max,
                     local_search_max, identity_report, BudgetExceeded)

__version__ = "0.1.0"
