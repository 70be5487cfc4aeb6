"""Extremal values of weighted uniform hypergraphs on l^p spheres.

The library computes and certifies the maximum and minimum of the degree-r
edge polynomial over the unit l^p sphere, evaluates the analytic values and
scaling rules known exactly, audits a suite of inequalities, and checks the
combinatorial structure those results condition on.
"""

from .bounds import (BoundReport, bound_suite_max, bound_suite_min, entry_bounds,
                     nordhaus_check, perturbation_check, structural_bounds,
                     weyl_check)
from .closed_forms import (ClosedForm, blowup_scale, closed_form, join_scale,
                           regular_value, union_combine, union_combine_min)
from .combinatorics import (DegreeProfile, chromatic_number_exact, components,
                            degree_profile, equivalence_classes, even_transversal,
                            is_connected, is_k_linear, is_k_partite, is_k_set_regular,
                            is_k_tight, is_steiner, odd_transversal,
                            partiteness_number)
from .fixtures import Fixture, export_catalog, fixture_catalog, verify_fixture
from .hypergraph import (FamilySpec, WeightedHypergraph, add, beta_star, blow_up,
                         complement, complete, complete_multipartite, construct,
                         cycle, disjoint_union, from_edge_list, from_json, from_text,
                         induced_subgraph, join_family, k_section, parse, random_gnp,
                         read_file, scale, single_edge, t_star, to_json, to_text,
                         turan, write_file)
from .polyform import PointOnSphere, evaluate, evaluate_many, gradient, lp_norm, normalize_lp
from .solver import (CurvePoint, EigenResult, SolveOptions, algebraic_modulus_check,
                     brute_force_lambda, collatz_wielandt, eigen_residual, extremes,
                     lambda_curve, lambda_max, lambda_min, solve_restarts)

__version__ = "0.1.0"
