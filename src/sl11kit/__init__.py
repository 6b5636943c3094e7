"""Centrally extended sl(1|1)^2 worldsheet symmetry toolkit.

Graded linear algebra, highest-weight modules, closed-form and solver-derived
R-matrices, the u-deformed Yangian in truncated evaluation form, the quantum
deformation, its affine extension, and the Zhukovski-variable dictionaries.
"""
from .algebra import (GeneratorImage, RepLabels, atypical_rep, check_relations,
                      coproduct_image, default_alpha, fuse_check, gl2_twist,
                      klein_twist, singlet_report, singlet_vector, typical_rep)
from .graded import (C11, EVEN, ODD, GradedSpace, SuperMatrix, graded_comm,
                     graded_kron, graded_perm, identity, max_abs, unit)
from .qaffine import (AffineRep, affine_coproduct_image, affine_eval_rep,
                      affine_intertwine, affine_relations_report,
                      alt_affinization, upper_nodes_subalgebra)
from .qalgebra import (QRepLabels, q_atypical_rep, q_check_relations,
                       q_coproduct_image, q_fuse_check, q_labels,
                       q_root_labels, q_singlet_report, q_singlet_vector,
                       q_typical_rep, qbracket, qbracket_of_power)
from .report import Case, Report
from .suites import run_all, run_suite
from .rmatrix import (RMatrix, conjugate_r, conjugate_rep, conjugated_pair,
                      intertwining_report, r_closed, r_solve, r_trig, rq_closed,
                      slot_coefficients, unitarity_check, ybe_residual)
from .yangian import (EvalRep, antipode_report,
                      coproduct_hom_report, coproduct_tower,
                      current_relations_report, currents,
                      eval_rep, k_cocommutativity_report, kir_report,
                      level_bracket_report, omega_twist_equivalence,
                      scaled_eval_pair, yangian_coproduct, yangian_intertwine)
from .zhukovski import (QZhukovskiPoint, ZhukovskiPoint, dispersion,
                        left_labels, q_labels_from_x, q_zhukovski_point,
                        right_labels, zhukovski_solve)

__version__ = "0.1.0"
