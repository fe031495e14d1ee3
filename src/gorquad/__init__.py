"""Artinian Gorenstein graded algebras presented by quadrics: exact
arithmetic over GF(p) and the rationals, Groebner bases, Hilbert-function
invariants, apolarity and linkage constructions, generic initial ideals,
and census sweeps of quadric-colon quotients."""

from .census import (CensusConfig, CensusRecord, CensusSummary, run_census,
                     summary_markdown, verify_socle4_duality)
from .core import (AlgebraError, CappedComputationError, FieldSpec,
                   GenericityError, GinUncertifiedError, LinkageError,
                   ParseError, RingMismatchError)
from .constructions import (apolar_ideal, complete_intersection_hvector,
                            contract, double_link, embed_with_linear_gens,
                            expected_group_hvector, expected_link_hvector,
                            gorenstein_cut, group_table_algebra, link,
                            link_by_squares, linkage_grow, nonunique_hf_pair,
                            penultimate_socle_algebras, quadric_ci,
                            squarefree_full_form, tensor_algebras)
from .gin import (GinResult, InjectivityReport, RankReport, WlpReport,
                  check_injectivity_conjecture, check_wlp, gin,
                  gin_monomial_census, is_borel_fixed, reduction_number,
                  times_L_rank)
from .groebner import GroebnerBasis, Ideal
from .idealops import (colon_form, colon_ideal, ideal_sum, intersect,
                       random_linear_form)
from .invariants import (HVector, QuadricClassification, classify,
                         hilbert_function, is_artinian, is_gorenstein,
                         minimal_generator_counts, minimal_generators,
                         presented_by_quadrics, socle_degree, socle_type)
from .orders import DEGREVLEX, MonomialOrder
from .poly import Polynomial, RingCtx, ring
from .recipes import format_ideal, parse_ideal, run_recipe

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "CappedComputationError", "CensusConfig", "CensusRecord",
    "CensusSummary", "DEGREVLEX", "FieldSpec", "GenericityError",
    "GinResult", "GinUncertifiedError", "GroebnerBasis", "HVector", "Ideal",
    "InjectivityReport", "LinkageError", "ParseError",
    "Polynomial", "QuadricClassification", "RankReport", "RingCtx",
    "RingMismatchError", "WlpReport", "apolar_ideal",
    "check_injectivity_conjecture", "check_wlp", "classify", "colon_form",
    "colon_ideal", "complete_intersection_hvector", "contract",
    "double_link", "embed_with_linear_gens",
    "expected_group_hvector", "expected_link_hvector", "format_ideal",
    "gin", "gin_monomial_census", "gorenstein_cut", "group_table_algebra",
    "hilbert_function", "ideal_sum", "intersect",
    "is_artinian", "is_borel_fixed", "is_gorenstein", "link",
    "link_by_squares", "linkage_grow", "minimal_generator_counts",
    "minimal_generators", "nonunique_hf_pair", "parse_ideal",
    "penultimate_socle_algebras", "presented_by_quadrics", "quadric_ci",
    "random_linear_form",
    "reduction_number", "ring", "run_census", "run_recipe", "socle_degree",
    "socle_type", "squarefree_full_form", "summary_markdown",
    "tensor_algebras", "times_L_rank",
    "verify_socle4_duality",
]
