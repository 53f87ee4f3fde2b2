"""dezakit: constructions, verifiers, decompositions and a search oracle
for directed Deza graphs, DSRGs, divisible design digraphs, type-II
directed Deza graphs, and twin / Siamese-twin families.
"""

from .construct import (IdentityReport, TwinPair, check_construction_identities,
                        complete_digraph, design_lex_empty, directed_cycle,
                        empty_digraph, field_type2, lex_deza_condition,
                        lex_product, paley_graph, qr_symmetric_design,
                        siamese_reflexive, skew_hadamard_deza, twin_deza,
                        twin_directed)
from .decompose_search import (Decomposition, canonical_form, decompose_b_eq_t,
                               decompose_type2_b_eq_k, search_deza_digraphs,
                               search_dsrg)
from .finite_field import FiniteField, make_field, rep
from .hadamard import (HadamardMatrix, is_skew_type, normalize, paley_skew,
                       sylvester)
from .matrix_core import (Digraph, Products, SignedMatrix, SizeBoundError,
                          block_assemble, block_circulant, circulant,
                          exact_matmul, kronecker)
from .scheme import (AssociationScheme, FusionReport, SchemeError,
                     fusion_digraph, paley_tournament, tournament_scheme,
                     verify_scheme)
from .verify import (DddParams, DesignParams, DezaGraphParams, DezaParams,
                     DsrgParams, Feasibility, ReflexiveReport, TypeIIParams,
                     VerificationReport, deza_children, discover_ddd_partition,
                     feasibility, verify_ddd, verify_deza_digraph,
                     verify_deza_graph, verify_dsrg,
                     verify_reflexive_directed_deza, verify_symmetric_design,
                     verify_type2)

__version__ = "0.1.0"
