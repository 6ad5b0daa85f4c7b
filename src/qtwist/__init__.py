"""Twisted tensor products of finite-dimensional C*-algebras.

Everything is realized concretely: groups as residue tuples, algebras as
spans of complex matrices, quantum-group data as multiplicative unitaries
on l2(G), and twisted products as certified spanning constructions.
"""

from .abgroup import (
    Bicharacter,
    FinAbGroup,
    GroupHom,
    dual_bicharacter,
    dual_group,
    enumerate_bicharacters,
    pairing_value,
    pullback,
    regular_bicharacter,
)
from .matspan import (
    DEFAULT_TOL,
    AlgebraBasis,
    Subspace,
    Tolerance,
    multiplicative_closure,
    span_basis,
    subspace_equal,
)
from .coact import (
    CoactionMap,
    GradedAlgebra,
    ad_grading,
    character_grading,
    coaction_from_map,
    delta_grading,
    graded_algebra,
    grading_to_coaction,
    trivial_grading,
    twist_by_cocycle,
    verify_coaction,
)
from .qgroup import (
    QuantumGroupModel,
    build_model,
    dual_model,
    verify_bicharacter_equations,
)
from .heis import (
    RepPair,
    canonical_heisenberg,
    commutation_check,
    composite_heisenberg,
    is_anti_heisenberg,
    is_heisenberg,
    rep_pair,
)
from .boxtimes import (
    CrossedProduct,
    GradedMorphism,
    ProductMap,
    ZUnitary,
    build_from_markings,
    build_via_covariant,
    build_via_heisenberg,
    equivalent,
    functor_map,
    graded_morphism,
    heisenberg_markings,
    morphism_from_pairs,
    podles_span_check,
    product_center_dim,
    qgr_morphism_reparametrize,
    symmetry,
    z_unitary,
)
from .apps import (
    GradedHilbertModule,
    ScenarioResult,
    TwistedProductTable,
    cocycle_conjugacy,
    cocycle_twist_table,
    dual_coaction,
    embed_in_reduced,
    finite_torus,
    full_verify,
    graded_module,
    inner_coaction_examples,
    module_boxtimes,
    module_composition_example,
    modules_examples,
    reduced_crossed_product,
    rieffel_twist_compare,
    skew_tensor,
)

__version__ = "0.1.0"
