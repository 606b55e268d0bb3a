"""modclass: exact structure theory for finite rings and their modules.

Build finite unital rings from a small spec language, compute radicals,
idempotent and Krull-Schmidt decompositions, decide freeness and projectivity
from projective-cover counts and flatness by Tor_1(R/J, M) = 0, evaluate
pp-definable subgroups and their index invariants, and classify each ring
by which module classes are elementary and whether the theory of its
infinitely generated free modules is categorical in higher powers.
"""

from .config import DEFAULTS, EngineConfig, config_from_env
from .errors import (
    ClosureError,
    ConsistencyError,
    ModclassError,
    RingSpecError,
    RingValidationError,
    SideError,
    SizeCapError,
)
from .verdict import Verdict
from .rings import (
    FiniteRing,
    RingAxiomReport,
    central_primitive_idempotents,
    cyclic_ring,
    galois_field,
    idempotents,
    matrix_ring,
    matrix_units,
    poly_quotient_ring,
    product_ring,
    ring_from_tables,
    triangular_ring,
    units,
    verify_ring_axioms,
)
from .dsl import build_ring, load_struct_const, struct_const_from_dict
from .ideals import (
    ChainConditionsReport,
    Ideal,
    chain_conditions,
    ideal_generated,
    is_local,
    is_simple_ring,
    jacobson_radical,
    one_sided_ideals,
    quotient_ring,
    radical_nilpotency_degree,
)
from .modules import (
    FiniteModule,
    ModuleHom,
    all_submodules,
    cyclic_submodule,
    direct_sum,
    find_bijective_hom,
    free_module,
    hom_enumerate,
    identity_hom,
    quotient_module,
    regular_module,
    submodule_as_module,
    verify_module_axioms,
    zero_module,
)
from .decompose import (
    DecompositionSignature,
    IdempotentDecomposition,
    IndecomposableRegistry,
    corner_isomorphism,
    get_registry,
    is_isomorphic,
    krull_schmidt,
    primitive_decomposition,
)
from .properties import (
    FlatnessReport,
    is_flat_module,
    is_free_module,
    is_projective_module,
)
from .pp import (
    Invariant,
    PPFormula,
    baur_monk_invariant,
    library_formulas,
    library_pairs,
    pp_evaluate,
    pp_subgroup_is_right_ideal,
    scalar_formula,
)
from .classify import (
    ClassificationReport,
    CounterexampleCertificate,
    MetaFinding,
    MetaReport,
    classify_matrix_family,
    classify_ring,
    lemma31_check,
    verify_implication_chain,
)
from .corpus import (
    BUILTIN_CORPUS_SPECS,
    SuiteResult,
    builtin_corpus,
    corpus_test_modules,
    decomposition_determinism_suite,
    flat_projective_suite,
    generated_module_family,
    multiplicativity_suite,
    random_recipe_rings,
    run_meta_suite,
)

__version__ = "0.1.0"
