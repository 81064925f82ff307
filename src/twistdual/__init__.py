"""Exact-arithmetic twisted dual root data from invariant quadratic forms."""

from .lattice import (
    FGAbelianGroup,
    IntMatrix,
    LatticeHom,
    Sublattice,
    intersect,
    kernel_mod,
    quotient_group,
    smith_normal_form,
)
from .rootdata import RootDatum, RootDatumError, WeylGroup, standard
from .qform import (
    CartanDatum,
    DetForm,
    Exponent,
    QForm,
    braiding_signs,
    cartan_qform,
    det_form,
    epsilon_defect,
    half_forms_qform,
    kernel,
    killing_qform,
    normalized_killing_gram,
    qform_from_gram,
    trivial_qform,
)
from .divisor_calc import (
    DivisorLedger,
    Partition,
    ledger_for_components,
    restrict,
    verify_bilinearity,
    verify_quadratic,
)
from .grcomb import (
    ComponentIndex,
    factorizable_function,
    incident,
    is_factorizable,
    reconstruct_homomorphism,
)
from .dualgroup import (
    IsoResult,
    QuantumPair,
    Rank1Table,
    TwistedDual,
    fl_dual,
    isomorphic,
    langlands_dual,
    lusztig_dual,
    quantum_dual_pair,
    rank1_table,
    twisted_dual,
)
from .characters import (
    Character,
    fiber_dim,
    irreducible_character,
    satake_prediction,
    tensor_decompose,
    weyl_dim,
    weyl_multiplicity,
)

__version__ = "0.1.0"
