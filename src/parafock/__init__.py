"""parafock: exact construction and verification of parastatistics Fock spaces.

Lowest-weight representations of the orthosymplectic Lie superalgebra
osp(2m+1|2n) of order p, built four independent ways that must agree:

* a sparse integer matrix realization with the defining triple relations
  checked exhaustively (`algebra`);
* Gelfand-Zetlin pattern combinatorics for the gl(m|n) branching (`patterns`);
* supersymmetric Schur characters and a closed character formula (`symfunc`);
* closed-form reduced matrix elements, disambiguated and certified against a
  Verma-module Gram-form oracle (`reduced`, `verma`).

All arithmetic is exact (integers, Fractions, symbolic square roots); there is
no floating point anywhere in the computational core.
"""

from .algebra import (
    AlgebraBasis,
    GeneratorId,
    SuperMatrix,
    cartan,
    make_generator,
    structure_constants,
    superbracket,
    verify_relations,
)
from .patterns import (
    GZPattern,
    fillings,
    lower_top_row,
    pattern_failures,
    pattern_weight,
    raise_top_row,
    top_row_from_partition,
    top_rows_for_level,
)
from .reduced import (
    ParsingVariant,
    SignedSqrtRational,
    UncancelledZeroError,
    VariantSelectionError,
    parity_indicator,
    reduced_me,
    reduced_me_squared,
    residual_sweep,
    select_parsing_variant_multi,
)
from .symfunc import (
    FrobeniusForm,
    character_formula_report,
    conjugate,
    frobenius,
    from_frobenius,
    has_arm_leg_offset,
    hook_partitions,
    in_hook,
    irreducible_character,
    lr_coefficient,
    offset_family_partitions,
    super_schur,
    verma_character,
)
from .verma import (
    GramBlock,
    GramRecord,
    PBWMonomial,
    VermaEngine,
    diagonal_check,
    get_engine,
    gram_blocks_up_to,
    gram_records_up_to,
    pbw_basis,
    radical_cut_check,
)

__version__ = "0.1.0"
