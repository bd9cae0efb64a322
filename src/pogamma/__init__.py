"""Workbench for finite ordered Gamma-semigroups."""

from .model import (
    GammaTables,
    OrderRelation,
    PoGammaSemigroup,
    StructuralError,
    ValidationReport,
    equality_order,
    structure_from_rows,
    validate_compatibility,
    validate_gamma_tables,
    validate_order,
    validate_structure,
)
from .setcalc import (
    REGULARITY_KINDS,
    RegularityWitness,
    StructureTooLarge,
    all_bi_ideals,
    bi_ideal_generated_fixpoint,
    bi_ideal_generated_formula,
    compose_cr_witness,
    downward_closure,
    is_bi_ideal,
    is_completely_regular,
    is_semiprime,
    is_strongly_regular,
    is_strongly_regular_subset,
    is_subsemigroup,
    product_failure,
    regularity,
    semiprime_failure,
    set_product,
    witness_holds,
    word_product,
)
from .theorems import THEOREM_IDS, CheckReport, run_all, run_selected, thm8_witness
from .enumeration import (
    EnumSpec,
    SweepReport,
    SweepViolation,
    all_partial_orders,
    canonical_key,
    classify,
    enumerate_orders,
    enumerate_structures,
    enumerate_tables,
    enumerate_tables_naive,
    random_structures,
    relabel,
    structure_encoding,
    sweep,
)
from .formats import (
    FormatError,
    ValidationFailed,
    doc_to_report,
    doc_to_structure,
    load,
    load_named,
    report_to_doc,
    save_structure,
    serialize_report,
    serialize_structure,
    structure_to_doc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
