"""Exact birational analysis of the index >= 2 Fano threefold hypersurfaces."""

from .catalog import (
    FamilyRecord,
    anticanonical_cube,
    family,
    fano_index,
    load_catalog,
    monomial_support,
    well_form_weights,
)
from .exclusion import curve_test, fibration_witness, smooth_point_test, solidity_summary
from .linkengine import run_game, verify_tables
from .singular import blowup_weights, normalize_terminal, singular_locus
from .toric2ray import (
    ambient_walk,
    build_model,
    divisorial_target,
    minus_k,
    movable_position,
    needs_unprojection,
    restrict_walk,
    unproject,
    well_form_model,
)

__all__ = [
    "FamilyRecord",
    "ambient_walk",
    "anticanonical_cube",
    "blowup_weights",
    "build_model",
    "curve_test",
    "divisorial_target",
    "family",
    "fano_index",
    "fibration_witness",
    "load_catalog",
    "minus_k",
    "monomial_support",
    "movable_position",
    "needs_unprojection",
    "normalize_terminal",
    "restrict_walk",
    "run_game",
    "singular_locus",
    "smooth_point_test",
    "solidity_summary",
    "unproject",
    "verify_tables",
    "well_form_model",
    "well_form_weights",
]

__version__ = "0.1.0"
