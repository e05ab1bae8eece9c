"""Exact-arithmetic dimension computations for rectangular shrinking targets
on grid self-similar carpets."""

from . import errors
from .coding import (
    SliceDimension,
    TargetSpec,
    alternating_block_word,
    base_expansions,
    canonical_representative,
    digit_frequencies,
    expansions_of,
    frequency_slice_value,
    make_target,
    slice_dimension,
    target_from_word,
)
from .formulas import (
    closed_form_dimension,
    closed_form_for,
    ratio_limsup_dimension,
)
from .grid import DigitPair, GridIFS, validate_ifs
from .schedules import RateSchedule
from .shrinking import (
    DimensionReport,
    ExponentRecord,
    WindowPattern,
    axis_digits_admissible,
    axis_window_patterns,
    dimension_report,
    max_row_counts,
    row_agreement_length,
    stage_exponent,
    window_hit,
)
from .verify import (
    CheckReport,
    CoverFamily,
    HolderSample,
    MeasureBuilder,
    build_cover,
    build_lower_bound_measure,
    brute_force_window_set,
    check_containment_backward,
    check_containment_forward,
    check_set_relation,
    exhaustive_relation_check,
    holder_exponent_samples,
    oracle_window_report,
    pattern_window_set,
    random_words,
)
from .words import DigitWord
