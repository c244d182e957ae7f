"""Counting dynamics on base-k words.

The step map reads a word and says what it sees, largest letter first: the
count of each letter present, written as a base-k numeral, followed by the
letter itself. This package iterates that map, detects the fixed point or
cycle every orbit falls into, and enumerates all of them per base.
"""

from .core import (
    MAX_BASE,
    MIN_BASE,
    Word,
    format_word,
    parse_word,
    step,
)
from .dynamics import (
    DEFAULT_MAX_STEPS,
    BoundInfo,
    OrbitLimitExceeded,
    OrbitResult,
    length_bound,
    orbit,
)
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ClassificationReport,
    CycleRecord,
    brute_force_classify,
    canonical_cycle,
    count_fixed_points,
    enumerate_cycles,
    enumerate_fixed_points,
    word_sort_key,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_BASE",
    "MIN_BASE",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_BUDGET",
    "BoundInfo",
    "BudgetExceeded",
    "ClassificationReport",
    "CycleRecord",
    "OrbitLimitExceeded",
    "OrbitResult",
    "Word",
    "brute_force_classify",
    "canonical_cycle",
    "count_fixed_points",
    "enumerate_cycles",
    "enumerate_fixed_points",
    "format_word",
    "length_bound",
    "orbit",
    "parse_word",
    "step",
    "word_sort_key",
]
