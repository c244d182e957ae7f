"""The brute-force oracle checked against both searches, with no test framework.

This module imports only peadyn and ``reference``, so a script can run
``check_tally_oracle`` past the tier-1 sizes and its memory peak measures the
program, not pytest or hypothesis. ``test_search.py`` imports it from here.
"""

from peadyn import brute_force_classify, enumerate_cycles, enumerate_fixed_points, format_word, length_bound
from reference import description_space_fixed_points


def texts(words):
    return {format_word(word) for word in words}


def check_tally_oracle(base, budget=None):
    """Assert that the brute-force oracle at the cap agrees with both fixed point searches and the cycle search."""
    limit = length_bound(base).length_bound
    report = brute_force_classify(base, limit, budget=budget)
    fixed = set(report.fixed_points)
    assert fixed == enumerate_fixed_points(base)
    assert texts(fixed) == description_space_fixed_points(base, limit)
    assert set(report.cycles) == enumerate_cycles(base)
