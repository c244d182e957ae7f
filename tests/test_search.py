import gc
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peadyn import (
    Block,
    BudgetExceeded,
    CycleRecord,
    Description,
    brute_force_classify,
    canonical_cycle,
    count_fixed_points,
    cycle_inequality_holds,
    cycle_sort_key,
    describe,
    enumerate_cycles,
    enumerate_fixed_points,
    fixed_point_inequality_holds,
    format_word,
    length_bound,
    parse_word,
    render,
    step,
    word_sort_key,
)
from peadyn.golden import EXPECTED_FIXED_POINTS
from peadyn.search import DEFAULT_WORD_BUDGET, _count_image, _count_multisets, _multiset_total
from expected_cycles import EXPECTED_CYCLES
from reference import description_space_fixed_points, tally_oracle, verify_base2_convergence

# The shipped expected table lists 18 words for base 6, but the search finds
# one more: 15141211110 tallies one 5, one 4, one 2, seven 1s, one 0, and
# spelling that out in base 6 (seven is numeral 11) reproduces the word, so
# it is genuinely fixed and the shipped list is incomplete. Enumeration
# results are asserted against the corrected set; the table checker reports
# the discrepancy honestly.
EXTRA_BASE6_FIXED_POINT = "15141211110"

BASE3_CYCLE_WORDS = ("10210110", "12111100", "1212120")
BASE6_CYCLE_WORDS = ("152413423110", "152423224110")


def expected_words(base):
    return {parse_word(t, base) for t in EXPECTED_FIXED_POINTS[base]}


def corrected_words(base):
    out = expected_words(base)
    if base == 6:
        out.add(parse_word(EXTRA_BASE6_FIXED_POINT, 6))
    return out


def compositions_capped(r, total):
    if r == 0:
        yield ()
        return
    for first in range(1, total - r + 2):
        for rest in compositions_capped(r - 1, total - first):
            yield (first,) + rest


def all_image_words(base, limit):
    """Every image of a word of length <= limit, generated straight from the
    definition. Independent of the search module's internals on purpose."""
    for r in range(1, min(base, limit) + 1):
        for letters in combinations(range(base - 1, -1, -1), r):
            for counts in compositions_capped(r, limit):
                yield render(Description(tuple(map(Block, counts, letters)), base))


def tally(word, base):
    out = [0] * base
    for letter in word:
        out[letter] += 1
    return tuple(out)


def word_level_cycles(base, limit):
    """Terminal cycles of every image word whose words all have length <= limit,
    found by stepping words one by one until one repeats or reaches a word an
    earlier walk resolved: no tallies. Each cycle is rotated to start at its
    smallest word."""
    terminal = {}  # every word walked so far -> the cycle its orbit ends in
    found = set()
    for seed in all_image_words(base, limit):
        seen = {}
        word = seed
        while word not in seen and word not in terminal:
            seen[word] = len(seen)
            word = step(word, base)
        if word in terminal:
            cycle = terminal[word]
        else:
            cycle = list(seen)[seen[word]:]
            pivot = cycle.index(min(cycle))
            cycle = tuple(cycle[pivot:] + cycle[:pivot])
        for walked in seen:
            terminal[walked] = cycle
        if len(cycle) >= 2 and all(len(word) <= limit for word in cycle):
            found.add(cycle)
    return found


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_fixed_points_match_expected_table(base):
    assert enumerate_fixed_points(base) == expected_words(base)


def test_fixed_points_base6_finds_the_extra_word():
    found = enumerate_fixed_points(6)
    extra = parse_word(EXTRA_BASE6_FIXED_POINT, 6)
    assert step(extra, 6) == extra
    assert found == expected_words(6) | {extra}
    assert len(found) == 19


@pytest.mark.parametrize("base", range(2, 7))
def test_fixed_points_describe_themselves(base):
    bound = length_bound(base).length_bound
    for word in enumerate_fixed_points(base):
        d = describe(word, base)
        assert render(d) == word
        assert sum(c for c, _ in d.blocks) == len(word)
        assert len(word) <= bound
        assert fixed_point_inequality_holds(d)


@pytest.mark.parametrize("base", [5, 6])
def test_fixed_points_match_direct_image_sweep(base):
    # a fixed point is its own image, so testing step(w) == w over all image
    # words is a complete, pruning-free check of the description search
    bound = length_bound(base).length_bound
    swept = {w for w in all_image_words(base, bound) if step(w, base) == w}
    assert swept == enumerate_fixed_points(base)


@pytest.mark.parametrize("base,max_len", [(2, 8), (3, 9)])
def test_search_matches_brute_force(base, max_len):
    report = brute_force_classify(base, max_len)
    assert set(report.fixed_points) == enumerate_fixed_points(base)
    assert set(report.cycles) == enumerate_cycles(base)
    assert list(report.fixed_points) == sorted(report.fixed_points, key=word_sort_key)


def test_fixed_point_inequality_examples():
    assert fixed_point_inequality_holds(describe(parse_word("111", 2), 2))
    assert fixed_point_inequality_holds(describe(parse_word("22", 3), 3))
    # a single block of 27 ones in base 3 would need 3 >= 27 - 2
    assert not fixed_point_inequality_holds(Description((Block(27, 1),), 3))


def test_cycle_inequality_examples():
    assert cycle_inequality_holds(CycleRecord(3, 3, tuple(parse_word(t, 3) for t in BASE3_CYCLE_WORDS)))
    assert cycle_inequality_holds(CycleRecord(6, 2, tuple(parse_word(t, 6) for t in BASE6_CYCLE_WORDS)))
    bad = CycleRecord(3, 2, ((1,) * 27, (2,) * 27))
    assert not cycle_inequality_holds(bad)


def test_no_cycles_in_base_2():
    assert enumerate_cycles(2) == set()
    assert enumerate_cycles(2, 8) == set()
    assert enumerate_cycles(2, 12) == set()


def test_base3_cycle():
    cycles = enumerate_cycles(3)
    assert len(cycles) == 1
    record = next(iter(cycles))
    assert record.period == 3
    assert tuple(format_word(w) for w in record.words) == BASE3_CYCLE_WORDS
    assert record.closes_under_step()
    assert cycle_inequality_holds(record)


@pytest.mark.parametrize("base", [4, 5])
def test_no_cycles_in_bases_4_and_5(base):
    assert enumerate_cycles(base) == set()


def test_base6_cycle():
    cycles = enumerate_cycles(6)
    assert len(cycles) == 1
    record = next(iter(cycles))
    assert record.period == 2
    assert tuple(format_word(w) for w in record.words) == BASE6_CYCLE_WORDS
    assert record.closes_under_step()


@pytest.mark.parametrize("base", [7, 8, 9, 10])
def test_cycles_match_frozen_records(base):
    expected = [
        CycleRecord(base, len(texts), tuple(parse_word(t, base) for t in texts))
        for texts in EXPECTED_CYCLES[base]
    ]
    assert sorted(enumerate_cycles(base), key=cycle_sort_key) == expected
    assert all(record.closes_under_step() for record in expected)


@pytest.mark.parametrize(
    "base,limit",
    [(2, None), (3, None), (4, None), (5, None), (3, 4), (6, 5), (6, 10), (7, 6), (7, 12), (8, 12), (8, 14)],
)
def test_cycles_match_word_level_reference(base, limit):
    limit = length_bound(base).length_bound if limit is None else limit
    found = enumerate_cycles(base, limit)
    assert {record.words for record in found} == word_level_cycles(base, limit)


def sorted_counts(word, base):
    return tuple(sorted(c for c in tally(word, base) if c))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=80))
    )
)
def test_count_image_commutes_with_step(case):
    # a word that holds every letter of its base holds the digits of its numerals
    base, letters = case
    word = tuple(range(base)) + tuple(letters)
    assert sorted_counts(step(word, base), base) == _count_image(sorted_counts(word, base), base)


def test_count_image_sink():
    # one letter twice in base 2 is spelled "10" plus the letter: two digits for one letter
    assert _count_image((2,), 2) == ()
    assert _count_image((), 2) == ()


def test_cycle_record_validation():
    a = parse_word("10210110", 3)
    b = parse_word("12111100", 3)
    c = parse_word("1212120", 3)
    with pytest.raises(ValueError):
        CycleRecord(3, 2, (a, b, c))
    with pytest.raises(ValueError):
        CycleRecord(3, 2, (a, a))
    with pytest.raises(ValueError):
        CycleRecord(3, 3, (b, c, a))  # not rotated to the smallest word
    with pytest.raises(ValueError):
        CycleRecord(1, 1, (a,))


def test_canonical_cycle_rotates():
    a = parse_word("10210110", 3)
    b = parse_word("12111100", 3)
    c = parse_word("1212120", 3)
    record = canonical_cycle((b, c, a), 3)
    assert record.words == (a, b, c)
    assert record == canonical_cycle((a, b, c), 3)
    assert record == canonical_cycle((c, a, b), 3)


def test_brute_force_small():
    report = brute_force_classify(2, 2)
    assert report.fixed_points == ()
    assert report.cycles == ()
    assert report.search_length_limit == 2
    report = brute_force_classify(2, 3)
    assert [format_word(w) for w in report.fixed_points] == ["111"]


def test_brute_force_budget_guard():
    with pytest.raises(BudgetExceeded):
        brute_force_classify(6, 15)
    with pytest.raises(BudgetExceeded):
        brute_force_classify(2, 8, budget=100)


def test_fixed_point_search_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_fixed_points(2, budget=1)
    assert enumerate_fixed_points(2, budget=10**6) == expected_words(2)


def test_cycle_search_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_cycles(6, budget=498)


def test_cycle_budget_counts_seed_pairs():
    # the budget counts the count multisets walked, in closed form before the
    # walk, plus the cycle words listed: 497 + 2 in base 6 and 8,033 + 171
    # (63 cycles of period 2 and 15 of period 3) in base 11
    assert len(enumerate_cycles(6, budget=499)) == 1
    with pytest.raises(BudgetExceeded, match="base 6 needs 499 states, budget is 498"):
        enumerate_cycles(6, budget=498)
    assert len(enumerate_cycles(11, budget=8204)) == 78
    with pytest.raises(BudgetExceeded, match="base 11 needs 8204 states, budget is 8203"):
        enumerate_cycles(11, budget=8203)
    # the count multisets grow like limit**r while their numeral tallies stay
    # few, so they are counted in closed form, not walked, and refused at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"base 36 needs 60752045 states, budget is {DEFAULT_WORD_BUDGET}"):
        enumerate_cycles(36)
    for base, limit in ((2, 10**6), (2, 10**12), (3, 3008), (10, 100)):
        with pytest.raises(BudgetExceeded):
            enumerate_cycles(base, limit)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("base, twos, threes", [(11, 63, 15), (12, 127, 21), (13, 255, 28), (14, 511, 36)])
def test_cycle_periods_match_frozen_search(base, twos, threes):
    # cycles of period 2 and 3 the family-seeded tally search found before the count map
    assert Counter(record.period for record in enumerate_cycles(base)) == {2: twos, 3: threes}


def test_multiset_total_matches_the_walk():
    for top in range(1, 6):
        for limit in range(2, 20):
            walked = sum(1 for r in range(1, top + 1) for _ in _count_multisets(r, limit))
            assert _multiset_total(top, limit) == walked


def test_search_rejects_bad_limits():
    with pytest.raises(ValueError):
        enumerate_fixed_points(2, 0)
    with pytest.raises(ValueError):
        enumerate_cycles(2, 1)
    with pytest.raises(ValueError):
        brute_force_classify(2, 0)


def test_fixed_points_tiny_limit_is_empty():
    assert enumerate_fixed_points(2, 2) == set()


def test_classify_with_margin_is_stable():
    # pushing the length limit past the proven cap must not admit new finds;
    # only such a run can show a cycle longer than the cap, as the output
    # under any limit holds only the cycles that fit
    for base in range(2, 9):
        bound = length_bound(base).length_bound
        if base <= 4:
            assert enumerate_fixed_points(base, bound + 4) == enumerate_fixed_points(base)
        assert enumerate_cycles(base, bound + 4) == enumerate_cycles(base)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_expected_table_is_monotone_where_it_should_be(base):
    # a word from one column appears in the next exactly when the next base's
    # step map also fixes it; letters stay valid since alphabets nest
    nxt = base + 1
    for text in EXPECTED_FIXED_POINTS[base]:
        word = parse_word(text, nxt)
        in_next = text in EXPECTED_FIXED_POINTS[nxt] or (
            nxt == 6 and text == EXTRA_BASE6_FIXED_POINT
        )
        assert in_next == (step(word, nxt) == word)


def test_base2_words_converge():
    assert verify_base2_convergence(8)
    assert verify_base2_convergence(12)
    with pytest.raises(ValueError):
        verify_base2_convergence(0)


def test_fixed_point_budget_counts_candidates():
    # the budget counts the words listed, summed over the families before any
    # is expanded: 2 words in base 2 and 19 in base 6
    assert enumerate_fixed_points(2, budget=2) == expected_words(2)
    with pytest.raises(BudgetExceeded):
        enumerate_fixed_points(2, budget=1)
    assert len(enumerate_fixed_points(6, budget=19)) == 19
    with pytest.raises(BudgetExceeded):
        enumerate_fixed_points(6, budget=18)


LIMIT_GRID = [
    (3, 4), (6, 5), (6, 20), (7, 6), (8, 30), (5, 1), (5, 2), (10, 12), (4, 8), (2, 3), (9, 10), (2, 2),
]


@pytest.mark.parametrize("base", range(2, 15))
def test_fixed_points_match_description_space_loop(base):
    limit = length_bound(base).length_bound
    assert enumerate_fixed_points(base) == description_space_fixed_points(base, limit)


@pytest.mark.parametrize("base, limit", LIMIT_GRID)
def test_fixed_points_match_description_space_loop_on_limits(base, limit):
    assert enumerate_fixed_points(base, limit) == description_space_fixed_points(base, limit)


@pytest.mark.parametrize("base, count", [(16, 4216), (18, 16537), (20, 65726)])
def test_fixed_point_counts_match_frozen_search(base, count):
    # sizes the multiset-and-letter-set search found before the family solver
    assert len(enumerate_fixed_points(base)) == count
    assert count_fixed_points(base) == count


def test_default_budget_lists_base_23_and_refuses_base_24():
    # the default keeps a listing in memory: base 24 fails before a word is rendered
    assert count_fixed_points(23) <= DEFAULT_WORD_BUDGET < count_fixed_points(24)
    with pytest.raises(BudgetExceeded, match="base 24 needs 1048852 words, budget is 1000000"):
        enumerate_fixed_points(24)


@pytest.mark.parametrize("base", range(2, 17))
def test_no_fixed_point_is_longer_than_the_cap(base):
    # the core walk ends without a length limit, so a limit far past the cap
    # shows every fixed point there is
    assert count_fixed_points(base, 10**6) == count_fixed_points(base)


def test_base2_search_far_past_the_cap():
    # count 2 lowers m1 in base 2, so only the core size bounds the walk there
    assert count_fixed_points(2, 3000) == 2
    assert enumerate_fixed_points(2, 3000) == expected_words(2)


def check_tally_oracle(base):
    """Assert that the tally oracle agrees with both fixed point searches and the cycle search."""
    limit = length_bound(base).length_bound
    fixed, cycles = tally_oracle(base, limit)
    assert fixed == enumerate_fixed_points(base)
    assert fixed == description_space_fixed_points(base, limit)
    assert cycles == {record.words for record in enumerate_cycles(base)}


@pytest.mark.parametrize("base", range(2, 8))
def test_tally_oracle_matches_searches(base):
    check_tally_oracle(base)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=80))
    )
)
def test_step_reads_only_the_tally(case):
    # what lets the tally oracle step one sorted word per tally
    base, letters = case
    assert step(tuple(sorted(letters)), base) == step(tuple(letters), base)


@pytest.mark.parametrize("r, limit", [(0, 3), (1, 5), (2, 9), (3, 12), (4, 4), (5, 4), (3, 0), (6, 17)])
def test_count_multisets_yields_each_multiset_once(r, limit):
    expected = [c for c in combinations_with_replacement(range(1, limit + 1), r) if sum(c) <= limit]
    assert list(_count_multisets(r, limit)) == expected


def test_searches_leave_no_reference_cycles():
    # everything a search allocates is freed by reference counting alone, so
    # nothing waits for the cyclic collector once the search returns
    gc.collect()
    gc.disable()
    try:
        enumerate_fixed_points(9)
        enumerate_cycles(7)
        assert gc.collect() == 0
    finally:
        gc.enable()
