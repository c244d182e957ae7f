import ast
import gc
import time
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peadyn import (
    BudgetExceeded,
    CycleRecord,
    brute_force_classify,
    canonical_cycle,
    count_fixed_points,
    enumerate_cycles,
    enumerate_fixed_points,
    format_word,
    length_bound,
    parse_word,
    step,
    word_sort_key,
)
from peadyn import search
from peadyn.golden import EXPECTED_FIXED_POINTS
from peadyn.core import _spell
from peadyn.dynamics import DEFAULT_MAX_STEPS, _walk
from peadyn.search import (
    DEFAULT_BUDGET,
    _count_image,
    _family,
    _family_members,
    _image_states,
)
from expected_cycles import EXPECTED_CYCLES
from oracle_check import check_tally_oracle, texts
from reference import description_space_fixed_points, image_words, naive_step, rotated, terminal_cycle, to_base
from reference import verify_base2_convergence, word_by_word_classify
from reference import closes_under_step, cycle_inequality_holds, fixed_point_inequality_holds

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


def report_texts(report):
    """A ClassificationReport as word_by_word_classify spells it: fixed-point texts and cycles as text tuples."""
    cycles = tuple(tuple(map(format_word, record.words)) for record in report.cycles)
    return tuple(map(format_word, report.fixed_points)), cycles


def tally(word, base):
    out = [0] * base
    for letter in word:
        out[letter] += 1
    return tuple(out)


def word_level_cycles(base, limit):
    """Terminal cycles of period >= 2 of every image word, whose words all have length <= limit."""
    terminal = {}
    cycles = {terminal_cycle(seed, base, terminal) for seed in image_words(base, limit)}
    return {cycle for cycle in cycles if len(cycle) >= 2 and all(len(word) <= limit for word in cycle)}


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
        text = format_word(word)
        assert naive_step(text, base) == text
        assert len(word) <= bound
        assert fixed_point_inequality_holds(text, base)


@pytest.mark.parametrize("base", [5, 6])
def test_fixed_points_match_direct_image_sweep(base):
    # a fixed point is its own image, so testing naive_step(w) == w over all image
    # words is a complete, pruning-free check of the description search
    bound = length_bound(base).length_bound
    swept = {w for w in image_words(base, bound) if naive_step(w, base) == w}
    assert swept == texts(enumerate_fixed_points(base))


# at the cap, and far past it, where the sweep's carries run long
@pytest.mark.parametrize("base,max_len", [(2, 8), (3, 9), (2, 500), (3, 100)])
def test_search_matches_brute_force(base, max_len):
    report = brute_force_classify(base, max_len)
    assert set(report.fixed_points) == enumerate_fixed_points(base)
    assert set(report.cycles) == enumerate_cycles(base)
    assert list(report.fixed_points) == sorted(report.fixed_points, key=word_sort_key)


@pytest.mark.parametrize("base,longest", [(2, 15), (3, 10), (4, 8), (5, 7)])
def test_brute_force_matches_word_by_word(base, longest):
    # every max_len from 1, so the fixed points read off the registry are
    # checked against stepping every word at each cutoff, the shortest included
    for max_len in range(1, longest + 1):
        assert report_texts(brute_force_classify(base, max_len)) == word_by_word_classify(base, max_len), max_len


def test_fixed_point_inequality_examples():
    assert fixed_point_inequality_holds("111", 2)
    assert fixed_point_inequality_holds("22", 3)
    # a single block of 27 ones in base 3 would need 3 >= 27 - 2
    assert not fixed_point_inequality_holds("1" * 27, 3)


def test_cycle_inequality_examples():
    assert cycle_inequality_holds(BASE3_CYCLE_WORDS, 3)
    assert cycle_inequality_holds(BASE6_CYCLE_WORDS, 6)
    assert not cycle_inequality_holds(("1" * 27, "2" * 27), 3)


def test_closure_check_examples():
    assert closes_under_step(BASE3_CYCLE_WORDS, 3)
    # the base-3 cycle walked backwards, and two words that step elsewhere
    assert not closes_under_step(BASE3_CYCLE_WORDS[::-1], 3)
    assert not closes_under_step(("1" * 27, "2" * 27), 3)


def test_no_cycles_in_base_2():
    assert enumerate_cycles(2) == set()
    assert enumerate_cycles(2, 8) == set()
    assert enumerate_cycles(2, 12) == set()


def test_base3_cycle():
    cycles = enumerate_cycles(3)
    assert len(cycles) == 1
    record = next(iter(cycles))
    assert record.period == 3
    words = tuple(format_word(w) for w in record.words)
    assert words == BASE3_CYCLE_WORDS
    assert closes_under_step(words, 3)
    assert cycle_inequality_holds(words, 3)


@pytest.mark.parametrize("base", [4, 5])
def test_no_cycles_in_bases_4_and_5(base):
    assert enumerate_cycles(base) == set()


def test_base6_cycle():
    cycles = enumerate_cycles(6)
    assert len(cycles) == 1
    record = next(iter(cycles))
    assert record.period == 2
    words = tuple(format_word(w) for w in record.words)
    assert words == BASE6_CYCLE_WORDS
    assert closes_under_step(words, 6)


@pytest.mark.parametrize("base", [7, 8, 9, 10])
def test_cycles_match_frozen_records(base):
    expected = [
        CycleRecord(base, len(texts), tuple(parse_word(t, base) for t in texts))
        for texts in EXPECTED_CYCLES[base]
    ]
    assert sorted(enumerate_cycles(base)) == expected
    assert all(closes_under_step(texts, base) for texts in EXPECTED_CYCLES[base])


@pytest.mark.parametrize(
    "base,limit",
    [(2, None), (3, None), (4, None), (5, None), (3, 4), (6, 5), (6, 10), (7, 6), (7, 12), (8, 12), (8, 14)],
)
def test_cycles_match_word_level_reference(base, limit):
    limit = length_bound(base).length_bound if limit is None else limit
    found = enumerate_cycles(base, limit)
    assert {tuple(map(format_word, record.words)) for record in found} == word_level_cycles(base, limit)


def test_reference_imports_nothing_from_peadyn():
    # a referee that shared code with the package would share its faults
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [name for name in modules if name.split(".")[0] == "peadyn"]


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
    report = brute_force_classify(2, 3)
    assert [format_word(w) for w in report.fixed_points] == ["111"]


def test_brute_force_budget_guard(monkeypatch):
    def no_tally(*args):
        raise AssertionError("tallied a word over budget")

    # the budget counts the letter tallies of length 1..max_len,
    # C(max_len + k, k) - 1, before the sweep builds a digit tally or walks
    # a first image
    with monkeypatch.context() as patched:
        for name in ("_numeral_digits", "_digit_tally", "_tally_image", "_walk"):
            patched.setattr(search, name, no_tally)
        with pytest.raises(BudgetExceeded, match="base 3 needs 454 tallies, budget is 453"):
            brute_force_classify(3, 12, budget=453)
        with pytest.raises(BudgetExceeded):
            brute_force_classify(2, 8, budget=43)
        with pytest.raises(BudgetExceeded, match=f"base 8 needs 2220074 tallies, budget is {DEFAULT_BUDGET}"):
            brute_force_classify(8, 19)
    assert brute_force_classify(3, 12, budget=454) == brute_force_classify(3, 12)
    assert brute_force_classify(2, 8, budget=44) == brute_force_classify(2, 8)


@pytest.mark.parametrize(
    "base, max_len, tallies, images", [(3, 7, 119, 44), (3, 20, 1770, 132), (4, 20, 10625, 446)]
)
def test_brute_force_walks_first_images(monkeypatch, base, max_len, tallies, images):
    # the 119 tallies of 1..7 letters in base 3 have 44 first images; the
    # sweep starts a walk from each (letter set, digit tally) pair, and no
    # pair comes from two tallies, so it starts fewer walks than tallies.
    # The longer cases hold digit tallies that two count multisets reach
    # with different sums, where the sweep must keep the larger leftover
    starts = []
    walk = search._walk

    def recording(start, *args):
        starts.append(start)
        return walk(start, *args)

    monkeypatch.setattr(search, "_walk", recording)
    brute_force_classify(base, max_len)
    every = [t for t in product(range(max_len + 1), repeat=base) if 0 < sum(t) <= max_len]
    first = {search._tally_image(t, base) for t in every}
    assert (len(every), len(first)) == (tallies, images)
    assert set(starts) == first
    assert len(starts) < tallies


def test_fixed_point_search_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_fixed_points(2, budget=1)
    assert enumerate_fixed_points(2, budget=10**6) == expected_words(2)


def test_cycle_search_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_cycles(6, budget=1)


def test_cycle_budget_counts_words():
    # the budget counts the cycle words listed, summed from the family sizes
    # slice by slice: 2 in base 6 and 171 in base 11 (63 cycles of period 2
    # and 15 of period 3)
    assert len(enumerate_cycles(6, budget=2)) == 1
    with pytest.raises(BudgetExceeded, match="base 6 needs at least 2 words, budget is 1"):
        enumerate_cycles(6, budget=1)
    assert len(enumerate_cycles(11, budget=171)) == 78
    with pytest.raises(BudgetExceeded, match="base 11 needs at least 171 words, budget is 170"):
        enumerate_cycles(11, budget=170)
    # the walk is bounded by the base, so base 36 is refused at once, at the
    # first slice whose words pass the budget
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"base 36 needs at least 1886691 words, budget is {DEFAULT_BUDGET}"):
        enumerate_cycles(36)
    assert time.perf_counter() - start < 1


def test_cycle_refusal_names_the_words():
    # base 24 is refused at the slice that passes the default, before any
    # word is spelled, naming the words of the slices so far
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"base 24 needs at least 1015759 words, budget is {DEFAULT_BUDGET}$"):
        enumerate_cycles(24)
    assert time.perf_counter() - start < 1


def test_digit_cap_is_the_digits_of_the_length_cap():
    # the largest d with k^(d - 1) <= 1 + k * d, the most digits a count of a
    # cycle can have, is the digit count of the length cap for every base
    for base in range(2, 37):
        most = max(d for d in range(1, 10) if base ** (d - 1) <= 1 + base * d)
        assert most == len(to_base(length_bound(base).length_bound, base)), base


def test_long_limits_walk_few_states():
    # a cycle's counts have at most as many digits as the cap, and its
    # excess is bounded by the second image, so the walk stays small however
    # long the limit, and no cycle is longer than the cap
    start = time.perf_counter()
    cases = [(2, 10**6), (2, 10**12), (3, 3008), (10, 100)]
    cases += [(2, 10**100), (3, 10**100), (11, 10**100), (13, 10**100)]
    for base, limit in cases:
        assert enumerate_cycles(base, limit) == enumerate_cycles(base)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("base, twos, threes", [(11, 63, 15), (12, 127, 21), (13, 255, 28), (14, 511, 36)])
def test_cycle_periods_match_frozen_search(base, twos, threes):
    # cycles of period 2 and 3 the family-seeded tally search found before the count map
    assert Counter(record.period for record in enumerate_cycles(base)) == {2: twos, 3: threes}


def full_walk_cycles(base, limit):
    """h-cycles of period >= 2 under the limit, from every count multiset of
    r <= min(base, limit) counts and sum <= limit: its counts of 2 or more,
    each size s drawn with replacement from 2..limit - 2(s - 1), plus every
    number of counts of 1 that fits."""
    seen, registry = {}, []
    top = min(base, limit)
    for size in range(limit // 2 + 1):
        for core in combinations_with_replacement(range(2, limit - 2 * size + 3), size):
            for ones in range(min(top - size, limit - sum(core)) + 1):
                registry.append(_walk((1,) * ones + core, _count_image, base, seen, DEFAULT_MAX_STEPS))
    return {rotated(c) for c in registry if len(c) >= 2 and all(sum(counts) <= limit for counts in c)}


def image_walk_cycles(base, limit):
    """h-cycles of period >= 2 under the limit, from the image states alone, one r at a time."""
    digits = len(to_base(limit, base))
    found = set()
    for r in range(1, min(base, limit) + 1):
        seen, registry = {}, []
        for counts in _image_states(r, min(limit - r, digits * r), r):
            # a guard of 8 steps: no walk needs more, which lets enumerate_cycles drop its own
            registry.append(_walk(counts, _count_image, base, seen, 8))
        found |= {rotated(c) for c in registry if len(c) >= 2 and all(sum(counts) <= limit for counts in c)}
    return found


IMAGE_WALK_CASES = [(base, length_bound(base).length_bound) for base in range(2, 13)] + [
    (base, limit) for base in range(2, 10) for limit in range(2, length_bound(base).length_bound + 4)
]


@pytest.mark.parametrize("base, limit", IMAGE_WALK_CASES)
def test_image_walk_finds_every_count_cycle(base, limit):
    # Fact 2: every state of an h-cycle is an image, so walking the images
    # alone finds every h-cycle the full walk finds; the sink () is period 1
    cycles = full_walk_cycles(base, limit)
    assert image_walk_cycles(base, limit) == cycles
    families = [_family(cycle, base) for cycle in cycles]
    expanded = {
        canonical_cycle(tuple(_spell(t, base) for t in member), base)
        for forced, ones in families
        if ones >= 0
        for member in _family_members(forced, ones)
    }
    assert enumerate_cycles(base, limit) == expanded


@pytest.mark.parametrize("r, excess", [(0, 3), (1, 5), (2, 9), (3, 12), (4, 4), (5, 4), (3, 0), (6, 17)])
def test_image_states_yield_each_core_once(r, excess):
    expected = [
        (1,) * (r - size) + core
        for size in range(min(r, excess) + 1)
        for core in combinations_with_replacement(range(2, excess + 2), size)
        if sum(core) - size == excess
    ]
    states = list(_image_states(r, excess, excess))
    assert len(states) == len(set(states))
    assert sorted(states) == sorted(expected)


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
    assert texts(enumerate_fixed_points(base)) == description_space_fixed_points(base, limit)


@pytest.mark.parametrize("base, limit", LIMIT_GRID)
def test_fixed_points_match_description_space_loop_on_limits(base, limit):
    assert texts(enumerate_fixed_points(base, limit)) == description_space_fixed_points(base, limit)


@pytest.mark.parametrize("base, count", [(16, 4216), (18, 16537), (20, 65726)])
def test_fixed_point_counts_match_frozen_search(base, count):
    # sizes the multiset-and-letter-set search found before the family solver
    assert len(enumerate_fixed_points(base)) == count
    assert count_fixed_points(base) == count


def test_fixed_point_counts_of_every_base():
    # observed, not derived: 2 and 7 at bases 2 and 3, then 2^(k - 4) + C(k, 2)
    counts = [count_fixed_points(k) for k in range(2, 37)]
    assert counts == [2, 7] + [2 ** (k - 4) + comb(k, 2) for k in range(4, 37)]


def test_support_cut_spares_count_image(monkeypatch):
    # h runs only on cores whose digit support, with the 1 of a count of 1,
    # has one letter per core count, and whose counts before the largest add
    # at most its digits to m1: 371 candidates, 2,076 with the support cut alone
    candidates = []

    def recording(counts, base):
        candidates.append(counts)
        return _count_image(counts, base)

    monkeypatch.setattr(search, "_count_image", recording)
    for base in range(2, 21):
        count_fixed_points(base)
    assert len(candidates) == 371


def test_m1_cut_spares_the_core_walk(monkeypatch):
    # a core whose m1 passes the digits of the limit grows no longer core, so
    # the walk makes 765 calls, not 11,061; the recursion goes through the
    # module global, so the patch sees every call
    walk = search._fixed_point_walk
    calls = []

    def recording(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(search, "_fixed_point_walk", recording)
    for base in range(2, 21):
        count_fixed_points(base)
    assert len(calls) == 765


def test_walk_candidates_pass_the_cuts_by_the_referee(monkeypatch):
    # each candidate the walk hands to h, read through the reference numerals:
    # m1 is the excess of the core, the core's digits plus the 1 of a count of
    # 1 hold one letter per core count, and the counts before the largest add
    # at most its digits to m1
    candidates = []

    def recording(counts, base):
        candidates.append((counts, base))
        return _count_image(counts, base)

    monkeypatch.setattr(search, "_count_image", recording)
    for base in range(2, 37):
        count_fixed_points(base)
    assert len(candidates) == 1235
    for counts, base in candidates:
        core = [c for c in counts if c > 1]
        m1 = len(counts) - len(core)
        assert counts == (1,) * m1 + tuple(sorted(core))
        excess = [c - len(to_base(c, base)) - 1 for c in core]
        assert m1 == sum(excess)
        support = set("".join(to_base(c, base) for c in core)) | ({"1"} if m1 > 0 else set())
        assert len(support) == len(core)
        assert sum(excess[:-1]) <= len(to_base(core[-1], base))


def test_default_budget_lists_base_23_and_refuses_base_24():
    # the default keeps a listing in memory: base 24 fails before a word is rendered
    assert count_fixed_points(23) <= DEFAULT_BUDGET < count_fixed_points(24)
    with pytest.raises(BudgetExceeded, match="base 24 needs 1048852 words, budget is 1000000"):
        enumerate_fixed_points(24)


@pytest.mark.parametrize("base", range(2, 37))
def test_no_fixed_point_is_longer_than_the_cap(base):
    # the core walk ends without a length limit, so a limit far past the cap
    # shows every fixed point there is
    assert count_fixed_points(base, 10**6) == count_fixed_points(base)


def test_base2_search_far_past_the_cap():
    # count 2 lowers m1 in base 2, so only the core size bounds the walk there
    assert count_fixed_points(2, 3000) == 2
    assert enumerate_fixed_points(2, 3000) == expected_words(2)


@pytest.mark.parametrize("base", range(2, 10))
def test_tally_oracle_matches_searches(base):
    # the default budget refuses the caps of bases 8 and 9, so pass their tally counts
    limit = length_bound(base).length_bound
    check_tally_oracle(base, budget=comb(limit + base, base) - 1 if base >= 8 else None)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=80))
    )
)
def test_step_reads_only_the_tally(case):
    # all words of one tally share one image, so the tally oracle walks tallies, not words
    base, letters = case
    assert step(tuple(sorted(letters)), base) == step(tuple(letters), base)


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
