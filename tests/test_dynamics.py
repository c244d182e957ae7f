import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peadyn import (
    OrbitLimitExceeded,
    format_word,
    length_bound,
    orbit,
    parse_word,
    step,
)
from peadyn.dynamics import DEFAULT_MAX_STEPS, _walk
from reference import naive_orbit
from test_core import bases_and_words

# (base, eventual length bound, number of words up to that length)
BOUND_TABLE = [
    (2, 8, 510),
    (3, 9, 29523),
    (4, 11, 5592404),
    (5, 13, 1525878905),
    (6, 15, 564221981490),
]


def test_orbit_of_fixed_point():
    r = orbit(parse_word("111", 2), 2)
    assert (r.transient, r.period) == (0, 1)
    assert r.cycle == (parse_word("111", 2),)
    assert r.steps_taken == 1


def test_orbit_10_base2():
    r = orbit(parse_word("10", 2), 2)
    assert r.transient == 8
    assert r.period == 1
    assert [format_word(w) for w in r.cycle] == ["1001110"]
    assert r.steps_taken == 9


def test_orbit_123_base10():
    r = orbit(parse_word("123", 10), 10)
    assert (r.transient, r.period) == (6, 1)
    assert format_word(r.cycle[0]) == "14233221"


@pytest.mark.parametrize(
    "text,base,transient",
    [("1", 2, 7), ("0", 2, 9), ("11", 2, 6), ("2", 3, 6)],
)
def test_orbit_transients_frozen(text, base, transient):
    r = orbit(parse_word(text, base), base)
    assert r.transient == transient
    assert r.period == 1


@settings(max_examples=150, deadline=None)
@given(bases_and_words(max_base=6, max_len=25))
def test_orbit_matches_reference(kw):
    base, word = kw
    r = orbit(word, base)
    transient, period, cycle = naive_orbit(format_word(word), base)
    assert (r.transient, r.period) == (transient, period)
    assert [format_word(w) for w in r.cycle] == cycle


def test_long_word_orbits_match_reference():
    # first-step counts run past the base here, so numerals of two or more
    # digits show up on the first step and short ones after it
    rng = random.Random(20171)
    for i in range(100):
        base = 2 + i % 35
        word = tuple(rng.randrange(base) for _ in range(rng.randint(200, 2000)))
        r = orbit(word, base)
        transient, period, cycle = naive_orbit(format_word(word), base)
        assert (r.transient, r.period) == (transient, period), (base, len(word))
        assert [format_word(w) for w in r.cycle] == cycle


@settings(max_examples=150, deadline=None)
@given(bases_and_words(max_base=8, max_len=40))
def test_orbit_cycle_closes_and_period_is_minimal(kw):
    base, word = kw
    r = orbit(word, base)
    p = r.period
    assert len(r.cycle) == p
    for i, w in enumerate(r.cycle):
        assert step(w, base) == r.cycle[(i + 1) % p]
    for d in range(1, p):
        if p % d == 0:
            assert r.cycle[d] != r.cycle[0]


@settings(max_examples=100, deadline=None)
@given(bases_and_words(max_base=6, max_len=30))
def test_orbit_transient_is_exact(kw):
    base, word = kw
    r = orbit(word, base)
    w = word
    for _ in range(r.transient):
        assert w not in r.cycle
        w = step(w, base)
    assert w == r.cycle[0]


@settings(max_examples=150, deadline=None)
@given(bases_and_words(max_base=8, max_len=40))
def test_search_walker_agrees_with_orbit(kw):
    # the walker on words sees the same states as orbit on tallies, and its
    # step guard trips exactly one step short of the repeat
    base, w = kw
    r = orbit(w, base)
    seen = {}
    assert _walk(w, step, base, seen, r.steps_taken) == r.cycle
    assert len(seen) == r.steps_taken
    if r.steps_taken >= 2:
        short = r.steps_taken - 1
        with pytest.raises(OrbitLimitExceeded, match=f"no repeat within {short} steps from the given start"):
            _walk(w, step, base, {}, short)


def test_walker_dict_is_the_walk_and_the_memo():
    # two base-3 walks that share a tail into the period-3 cycle: the first
    # returns the cycle, the second stops at the first state of the first
    # walk and returns (), and the dict holds each state once, in visit order
    seen = {}
    first, second = parse_word("0001112", 3), parse_word("0010222", 3)
    cycle = _walk(first, step, 3, seen, DEFAULT_MAX_STEPS)
    assert [format_word(w) for w in cycle] == ["12111100", "1212120", "10210110"]
    assert _walk(second, step, 3, seen, DEFAULT_MAX_STEPS) == ()
    visits = ["0001112", "12101100", "12111100", "1212120", "10210110", "0010222", "10211100"]
    assert [format_word(w) for w in seen] == visits
    # a start already walked returns () and adds nothing
    assert _walk(cycle[1], step, 3, seen, DEFAULT_MAX_STEPS) == ()
    assert [format_word(w) for w in seen] == visits


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1111111110", (1, 1, 2)),
        ("0" * 15 + "1" * 15, (2, 1, 3)),
        ("1001110", (0, 1, 1)),
    ],
)
def test_orbit_when_distinct_tallies_spell_one_word(text, expected):
    # orbit steps tallies, and in base 2 the tallies (1, 9) and (3, 4) both
    # spell 1001110, so the words can repeat a step before the tallies do;
    # the first case repeats at the first image, the second one step later,
    # and the third starts on the fixed word
    r = orbit(parse_word(text, 2), 2)
    assert (r.transient, r.period, r.steps_taken) == expected
    assert [format_word(w) for w in r.cycle] == ["1001110"]


def test_orbit_step_guard_matches_reference():
    # about 300 seeded starts over bases 2..36, a third of them 200-2000
    # letters long; under every step guard up to one past the repeat, orbit
    # gives the reference's answer and raises exactly where the reference does
    rng = random.Random(1117)
    for i in range(300):
        base = 2 + i % 35
        length = rng.randint(200, 2000) if i % 3 == 0 else rng.randint(1, 40)
        word = tuple(rng.randrange(base) for _ in range(length))
        text = format_word(word)
        steps = orbit(word, base).steps_taken
        for max_steps in range(1, steps + 2):
            if steps > max_steps:
                with pytest.raises(OrbitLimitExceeded, match=f"no repeat within {max_steps} steps"):
                    orbit(word, base, max_steps)
                with pytest.raises(AssertionError):
                    naive_orbit(text, base, max_steps)
                continue
            r = orbit(word, base, max_steps)
            transient, period, cycle = naive_orbit(text, base, max_steps)
            assert (r.transient, r.period, r.steps_taken) == (transient, period, steps), (base, text)
            assert [format_word(w) for w in r.cycle] == cycle, (base, text)


def test_orbit_start_recorded():
    w = parse_word("10", 2)
    assert orbit(w, 2).start == w


def test_orbit_max_steps():
    w = parse_word("10", 2)
    assert orbit(w, 2, max_steps=9).period == 1
    with pytest.raises(OrbitLimitExceeded):
        orbit(w, 2, max_steps=8)
    with pytest.raises(OrbitLimitExceeded):
        orbit(w, 2, max_steps=1)


def test_step_and_orbit_read_a_one_shot_iterable_once():
    assert step((x for x in (1, 1, 1)), 2) == (1, 1, 1)
    with pytest.raises(ValueError, match="position 0"):
        step(iter([5]), 2)
    with pytest.raises(ValueError, match="position 0"):
        orbit(iter([5]), 2)
    assert orbit(iter((1, 0)), 2) == orbit((1, 0), 2)


def test_orbit_rejects_bad_input():
    with pytest.raises(ValueError):
        orbit((), 2)
    with pytest.raises(ValueError):
        orbit((2,), 2)
    with pytest.raises(ValueError):
        orbit((1,), 2, max_steps=0)


@pytest.mark.parametrize("base,bound,total", BOUND_TABLE)
def test_length_bound_table(base, bound, total):
    info = length_bound(base)
    assert info.base == base
    assert info.length_bound == bound
    assert info.words_up_to_bound == total


@pytest.mark.parametrize("base", range(2, 13))
def test_words_up_to_bound_is_geometric_sum(base):
    info = length_bound(base)
    assert info.words_up_to_bound == sum(base**i for i in range(1, info.length_bound + 1))


def test_length_bound_formula():
    # ceil(2k^2 / (k-1)) without floats
    for k in range(2, 40):
        num = 2 * k * k
        assert (num + k - 2) // (k - 1) == -(-num // (k - 1))


def test_length_bound_rejects_bad_base():
    with pytest.raises(ValueError):
        length_bound(1)
    with pytest.raises(ValueError):
        length_bound(37)


@settings(max_examples=100, deadline=None)
@given(bases_and_words(max_base=6, max_len=300))
def test_long_words_shrink(kw):
    # strictly above 3k^2/(k-1) the image is strictly shorter
    base, word = kw
    threshold = (3 * base * base) // (base - 1) + 1
    if len(word) > threshold:
        assert len(step(word, base)) < len(word)


@settings(max_examples=60, deadline=None)
@given(bases_and_words(max_base=6, max_len=200))
def test_orbit_lands_within_length_bound(kw):
    base, word = kw
    r = orbit(word, base)
    bound = length_bound(base).length_bound
    assert all(len(w) <= bound for w in r.cycle)
