import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peadyn import (
    brute_force_classify,
    count_fixed_points,
    enumerate_cycles,
    enumerate_fixed_points,
    format_word,
    length_bound,
    orbit,
    parse_word,
    step,
)
from peadyn.core import _digit_tally, _spell, _tally, _tally_image, check_word
from peadyn.golden import EXPECTED_FIXED_POINTS
from reference import ALPHABET, check_word_by_letter, naive_step, to_base

STEP_VECTORS = [
    ("123", 10, "131211"),
    ("131211", 10, "131241"),
    ("131241", 10, "14131231"),
    ("14233221", 10, "14233221"),
    ("9", 10, "19"),
    ("0", 2, "10"),
    ("10", 2, "1110"),
    ("1110", 2, "11110"),
    ("111", 2, "111"),
    ("1001110", 2, "1001110"),
    ("22", 3, "22"),
    ("z", 36, "1z"),
    ("0" * 36, 36, "100"),
    ("1" * 1297, 36, "1011"),
]


def bases_and_words(min_base=2, max_base=6, min_len=1, max_len=60):
    return st.integers(min_base, max_base).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=min_len, max_size=max_len).map(tuple),
        )
    )


@pytest.mark.parametrize("text,base,expected", STEP_VECTORS)
def test_step_vectors(text, base, expected):
    assert format_word(step(parse_word(text, base), base)) == expected


@pytest.mark.parametrize(
    "base,text",
    [(k, t) for k, col in EXPECTED_FIXED_POINTS.items() for t in col],
)
def test_expected_table_words_are_fixed(base, text):
    word = parse_word(text, base)
    assert step(word, base) == word


def test_step_empty_word_is_identity():
    assert step((), 2) == ()
    assert step((), 36) == ()


def test_step_rejects_bad_input():
    with pytest.raises(ValueError):
        step((0, 1), 1)
    with pytest.raises(ValueError):
        step((0, 1), 37)
    with pytest.raises(ValueError, match="position 1"):
        step((0, 3), 3)
    with pytest.raises(ValueError, match="position 0"):
        step((-1, 0), 3)


@pytest.mark.parametrize("base", [3.0, "3"])
def test_non_integer_base_is_rejected(base):
    for call in (
        length_bound,
        count_fixed_points,
        enumerate_fixed_points,
        enumerate_cycles,
        lambda k: brute_force_classify(k, 3),
        lambda k: step((1, 0), k),
        lambda k: orbit((1, 0), k),
    ):
        with pytest.raises(ValueError, match=r"base must be in \[2, 36\], got 3"):
            call(base)


def check_outcome(check, word, base):
    """None if ``check`` accepts the word, else the type and message it raises."""
    try:
        check(word, base)
    except Exception as e:  # the type is part of the outcome
        return type(e), str(e)
    return None


@settings(max_examples=300)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.one_of(st.integers(-2, k + 1), st.booleans()), max_size=40).map(tuple),
        )
    )
)
def test_check_word_matches_letter_loop(kw):
    base, word = kw
    assert check_outcome(check_word, word, base) == check_outcome(check_word_by_letter, word, base)


@settings(max_examples=300)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.one_of(
                    st.integers(0, k - 1),
                    st.integers(-3 * k, 3 * k),
                    st.integers(-2 * k, -k - 1),  # letters a check folded into the tally loop would index
                    st.booleans(),
                ),
                min_size=1,
                max_size=40,
            ).map(tuple),
        )
    )
)
def test_step_and_orbit_reject_what_the_letter_loop_rejects(kw):
    base, word = kw
    expected = check_outcome(check_word_by_letter, word, base)
    assert check_outcome(step, word, base) == expected
    assert check_outcome(orbit, word, base) == expected


@pytest.mark.parametrize(
    "word,base",
    [
        ((), 2),
        ((), 36),
        ((0, 1, 1), 2),
        ((True, False, 1), 2),
        ((0, 2, -1), 2),
        ((35, 36), 36),
        ((1.0, 0), 2),  # equal to an int in range, so accepted both ways
        ((0, 0.5), 2),  # passes the letter test, so neither check rejects it
        ((0, "1"), 2),  # not comparable with an int
        ((0, [1]), 2),  # unhashable
        ((0, 1), 1),  # base outside 2..36, checked letter by letter
        ((0, 1), 37),
    ],
)
def test_check_word_edge_letters_match_letter_loop(word, base):
    assert check_outcome(check_word, word, base) == check_outcome(check_word_by_letter, word, base)


def letter_counts(text, base):
    return [text.count(ALPHABET[b]) for b in range(base)]


@pytest.mark.parametrize("base", range(2, 37))
def test_spell_counts_at_the_base_boundary(base):
    # _spell and _digit_tally each write a count as a numeral; both must agree with to_base
    for c in sorted({1, base - 1, base, base + 1, base**2 - 1, base**2, base**2 + 1}):
        for letter in (0, base - 1):
            tally = [0] * base
            tally[letter] = c
            assert format_word(_spell(tally, base)) == to_base(c, base) + ALPHABET[letter], c
        assert _digit_tally((c,), base) == letter_counts(to_base(c, base), base), c
    # counts below, at and above the base side by side in one tally
    tally = [(1, base - 1, base, base + 1, base**2 + 1, 0)[b % 6] for b in range(base)]
    expected = "".join(
        to_base(tally[b], base) + ALPHABET[b] for b in range(base - 1, -1, -1) if tally[b]
    )
    assert format_word(_spell(tally, base)) == expected
    counts = tuple(c for c in tally if c)
    assert _digit_tally(counts, base) == letter_counts("".join(to_base(c, base) for c in counts), base)


@settings(max_examples=300)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k * k + 1), min_size=k, max_size=k))
    )
)
def test_spell_and_tally_image_match_the_referee(case):
    # orbit walks tuples and the searches pass lists, so both kernels take each
    base, counts = case
    expected = "".join(to_base(counts[b], base) + ALPHABET[b] for b in range(base - 1, -1, -1) if counts[b])
    for tally in (tuple(counts), list(counts)):
        assert format_word(_spell(tally, base)) == expected
        assert _tally_image(tally, base) == tuple(letter_counts(expected, base))


@settings(max_examples=300)
@given(
    st.integers(2, 36).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k * k + 1), min_size=k, max_size=k))
    )
)
def test_tally_image_is_the_tally_of_the_spelling(case):
    # counts up to k^2 + 1 reach numerals of one, two and three digits
    base, tally = case
    assert _tally_image(tally, base) == tuple(_tally(_spell(tally, base), base))


@settings(max_examples=300)
@given(bases_and_words(max_base=16, max_len=80))
def test_step_matches_reference(kw):
    base, word = kw
    assert format_word(step(word, base)) == naive_step(format_word(word), base)


@given(bases_and_words(max_base=8, max_len=400))
def test_growth_bound(kw):
    # |step(x)| <= k * (floor(log_k |x|) + 2); the digit count of |x| is the floor-log plus one
    base, word = kw
    assert len(step(word, base)) <= base * (len(to_base(len(word), base)) + 1)


def test_parse_format_roundtrip_examples():
    assert parse_word("1001110", 2) == (1, 0, 0, 1, 1, 1, 0)
    assert format_word((1, 0, 0, 1, 1, 1, 0)) == "1001110"
    assert parse_word("A9", 11) == (10, 9)
    assert format_word((10, 9)) == "a9"


@given(bases_and_words(max_base=36, max_len=50))
def test_parse_format_roundtrip(kw):
    base, word = kw
    assert parse_word(format_word(word), base) == word


def test_parse_word_errors_name_position():
    with pytest.raises(ValueError, match="'3' at position 2"):
        parse_word("123", 3)
    with pytest.raises(ValueError, match="'!' at position 1"):
        parse_word("1!0", 2)
    with pytest.raises(ValueError, match="empty"):
        parse_word("", 2)


def test_leading_zeros_are_significant():
    a = parse_word("0110", 2)
    b = parse_word("110", 2)
    assert a != b
    assert step(a, 2) != step(b, 2)
