"""Words over the alphabet {0..k-1}, base-k numerals, and the counting step map.

A word is a plain tuple of integer letters; the base travels alongside as an
explicit argument. Words are letter sequences, never numbers: leading zeros
are significant, so (0, 1, 1, 0) and (1, 1, 0) are different states.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

MIN_BASE = 2
MAX_BASE = 36  # limit of the 0-9a-z text rendering

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {ch: v for v, ch in enumerate(_DIGITS)}
_LETTERS = {base: frozenset(range(base)) for base in range(MIN_BASE, MAX_BASE + 1)}

Word = tuple[int, ...]
Tally = tuple[int, ...]  # letter counts indexed by letter, length base


def check_base(base: int) -> None:
    if not isinstance(base, int) or not MIN_BASE <= base <= MAX_BASE:
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {base}")


def check_word(word: Word, base: int) -> None:
    # negative letters would silently index from the end of tally lists,
    # so the range check here is load bearing.
    # The set test runs in C and accepts a word exactly when every letter
    # equals an int in range(base); each such letter also passes the loop's
    # 0 <= letter < base, so it accepts nothing the loop would reject. A word
    # it does not accept, or cannot test (an unhashable letter, a base outside
    # the table), goes through the loop, which alone decides whether to reject
    # and names the first bad position.
    try:
        if _LETTERS[base].issuperset(word):
            return
    except (KeyError, TypeError):
        pass
    for i, letter in enumerate(word):
        if not 0 <= letter < base:
            raise ValueError(f"invalid letter {letter!r} at position {i} for base {base}")


def parse_word(text: str, base: int) -> Word:
    """Parse a word from text, digits 0-9 then a-z for bases above 10.

    Uppercase letters are accepted and normalized. Empty text is rejected;
    the empty word exists as a value but has no text form worth accepting.
    """
    check_base(base)
    if not text:
        raise ValueError("empty word")
    letters = []
    for i, ch in enumerate(text):
        value = _DIGIT_VALUE.get(ch.lower())
        if value is None or value >= base:
            raise ValueError(f"invalid letter {ch!r} at position {i} for base {base}")
        letters.append(value)
    return tuple(letters)


def format_word(word: Word) -> str:
    return "".join(_DIGITS[letter] for letter in word)


@lru_cache(maxsize=None)
def _numeral_digits(n: int, base: int) -> tuple[int, ...]:
    digits = []
    while n:
        n, r = divmod(n, base)
        digits.append(r)
    digits.reverse()
    return tuple(digits)


def _tally(word: Iterable[int], base: int) -> list[int]:
    """How many times each letter occurs in ``word``, indexed by letter."""
    tally = [0] * base
    for letter in word:
        tally[letter] += 1
    return tally


def _digit_tally(counts: tuple[int, ...], base: int) -> list[int]:
    """How often each letter occurs among the base-k numerals of ``counts``."""
    tally = [0] * base
    for c in counts:
        if c < base:  # a one-digit numeral, the common case
            tally[c] += 1
        else:
            for d in _numeral_digits(c, base):
                tally[d] += 1
    return tally


def _spell(tally: Sequence[int], base: int) -> Word:
    """The word that says ``tally``, the one place a count is written as a numeral.

    For each letter present, largest first: its count as a base-k numeral,
    then the letter itself. A count below the base is its own one-digit
    numeral, so only counts of k or more go through the numeral cache.
    """
    out: list[int] = []
    b = base
    for c in reversed(tally):
        b -= 1
        if c:
            if c < base:
                out.append(c)
            else:
                out.extend(_numeral_digits(c, base))
            out.append(b)
    return tuple(out)


def _tally_image(tally: Sequence[int], base: int) -> Tally:
    """The tally of ``_spell(tally)``, found without spelling it.

    Each letter present is its own block letter once, and each count adds
    the letters of its numeral: one digit below the base, else the digits
    from the numeral cache. So one step of the map costs O(k) on tallies,
    whatever the length of the word.
    """
    out = [1 if c else 0 for c in tally]
    for c in filter(None, tally):
        if c < base:
            out[c] += 1
        else:
            for d in _numeral_digits(c, base):
                out[d] += 1
    return tuple(out)


def step(word: Word, base: int) -> Word:
    """Apply the counting map once: say how many of each letter, largest first.

    Each letter present gives its count as a base-k numeral, then the letter;
    the empty word maps to itself.
    """
    word = tuple(word)  # a one-shot iterable is read once, here; a tuple is not copied
    check_base(base)
    check_word(word, base)
    return _spell(_tally(word, base), base)
