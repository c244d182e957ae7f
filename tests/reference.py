"""Reference implementations the tests check the package against.

``naive_step`` and ``naive_orbit`` use deliberately different machinery:
Counter over characters, string concatenation, recursion-free numeral
building. Slow and obviously correct. ``check_word_by_letter`` is the
letter-by-letter word check the package's set test must agree with.

``description_space_fixed_points`` is the fixed point search the package used
before it listed fixed points by family; it tallies the digits of the count
numerals with ``Counter`` over ``to_base``, not with the package's loop.
``word_by_word_classify`` is the word-by-word classifier as it was before it
shared one image per tally: it steps every word. ``verify_base2_convergence``
checks the paper's base-2 claim word by word.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement, product

from peadyn.core import Block, Description, _step, digit_length, render
from peadyn.dynamics import DEFAULT_MAX_STEPS
from peadyn.search import (
    ClassificationReport,
    _resolve_terminal,
    canonical_cycle,
    cycle_sort_key,
    word_sort_key,
)

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"


def to_base(n: int, base: int) -> str:
    if n < 1:
        raise ValueError(n)
    text = ""
    while n:
        text = ALPHABET[n % base] + text
        n //= base
    return text


def check_word_by_letter(word, base):
    """Reject the first letter outside 0 <= letter < base, naming its position."""
    for i, letter in enumerate(word):
        if not 0 <= letter < base:
            raise ValueError(f"invalid letter {letter!r} at position {i} for base {base}")


def naive_step(word: str, base: int) -> str:
    counts = Counter(word)
    parts = []
    for ch in sorted(counts, key=ALPHABET.index, reverse=True):
        parts.append(to_base(counts[ch], base) + ch)
    return "".join(parts)


def naive_orbit(word: str, base: int, max_steps: int = 10000):
    """(transient, period, cycle words) by plain list scanning."""
    seen = [word]
    for _ in range(max_steps):
        word = naive_step(word, base)
        if word in seen:
            i = seen.index(word)
            return i, len(seen) - i, seen[i:]
        seen.append(word)
    raise AssertionError(f"no repeat within {max_steps} steps")


def description_space_fixed_points(base, limit):
    """Fixed points of length <= limit, from every count multiset and letter set.

    A candidate is a multiset of r block counts that passes the count
    identity, paired with a set of r letters; the digit tally of the count
    numerals forces each letter's count, and the candidate is kept when those
    counts are the multiset. The multisets come as their counts of 2 or more,
    each size s drawn with replacement from 2..limit - 2(s - 1), plus the
    counts of 1 the identity leaves room for.
    """
    found = set()
    for s in range(1, limit // 2 + 1):
        for core in combinations_with_replacement(range(2, limit - 2 * s + 3), s):
            # a fixed point renders its own description, so its length is
            # both sum(counts) and the length of the numerals plus one letter
            # each; a count of 1 adds 1 to the first and 2 to the second, so
            # the identity pins the number of counts of 1
            total = sum(core)
            if total > limit:
                continue
            ones = total - sum(digit_length(c, base) + 1 for c in core)
            counts = (1,) * ones + core
            r = len(counts)
            if ones < 0 or r > base or sum(counts) > limit:
                continue
            # the rendered word holds each block letter once plus the digits
            # of the count numerals, so the digits are tallied once per multiset
            digits = Counter(ALPHABET.index(d) for c in counts for d in to_base(c, base))
            for letters in combinations(range(base - 1, -1, -1), r):
                # the tally forces each letter's count; the identity pins
                # len(word) == sum(counts), so matching the multiset leaves no
                # room for stray letters
                own = [digits[b] + 1 for b in letters]
                if sorted(own) == list(counts):
                    found.add(render(Description(tuple(map(Block, own, letters)), base)))
    return found


def word_by_word_classify(base, max_len):
    """The ClassificationReport of every word up to max_len, each stepped on its own.

    Every word's image comes from ``_step``, and every image not yet in the
    shared memo is walked to its terminal cycle.
    """
    fixed = []
    memo = {}
    registry = []
    for n in range(1, max_len + 1):
        for word in product(range(base), repeat=n):
            image = _step(word, base)
            if image == word:
                fixed.append(word)
            if image not in memo:
                _resolve_terminal(image, _step, base, memo, registry, DEFAULT_MAX_STEPS)
    cycles = sorted(
        (canonical_cycle(words, base) for words in registry if len(words) >= 2), key=cycle_sort_key
    )
    return ClassificationReport(
        base=base,
        fixed_points=tuple(sorted(fixed, key=word_sort_key)),
        cycles=tuple(cycles),
        search_length_limit=max_len,
    )


def verify_base2_convergence(max_len, *, max_steps=DEFAULT_MAX_STEPS):
    """Check that every nonempty binary word up to max_len falls into 1001110.

    The lone exception is 111, which is a fixed point of its own. Returns
    False as soon as any word lands anywhere else.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    sink = (1, 0, 0, 1, 1, 1, 0)
    exception = (1, 1, 1)
    memo = {}
    registry = []
    for n in range(1, max_len + 1):
        for word in product((0, 1), repeat=n):
            cid = _resolve_terminal(word, _step, 2, memo, registry, max_steps)
            target = exception if word == exception else sink
            if registry[cid] != (target,):
                return False
    return True
