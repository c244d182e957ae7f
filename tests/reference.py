"""Reference implementations the tests check the package against.

Nothing here imports peadyn: every word is text, and the only step map is
``naive_step``, which uses deliberately different machinery: Counter over
characters, string concatenation, recursion-free numeral building. Slow and
obviously correct. ``terminal_cycle`` is the one walker that every
word-level check below uses. ``check_word_by_letter`` is the
letter-by-letter word check the package's set test must agree with.

``description_space_fixed_points`` is the fixed point search the package used
before it listed fixed points by family; it tallies the digits of the count
numerals with ``Counter`` over ``to_base``, not with the package's loop.
``word_by_word_classify`` is the word-by-word classifier as it was before it
shared one image per tally: it steps every word. ``verify_base2_convergence``
checks the paper's base-2 claim word by word. ``closes_under_step`` and the
paper's two necessary inequalities, ``fixed_point_inequality_holds`` and
``cycle_inequality_holds``, check found words as text.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement, product

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


def closes_under_step(texts, base):
    """Every word steps to the next one and the last steps back to the first."""
    return all(naive_step(text, base) == texts[(i + 1) % len(texts)] for i, text in enumerate(texts))


def fixed_point_inequality_holds(text, base):
    """Necessary, not sufficient, condition on a fixed point.

    With n_j one less than the digit count of the numeral of block j's count,
    a word that spells its own r blocks must satisfy

        sum(n_j) >= sum(k^n_j) - 2r

    since every count is at least k^n_j yet all counts together only measure
    the word's own length, which is sum(n_j) + 2r.
    """
    return _slack(text, base) >= 0


def cycle_inequality_holds(texts, base):
    """Cycle analogue of the fixed point inequality, summed over all words.

    Block counts may differ from word to word, so each word brings its own
    2r: the margins of the words sum to at least 0.
    """
    return sum(_slack(text, base) for text in texts) >= 0


def _slack(text, base):
    """sum(n_j) - sum(k^n_j) + 2r over the letter counts of ``text``, the margin of the inequality."""
    counts = Counter(text).values()
    slack = 2 * len(counts)
    for c in counts:
        n = len(to_base(c, base)) - 1
        slack += n - base**n
    return slack


def rotated(cycle):
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def terminal_cycle(word, base, terminal):
    """The cycle the orbit of ``word`` ends in, as a tuple turned to start at its smallest word.

    Steps with ``naive_step`` until a word repeats or reaches a word an
    earlier walk resolved; ``terminal`` maps every word walked so far to
    its cycle.
    """
    seen = {}  # each word of this walk -> its position, in visit order
    while word not in seen and word not in terminal:
        seen[word] = len(seen)
        word = naive_step(word, base)
    cycle = terminal[word] if word in terminal else rotated(tuple(seen)[seen[word]:])
    for walked in seen:
        terminal[walked] = cycle
    return cycle


def image_words(base, limit):
    """Every image of a word of length <= limit: r letters, falling, whose counts are
    r positive numbers summing to at most limit, the gaps between r cut points in 1..limit."""
    for r in range(1, min(base, limit) + 1):
        for letters in combinations(ALPHABET[base - 1::-1], r):
            for cuts in combinations(range(1, limit + 1), r):
                counts = (b - a for a, b in zip((0,) + cuts, cuts))
                yield "".join(to_base(c, base) + letter for c, letter in zip(counts, letters))


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
            # a fixed point spells its own description, so its length is
            # both sum(counts) and the length of the numerals plus one letter
            # each; a count of 1 adds 1 to the first and 2 to the second, so
            # the identity pins the number of counts of 1
            total = sum(core)
            if total > limit:
                continue
            ones = total - sum(len(to_base(c, base)) + 1 for c in core)
            counts = (1,) * ones + core
            r = len(counts)
            if ones < 0 or r > base or sum(counts) > limit:
                continue
            # the spelled word holds each block letter once plus the digits
            # of the count numerals, so the digits are tallied once per multiset
            digits = Counter(d for c in counts for d in to_base(c, base))
            for letters in combinations(ALPHABET[base - 1::-1], r):
                # the tally forces each letter's count; the identity pins
                # len(word) == sum(counts), so matching the multiset leaves no
                # room for stray letters
                own = [digits[b] + 1 for b in letters]
                if sorted(own) == list(counts):
                    found.add("".join(to_base(c, base) + b for c, b in zip(own, letters)))
    return found


def word_by_word_classify(base, max_len):
    """Fixed points and cycles of every word up to max_len, each word stepped on its own.

    Returns the fixed-point texts, shortest first and then in order, as
    ``product`` lists the words, and the terminal cycles of period >= 2 that
    the words' images walk to, as text tuples sorted by period and then by
    first word.
    """
    fixed = []
    terminal = {}
    cycles = set()
    for n in range(1, max_len + 1):
        for letters in product(ALPHABET[:base], repeat=n):
            word = "".join(letters)
            image = naive_step(word, base)
            if image == word:
                fixed.append(word)
            cycles.add(terminal_cycle(image, base, terminal))
    return tuple(fixed), tuple(sorted((c for c in cycles if len(c) >= 2), key=lambda c: (len(c), c[0])))


def verify_base2_convergence(max_len):
    """Check that every nonempty binary word up to max_len falls into 1001110.

    The lone exception is 111, which is a fixed point of its own. Returns
    False as soon as any word lands anywhere else.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    terminal = {}
    for n in range(1, max_len + 1):
        for letters in product("01", repeat=n):
            word = "".join(letters)
            if terminal_cycle(word, 2, terminal) != ("111" if word == "111" else "1001110",):
                return False
    return True
