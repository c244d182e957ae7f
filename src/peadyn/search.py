"""Exhaustive fixed point and cycle enumeration on count multisets.

The step map reads a word w only through its tally. Let w have r letters
present, with the multiset M of their counts, whose base-k numerals have
digit support F. step(w) holds each of the r letters once as a block letter
plus the digits of the numerals, so if the letters of w hold F, the sorted
counts of step(w) are

    h(M) = (1,) * (r - |F|) + sorted(digit tally + 1 over F),

which depend on M alone. That is ``_count_image``; if |F| > r no such w
exists, and h sends M to the sink (), which maps to itself. A letter of a
word is a block letter of its image, so the letter set is constant on a
cycle, and the image holds the digits of the word's numerals: every fixed
point and cycle word holds its own digits, so its counts follow h.

Let an h-cycle M_0 -> M_1 -> ... -> M_0 have digit supports F_i with union
U. A word cycle over it has one letter set S, which holds every F_i and so
U, and S fixes the tally after M_i: digit tally + 1 on U, 1 on the r - |U|
letters of S outside U. Conversely every r-letter S that holds U gives
tallies that step into each other, as a tally steps by its counts and its
letters alone, and h(M_i) = M_i+1. So the word cycles over an h-cycle are
exactly the C(k - |U|, r - |U|) choices of r - |U| letters outside U, none
when |U| > r: a family of forced tallies plus r - |U| interchangeable free
letters of count 1. Counting needs the families only; listing expands them
after the budget check, so a search over its budget spells no word.

Cycle search walks few states, by two facts. Fact 1: h keeps r, the number
of counts, unless it sends M to the sink, so the walk takes one r at a time
and drops each slice's memo. Fact 2: every state of an h-cycle is an image,
(1,) * (r - |core|) + core with core counts >= 2 whose excess D = sum(c - 1)
is the number of digits of the previous state's r numerals, and that
previous state is in the cycle too. Three cuts follow:

- Digit cap. A count is at most 1 + the digits of the previous state's
  r <= k numerals, so if the largest count of a cycle has d digits, then
  k^(d - 1) <= 1 + k * d. That caps d at dg, the digits of the length cap
  (4 at base 2, 3 at base 3, 2 from base 4 up), or of the length limit L
  if it is below the cap. So r <= D <= most = min(L - r, dg * r).
- Second image, to its fixed point. Say hi bounds the excess of every
  state of the cycle, so of the previous state P of each state M. A count
  with d digits has c - 1 >= k^(d - 1) - 1 >= (d - 1)(k - 1), so the r
  numerals of P have at most r + hi // (k - 1) digits, and D(M) <=
  min(hi, r + hi // (k - 1)) bounds every state too. The walk repeats this
  step from hi = most until it changes nothing. From base 4 up, where
  dg * r <= 2k < 3(k - 1), one step leaves D <= r + 2, and from base 5 up,
  where k + 2 < 2(k - 1), the next leaves D <= r + 1, under any limit.
- Core width. The core of M = h(P) has one count per letter of the digit
  support of P's numerals. Say P has m counts of two or more digits, each
  c >= k, so c - 1 >= k - 1, and its counts of one digit take j distinct
  values, whose c - 1 are distinct and >= 0, so they add at least
  0 + 1 + ... + (j - 1). Then m(k - 1) + j(j - 1)/2 <= D(P) <= hi, and the
  support has at most j + dg * m letters: one per distinct one-digit count,
  at most dg per longer numeral. So no core is wider than
  width = min(r, max over m <= hi // (k - 1) of J(hi - m(k - 1)) + dg * m),
  J(e) the largest j with j(j - 1)/2 <= e. At base 36 that is 9 counts
  for r = 36, and 4 for r = 9.

So a slice walks one state per partition of each such D into at most
width parts, through ``dynamics._walk``, the walker of ``orbit`` and of
the brute-force classifier, on one dict per slice. The walk is bounded by
the base alone, at most 63,394 states (base 36, under any limit; 265,934
with one step of the second image and no width cut), so the cycle budget
counts only the words listed.

Fixed points are the multisets with h(M) = M. Split M into its core, the
counts >= 2, and m1 counts of 1. A fixed point renders its own description,
so its length is both sum(c) and sum(len(c) + 1) over its blocks, len(c) the
number of digits of c; a count-1 block adds -1 to sum(c - len(c) - 1), so
the count identity forces

    m1 = sum(c - len(c) - 1) over the core,

and each core gives one candidate (1,) * m1 + core. The cores are walked as
nondecreasing tuples, with two cuts:

- Each count c adds 2c - len(c) - 1 >= 1 to the word length sum(core) + m1,
  so the walk stops at the length limit.
- The core size is |F| <= k. Outside base 2, where count 2 is spelled "10"
  and lowers m1 by 1, every count adds c - len(c) - 1 >= 0 to m1, so once
  the core size plus m1 passes k no longer core comes back under it. This
  cut alone keeps the walk finite with no length limit: c - len(c) - 1 <= k
  caps every count at about k + 3.

A third cut spares h itself. Let F be the digit support of the core's
numerals. The numerals of M have support F plus the letter 1 if m1 > 0, h
gives each letter of that support a count >= 2 and every other letter 1, so
h(M) = M only if that support has exactly len(core) letters. The walk
carries F down as an int with one bit per letter, each count ORing in the
bits of its digits, and yields only the candidates that pass;
``_fixed_point_families`` applies h to them.

A fourth cut, the m1 cut, comes from the largest count. Write the core as
c_1 <= ... <= c_s and e(c) = c - len(c) - 1, so m1 = sum(e(c_i)). Then the
counts before the largest add at most its digits to m1:

    sum(e(c_i) for i < s) <= len(c_s).

If m1 > 0, the m1 counts of 1 are spelled "1", so the letter 1 is in the
support and its image count, at least m1 + 1, is a core count: c_s >= m1 + 1,
which rearranges to the bound. If m1 = 0, the left side is -e(c_s) =
len(c_s) + 1 - c_s < len(c_s), as c_s >= 2. The walk uses it twice. It
yields a core ending in c only if the m1 of the counts before c is at most
len(c). And it grows no longer core from one whose m1 passes the digits of
the length limit, which no count has more of: a longer core holds all of
this one before its largest count, and the counts it adds before that one
lower m1 only if they are count 2 of base 2. So the walk still grows a core
whose last count lowered m1, and past a count >= 3 no count does. This use
needs the limit's digits, so the core-size cut is still what keeps the walk
finite with no limit. At the caps of bases 2..36 the walk grows 26,040
cores in 2,509 calls and yields 1,235 of them to h; without the m1 cut
it grew 517,905 cores and called h 52,922 times.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations
from math import comb
from operator import add
from typing import NamedTuple

from .core import (
    Tally,
    Word,
    _digit_tally,
    _numeral_digits,
    _spell,
    _tally_image,
    check_base,
)
from .dynamics import DEFAULT_MAX_STEPS, State, _walk, length_bound

# The words the searches list (fixed points, or the words of the cycles), or
# the letter tallies the brute-force classifier covers. The searches list fixed
# points and cycles up to base 23 (about 165 MB and 205 MB) and refuse base 24
# within 0.05 s, before a word is spelled. The classifier reaches the length
# cap of every base up to 7 (346,103 tallies, 0.03 s, 16 MB on a 2-vCPU Xeon)
# and refuses base 8 at its cap (2,220,074). It walks only the tallies' first
# images, so base 2 to length 1412 (998,990 tallies) takes 0.01 s, in 15 MB.
DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """The requested search is larger than its budget.

    The fixed point and cycle searches count the words they would list; the
    brute-force classifier counts the letter tallies it would cover.
    """


class _CycleRecordFields(NamedTuple):
    base: int
    period: int
    words: tuple[Word, ...]


class CycleRecord(_CycleRecordFields):
    """A period-p cycle, rotated so the smallest word comes first.

    Words compare by letter sequence, then length (plain tuple order), which
    makes the rotation canonical: two discoveries of the same cycle always
    produce equal records.
    """

    __slots__ = ()

    def __new__(cls, base: int, period: int, words: tuple[Word, ...]) -> CycleRecord:
        check_base(base)
        if period < 1 or period != len(words):
            raise ValueError("period must match the number of words")
        if len(set(words)) != period:
            raise ValueError("cycle words must be distinct")
        if min(words) != words[0]:
            raise ValueError("cycle must start at its smallest word")
        return super().__new__(cls, base, period, words)

    @classmethod
    def _make(cls, iterable: Iterable) -> CycleRecord:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


class ClassificationReport(NamedTuple):
    """Everything the brute-force classifier found: fixed points plus period >= 2 cycles."""

    base: int
    fixed_points: tuple[Word, ...]
    cycles: tuple[CycleRecord, ...]


def word_sort_key(word: Word) -> tuple[int, Word]:
    """Shortest first, then lexicographic; the output order everywhere."""
    return (len(word), word)


def canonical_cycle(words: tuple[Word, ...], base: int) -> CycleRecord:
    """Build a CycleRecord rotated so the smallest word leads."""
    pivot = words.index(min(words))
    return CycleRecord(base=base, period=len(words), words=words[pivot:] + words[:pivot])


def _cycle_record(tallies: Iterable[Sequence[int]], base: int) -> CycleRecord:
    """The record of the word cycle that spells ``tallies`` in order."""
    return canonical_cycle(tuple(_spell(t, base) for t in tallies), base)


def _fixed_point_walk(
    base: int, limit: int, room: int, low: int = 2, core: tuple[int, ...] = (),
    length: int = 0, ones: int = 0, support: int = 0,
) -> Iterator[tuple[int, ...]]:
    """Yield the candidate (1,) * m1 + core for each core that extends ``core`` by counts >= low.

    ``length`` is the sum of ``core``, ``ones`` its m1 so far and ``support``
    its numerals' digit support F, one bit per letter; ``room`` is the digits
    of the limit. The cores come as nondecreasing tuples, and only those that
    the cuts of the module docstring leave standing are yielded.
    """
    size = len(core) + 1  # of each grown core
    if size > base:
        return
    for c in range(low, limit + 1):
        numeral = _numeral_digits(c, base)
        extra = c - len(numeral) - 1  # what c adds to m1
        m1 = ones + extra
        if length + c + m1 > limit or (extra >= 0 and size + m1 > base):
            return
        bits = support
        for d in numeral:
            bits |= 1 << d
        grown = core + (c,)
        # the support cut, then the m1 cut: the counts before the largest add at most its digits to m1
        if m1 >= 0 and (bits | (m1 > 0) << 1).bit_count() == size and ones <= len(numeral):
            yield (1,) * m1 + grown
        if m1 <= room or extra < 0:  # else no larger count ends a fixed point
            yield from _fixed_point_walk(base, limit, room, c, grown, length + c, m1, bits)


def _fixed_point_families(base: int, length_limit: int | None) -> list[tuple[tuple[Tally, ...], int]]:
    """Every family of fixed points of length <= the limit, default the eventual cap."""
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 1:
        raise ValueError(f"length limit must be positive, got {limit}")
    walk = _fixed_point_walk(base, limit, len(_numeral_digits(limit, base)))  # no count has more digits
    return [_family((counts,), base) for counts in walk if _count_image(counts, base) == counts]


def _family(cycle: tuple[tuple[int, ...], ...], base: int) -> tuple[tuple[Tally, ...], int]:
    """(forced, ones) for a cycle of count multisets under ``_count_image``.

    ``forced`` is the tally after each multiset, digits + 1 on the cycle-wide
    digit support U and 0 elsewhere; ``ones`` = r - |U| free letters of count 1.
    """
    tallies = [_digit_tally(counts, base) for counts in cycle]
    support = [b for b, column in enumerate(zip(*tallies)) if any(column)]
    for tally in tallies:
        for b in support:
            tally[b] += 1
    return tuple(map(tuple, tallies)), len(cycle[0]) - len(support)


def _words(families: Iterable[tuple[tuple[Tally, ...], int]]) -> int:
    """How many words the families hold: a member per choice of free letters, a word per forced tally."""
    return sum(len(forced) * comb(forced[0].count(0), ones) for forced, ones in families)


def _family_members(forced: tuple[Tally, ...], ones: int) -> Iterator[list[list[int]]]:
    """Yield the tallies of each member: ``forced`` plus count 1 on ``ones`` letters it leaves at 0."""
    for chosen in combinations([b for b, c in enumerate(forced[0]) if not c], ones):
        member = list(map(list, forced))
        for tally in member:
            for b in chosen:
                tally[b] = 1
        yield member


def count_fixed_points(base: int, length_limit: int | None = None) -> int:
    """How many nonempty words of length <= the limit describe themselves.

    Sums the family sizes without listing a word, so it takes no budget and
    reaches base 36, whose 4,294,967,926 fixed points no list could hold.
    """
    return _words(_fixed_point_families(base, length_limit))


def enumerate_fixed_points(base: int, length_limit: int | None = None, *, budget: int | None = None) -> set[Word]:
    """Every nonempty word that describes itself, as a set of words.

    Complete for the default length limit (the eventual orbit length cap):
    any fixed point recurs forever, so its length fits under the cap. The
    words come from families of fixed points that share their counts of 2 or
    more (see the module docstring). The budget caps the number of words
    listed, default ``DEFAULT_BUDGET``: the family sizes are summed
    first, and the search raises ``BudgetExceeded`` before it renders any
    word if they exceed it.
    """
    families = _fixed_point_families(base, length_limit)
    allowed = DEFAULT_BUDGET if budget is None else budget
    needed = _words(families)
    if needed > allowed:
        raise BudgetExceeded(f"fixed point search in base {base} needs {needed} words, budget is {allowed}")
    return {_spell(member[0], base) for family in families for member in _family_members(*family)}


def _count_image(counts: tuple[int, ...], base: int) -> tuple[int, ...]:
    """h, the sorted counts of step(w) for a word w with these counts that holds its digits."""
    forced = [t + 1 for t in _digit_tally(counts, base) if t]
    ones = len(counts) - len(forced)
    if ones < 0:
        return ()
    return (1,) * ones + tuple(sorted(forced))


def _image_states(
    r: int, most: int, least: int, width: int, low: int = 2, core: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield (1,) * (r - |core|) + core for each extension of ``core`` whose excess is in least..most.

    The extension appends nondecreasing counts >= low, up to ``width`` <= r
    counts in all, with ``least``/``most`` bounding the excess still to add,
    so each partition of an excess into at most ``width`` parts, each part
    c - 1, comes once.
    """
    if least <= 0:
        yield (1,) * (r - len(core)) + core
    if len(core) < width:
        for c in range(low, most + 2):
            yield from _image_states(r, most - c + 1, least - c + 1, width, c, core + (c,))


def _cycle_families(base: int, limit: int) -> Iterator[list[tuple[tuple[Tally, ...], int]]]:
    """Yield the families of the h-cycles of period >= 2 that fit the limit, one list per r.

    The slice walk and its cuts are in the module docstring; a family with
    no members, whose digit support U has more than r letters, is not kept.
    """
    digits = len(_numeral_digits(min(limit, length_bound(base).length_bound), base))
    for r in range(1, min(base, limit) + 1):
        most = min(limit - r, digits * r)  # the excess D of any state of a cycle that fits
        while most > r + most // (base - 1):  # the second image, to its fixed point
            most = r + most // (base - 1)
        width = 0  # the most core counts of an image of a state with excess <= most
        for m in range(most // (base - 1) + 1):
            j, left = 0, most - m * (base - 1)
            while (j + 1) * j // 2 <= left:
                j += 1
            width = max(width, j + digits * m)
        seen: dict[State, State] = {}
        families = []
        for counts in _image_states(r, most, r, min(r, width)):
            cycle = _walk(counts, _count_image, base, seen, DEFAULT_MAX_STEPS)
            if len(cycle) >= 2 and all(sum(state) <= limit for state in cycle):
                forced, ones = _family(cycle, base)
                if ones >= 0:  # else |U| > r and the family is empty
                    families.append((forced, ones))
        yield families


def enumerate_cycles(
    base: int,
    length_limit: int | None = None,
    *,
    budget: int | None = None,
) -> set[CycleRecord]:
    """Every cycle of period >= 2 whose words all have length <= the limit.

    Complete for the default length limit (the eventual orbit length cap).
    Each cycle of period >= 2 of ``_count_image`` that fits is expanded into
    its family of word cycles (``_cycle_families``). The budget caps the
    words listed, default ``DEFAULT_BUDGET``: each slice adds its families'
    words, summed from the family sizes, and the first slice that passes the
    budget raises ``BudgetExceeded`` before any word is spelled.
    """
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 2:
        raise ValueError(f"cycle search needs a length limit of at least 2, got {limit}")
    allowed = DEFAULT_BUDGET if budget is None else budget
    families: list[tuple[tuple[Tally, ...], int]] = []
    for slice_families in _cycle_families(base, limit):
        families += slice_families
        needed = _words(families)
        if needed > allowed:
            raise BudgetExceeded(f"cycle search in base {base} needs at least {needed} words, budget is {allowed}")
    return {_cycle_record(member, base) for family in families for member in _family_members(*family)}


def brute_force_classify(
    base: int,
    max_len: int,
    *,
    budget: int | None = None,
) -> ClassificationReport:
    """Classify every nonempty word up to max_len by walking the first images of its letter tallies.

    The completeness oracle for the description searches. It assumes only
    that step reads a word through its tally, and that the tally of the
    image is 1 on the set S of letters present plus the digit tally of their
    count multiset M (``_tally_image``). So the C(max_len + k, k) - 1 tallies
    of 1..max_len letters, which the budget caps before anything is
    enumerated, have far fewer first images: 82 for the 454 tallies of
    (3, 12), 6,461 for the 346,103 of the base-7 cap. For each r the sweep
    builds the distinct digit tallies of the r-count multisets with sum <=
    max_len, one count at a time, each kept with the least sum that gives
    it; it adds 1 on each r-letter set S and walks the result to its
    terminal cycle through ``dynamics._walk`` under ``_tally_image``, on
    one dict for the whole sweep, with the step guard at
    ``DEFAULT_MAX_STEPS``. Each (S, digit tally) pair comes from a distinct
    tally, so it walks no more than the budget counts.

    The report is that of a sweep over every tally: a fixed word is the
    image of its own tally, and each word of a cycle is the image of the
    word before it. The walker returns each tally cycle once, from the walk
    that closes it, into the registry. No word is built until the end,
    where each registered cycle is spelled once: a tally cycle spells a
    word cycle of the same period, and distinct tally cycles spell
    distinct word cycles. A fixed word enters the registry as a cycle of
    period 1; the fixed points are those of length <= max_len, and the
    cycles are the registered ones of period >= 2.
    """
    check_base(base)
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    allowed = DEFAULT_BUDGET if budget is None else budget
    needed = comb(max_len + base, base) - 1
    if needed > allowed:
        raise BudgetExceeded(f"brute-force classification in base {base} needs {needed} tallies, budget is {allowed}")
    # the least count with each digit tally, in increasing order: a multiset
    # that swaps a count for it keeps its digit tally and lowers its sum
    least: dict[Tally, int] = {}
    for c in range(1, max_len + 1):
        least.setdefault(tuple(_digit_tally((c,), base)), c)
    seen: dict[Tally, Tally] = {}
    registry: list[tuple[Tally, ...]] = []
    room = {(0,) * base: max_len}  # digit tally of r counts -> max_len less the least sum that gives it
    for r in range(1, min(base, max_len) + 1):
        grown: dict[Tally, int] = {}
        for digits, left in room.items():
            for numeral, c in least.items():
                if c > left:
                    break
                key = tuple(map(add, digits, numeral))
                if grown.get(key, -1) < left - c:
                    grown[key] = left - c
        room = grown
        for letters in combinations(range(base), r):
            ones = [0] * base
            for b in letters:
                ones[b] = 1
            for digits in room:
                cycle = _walk(tuple(map(add, digits, ones)), _tally_image, base, seen, DEFAULT_MAX_STEPS)
                if cycle:
                    registry.append(cycle)
    # a fixed word's length is the sum of its tally
    fixed = [_spell(cycle[0], base) for cycle in registry if len(cycle) == 1 and sum(cycle[0]) <= max_len]
    cycles = sorted(_cycle_record(cycle, base) for cycle in registry if len(cycle) >= 2)
    return ClassificationReport(
        base=base,
        fixed_points=tuple(sorted(fixed, key=word_sort_key)),
        cycles=tuple(cycles),
    )
