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
after the budget check, so a search over its budget spells no word. Cycle
search walks each count multiset of r <= k counts and sum <= the limit once
under h, through ``_resolve_terminal``, which also walks words for the
unpruned word-by-word classifier.

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
  alone keeps the walk finite with no length limit: c - len(c) - 1 <= k caps
  every count at about k + 3.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .core import Description, Word, _numeral_digits, _spell, _step, _tally, check_base, describe, digit_length
from .dynamics import DEFAULT_MAX_STEPS, OrbitLimitExceeded, length_bound

# Words for the word-by-word classifier, which steps about 300,000 a second:
# base 2 runs up to length 22 (16,777,214 words, about 30 s), not 23.
DEFAULT_BUDGET = 10**7
# States the searches hold: fixed points listed, or count multisets plus cycle
# words listed. It lists fixed points up to base 23 and cycles up to base 21
# (about 150 MB each).
DEFAULT_WORD_BUDGET = 10**6

Tally = tuple[int, ...]  # letter counts indexed by letter, length base
State = tuple[int, ...]  # a word or a count multiset, whichever _resolve_terminal walks


class BudgetExceeded(RuntimeError):
    """The requested search is larger than its budget.

    The fixed point search counts the words it would list; the cycle search
    counts the count multisets it walks plus the words it would list; the
    word-by-word classifier counts the words it would visit.
    """


@dataclass(frozen=True)
class CycleRecord:
    """A period-p cycle, rotated so the smallest word comes first.

    Words compare by letter sequence, then length (plain tuple order), which
    makes the rotation canonical: two discoveries of the same cycle always
    produce equal records.
    """

    base: int
    period: int
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        if self.period < 1 or self.period != len(self.words):
            raise ValueError("period must match the number of words")
        if len(set(self.words)) != self.period:
            raise ValueError("cycle words must be distinct")
        if min(self.words) != self.words[0]:
            raise ValueError("cycle must start at its smallest word")

    def closes_under_step(self) -> bool:
        return all(
            _step(self.words[i], self.base) == self.words[(i + 1) % self.period]
            for i in range(self.period)
        )


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the word-by-word classifier found: fixed points plus period >= 2 cycles."""

    base: int
    fixed_points: tuple[Word, ...]
    cycles: tuple[CycleRecord, ...]
    search_length_limit: int


def word_sort_key(word: Word) -> tuple[int, Word]:
    """Shortest first, then lexicographic; the output order everywhere."""
    return (len(word), word)


def cycle_sort_key(record: CycleRecord) -> tuple[int, Word]:
    return (record.period, record.words[0])


def canonical_cycle(words: tuple[Word, ...], base: int) -> CycleRecord:
    """Build a CycleRecord rotated so the smallest word leads."""
    pivot = words.index(min(words))
    return CycleRecord(base=base, period=len(words), words=words[pivot:] + words[:pivot])


def fixed_point_inequality_holds(description: Description) -> bool:
    """Necessary, not sufficient, condition on a fixed point's description.

    With n_j one less than the digit count of block j's numeral, a word that
    renders its own description must satisfy

        sum(n_j) >= sum(k^n_j) - 2r

    since every count is at least k^n_j yet all counts together only measure
    the word's own length, which is sum(n_j) + 2r.
    """
    return _slack(description) >= 0


def cycle_inequality_holds(record: CycleRecord) -> bool:
    """Cycle analogue of the fixed point inequality, summed over all words.

    Block counts may differ from word to word, so the slack term uses each
    word's own block count: sum over words of (n sums) >= sum of k^n minus
    2 * (total blocks across the cycle).
    """
    return sum(_slack(describe(word, record.base)) for word in record.words) >= 0


def _slack(description: Description) -> int:
    """sum(n_j) - sum(k^n_j) + 2r for one description, the margin of the inequality."""
    k = description.base
    slack = 2 * len(description.blocks)
    for count, _ in description.blocks:
        n = digit_length(count, k) - 1
        slack += n - k**n
    return slack


def _fixed_point_cores(
    base: int,
    limit: int,
    low: int = 2,
    core: tuple[int, ...] = (),
    length: int = 0,
    ones: int = 0,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (core, m1) for every core that extends ``core`` by counts >= low.

    ``length`` is the sum of ``core`` and ``ones`` its m1 so far. The cores
    come as nondecreasing tuples, and only those that the cuts of the module
    docstring leave standing.
    """
    for c in range(low, limit + 1):
        extra = c - digit_length(c, base) - 1  # what c adds to m1
        if length + c + ones + extra > limit:
            return
        grown = core + (c,)
        if len(grown) > base or (extra >= 0 and len(grown) + ones + extra > base):
            return
        yield grown, ones + extra
        yield from _fixed_point_cores(base, limit, c, grown, length + c, ones + extra)


def _fixed_point_families(base: int, length_limit: int | None) -> list[tuple[tuple[Tally, ...], int]]:
    """Every family of fixed points of length <= the limit, default the eventual cap."""
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 1:
        raise ValueError(f"length limit must be positive, got {limit}")
    families = []
    for core, ones in _fixed_point_cores(base, limit):
        if ones >= 0:
            counts = (1,) * ones + core
            if _count_image(counts, base) == counts:
                families.append(_family((counts,), base))
    return families


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


def _family_size(forced: tuple[Tally, ...], ones: int) -> int:
    """How many members the family (forced, ones) has: one per choice of its free letters."""
    return comb(forced[0].count(0), ones) if ones >= 0 else 0


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
    return sum(_family_size(*family) for family in _fixed_point_families(base, length_limit))


def enumerate_fixed_points(base: int, length_limit: int | None = None, *, budget: int | None = None) -> set[Word]:
    """Every nonempty word that describes itself, as a set of words.

    Complete for the default length limit (the eventual orbit length cap):
    any fixed point recurs forever, so its length fits under the cap. The
    words come from families of fixed points that share their counts of 2 or
    more (see the module docstring). The budget caps the number of words
    listed, default ``DEFAULT_WORD_BUDGET``: the family sizes are summed
    first, and the search raises ``BudgetExceeded`` before it renders any
    word if they exceed it.
    """
    families = _fixed_point_families(base, length_limit)
    allowed = DEFAULT_WORD_BUDGET if budget is None else budget
    needed = sum(_family_size(*family) for family in families)
    if needed > allowed:
        raise BudgetExceeded(f"fixed point search in base {base} needs {needed} words, budget is {allowed}")
    return {_spell(member[0], base) for family in families for member in _family_members(*family)}


def _digit_tally(counts: tuple[int, ...], base: int) -> list[int]:
    """How often each letter occurs among the base-k numerals of ``counts``."""
    return _tally([d for c in counts for d in _numeral_digits(c, base)], base)


def _count_image(counts: tuple[int, ...], base: int) -> tuple[int, ...]:
    """h, the sorted counts of step(w) for a word w with these counts that holds its digits."""
    tally = [0] * base
    for c in counts:
        if c < base:  # a one-digit numeral, the common case
            tally[c] += 1
        else:
            for d in _numeral_digits(c, base):
                tally[d] += 1
    forced = [t + 1 for t in tally if t]
    ones = len(counts) - len(forced)
    if ones < 0:
        return ()
    return (1,) * ones + tuple(sorted(forced))


def _count_multisets(
    r: int, limit: int, low: int = 1, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield every nondecreasing r-tuple of integers >= low with sum <= limit.

    Each multiset of block counts appears once, as its sorted tuple, in
    lexicographic order: the next count runs over low..limit // r and the
    rest recurse on what is left, never below the count before them, with
    the counts chosen so far in ``prefix``.
    """
    if r == 0:
        yield prefix
        return
    for c in range(low, limit // r + 1):
        yield from _count_multisets(r - 1, limit - c, c, prefix + (c,))


def _multiset_total(top: int, limit: int) -> int:
    """How many tuples ``_count_multisets(r, limit)`` yields over r = 1..top.

    ``parts[n]`` counts the partitions of n into exactly r parts, as
    p(n, r) = p(n - 1, r - 1) + p(n - r, r): some part is 1 or none is.
    """
    parts = [1] + [0] * limit
    total = 0
    for r in range(1, top + 1):
        parts = [0] + parts[:-1]
        for n in range(r, limit + 1):
            parts[n] += parts[n - r]
        total += sum(parts)
    return total


def _resolve_terminal(
    start: State,
    image: Callable[[State, int], State],
    base: int,
    memo: dict[State, int],
    registry: list[tuple[State, ...]],
    max_steps: int,
) -> int:
    """Cycle id of the orbit terminal from ``start`` under ``image``, caching every state seen.

    States are words under ``_step`` or count multisets under ``_count_image``. A new
    cycle is appended to ``registry`` as its states in orbit order; a cycle
    already in the registry is always hit through ``memo`` first, so no
    duplicates arise.
    """
    cid = memo.get(start)
    if cid is not None:
        return cid
    seen = {start: 0}  # each state of this walk -> its position, in visit order
    current = start
    while True:
        current = image(current, base)
        cid = memo.get(current)
        if cid is not None:
            break
        j = seen.get(current)
        if j is not None:
            registry.append(tuple(seen)[j:])
            cid = len(registry) - 1
            break
        if len(seen) >= max_steps:
            raise OrbitLimitExceeded(f"no repeat within {max_steps} steps during search")
        seen[current] = len(seen)
    for state in seen:
        memo[state] = cid
    return cid


def enumerate_cycles(
    base: int,
    length_limit: int | None = None,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: int | None = None,
) -> set[CycleRecord]:
    """Every cycle of period >= 2 whose words all have length <= the limit.

    Complete for the default length limit (the eventual orbit length cap).
    Each cycle of period >= 2 of ``_count_image`` that fits is expanded into
    its family of word cycles (see the module docstring). The budget caps
    the states held, default ``DEFAULT_WORD_BUDGET``: the count multisets,
    counted in closed form before the walk, plus the words listed, summed
    from the family sizes before any is spelled.
    """
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 2:
        raise ValueError(f"cycle search needs a length limit of at least 2, got {limit}")
    allowed = DEFAULT_WORD_BUDGET if budget is None else budget
    top = min(base, limit)
    # the multisets of one and two counts, so a long limit allocates no list
    needed = limit + limit * limit // 4
    if needed <= allowed:
        needed = _multiset_total(top, limit)
    families: list[tuple[tuple[Tally, ...], int]] = []
    if needed <= allowed:
        memo: dict[State, int] = {}
        registry: list[tuple[State, ...]] = []
        for r in range(1, top + 1):
            for counts in _count_multisets(r, limit):
                _resolve_terminal(counts, _count_image, base, memo, registry, max_steps)
        families = [
            _family(cycle, base)
            for cycle in registry
            if len(cycle) >= 2 and all(sum(counts) <= limit for counts in cycle)
        ]
        needed += sum(len(forced) * _family_size(forced, ones) for forced, ones in families)
    if needed > allowed:
        raise BudgetExceeded(f"cycle search in base {base} needs {needed} states, budget is {allowed}")
    return {
        canonical_cycle(tuple(_spell(t, base) for t in member), base)
        for family in families
        if _family_size(*family)
        for member in _family_members(*family)
    }


def brute_force_classify(
    base: int,
    max_len: int,
    *,
    budget: int | None = None,
) -> ClassificationReport:
    """Classify by visiting every nonempty word up to max_len, no pruning.

    The completeness oracle for the description searches: slow but assumption
    free. Fixed points come from a direct step(w) == w test on every word;
    cycles are the terminals of every orbit, resolved through a shared cache
    that keeps the sweep close to linear in the number of words, with the
    step guard at ``DEFAULT_MAX_STEPS``. The budget caps the words visited;
    its default refuses sweeps of over about 30 s.
    """
    check_base(base)
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    allowed = DEFAULT_BUDGET if budget is None else budget
    total = (base ** (max_len + 1) - base) // (base - 1)
    if total > allowed:
        raise BudgetExceeded(f"{total} words of length <= {max_len}, budget is {allowed}")
    fixed: list[Word] = []
    memo: dict[Word, int] = {}
    registry: list[tuple[Word, ...]] = []
    resolve = _resolve_terminal
    step_ = _step
    for n in range(1, max_len + 1):
        for word in product(range(base), repeat=n):
            image = step_(word, base)
            if image == word:
                fixed.append(word)
            if image not in memo:
                resolve(image, step_, base, memo, registry, DEFAULT_MAX_STEPS)
    cycles = sorted(
        (canonical_cycle(words, base) for words in registry if len(words) >= 2), key=cycle_sort_key
    )
    return ClassificationReport(
        base=base,
        fixed_points=tuple(sorted(fixed, key=word_sort_key)),
        cycles=tuple(cycles),
        search_length_limit=max_len,
    )
