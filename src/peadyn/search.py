"""Exhaustive fixed point and cycle enumeration.

Fixed points are counted and listed as families. Under the default length
limit, about 2k + 2, every count numeral has one or two digits. Split the
letters of a fixed point w by their count:

- the core is the multiset of counts >= 2;
- m1 is the number of letters of count 1.

w renders its own description, so its length is both the sum of its counts c
and the sum of len(c) + 1 over its blocks, where len(c) is the number of
digits of c. A count-1 block adds 1 - 1 - 1 = -1 to sum(c - len(c) - 1), so
the count identity forces

    m1 = sum(c - len(c) - 1) over the core.

The numerals of w are the core's numerals plus m1 copies of "1", so their
digit tally is known from the core alone. A letter of count >= 2 occurs once
as a block letter and the rest of the times as a digit, so the letters of
count >= 2 are exactly the forced letters F, the support of that tally, each
with count tally + 1. A core is accepted when these forced counts, sorted,
are the core itself, m1 >= 0 and |F| + m1 <= k. The count-1 letters are any
m1 letters outside F: none of them occurs as a digit, so they are
interchangeable, and the core yields exactly C(k - |F|, m1) fixed points, one
per choice. Conversely every such choice spells a fixed point, because its
image has the same tally. Counting needs the families only; listing expands
them after the budget check, so a search that is over budget fails before it
renders a word.

The cores are walked as nondecreasing tuples, with two cuts:

- Each count c adds 2c - len(c) - 1 >= 1 to the word length sum(core) + m1,
  so the walk stops at the length limit.
- The core size is |F| <= k, so no core grows past k counts. Outside base
  2, where count 2 is spelled "10" and lowers m1 by 1, every count adds
  c - len(c) - 1 >= 0 to m1, so once the core size plus m1 passes k no
  longer core comes back under it. This bound alone keeps the enumeration
  finite, even with no length limit: c - len(c) - 1 <= k caps every count
  at about k + 3, and at most k letters have a count >= 2.

Cycle search walks the induced map on tallies (letter-count vectors), since
the step map reads a word only through its tally, and seeds it with families
of the same shape. A letter of a word is a block letter of its image, so the
letter set only grows along an orbit and is constant on a cycle. A cycle word
w is step(p) for its predecessor p, whose r counts have numerals with digit
support F; those digits are letters of w, hence of p. So the tally of w is
forced on F, as above, plus 1 on r - |F| more letters: a member of the family
(forced, m1 = r - |F|). ``_count_multisets`` yields each multiset of r counts
once, as a nondecreasing tuple in the manner of TAOCP 4A 7.2.1.3, and each
with |F| <= r gives one family. Every walk goes through one memoized walker,
``_resolve_terminal``: over tallies here, over words in a plain word-by-word
classifier that doubles as the completeness oracle for small bases and
applies no pruning at all.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .core import Description, Word, _numeral_digits, _spell, _step, _tally, check_base, describe, digit_length
from .dynamics import DEFAULT_MAX_STEPS, OrbitLimitExceeded, length_bound

# Cycle seeds, or words for the word-by-word classifier. At about 210 bytes a
# seed, cycles run up to base 14 (3,889,345 seeds, 800 MB, 33 s on a 2-vCPU
# Xeon). Stepping about 300,000 words a second, the classifier refuses a sweep
# of over about 30 s: base 2 runs up to length 22, not 23 (16,777,214 words).
DEFAULT_BUDGET = 10**7
# Listed fixed points are held in one set, about 290 bytes a word at k=22, so
# the default lists every base up to 23 (524,541 words, about 150 MB) and
# refuses base 24 and above before it renders a word.
DEFAULT_WORD_BUDGET = 10**6

Tally = tuple[int, ...]  # letter counts indexed by letter, length base
State = tuple[int, ...]  # a word or a tally, whichever _resolve_terminal walks


class BudgetExceeded(RuntimeError):
    """The requested search is larger than its budget.

    The fixed point search counts the words it would list; the cycle search
    counts the tallies it builds, one per count multiset it walks and one per
    member of the seed families they yield; the word-by-word classifier counts
    the words it would visit.
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


def _fixed_point_families(base: int, length_limit: int | None) -> list[tuple[Tally, int]]:
    """Every family of fixed points of length <= the limit, default the eventual cap.

    A family is a pair: the tally of its forced letters, 0 on every other
    letter, and m1, how many of those other letters each member adds once.
    """
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 1:
        raise ValueError(f"length limit must be positive, got {limit}")
    families = []
    for core, ones in _fixed_point_cores(base, limit):
        # the walk already keeps len(core) + m1 <= k wherever m1 >= 0
        if ones < 0:
            continue
        tally = _digit_tally(core, base)
        tally[1] += ones
        forced = tuple(t + 1 if t else 0 for t in tally)
        if sorted(c for c in forced if c) == list(core):
            families.append((forced, ones))
    return families


def _family_size(forced: Tally, ones: int) -> int:
    """How many members the family (forced, ones) has: one per choice of its free letters."""
    return comb(forced.count(0), ones)


def _family_members(forced: Tally, ones: int) -> Iterator[Tally]:
    """Yield the tally of each member: ``forced`` plus count 1 on ``ones`` letters it leaves at 0."""
    for chosen in combinations([b for b, c in enumerate(forced) if not c], ones):
        tally = list(forced)
        for b in chosen:
            tally[b] = 1
        yield tuple(tally)


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
    return {_spell(tally, base) for family in families for tally in _family_members(*family)}


def _digit_tally(counts: tuple[int, ...], base: int) -> list[int]:
    """How often each letter occurs among the base-k numerals of ``counts``."""
    return _tally([d for c in counts for d in _numeral_digits(c, base)], base)


def _tally_image(tally: Tally, base: int) -> Tally:
    """The tally of step(w) for every word w whose tally is ``tally``."""
    return tuple(_tally(_spell(tally, base), base))


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

    States are words under ``_step`` or tallies under ``_tally_image``. A new
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

    Complete for the default length limit (the eventual orbit length cap),
    like ``enumerate_fixed_points``: a cycle recurs forever, so its words fit
    under the cap. Each cycle word is the image of its predecessor, a word
    whose letters hold the digits of its own count numerals, so seeding the
    images of such words of length <= limit starts inside every cycle that
    fits (see the module docstring). Cycles with a longer word are dropped.

    The seeds, one family per count multiset, are walked as tallies through
    one terminal cache. The budget caps the tallies built: one digit tally
    per count multiset, counted in closed form, plus the family members,
    summed from the family sizes, all before the walk. The first count over
    the budget is named in the error, so a long limit or a large base fails
    at once: the default runs base 14 and refuses base 15.
    """
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 2:
        raise ValueError(f"cycle search needs a length limit of at least 2, got {limit}")
    allowed = DEFAULT_BUDGET if budget is None else budget
    top = min(base, limit)
    # the multisets of one and two counts, so a long limit allocates no list
    needed = limit + limit * limit // 4
    if needed <= allowed:
        needed = _multiset_total(top, limit)
    families: set[tuple[Tally, int]] = set()
    for r in range(1, top + 1):
        if needed > allowed:
            break
        for counts in _count_multisets(r, limit):
            digits = _digit_tally(counts, base)
            family = (tuple(t + 1 if t else 0 for t in digits), r - base + digits.count(0))
            if family[1] >= 0 and family not in families:
                families.add(family)
                needed += _family_size(*family)
    if needed > allowed:
        raise BudgetExceeded(f"cycle search in base {base} needs {needed} seeds, budget is {allowed}")
    memo: dict[Tally, int] = {}
    registry: list[tuple[Tally, ...]] = []
    for family in families:
        for seed in _family_members(*family):
            _resolve_terminal(seed, _tally_image, base, memo, registry, max_steps)
    # the word after tally t is its spelling, so a tally cycle spells a word cycle
    return {
        canonical_cycle(tuple(_spell(t, base) for t in tallies), base)
        for tallies in registry
        if len(tallies) >= 2 and all(sum(t) <= limit for t in tallies)
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
