"""Exhaustive fixed point and cycle enumeration.

Fixed points are searched in description space rather than word space: a fixed
point renders its own description, which forces the count identity
sum(c_j) == sum(digit_length(c_j) + 1) and keeps every count within a few
units of the block count. Cycle search works on tallies (letter-count
vectors) rather than words: the step map reads a word only through its tally,
so every cycle of words is a cycle of the induced map on tallies. Orbits are
seeded from the tallies of image words only, because a cycle element is
always the image of its predecessor in the cycle, and words are rendered only
for the cycles found.

Both searches draw block counts from one generator, ``_count_multisets``,
which yields each multiset of r counts once as a nondecreasing tuple, in the
manner of the combination generators of TAOCP 4A 7.2.1.3. The fixed point
search keeps the multisets that pass the count identity and pairs each with
every set of r letters; the cycle search tallies their numerals into seeds.
Every walk to a terminal cycle goes through one memoized walker,
``_resolve_terminal``: over tallies in the cycle search, over words in a
plain word-by-word classifier that doubles as the completeness oracle for
small bases and applies no pruning at all.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .core import Block, Description, Word, _numeral_digits, _step, check_base, describe, digit_length, render
from .dynamics import DEFAULT_MAX_STEPS, OrbitLimitExceeded, length_bound

DEFAULT_BUDGET = 10**8

Tally = tuple[int, ...]  # letter counts indexed by letter, length base
State = tuple[int, ...]  # a word or a tally, whichever _resolve_terminal walks


class BudgetExceeded(RuntimeError):
    """The requested search is larger than the configured candidate budget."""


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
    """Everything one search found: fixed points plus period >= 2 cycles.

    ``method`` records how the result was obtained: "description-search" for
    the pruned searches, "exhaustive" for the word-by-word oracle.
    """

    base: int
    fixed_points: tuple[Word, ...]
    cycles: tuple[CycleRecord, ...]
    search_length_limit: int
    method: str


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


def enumerate_fixed_points(base: int, length_limit: int | None = None, *, budget: int | None = None) -> set[Word]:
    """Every nonempty word that describes itself, as a set of words.

    Complete for the default length limit (the eventual orbit length cap):
    any fixed point recurs forever, so its length fits under the cap and its
    description counts sum to its own length. Candidates come from
    description space and are checked by tally, so the search touches
    thousands of candidates, not base**length words, and renders only the
    fixed points. A candidate is a multiset of r block counts that passes the
    count identity, paired with a set of r letters; the budget caps the
    candidates generated and guards against large-base blowup.
    """
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 1:
        raise ValueError(f"length limit must be positive, got {limit}")
    remaining = DEFAULT_BUDGET if budget is None else budget
    found: set[Word] = set()
    for r in range(1, min(base, limit // 2) + 1):
        letter_sets = comb(base, r)
        for counts in _count_multisets(r, limit):
            # a fixed point renders its own description, so its length is
            # both sum(counts) and the length of the numerals plus one letter each
            if sum(counts) != sum(digit_length(c, base) + 1 for c in counts):
                continue
            remaining -= letter_sets
            if remaining < 0:
                raise BudgetExceeded(f"fixed point search in base {base} exceeds the candidate budget")
            # the rendered word holds each block letter once plus the digits
            # of the count numerals, so the digits are tallied once per multiset
            digits = _digit_tally(counts, base)
            for letters in combinations(range(base - 1, -1, -1), r):
                # the tally forces each letter's count; the identity pins
                # len(word) == sum(counts), so matching the multiset leaves no
                # room for stray letters
                own = [digits[b] + 1 for b in letters]
                if sorted(own) == list(counts):
                    found.add(render(Description(tuple(map(Block, own, letters)), base)))
    return found


def _digit_tally(counts: tuple[int, ...], base: int) -> list[int]:
    """How often each letter occurs among the base-k numerals of ``counts``."""
    tally = [0] * base
    for c in counts:
        for d in _numeral_digits(c, base):
            tally[d] += 1
    return tally


def _tally_image(tally: Tally, base: int) -> Tally:
    """The tally of step(w) for every word w whose tally is ``tally``.

    The image spells each present letter once, after the numeral of its
    count, so letter d occurs once if it is present plus once per digit d
    among the count numerals.
    """
    out = _digit_tally([c for c in tally if c], base)
    for b, c in enumerate(tally):
        if c:
            out[b] += 1
    return tuple(out)


def _render_tally(tally: Tally, base: int) -> Word:
    """step(w) for every word w whose tally is ``tally``."""
    blocks = tuple(Block(tally[b], b) for b in range(base - 1, -1, -1) if tally[b])
    return render(Description(blocks, base))


def _count_multisets(
    r: int, limit: int, low: int = 1, prefix: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Yield every nondecreasing r-tuple of integers >= low with sum <= limit.

    Each multiset of block counts appears once, as its sorted tuple, in
    lexicographic order: the next count runs over low..limit // r and the
    rest recurse on what is left, never below the count before them. The
    recursion carries the counts chosen so far in ``prefix``.
    """
    if r == 0:
        yield prefix
        return
    for c in range(low, limit // r + 1):
        yield from _count_multisets(r - 1, limit - c, c, prefix + (c,))


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
    path = [start]
    first = {start: 0}
    current = start
    while True:
        current = image(current, base)
        cid = memo.get(current)
        if cid is not None:
            break
        j = first.get(current)
        if j is not None:
            registry.append(tuple(path[j:]))
            cid = len(registry) - 1
            break
        if len(path) >= max_steps:
            raise OrbitLimitExceeded(f"no repeat within {max_steps} steps during search")
        first[current] = len(path)
        path.append(current)
    for state in path:
        memo[state] = cid
    return cid


def enumerate_cycles(
    base: int,
    length_limit: int | None = None,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: int | None = None,
) -> set[CycleRecord]:
    """Every cycle of period >= 2 reached from an image of a short word.

    Guarantees that every cycle whose words all fit within the length limit
    is found. The seeds are the images of all words of length <= limit, i.e.
    the renders of every description whose counts sum to at most the limit; a
    cycle word is the image of its predecessor in the cycle and that
    predecessor obeys the same cap, so the search starts inside every such
    cycle. Cycles reached from those seeds are reported too, even when their
    words are longer than the limit, so a short custom limit can return more
    than the cycles that fit under it.

    The walk runs on tallies, not words. A seed's tally is one per block
    letter plus the digits of its count numerals, which depend only on the
    multiset of counts, so many seeds share a tally and each distinct one is
    walked once. Orbits share one terminal cache keyed on tallies. The budget
    caps the number of image seeds, counted in closed form before the search.
    """
    check_base(base)
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    if limit < 2:
        raise ValueError(f"cycle search needs a length limit of at least 2, got {limit}")
    allowed = DEFAULT_BUDGET if budget is None else budget
    total_seeds = sum(comb(base, r) * comb(limit, r) for r in range(1, min(base, limit) + 1))
    if total_seeds > allowed:
        raise BudgetExceeded(
            f"cycle search in base {base} needs {total_seeds} seeds, budget is {allowed}"
        )
    seeds: set[Tally] = set()
    for r in range(1, min(base, limit) + 1):
        numeral_tallies = {
            tuple(_digit_tally(counts, base)) for counts in _count_multisets(r, limit)
        }
        for letters in combinations(range(base), r):
            for digits in numeral_tallies:
                seed = list(digits)
                for b in letters:
                    seed[b] += 1
                seeds.add(tuple(seed))
    memo: dict[Tally, int] = {}
    registry: list[tuple[Tally, ...]] = []
    for seed in seeds:
        _resolve_terminal(seed, _tally_image, base, memo, registry, max_steps)
    # the word after tally t is its render, so a tally cycle spells a word cycle
    return {
        canonical_cycle(tuple(_render_tally(t, base) for t in tallies), base)
        for tallies in registry
        if len(tallies) >= 2
    }


def classify(
    base: int,
    length_limit: int | None = None,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    budget: int | None = None,
) -> ClassificationReport:
    """Report from the pruned description searches, deterministically ordered."""
    limit = length_bound(base).length_bound if length_limit is None else length_limit
    fixed = enumerate_fixed_points(base, limit, budget=budget)
    cycles = enumerate_cycles(base, limit, max_steps=max_steps, budget=budget)
    return ClassificationReport(
        base=base,
        fixed_points=tuple(sorted(fixed, key=word_sort_key)),
        cycles=tuple(sorted(cycles, key=cycle_sort_key)),
        search_length_limit=limit,
        method="description-search",
    )


def brute_force_classify(
    base: int,
    max_len: int,
    *,
    budget: int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ClassificationReport:
    """Classify by visiting every nonempty word up to max_len, no pruning.

    The completeness oracle for the description searches: slow but assumption
    free. Fixed points come from a direct step(w) == w test on every word;
    cycles are the terminals of every orbit, resolved through a shared cache
    that keeps the sweep close to linear in the number of words.
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
                resolve(image, step_, base, memo, registry, max_steps)
    cycles = sorted(
        (canonical_cycle(words, base) for words in registry if len(words) >= 2), key=cycle_sort_key
    )
    return ClassificationReport(
        base=base,
        fixed_points=tuple(sorted(fixed, key=word_sort_key)),
        cycles=tuple(cycles),
        search_length_limit=max_len,
        method="exhaustive",
    )


def verify_base2_convergence(max_len: int, *, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Check that every nonempty binary word up to max_len falls into 1001110.

    The lone exception is 111, which is a fixed point of its own. Returns
    False as soon as any word lands anywhere else.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    sink = (1, 0, 0, 1, 1, 1, 0)
    exception = (1, 1, 1)
    memo: dict[Word, int] = {}
    registry: list[tuple[Word, ...]] = []
    for n in range(1, max_len + 1):
        for word in product((0, 1), repeat=n):
            cid = _resolve_terminal(word, _step, 2, memo, registry, max_steps)
            target = exception if word == exception else sink
            if registry[cid] != (target,):
                return False
    return True
