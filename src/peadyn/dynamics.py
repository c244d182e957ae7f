"""Orbit iteration with exact cycle detection, plus search space size bounds."""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .core import Word, _spell, _tally, _tally_image, check_base, check_word

DEFAULT_MAX_STEPS = 10000

# what _walk steps: a letter tally in orbit and the classifier, a count
# multiset in the cycle search, a word in the test that checks it against orbit
State = tuple[int, ...]


class OrbitLimitExceeded(RuntimeError):
    """No repeat within the step budget. The budget is a guard, not a bound."""


class OrbitResult(NamedTuple):
    """Exact decomposition of a forward orbit into transient and cycle.

    ``cycle`` starts at the first cycle element the orbit reached, and
    ``steps_taken`` is the number of step applications needed to detect
    the repeat (transient + period).
    """

    start: Word
    transient: int
    period: int
    cycle: tuple[Word, ...]
    steps_taken: int


class BoundInfo(NamedTuple):
    base: int
    length_bound: int
    words_up_to_bound: int


def length_bound(base: int) -> BoundInfo:
    """Eventual cap on orbit word length and the exact count of words under it.

    Every orbit eventually stays at length <= ceil(2k^2/(k-1)); words that
    recur forever (fixed points and cycle words) therefore never exceed it.
    words_up_to_bound is k + k^2 + ... + k^bound, computed exactly.
    """
    check_base(base)
    bound = (2 * base * base + base - 2) // (base - 1)  # ceil(2k^2 / (k-1))
    count = (base ** (bound + 1) - base) // (base - 1)
    return BoundInfo(base=base, length_bound=bound, words_up_to_bound=count)


def _walk(
    start: State,
    image: Callable[[State, int], State],
    base: int,
    seen: dict[State, State],
    max_steps: int,
) -> tuple[State, ...]:
    """Step ``start`` under ``image`` until a state repeats; the new cycle, or () if none.

    ``seen`` is both this walk and the memo of every walk before it on the same
    dict: each new state is inserted once, in visit order, mapped to its walk's
    ``start``. A hit on this walk's own state closes a new cycle, read back
    from the end of ``seen`` and returned in orbit order. A hit on an earlier
    walk's state, or a start already in ``seen``, returns (): that walk has
    returned its cycle already. States are letter tallies under
    ``_tally_image``, count multisets under ``_count_image``, or anything else
    a map sends to its own kind. Raises OrbitLimitExceeded if ``max_steps``
    images bring no repeat.
    """
    if start in seen:
        return ()
    seen[start] = start
    current = start
    for _ in range(max_steps):
        current = image(current, base)
        owner = seen.get(current)
        if owner is None:
            seen[current] = start
            continue
        if owner is not start:
            return ()
        cycle = [current]  # then the states after it, read back from the end
        for state in reversed(seen):
            if state == current:
                return tuple(cycle)
            cycle.insert(1, state)
    raise OrbitLimitExceeded(f"no repeat within {max_steps} steps from the given start")


def orbit(start: Word, base: int, max_steps: int = DEFAULT_MAX_STEPS) -> OrbitResult:
    """Iterate the step map from ``start`` until the first revisit.

    The map reads a word only through its tally, so the orbit is walked on
    tallies (``_tally_image``, O(k) a step) by ``_walk``, whose dict holds
    them in visit order. With t_j the tally of the j-th word w_j, the first
    repeat t_n == t_i gives w_(n+1) == w_(i+1), since w_(j+1) spells t_j. The
    words can repeat one step sooner, w_n == w_i, because distinct tallies can
    spell one word: in base 2, (1, 9) and (3, 4) both spell 1001110, so
    1111111110 steps to 1001110 and repeats it at step 2, as its tallies
    repeat, not at step 3. One word comparison decides: if w_n == w_i (w_i the
    start when i == 0, else the spelling of t_(i-1)), the transient is i and
    the repeat takes n steps, otherwise i + 1 and n + 1. Only the cycle words
    are spelled. Raises OrbitLimitExceeded if the words do not repeat within
    ``max_steps`` applications.
    """
    start = tuple(start)  # a one-shot iterable is read once, here; a tuple is not copied
    check_base(base)
    check_word(start, base)
    if not start:
        raise ValueError("orbit needs a nonempty start word")
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    seen: dict[State, State] = {}
    tallies = _walk(tuple(_tally(start, base)), _tally_image, base, seen, max_steps)  # t_i .. t_(n-1)
    n = len(seen)
    i = n - len(tallies)
    cycle = tuple(_spell(t, base) for t in tallies)  # w_(i+1) .. w_n
    if cycle[-1] == (start if i == 0 else _spell(list(seen)[i - 1], base)):
        # w_n == w_i: the same cycle, entered one step sooner
        return OrbitResult(start, transient=i, period=n - i, cycle=cycle[-1:] + cycle[:-1], steps_taken=n)
    if n < max_steps:
        return OrbitResult(start, transient=i + 1, period=n - i, cycle=cycle, steps_taken=n + 1)
    raise OrbitLimitExceeded(f"no repeat within {max_steps} steps from the given start")
