"""Orbit iteration with exact cycle detection, plus search space size bounds."""

from __future__ import annotations

from typing import NamedTuple

from .core import Word, _spell, _tally, _tally_image, check_base, check_word

DEFAULT_MAX_STEPS = 10000


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


def orbit(start: Word, base: int, max_steps: int = DEFAULT_MAX_STEPS) -> OrbitResult:
    """Iterate the step map from ``start`` until the first revisit.

    The map reads a word only through its tally, so the loop steps tallies
    (``_tally_image``, O(k) a step) and keys one tally -> first index map on
    them, in visit order. With t_j the tally of the j-th word w_j, the first
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
    check_base(base)
    check_word(start, base)
    if not start:
        raise ValueError("orbit needs a nonempty start word")
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    current = tuple(_tally(start, base))
    first_seen = {current: 0}
    for n in range(1, max_steps + 1):
        current = _tally_image(current, base)
        i = first_seen.get(current)
        if i is None:
            first_seen[current] = n
            continue
        tallies = tuple(first_seen)
        cycle = tuple(_spell(t, base) for t in tallies[i:])  # w_(i+1) .. w_n
        if cycle[-1] == (start if i == 0 else _spell(tallies[i - 1], base)):
            # w_n == w_i: the same cycle, entered one step sooner
            return OrbitResult(start, transient=i, period=n - i, cycle=cycle[-1:] + cycle[:-1], steps_taken=n)
        if n < max_steps:
            return OrbitResult(start, transient=i + 1, period=n - i, cycle=cycle, steps_taken=n + 1)
        break
    raise OrbitLimitExceeded(f"no repeat within {max_steps} steps from the given start")
