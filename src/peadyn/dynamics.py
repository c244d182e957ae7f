"""Orbit iteration with exact cycle detection, plus search space size bounds."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Word, _step, check_base, check_word

DEFAULT_MAX_STEPS = 10000


class OrbitLimitExceeded(RuntimeError):
    """No repeat within the step budget. The budget is a guard, not a bound."""


@dataclass(frozen=True)
class OrbitResult:
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


@dataclass(frozen=True)
class BoundInfo:
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

    Keeps one word -> first index map, in visit order, so one pass yields the
    exact transient and period, and the map's tail is the cycle. Raises
    OrbitLimitExceeded if no repeat shows up within ``max_steps`` applications.
    """
    check_base(base)
    check_word(start, base)
    if not start:
        raise ValueError("orbit needs a nonempty start word")
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    first_seen = {start: 0}
    current = start
    for n in range(1, max_steps + 1):
        current = _step(current, base)
        prior = first_seen.get(current)
        if prior is not None:
            return OrbitResult(
                start=start,
                transient=prior,
                period=n - prior,
                cycle=tuple(first_seen)[prior:],
                steps_taken=n,
            )
        first_seen[current] = n
    raise OrbitLimitExceeded(f"no repeat within {max_steps} steps from the given start")

