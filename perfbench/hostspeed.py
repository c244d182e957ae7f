"""Host speed, measured by fixed reference work, to take the host's drift out of times.

The benchmark runs on a few cores of a shared host. There, the same pass of
the same code can take anywhere from 1x to 1.7x its quiet time, and the host
holds a speed for tens of seconds, so medians over one run drift from run to
run. Reference work timed right before and right after each pass slows down
with it. A pass's time divided by the reference's time is steady to a few
per cent, where the raw time spreads 20-40%.

The reference is plain Python of the same kind as peadyn's inner loops: a
counting transform on small tuples, with a dict memo. It never calls peadyn,
so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

ROUNDS_PER_UNIT = 10_000
# a round figure inside the range one unit took (24-45 ms) on the 2-vCPU Xeon
# VM the benchmark was written on; scaled times read as seconds on a host
# that runs one unit in 30 ms
NOMINAL_UNIT_S = 0.03
# reference work before and after a pass, each as a share of the last pass
SHARE = 0.05
MIN_UNITS = 2


def reference(rounds: int) -> int:
    """Fixed work: count the letters of a word, write the counts out, memoize."""
    seen: dict = {}
    word = (1, 0, 2, 1, 1, 0, 3, 2)
    total = 0
    for i in range(rounds):
        counts = [0] * 10
        for letter in word:
            counts[letter] += 1
        out: list[int] = []
        for letter in range(9, -1, -1):
            c = counts[letter]
            if c:
                out.extend(divmod(c, 10) if c >= 10 else (c,))
                out.append(letter)
        nxt = tuple(out[:24]) + (i % 7,)
        total += seen.setdefault(nxt, len(seen))
        word = nxt if len(nxt) < 20 else nxt[::3]
    return total


def unit_seconds(units: int) -> float:
    """Time ``units`` units of reference work; return the seconds per unit."""
    t0 = perf_counter()
    reference(units * ROUNDS_PER_UNIT)
    return (perf_counter() - t0) / units


def units_for(seconds: float, unit_s: float) -> int:
    """How many units make about SHARE of ``seconds``, at the last measured speed."""
    return max(MIN_UNITS, round(SHARE * seconds / unit_s))


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns seconds measured between two reference samples into nominal seconds."""
    return NOMINAL_UNIT_S / ((before_s + after_s) / 2)
