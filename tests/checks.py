"""Every cross-check that needs no test framework: tier-1 calls each at its own sizes.

``CI`` maps each CI step to its check at the CI size, a bound in seconds and
one in MB (None: no bound). ``PYTHONPATH=src:tests python tests/checks.py NAME``
runs row NAME under ``guard``, in CI and locally alike. Only peadyn and
``reference`` are imported, so the memory bound measures the program.
"""

import random
import sys
import time
from collections import Counter
from math import comb

from peadyn import (BudgetExceeded, brute_force_classify, count_fixed_points, enumerate_cycles,
                    enumerate_fixed_points, format_word, length_bound, orbit, word_sort_key)
from peadyn.dynamics import DEFAULT_MAX_STEPS, _walk
from peadyn.search import _count_image, _cycle_families, _family, _image_states
from reference import description_space_fixed_points, naive_orbit, rotated, to_base, word_by_word_classify


def texts(words):
    return {format_word(word) for word in words}


def cap_budget(base):
    """The oracle's tally count at the cap, C(L + k, k) - 1, which the default budget refuses from base 8 on."""
    limit = length_bound(base).length_bound
    return comb(limit + base, base) - 1


def check_tally_oracle(base, max_len=None, budget=None):
    """Assert that the oracle up to max_len (default: the cap) finds what both searches and, for
    fixed points, the description-space referee find at the cap, its fixed points in word order."""
    limit = length_bound(base).length_bound
    report = brute_force_classify(base, max_len or limit, budget=budget)
    assert list(report.fixed_points) == sorted(enumerate_fixed_points(base), key=word_sort_key), (base, max_len)
    assert texts(report.fixed_points) == description_space_fixed_points(base, limit), base
    assert set(report.cycles) == enumerate_cycles(base), (base, max_len)


def check_by_words(base, max_len):
    """Assert that the oracle up to max_len equals stepping every word as text, fixed points and cycles in order."""
    report = brute_force_classify(base, max_len)
    fixed = tuple(map(format_word, report.fixed_points))
    cycles = tuple(tuple(map(format_word, record.words)) for record in report.cycles)
    assert (fixed, cycles) == word_by_word_classify(base, max_len), (base, max_len)


def check_cycle_periods(base, periods):
    """Assert how many cycles of each period the cycle search lists under the default budget."""
    found = Counter(record.period for record in enumerate_cycles(base))
    assert found == periods, (base, found)


def check_fixed_point_count(base):
    """Assert the count of fixed points, observed, not derived: 2 and 7 at bases 2 and 3, then
    2^(k - 4) + C(k, 2); and that a limit far past the cap finds no more, so none is longer."""
    count = count_fixed_points(base)
    assert count == (2 if base == 2 else 7 if base == 3 else 2 ** (base - 4) + comb(base, 2)), (base, count)
    assert count_fixed_points(base, 10**6) == count, base


def check_cycle_cuts(base):
    """Assert that the cycle walk's cuts lose no family at the cap: a walk under one step of the
    second-image bound, with cores of up to r counts, keeps the same families up to rotation."""
    limit = length_bound(base).length_bound
    digits = len(to_base(limit, base))
    loose = []
    for r in range(1, min(base, limit) + 1):
        most = min(limit - r, digits * r)
        seen = {}
        for counts in _image_states(r, min(most, r + most // (base - 1)), r, r):
            cycle = _walk(counts, _count_image, base, seen, DEFAULT_MAX_STEPS)
            if len(cycle) >= 2 and all(sum(state) <= limit for state in cycle):
                loose.append(_family(cycle, base))
    found = [family for families in _cycle_families(base, limit) for family in families]
    expected = sorted((rotated(forced), ones) for forced, ones in loose if ones >= 0)
    assert sorted((rotated(forced), ones) for forced, ones in found) == expected, base


def check_orbit(word, base):
    """Assert that orbit on tallies equals naive_orbit on words and took transient + period steps; return the steps."""
    text = format_word(word)
    r = orbit(word, base)
    assert (r.transient, r.period, [format_word(w) for w in r.cycle]) == naive_orbit(text, base), (base, text)
    assert r.steps_taken == r.transient + r.period, (base, text)
    return r.steps_taken


def guard(check, seconds, mb):
    """Run check, print its time and the process's memory peak, and assert each under its bound, if any."""
    import resource  # Unix only: tier-1 imports this module on every platform
    start = time.perf_counter()
    check()
    took = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    print(f"{took:.2f} s, peak {peak:.1f} MB")
    assert seconds is None or took < seconds, f"took {took:.2f} s, bound {seconds} s"
    assert mb is None or peak < mb, f"peak {peak:.1f} MB, bound {mb} MB"


def each(check, *cases):
    """A row that runs check on each case in turn."""
    return lambda: [check(*case) for case in cases]


def orbits():
    rng = random.Random(2017)
    # short starts in large bases walk the longest transients, so the most tally images an orbit
    for bases, lengths in (((2, 36), (1, 2000)), ((25, 36), (1, 8))):
        longest = 0
        for _ in range(1000):
            base = rng.randint(*bases)
            word = tuple(rng.randrange(base) for _ in range(rng.randint(*lengths)))
            longest = max(longest, check_orbit(word, base))
        print("1000 orbits equal at bases", bases, "lengths", lengths, "most steps", longest)


def default_admits():
    # the slowest base-2 and base-3 oracle calls the default budget admits: one letter more is refused
    for base, max_len in ((2, 1412), (3, 179)):
        try:
            brute_force_classify(base, max_len + 1)
        except BudgetExceeded as refusal:
            print(refusal)
        else:
            raise AssertionError((base, max_len + 1, "admitted"))
        guard(lambda: check_tally_oracle(base, max_len), 1, None)


CI = {
    "orbits": (orbits, None, None),
    "oracle-caps": (each(check_tally_oracle, (10, None, cap_budget(10)), (11, None, cap_budget(11))), 30, 256),
    "oracle-default-admits": (default_admits, None, 64),
    "oracle-past-cap": (each(check_tally_oracle, (2, 22), (3, 14)), None, 40),
    "oracle-by-words": (each(check_by_words, (2, 18), (3, 11), (4, 9), (5, 8)), None, 40),
    "cycles-11": (each(check_cycle_periods, (11, {2: 63, 3: 15})), None, 40),
    "cycles-13": (each(check_cycle_periods, (13, {2: 255, 3: 28})), None, 40),
    "cycles-21": (each(check_cycle_periods, (21, {2: 65535, 3: 120})), None, 100),
    "cycles-23": (each(check_cycle_periods, (23, {2: 262143, 3: 153})), None, 256),
    "cycle-cuts": (each(check_cycle_cuts, *((k,) for k in range(2, 37))), 60, 64),
    "fixed-point-counts": (each(check_fixed_point_count, *((k,) for k in range(2, 37))), 1, 64),
}


def main(name):
    """Run row name of CI under its bounds, in a process that has loaded no test framework."""
    assert "pytest" not in sys.modules and "hypothesis" not in sys.modules, "test framework loaded"
    guard(*CI[name])


if __name__ == "__main__":
    main(sys.argv[1])
