"""Acceptance suite: nine checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without -s pytest still shows the line for any failing check in its
captured output.

Check 2 pins the one known gap in the supplied base-6 list. That list has 18
words, but 15141211110 also satisfies step(w) == w (one 5, one 4, one 2,
seven 1s, one 0; seven is written 11 in base 6). The enumeration finds 19, so
verify-table reports the word as missing and exits 1 by design; the check
re-confirms the word with the independent oracle in tests/reference.py. It
fails if that gap changes: if the supplied list is amended, if verify-table
stops reporting the word or reports any other difference, or if it exits 0.
"""

import json
import random
import time
from contextlib import contextmanager

from peadyn import (
    enumerate_cycles,
    enumerate_fixed_points,
    format_word,
    length_bound,
    orbit,
    parse_word,
    step,
)
from peadyn.cli import main as cli_main
from peadyn.core import _tally
from checks import check_tally_oracle
from reference import closes_under_step, cycle_inequality_holds, fixed_point_inequality_holds
from reference import naive_step, to_base, verify_base2_convergence

# True fixed point counts, and the words the supplied reference table lacks.
FIXED_POINT_COUNTS = {2: 2, 3: 7, 4: 7, 5: 12, 6: 19}
KNOWN_TABLE_GAPS = {6: ["15141211110"]}
PROPERTY_SEED = 20260818


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    print(f"criterion {num}: PASS  {label}")


def apply_text(text, base):
    return format_word(step(parse_word(text, base), base))


def test_criterion_1_step_vectors():
    with criterion(1, "step map vectors in base 10"):
        assert apply_text("123", 10) == "131211"
        assert apply_text("131211", 10) == "131241"


def test_criterion_2_expected_table(tmp_path):
    with criterion(2, "expected fixed point table for bases 2..6"):
        report_path = tmp_path / "verify.json"
        start = time.monotonic()
        code = cli_main(["verify-table", "--format", "json", "--output", str(report_path)])
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"verify-table took {elapsed:.1f}s, budget is 60s"
        payload = json.loads(report_path.read_text())
        assert sorted(entry["base"] for entry in payload["results"]) == sorted(FIXED_POINT_COUNTS)
        for entry in payload["results"]:
            base = entry["base"]
            gap = KNOWN_TABLE_GAPS.get(base, [])
            assert entry["found"] == FIXED_POINT_COUNTS[base], (
                f"base {base}: the search finds {entry['found']} fixed points, "
                f"the true count is {FIXED_POINT_COUNTS[base]}"
            )
            assert entry["missing"] == gap, (
                f"base {base}: verify-table reports {entry['missing']} absent from the "
                f"supplied table, the known gap is {gap}"
            )
            assert entry["extra"] == []
            assert entry["expected"] == entry["found"] - len(gap)
            assert entry["status"] == ("fail" if gap else "pass")
            for word in entry["missing"]:
                assert naive_step(word, base) == word, f"base {base}: {word} is not fixed"
        assert code == 1 and payload["all_pass"] is False


def test_criterion_3_bound_formulas():
    with criterion(3, "eventual length bound and word count formulas"):
        info2 = length_bound(2)
        info6 = length_bound(6)
        assert (info2.length_bound, info2.words_up_to_bound) == (8, 510)
        assert (info6.length_bound, info6.words_up_to_bound) == (15, 564221981490)


def test_criterion_4_base2_convergence():
    with criterion(4, "all base-2 words up to length 8 converge to 1001110 (except 111)"):
        start = time.monotonic()
        assert verify_base2_convergence(8) is True
        elapsed = time.monotonic() - start
        assert elapsed < 1, f"took {elapsed:.2f}s, budget is 1s"


def test_criterion_5_no_base2_cycles():
    with criterion(5, "no cycles of period >= 2 in base 2"):
        assert enumerate_cycles(2, 8) == set()


def test_criterion_6_base3_cycle():
    with criterion(6, "base-3 cycle exists, closes, and matches the oracle"):
        cycles = enumerate_cycles(3, 9)
        assert cycles
        for record in cycles:
            words = tuple(map(format_word, record.words))
            assert closes_under_step(words, 3)
            assert len(set(record.words)) == record.period  # minimal by distinctness
            assert cycle_inequality_holds(words, 3)
        check_tally_oracle(3)


def test_criterion_7_oracle_equivalence():
    with criterion(7, "pruned search equals brute force (fixed: k=2,3,4; cycles: k=2,3,4)"):
        start = time.monotonic()
        for base in (2, 3, 4):
            check_tally_oracle(base)
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.0f}s, budget is 300s"


def test_criterion_8_necessary_conditions():
    with criterion(8, "necessary inequalities hold on every fixed point and cycle, bases 2..6"):
        for base in range(2, 7):
            for word in enumerate_fixed_points(base):
                assert fixed_point_inequality_holds(format_word(word), base)
            for record in enumerate_cycles(base):
                assert cycle_inequality_holds(tuple(map(format_word, record.words)), base)


def test_criterion_9_random_word_properties():
    with criterion(9, "random word properties: conservation, growth, termination, cycle length"):
        rng = random.Random(PROPERTY_SEED)
        for base in range(2, 7):
            cap = length_bound(base).length_bound
            for _ in range(1000):
                word = tuple(rng.randrange(base) for _ in range(rng.randint(1, 500)))
                image = step(word, base)
                assert sum(_tally(word, base)) == len(word)
                assert len(image) <= base * (len(to_base(len(word), base)) + 1)
                result = orbit(word, base, max_steps=10000)
                assert result.steps_taken <= 10000
                assert all(len(w) <= cap for w in result.cycle)
