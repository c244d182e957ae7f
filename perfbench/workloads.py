"""The benchmark's four workloads: inputs from a seed, one timed pass, answer checks.

Each workload calls peadyn's public entry points from outside, one call at a
time. ``run_pass`` is the timed region; ``check`` looks at every answer
afterwards, so a faster wrong answer counts as a failed operation. ``extra``
runs only in traced passes, after the timed region, and makes the calls that
per-layer metrics need but the workload itself does not (direct searches for
the verify-table bases, a replay of every orbit through public ``step``).

An operation is one call into peadyn: one base searched, one orbit, one oracle
call or one CLI call. ``run_pass`` returns one ``Op`` per operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
from math import comb
from time import perf_counter
from typing import NamedTuple

from peadyn import (
    ClassificationReport,
    CycleRecord,
    OrbitResult,
    brute_force_classify,
    enumerate_cycles,
    enumerate_fixed_points,
    format_word,
    length_bound,
    orbit,
    parse_word,
    step,
)
from peadyn import cli, golden


class Op(NamedTuple):
    """One timed call: its span name, a key such as the base, and what it gave."""

    name: str
    key: object
    seconds: float
    result: object  # the return value, or the exception the call raised


def timed_call(ops, tracer, parent, name, key, fn, *args):
    """Call ``fn`` once, timing only the call; a raised exception becomes the result."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raising call is a failed operation, not a crashed run
        out = exc
    t1 = perf_counter()
    if tracer is not None:
        tracer.add(name, t0, t1, parent, key)
    ops.append(Op(name, key, t1 - t0, out))


def rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cycle_texts(records) -> set[tuple[str, ...]]:
    return {tuple(format_word(w) for w in rec.words) for rec in records}


def closes_under_step(words, base) -> bool:
    """Every word steps to the next one and the last steps back to the first."""
    return all(step(words[i], base) == words[(i + 1) % len(words)] for i in range(len(words)))


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    # whether one operation is one request for op_p50_us and op_tail_us; on
    # the search workloads the request is the whole input set, one pass
    request_is_operation = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def digest(self) -> str:
        """Hash of the inputs; processes given the same seed must agree on it."""
        return hashlib.sha256(repr(self.inputs()).encode()).hexdigest()[:16]

    def inputs(self):
        raise NotImplementedError

    def run_pass(self, tracer, parent) -> list[Op]:
        raise NotImplementedError

    def extra(self, tracer, parent, ops: list[Op], verdicts: list[bool]) -> tuple[list[Op], dict]:
        """Traced passes only: calls made after the timed region for per-layer metrics.

        Returns further operations, which are checked like the timed ones,
        and counts; a "failed" count there adds to the pass's failures.
        """
        return [], {}

    def check(self, ops: list[Op]) -> tuple[list[bool], dict]:
        """Verdict per operation, plus exact counts that must repeat on every pass.

        A count is None where the operation that gives it failed.
        """
        raise NotImplementedError

    def layers(self, agg: dict, exact: dict, extra: dict) -> dict:
        """Per-layer metrics of one traced pass from its span totals and exact counts."""
        raise NotImplementedError


# -- fixed-points -------------------------------------------------------------

FIXED_COUNTS = {2: 2, 3: 7, 4: 7, 5: 12, 6: 19, 7: 29, 8: 44, 9: 68}
TABLE_BASES = (2, 3, 4, 5, 6)
DIRECT_BASES = (7, 8, 9)
# acceptance criterion 2: the shipped base-6 list lacks this real fixed point,
# so verify-table exiting 1 with exactly this miss is the correct answer
BASE6_MISS = "15141211110"
VERIFY_ARGV = ["verify-table", "--bases", ",".join(map(str, TABLE_BASES)), "--format", "json"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on arguments it rejects
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fixed_points_ok(found, base) -> bool:
    return (
        isinstance(found, set)
        and len(found) == FIXED_COUNTS[base]
        and all(step(w, base) == w for w in found)
    )


def verify_table_ok(result) -> bool:
    if isinstance(result, Exception):
        return False
    code, out, err = result
    if code != 1 or err:
        return False
    try:
        report = json.loads(out)
        rows = {row["base"]: row for row in report["results"]}
        if report["all_pass"] is not False or sorted(rows) != list(TABLE_BASES):
            return False
        for base in TABLE_BASES:
            row = rows[base]
            if row["found"] != FIXED_COUNTS[base] or row["extra"]:
                return False
            missing = [BASE6_MISS] if base == 6 else []
            if row["missing"] != missing or row["status"] != ("fail" if missing else "pass"):
                return False
    except (ValueError, KeyError, TypeError):
        return False
    return True


class FixedPoints(Workload):
    """verify-table for k=2..6 in-process, then enumerate_fixed_points for k=7, 8, 9."""

    name = "fixed-points"

    def inputs(self):
        return (VERIFY_ARGV, DIRECT_BASES)

    def run_pass(self, tracer, parent):
        ops: list[Op] = []
        timed_call(ops, tracer, parent, "cli.main", "verify-table", run_cli, VERIFY_ARGV)
        for base in DIRECT_BASES:
            timed_call(ops, tracer, parent, "search.enumerate_fixed_points", base,
                       enumerate_fixed_points, base)
        return ops

    def extra(self, tracer, parent, ops, verdicts):
        # the direct times for the verify-table bases give the CLI's own share
        direct: list[Op] = []
        for base in TABLE_BASES:
            timed_call(direct, tracer, parent, "search.enumerate_fixed_points", base,
                       enumerate_fixed_points, base)
        return direct, {}

    def check(self, ops):
        verdicts = []
        exact = {}
        for op in ops:
            if op.name == "cli.main":
                ok = verify_table_ok(op.result)
                exact["cli.exit_code"] = op.result[0] if ok else None
            else:
                ok = fixed_points_ok(op.result, op.key)
                exact[f"search.fixed_found.k{op.key}"] = len(op.result) if ok else None
            verdicts.append(ok)
        return verdicts, exact

    def layers(self, agg, exact, extra):
        out = {}
        for base in TABLE_BASES + DIRECT_BASES:
            out[f"search.fixed_points_s.k{base}"] = agg[("search.enumerate_fixed_points", base)][1]
            out[f"search.fixed_found.k{base}"] = exact[f"search.fixed_found.k{base}"]
        verify_s = agg[("cli.main", "verify-table")][1]
        out["cli.verify_table_s"] = verify_s
        out["cli.self_s"] = verify_s - sum(out[f"search.fixed_points_s.k{b}"] for b in TABLE_BASES)
        out["cli.exit_code"] = exact["cli.exit_code"]
        return out


# -- cycles -------------------------------------------------------------------

CYCLE_COUNTS = {2: 0, 3: 1, 4: 0, 5: 0, 6: 1, 7: 4}
BASE3_CYCLE = ("10210110", "12111100", "1212120")
SEEDS_K7 = 346_103


def seed_count(base: int) -> int:
    """Image seeds of the cycle search: sum over r of C(k, r) * C(L, r)."""
    limit = length_bound(base).length_bound
    return sum(comb(base, r) * comb(limit, r) for r in range(1, min(base, limit) + 1))


def cycles_ok(records, base) -> bool:
    if not isinstance(records, set) or len(records) != CYCLE_COUNTS[base]:
        return False
    cap = length_bound(base).length_bound
    for rec in records:
        if not isinstance(rec, CycleRecord) or rec.base != base:
            return False
        if rec.period < 2 or rec.period != len(rec.words):
            return False
        if any(len(w) > cap for w in rec.words) or not closes_under_step(rec.words, base):
            return False
    return base != 3 or cycle_texts(records) == {BASE3_CYCLE}


class Cycles(Workload):
    """enumerate_cycles for k=2..7."""

    name = "cycles"
    bases = tuple(CYCLE_COUNTS)

    def __init__(self, seed):
        super().__init__(seed)
        self.rss_after: dict[int, float] = {}  # from the process's first pass only

    def inputs(self):
        return self.bases

    def run_pass(self, tracer, parent):
        ops: list[Op] = []
        first = not self.rss_after
        for base in self.bases:
            timed_call(ops, tracer, parent, "search.enumerate_cycles", base, enumerate_cycles, base)
            if first:
                self.rss_after[base] = rss_mb()
        return ops

    def check(self, ops):
        verdicts = []
        exact = {}
        for op in ops:
            # the closed-form seed count is pinned by the known k=7 figure
            ok = cycles_ok(op.result, op.key) and (op.key != 7 or seed_count(7) == SEEDS_K7)
            exact[f"search.cycles_found.k{op.key}"] = len(op.result) if ok else None
            verdicts.append(ok)
        return verdicts, exact

    def layers(self, agg, exact, extra):
        out = {}
        for base in self.bases:
            out[f"search.cycles_s.k{base}"] = agg[("search.enumerate_cycles", base)][1]
            out[f"search.seeds.k{base}"] = seed_count(base)
            out[f"search.cycles_found.k{base}"] = exact[f"search.cycles_found.k{base}"]
            out[f"search.rss_mb.k{base}"] = self.rss_after[base]
        seeds = sum(out[f"search.seeds.k{b}"] for b in self.bases)
        found = sum(out[f"search.cycles_found.k{b}"] or 0 for b in self.bases)
        out["search.seeds.all"] = seeds
        out["search.cycles_per_seed"] = found / seeds
        return out


# -- oracle -------------------------------------------------------------------

ORACLE_BASE = 3
ORACLE_LEN = 12
ORACLE_WORDS = 797_160


class Oracle(Workload):
    """brute_force_classify(3, 12): every word up to 12 letters, no pruning."""

    name = "oracle"

    def __init__(self, seed):
        super().__init__(seed)
        # the independent answers the oracle must reproduce, made before timing
        self.fixed = {parse_word(t, ORACLE_BASE) for t in golden.EXPECTED_FIXED_POINTS[ORACLE_BASE]}
        self.cycles = enumerate_cycles(ORACLE_BASE)

    def inputs(self):
        return (ORACLE_BASE, ORACLE_LEN)

    def run_pass(self, tracer, parent):
        ops: list[Op] = []
        timed_call(ops, tracer, parent, "search.brute_force_classify", ORACLE_BASE,
                   brute_force_classify, ORACLE_BASE, ORACLE_LEN)
        return ops

    def check(self, ops):
        words = (ORACLE_BASE ** (ORACLE_LEN + 1) - ORACLE_BASE) // (ORACLE_BASE - 1)
        verdicts = []
        exact = {"search.brute_words": words}
        for op in ops:
            report = op.result
            ok = (
                words == ORACLE_WORDS
                and isinstance(report, ClassificationReport)
                and len(report.fixed_points) == 7
                and set(report.fixed_points) == self.fixed
                and all(step(w, ORACLE_BASE) == w for w in report.fixed_points)
                and set(report.cycles) == self.cycles
                and cycle_texts(report.cycles) == {BASE3_CYCLE}
            )
            exact["search.brute_fixed_found"] = len(report.fixed_points) if ok else None
            exact["search.brute_cycles_found"] = len(report.cycles) if ok else None
            verdicts.append(ok)
        return verdicts, exact

    def layers(self, agg, exact, extra):
        return {
            "search.brute_s": agg[("search.brute_force_classify", ORACLE_BASE)][1],
            "search.brute_words": exact["search.brute_words"],
            "search.brute_fixed_found": exact["search.brute_fixed_found"],
            "search.brute_cycles_found": exact["search.brute_cycles_found"],
        }


# -- orbits -------------------------------------------------------------------

ORBITS_PER_PASS = 4000
SHORT_LEN = (1, 40)  # orbit bookkeeping is comparable to the step itself
LONG_LEN = (200, 2000)  # the first tally dominates


def stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers uniform over lo..hi, one drawn from each of n equal slices of the range."""
    return [lo + int((i + rng.random()) * (hi - lo + 1) / n) for i in range(n)]


def random_word(rng: random.Random, base: int, length: int) -> tuple[int, ...]:
    """Letters uniform over the base: random bytes, dropping the biased top range."""
    limit = 256 - 256 % base
    table = bytes(b % base for b in range(256))
    biased = bytes(range(limit, 256))
    letters = b""
    while len(letters) < length:
        letters += rng.randbytes(length).translate(table, biased)
    return tuple(letters[:length])


def orbit_ok(result, word, base) -> bool:
    if not isinstance(result, OrbitResult):
        return False
    cycle = result.cycle
    cap = length_bound(base).length_bound
    return (
        result.start == word
        and result.period == len(cycle) >= 1
        and result.transient + result.period == result.steps_taken
        and step(cycle[-1], base) == cycle[0]
        and all(len(w) <= cap for w in cycle)
    )


class Orbits(Workload):
    """A seeded stream of start words, bases uniform in 2..36, each through orbit."""

    name = "orbits"
    request_is_operation = True

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        # lengths and bases are stratified, so that each seed covers their
        # ranges evenly and the figures vary less from seed to seed
        half = ORBITS_PER_PASS // 2
        pairs = []
        for lo, hi in (SHORT_LEN, LONG_LEN):
            lengths = stratified(rng, lo, hi, half)
            bases = stratified(rng, 2, 36, half)
            rng.shuffle(bases)
            pairs += zip(bases, lengths)
        rng.shuffle(pairs)
        self.words = [(random_word(rng, base, length), base) for base, length in pairs]

    def digest(self):
        h = hashlib.sha256()
        for word, base in self.words:
            h.update(bytes([base, len(word) >> 8, len(word) & 255]) + bytes(word))
        return h.hexdigest()[:16]

    def run_pass(self, tracer, parent):
        ops: list[Op] = []
        for word, base in self.words:
            timed_call(ops, tracer, parent, "dynamics.orbit", base, orbit, word, base)
        return ops

    def extra(self, tracer, parent, ops, verdicts):
        # replay every checked trajectory through public step, one span per
        # call; a replay that does not land on the reported cycle is a failure
        calls = letters = bad = 0
        add = tracer.add
        for op, ok, (word, base) in zip(ops, verdicts, self.words):
            if not ok:
                continue
            result = op.result
            current = word
            for _ in range(result.steps_taken):
                letters += len(current)
                t0 = perf_counter()
                current = step(current, base)
                add("core.step", t0, perf_counter(), parent, base)
            calls += result.steps_taken
            bad += current != result.cycle[0]
        return [], {"core.step_calls": calls, "core.letters": letters, "failed": bad}

    def check(self, ops):
        verdicts = [orbit_ok(op.result, w, k) for op, (w, k) in zip(ops, self.words)]
        results = [op.result for op, ok in zip(ops, verdicts) if ok]
        exact = {
            "dynamics.steps": sum(r.steps_taken for r in results),
            "dynamics.max_transient": max((r.transient for r in results), default=0),
        }
        return verdicts, exact

    def layers(self, agg, exact, extra):
        orbit_calls = sum(n for (name, _), (n, _s) in agg.items() if name == "dynamics.orbit")
        orbit_s = sum(s for (name, _), (_n, s) in agg.items() if name == "dynamics.orbit")
        step_s = sum(s for (name, _), (_n, s) in agg.items() if name == "core.step")
        return {
            "core.step_calls": extra["core.step_calls"],
            "core.step_s": step_s,
            "core.letters": extra["core.letters"],
            "dynamics.orbit_calls": orbit_calls,
            "dynamics.orbit_s": orbit_s,
            "dynamics.self_s": orbit_s - step_s,
            "dynamics.steps": exact["dynamics.steps"],
            "dynamics.max_transient": exact["dynamics.max_transient"],
        }


WORKLOADS = {w.name: w for w in (FixedPoints, Cycles, Orbits, Oracle)}
