#!/usr/bin/env python3
"""Orbit statistics over random words: where do they land, and how fast.

Samples words uniformly per base, iterates each to its cycle, and prints
transient statistics plus a tally of the terminals hit. Deterministic for a
fixed seed.
"""

import argparse
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from peadyn import DEFAULT_MAX_STEPS, MAX_BASE, MIN_BASE, canonical_cycle, format_word, length_bound, orbit
from peadyn.cli import _comma_bases, _positive_int


def _bases(text: str) -> tuple[int, ...]:
    bases = _comma_bases(text)
    for base in bases:
        if not MIN_BASE <= base <= MAX_BASE:
            raise argparse.ArgumentTypeError(f"base {base} is outside {MIN_BASE}..{MAX_BASE}")
    return bases


def run_base(cfg: argparse.Namespace, base: int, rng: random.Random) -> None:
    transients = []
    periods = Counter()
    terminals = Counter()
    cap = length_bound(base).length_bound
    oversize = 0
    for _ in range(cfg.samples):
        word = tuple(rng.randrange(base) for _ in range(rng.randint(1, cfg.max_length)))
        result = orbit(word, base, max_steps=cfg.max_steps)
        transients.append(result.transient)
        periods[result.period] += 1
        # orbits enter a cycle at different points; tally one rotation only
        canon = canonical_cycle(result.cycle, base)
        terminals[" ".join(format_word(w) for w in canon.words)] += 1
        oversize += sum(1 for w in result.cycle if len(w) > cap)
    mean = statistics.fmean(transients)
    period_text = ", ".join(f"period {p}: {n}" for p, n in sorted(periods.items()))
    print(f"base {base}: {cfg.samples} orbits, transient mean {mean:.2f} "
          f"median {statistics.median(transients):.0f} max {max(transients)}")
    print(f"  {period_text}; cycle words over the length bound: {oversize}")
    for terminal, hits in terminals.most_common():
        label = "fixed point" if " " not in terminal else "cycle"
        print(f"  {hits:>6}  {label:<11} {terminal}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260818)
    parser.add_argument("--samples", type=_positive_int, default=2000,
                        help="orbits per base (default %(default)s)")
    parser.add_argument("--max-length", type=_positive_int, default=300,
                        help="start words are 1..this long (default %(default)s)")
    parser.add_argument("--bases", type=_bases, default="2,3,4,5,6",
                        help="comma separated bases (default %(default)s)")
    parser.add_argument("--max-steps", type=_positive_int, default=DEFAULT_MAX_STEPS)
    cfg = parser.parse_args()
    rng = random.Random(cfg.seed)
    print(f"seed {cfg.seed}, {cfg.samples} samples per base, lengths 1..{cfg.max_length}")
    for base in cfg.bases:
        run_base(cfg, base, rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
