"""Mutation gate: every mutant below must fail the test it names.

Run from anywhere with ``python tests/mutants.py``. The named tests are first
run once on the sources as they are, where they must pass. Then, for each
mutant, ``src/`` and ``tests/`` are copied into a fresh temporary directory,
the mutant's old text must occur exactly once in its file and is replaced by
the new text, and the named test runs there under pytest with
``PYTHONPATH=src``. A mutant is killed when that test fails. The script names
every mutant that survives and exits 1.

Mutants are only ever added, or moved to the line that takes over what their
old line did. A mutant that changes no output (a loosened cut, say) belongs
here only if a test pins the work that the mutated line saves.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    node: str  # the pytest node id that must fail


MUTANTS = (
    Mutant(
        "src/peadyn/dynamics.py",
        "return tuple(cycle)",
        "return tuple(cycle[1:])",
        "tests/test_dynamics.py::test_walker_dict_is_the_walk_and_the_memo",
    ),
    Mutant(
        "src/peadyn/dynamics.py",
        "if owner is not start:",
        "if False:",
        "tests/test_dynamics.py::test_walker_dict_is_the_walk_and_the_memo",
    ),
    Mutant(
        "src/peadyn/core.py",
        "            for d in _numeral_digits(c, base):\n                out[d] += 1\n",
        "            pass\n",
        "tests/test_core.py::test_tally_image_is_the_tally_of_the_spelling",
    ),
    Mutant(
        "src/peadyn/search.py",
        "if m1 >= 0 and (bits",
        "if m1 > 0 and (bits",
        "tests/test_search.py::test_fixed_points_match_expected_table",
    ),
    Mutant(
        "src/peadyn/search.py",
        "if ones >= 0:",
        "if ones > 0:",
        "tests/test_search.py::test_search_matches_brute_force",
    ),
    Mutant(
        "src/peadyn/dynamics.py",
        "if cycle[-1] == (start if i == 0 else _spell(list(seen)[i - 1], base)):",
        "if False:",
        "tests/test_dynamics.py::test_orbit_when_distinct_tallies_spell_one_word",
    ),
    Mutant(
        "src/peadyn/core.py",
        "            if c < base:\n                out.append(c)\n",
        "            if c <= base:\n                out.append(c)\n",
        "tests/test_core.py::test_spell_counts_at_the_base_boundary",
    ),
    Mutant(
        "src/peadyn/search.py",
        "all(sum(state) <= limit for state in cycle)",
        "all(sum(state) <= limit + 1 for state in cycle)",
        "tests/test_search.py::test_image_walk_finds_every_count_cycle",
    ),
    Mutant(
        "tests/reference.py",
        "return all(naive_step(text, base) == texts[(i + 1) % len(texts)] for i, text in enumerate(texts))",
        "return True",
        "tests/test_search.py::test_closure_check_examples",
    ),
    Mutant(
        "tests/reference.py",
        "return _slack(text, base) >= 0",
        "return True",
        "tests/test_search.py::test_fixed_point_inequality_examples",
    ),
    Mutant(
        "tests/reference.py",
        "return sum(_slack(text, base) for text in texts) >= 0",
        "return True",
        "tests/test_search.py::test_cycle_inequality_examples",
    ),
    Mutant(
        "src/peadyn/search.py",
        "if grown.get(key, -1) < left - c:",
        "if True:",
        "tests/test_search.py::test_brute_force_walks_first_images",
    ),
    Mutant(
        "src/peadyn/core.py",
        "            for d in _numeral_digits(c, base):\n                tally[d] += 1\n",
        "            pass\n",
        "tests/test_search.py::test_fixed_points_match_expected_table",
    ),
    Mutant(
        "src/peadyn/cli.py",
        "extra = sorted(expected - found, key=word_sort_key)",
        "extra = []",
        "tests/test_cli.py::test_verify_table_corrupted_entry_not_fixed",
    ),
    Mutant(
        "src/peadyn/core.py",
        "[1 if c else 0 for c in tally]",
        "[0] * base",
        "tests/test_core.py::test_spell_and_tally_image_match_the_referee",
    ),
    Mutant(
        "src/peadyn/core.py",
        "b = base\n",
        "b = base - 1\n",
        "tests/test_core.py::test_spell_and_tally_image_match_the_referee",
    ),
    Mutant(
        "src/peadyn/search.py",
        "ones <= len(numeral)",
        "ones < len(numeral)",
        "tests/test_search.py::test_fixed_points_match_expected_table",
    ),
    Mutant(
        "src/peadyn/search.py",
        "if m1 <= room or extra < 0:",
        "if True:",
        "tests/test_search.py::test_m1_cut_spares_the_core_walk",
    ),
    Mutant(
        "src/peadyn/search.py",
        "bits |= 1 << d",
        "bits = 1 << d",
        "tests/test_search.py::test_fixed_points_match_expected_table",
    ),
    Mutant(
        "src/peadyn/search.py",
        "(m1 > 0) << 1",
        "(m1 > 0) << 0",
        "tests/test_search.py::test_fixed_points_match_expected_table",
    ),
)


def run_pytest(tree: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def copy_tree(tmp: str) -> Path:
    tree = Path(tmp)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = run_pytest(copy_tree(tmp), sorted({m.node for m in MUTANTS}))
    if clean.returncode != 0:
        print(clean.stdout + clean.stderr)
        print("the named tests fail on the unmutated sources")
        return 1
    survivors = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(tmp)
            target = tree / mutant.path
            text = target.read_text()
            found = text.count(mutant.old)
            if found != 1:
                print(f"{mutant.path}: the old text occurs {found} times, not once: {mutant.old!r}")
                return 1
            target.write_text(text.replace(mutant.old, mutant.new))
            run = run_pytest(tree, [mutant.node])
        # pytest exits 1 when a test fails; any other code means the run went wrong
        if run.returncode not in (0, 1):
            print(run.stdout + run.stderr)
            print(f"{mutant.path}: pytest exited {run.returncode} on {mutant.node}")
            return 1
        verdict = "killed" if run.returncode == 1 else "SURVIVED"
        print(f"{verdict}  {mutant.path}: {mutant.old!r} -> {mutant.new!r}  by {mutant.node}")
        if run.returncode == 0:
            survivors.append(mutant)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
