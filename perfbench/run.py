"""peadyn benchmark: one workload, closed loop, checked answers, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cycles --seed 1 --seconds 20 --trace 0

The workloads are listed in BENCHMARK.json and defined in workloads.py. One
process runs one workload: a single caller makes one call into peadyn at a
time, with no threads. Before timing, a few fresh interpreters are started
one after another to measure set-up time. Then whole passes over the input
set run until ``--seconds`` have elapsed, each followed by an untimed check
of every answer. Every time reported is scaled by the host's speed, measured
by fixed reference work right before and after it (see hostspeed.py). The
last line of standard output is the result object; the line before it holds
the details (environment, per-pass figures raw and scaled, exact counts).

``--trace 1`` alternates traced and untraced passes. A traced pass records a
span around every call into peadyn, then makes the untimed extra calls that
per-layer metrics need; all spans are written to .perfbench/ at the end. That
run reports the per-layer metrics, including the tracing overhead (median
traced pass minus median untraced pass).

Exit status is 0 whenever a result was printed, failed operations included
(they show as "correct": false). Without peadyn's sources beside the
benchmark it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# per-layer metrics in these units are measurements (median over traced
# passes); all others are counts that must repeat exactly on every pass
MEASURED_UNITS = ("s", "MB")


class Tracer:
    """Spans kept in memory: (id, parent id, name, key, start, end) in seconds."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name, start, end, parent=None, key=None) -> int:
        sid = len(self.spans)
        self.spans.append((sid, parent, name, key, start, end))
        return sid

    def open(self, name) -> int:
        """Start a root span, to be ended by ``close``."""
        return self.add(name, perf_counter(), None)

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        self.spans[sid] = span[:5] + (perf_counter(),)

    def totals(self, first: int) -> dict:
        """(name, key) -> (calls, seconds) over the spans recorded since index ``first``."""
        agg: dict = {}
        for _sid, _parent, name, key, start, end in self.spans[first:]:
            calls, secs = agg.get((name, key), (0, 0.0))
            agg[(name, key)] = (calls + 1, secs + end - start)
        return agg

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one array per span, times in microseconds from the first."""
        origin = self.spans[0][4] if self.spans else 0.0
        fields = ["id", "parent", "name", "key", "start_us", "end_us"]
        path.parent.mkdir(exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for sid, parent, name, key, start, end in self.spans:
                us = [round((t - origin) * 1e6, 1) for t in (start, end)]
                fh.write(json.dumps([sid, parent, name, key, *us]) + "\n")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Start a fresh interpreter that imports peadyn and builds the inputs.

    Returns the time until it reports ready, and the digest of its inputs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - t0
            digest = proc.stdout.readline().strip()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, digest


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile.

    With 10 samples or fewer there is no such percentile; the slowest sample
    stands in, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def load_metric_table() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(args, workloads) -> dict:
    table = load_metric_table()
    load_before = os.getloadavg()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    digest = workload.digest()

    attempted = failed = 0
    # every time is scaled by the host speed measured around it (hostspeed.py);
    # the raw times go to the detail line
    setup, setup_raw = [], []
    unit_s = hostspeed.unit_seconds(hostspeed.MIN_UNITS)
    for _ in range(SETUP_PROBES):
        seconds, probe_digest = probe_setup(args.workload, args.seed)
        after = hostspeed.unit_seconds(hostspeed.MIN_UNITS)
        setup.append(seconds * hostspeed.scale(unit_s, after))
        setup_raw.append(seconds)
        unit_s = after
        if probe_digest != digest:  # the same seed must give the same inputs
            failed += 1
            print(f"input digest {probe_digest} differs from {digest}", file=sys.stderr)

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}  # scaled
    raw_walls = {False: [], True: []}
    request_seconds = []  # per untraced pass, the scaled latency of each request in input order
    exact_first = None
    layer_passes = []
    deadline = perf_counter() + args.seconds
    passes = 0
    ref_units = hostspeed.MIN_UNITS
    # start another pass unless it would end more than half a pass past the deadline
    while passes < (2 if args.trace else 1) or (
        deadline - perf_counter() > statistics.median(raw_walls[False] + raw_walls[True]) / 2
    ):
        traced = bool(args.trace) and passes % 2 == 0
        # free the previous pass's results, cyclic garbage included, before
        # timing this one; without it peak RSS on fixed-points wanders by 20 MB
        ops = extra_ops = None
        gc.collect()
        mark = len(tracer.spans) if traced else 0
        before = hostspeed.unit_seconds(ref_units)
        root = tracer.open("pass") if traced else None
        t0 = perf_counter()
        ops = workload.run_pass(tracer if traced else None, root)
        wall = perf_counter() - t0
        if traced:
            tracer.close(root)
        after = hostspeed.unit_seconds(ref_units)
        scale = hostspeed.scale(before, after)
        ref_units = hostspeed.units_for(wall, after)
        passes += 1
        walls[traced].append(wall * scale)
        raw_walls[traced].append(wall)

        verdicts, exact = workload.check(ops)
        if not traced:
            per_request = [op.seconds for op in ops] if workload.request_is_operation else [wall]
            # an array, not a list of floats, so that the run's own bookkeeping
            # does not grow peak RSS or the garbage collector's work pass by pass
            request_seconds.append(array("d", (s * scale for s in per_request)))
        attempted += len(ops)
        failed += verdicts.count(False)

        if traced:
            extra_root = tracer.open("extra")
            extra_ops, info = workload.extra(tracer, extra_root, ops, verdicts)
            tracer.close(extra_root)
            if extra_ops:
                extra_verdicts, extra_exact = workload.check(extra_ops)
                attempted += len(extra_ops)
                failed += extra_verdicts.count(False)
                exact = {**exact, **extra_exact}
            failed += info.pop("failed", 0)
            layers = workload.layers(tracer.totals(mark), exact, info)
            layer_passes.append({name: value * scale if table["per_layer"][name] == "s" else value
                                 for name, value in layers.items()})
        else:
            if exact_first is None:
                exact_first = exact
            elif exact != exact_first:  # exact counts are a determinism guard, not noise
                failed += 1
                print(f"pass {passes}: exact counts {exact} differ from {exact_first}",
                      file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "loadavg_before": load_before,
        "input_digest": digest,
        "passes": passes,
        "setup_s_samples": setup,
        "setup_raw_s_samples": setup_raw,
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "pass_raw_wall_s": {"untraced": raw_walls[False], "traced": raw_walls[True]},
        "exact": exact_first,
    }
    if args.trace:
        units = table["per_layer"]
        metrics = {}
        for name, unit in units.items():
            values = [lp.get(name, 0) for lp in layer_passes]
            if unit in MEASURED_UNITS:
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) != 1:  # counts repeat exactly on every traced pass
                failed += 1
                print(f"{name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = values[0]
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False])
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        # one file per workload, so repeated runs do not pile up spans on disk
        trace_path = TRACE_DIR / f"trace-{args.workload}.jsonl.gz"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        detail.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                      trace_file=str(trace_path.relative_to(ROOT)))
    else:
        units = table["end_to_end"]
        # each request's latency is its median over the passes; the
        # percentiles are then taken across the requests of the input set
        per_request = [statistics.median(col) for col in zip(*request_seconds)]
        op_tail, tail_pct = tail(per_request)
        detail.update(op_samples=len(per_request), op_tail_percentile=tail_pct)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": workloads.rss_mb(),
            "op_p50_us": statistics.median(per_request) * 1e6,
            "op_tail_us": op_tail * 1e6,
        }
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics {odd} disagree with BENCHMARK.json")

    detail.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  loadavg_after=os.getloadavg())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a count whose operation failed is None; the run is already marked incorrect
        "metrics": {name: {"value": 0 if metrics[name] is None else metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(detail))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None and not args.probe:
        parser.error("--seconds is required")

    if not (SRC / "peadyn" / "__init__.py").is_file():
        print(f"error: no peadyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PEADYN_BUDGET", None)  # the CLI would read it as its budget
    import workloads  # imports peadyn

    if Path(workloads.cli.__file__).resolve().parent != SRC / "peadyn":
        print("error: peadyn was not imported from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        choices = sorted(workloads.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    if args.probe:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        print(workload.digest(), flush=True)
        return 0

    result = run(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
