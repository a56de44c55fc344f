"""Benchmark of the torusdirac pipeline; BENCHMARK.json at the repo root names
its workloads and metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process against the package
sources under src/ and checks every result. A run repeats the workload's
seeded pass of operations: the first pass always runs in full, then each
operation runs again while its last time still fits in --seconds. An
operation's time is the median over its repetitions; wall_s is one pass at
those medians, and the percentiles are taken over them, so they describe the
spread over inputs, not over repetitions.

BLAS runs on one thread. --trace 0 prints the end-to-end metrics. Their
times are scaled by a gauge loop run between operations (see Gauge), which
takes out the drift of a shared machine's speed; raw times are printed too.
setup_s is the median over several child processes of importing torusdirac,
generating the inputs and loading the references.

--trace 1 wraps the package's public functions (spans.py), runs whole passes
within half of --seconds, then repeats the same operations untraced. It prints
per-layer calls, self and total times per pass, computed costs, ok ratios and
the tracing overhead, writes the spans to bench/out/, and on
truncation_ladder prints the layer table per truncation m.

The last line of stdout is the JSON result; the lines before it give every
metric with its unit, per-class medians, the check summary and machine facts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads and inherited by the set-up probes:
# with two threads on a shared 2-CPU machine, single solves varied by ~30%
# between repeats, with one by ~1%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int):
    """Import the package, generate the inputs and load the references."""
    start = perf_counter()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {workloads.WORKLOADS}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    ops, checks = workloads.build(workload, seed, workdir, workloads.load_refs())
    return ops, checks, workdir, perf_counter() - start


class Gauge:
    """Times a fixed mix of interpreter work and small numpy calls.

    The speed of a shared machine drifts: on a 2-CPU virtual machine (Intel
    Xeon, numpy 2.4.6) the same solve took up to 2x longer for tens of
    seconds at a time, so raw run medians spread by 14-39%. Running this
    loop between operations and scaling each operation's time by
    NOMINAL_S / (the loop's time around it) cut the spread of 10-second
    medians of the routes, an m=50 solve and `fit` from 14-19% to 2-3%. It
    does not track the 6-second m=200 solves. Gated times are so scaled:
    they read as times on a machine where the loop takes NOMINAL_S.
    """

    NOMINAL_S = 1.5e-3

    def __init__(self):
        import numpy as np

        self._np = np
        self._tiny = np.arange(9.0)
        self._small = np.random.default_rng(0).random((8, 512)) + 0j

    def _once(self) -> float:
        np = self._np
        start = perf_counter()
        total = 0
        for i in range(15_000):
            total += i
        for _ in range(60):
            np.convolve(np.pad(self._tiny, 2), self._tiny)
        for _ in range(3):
            np.fft.ifft(np.fft.fft(self._small, axis=-1), axis=-1)
        return perf_counter() - start

    def read(self) -> float:
        """Median time of three runs of the loop."""
        return statistics.median(self._once() for _ in range(3))

    def scale(self, before: float, after: float) -> float:
        return 2.0 * self.NOMINAL_S / (before + after)


def probe_setup(workload: str, seed: int, gauge: Gauge) -> float:
    """Median scaled set-up time over fresh child processes.

    Each child reads the gauge right after its set-up, on the CPU that did
    the work; with that reading the spread of the median over 20 repeats
    fell from 35% (raw) to 6%."""
    times = []
    for _ in range(SETUP_PROBES):
        before = gauge.read()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        setup_s, child_gauge = (float(v) for v in proc.stdout.split()[-2:])
        times.append(setup_s * gauge.scale(before, child_gauge))
    return statistics.median(times)


def schedule(n_ops: int, budget: float, durations: list[float], whole_passes: bool):
    """Operation indices. The first pass always runs in full. After it, with
    ``whole_passes`` a pass runs only if the last one fits in what is left of
    ``budget``; otherwise each operation runs again while its last duration
    fits, so cheap operations are repeated more often than dear ones.
    ``durations`` is filled by the caller as the operations run."""
    start = perf_counter()
    last: dict[int, float] = {}
    first = True
    while True:
        ran = False
        for i in range(n_ops):
            if not first:
                left = budget - (perf_counter() - start)
                if whole_passes and i == 0 and sum(last.values()) > left:
                    return
                if not whole_passes and last[i] > left:
                    continue
            yield i
            last[i] = durations[-1]
            ran = True
        first = False
        if not ran:
            return


def run_ops(ops, checks, sequence, rec=None, gauge=None, durations=None):
    """Run and check the operations in ``sequence``; returns the executed
    indices, their durations, the gauge scale around each (1 without a gauge)
    and the number that failed. ``durations`` is the list to append to."""
    executed, scales, failed = [], [], 0
    durations = [] if durations is None else durations
    before = gauge.read() if gauge is not None else 0.0
    for i in sequence:
        op = ops[i]
        sid = rec.open(f"op:{op.label}") if rec is not None else -1
        start = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation; the run goes on
            out = exc
        elapsed = perf_counter() - start
        if gauge is not None:
            after = gauge.read()
            scales.append(gauge.scale(before, after))
            before = after
        else:
            scales.append(1.0)
        if rec is not None:
            rec.close(sid, failed=isinstance(out, Exception))
        reason = checks.verify(op, out)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {op.key}: {reason}", file=sys.stderr)
                if isinstance(out, Exception):
                    traceback.print_exception(out, file=sys.stderr)
        executed.append(i)
        durations.append(elapsed)
    return executed, durations, scales, failed


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(0, math.floor(100 - 1000 / n))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, executed, durations, scales, setup_s):
    import numpy as np

    scaled = [d * s for d, s in zip(durations, scales)]
    per_op, raw = [[] for _ in ops], [[] for _ in ops]
    for i, d, r in zip(executed, scaled, durations):
        per_op[i].append(d)
        raw[i].append(r)
    medians = [statistics.median(t) for t in per_op]
    raw_medians = [statistics.median(t) for t in raw]
    n = len(ops)
    wall = sum(medians)  # one pass, each operation at its median time
    q = tail_percentile(n)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": 1e3 * float(np.percentile(medians, 50)),
        "op_tail_ms": 1e3 * float(np.percentile(medians, q)),
        "peak_rss_mb": peak_rss_mb(),
    }
    by_label = defaultdict(list)
    for op, med, raw_med in zip(ops, medians, raw_medians):
        by_label[op.label].append((med, raw_med))
    lines = [
        f"op_tail_ms is p{q} of {n} per-operation medians; {len(durations)} operations run, "
        f"{min(map(len, per_op))} to {max(map(len, per_op))} times each",
        f"times are gauge-scaled; median scale {statistics.median(scales):.4f} "
        f"(raw time x scale), raw wall per pass {sum(raw_medians):.6g} s",
    ]
    for label, pairs in by_label.items():
        med, raw_med = (1e3 * statistics.median(col) for col in zip(*pairs))
        lines.append(f"{label:<28} {med:.6g} ms scaled, {raw_med:.6g} ms raw  (median of {len(pairs)} inputs)")
    return metrics, lines


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in output order."""
    import spans

    names = []
    for module, qualname in spans.TARGETS:
        base = f"{module}.{qualname}"
        names += [(f"{base}.calls", "count"), (f"{base}.self_ms", "ms"), (f"{base}.total_ms", "ms")]
    names += [(f"{module}.self_ms", "ms") for module in spans.MODULES]
    names += [
        ("galerkin.galerkin_matrix.flops_computed", "flop"),
        ("galerkin.galerkin_matrix.bytes_computed", "B"),
        ("galerkin.eigenvalues.flops_computed", "flop"),
    ]
    names += [(f"{name}.ok_ratio", "ratio") for name in spans.OK_RATIO]
    names += [
        ("perturbation.route_gate.ok_ratio", "ratio"),
        ("trace.wall_ms", "ms"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return names


def traced_run(ops, checks, seconds: float, workload: str, seed: int):
    import spans

    rec = spans.Recorder()
    with spans.traced(rec):
        traced = []
        executed, _, _, failed = run_ops(ops, checks, schedule(len(ops), seconds / 2, traced, True),
                                         rec, durations=traced)
    _, plain, _, failed_plain = run_ops(ops, checks, executed)
    passes = len(executed) // len(ops)
    rec.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

    stats = rec.summary()
    values = {}
    module_self = defaultdict(float)
    for module, qualname in spans.TARGETS:
        base = f"{module}.{qualname}"
        calls, total, self_, _ = stats.get(base, (0, 0.0, 0.0, 0))
        values[f"{base}.calls"] = calls / passes
        values[f"{base}.self_ms"] = 1e3 * self_ / passes
        values[f"{base}.total_ms"] = 1e3 * total / passes
        module_self[module] += self_
    for module in spans.MODULES:
        values[f"{module}.self_ms"] = 1e3 * module_self[module] / passes
    for name in ("galerkin.galerkin_matrix.flops_computed", "galerkin.galerkin_matrix.bytes_computed",
                 "galerkin.eigenvalues.flops_computed"):
        values[name] = rec.counters.get(name, 0.0) / passes
    for name in spans.OK_RATIO:
        calls, _, _, bad = stats.get(name, (0, 0.0, 0.0, 0))
        values[f"{name}.ok_ratio"] = (calls - bad) / calls if calls else 1.0
    values["perturbation.route_gate.ok_ratio"] = (
        checks.gates_passed / checks.gates_checked if checks.gates_checked else 1.0
    )
    values["trace.wall_ms"] = 1e3 * sum(traced) / passes
    values["trace.overhead_s"] = (sum(traced) - sum(plain)) / passes
    values["trace.spans"] = len(rec.spans) / passes

    lines = [f"per-layer values are per pass: {passes} traced passes of {len(ops)} operations, "
             f"then the same operations untraced"]
    if workload == "truncation_ladder":
        lines += baseline_table(rec)
    return values, lines, 2 * len(executed), failed + failed_plain


def baseline_table(rec) -> list[str]:
    """Median layer times of one spectrum_report per truncation m."""
    rows = defaultdict(list)
    for name, totals in rec.root_totals():
        m = re.fullmatch(r"op:solve_ms_m(\d+)", name)
        if m:
            rows[int(m.group(1))].append((
                totals["geometry.metric_at"] + totals["dirac.dirac_operator"],
                totals["galerkin.galerkin_matrix"],
                totals["galerkin.eigenvalues"],
                totals["galerkin.spectrum_report"],
            ))
    lines = ["| m | order | geometry+operator | galerkin_matrix | eigvalsh | spectrum_report |",
             "|---|---|---|---|---|---|"]
    for m in sorted(rows):
        cells = [f"{1e3 * statistics.median(col):.4g} ms" for col in zip(*rows[m])]
        lines.append(f"| {m} | {2 * (2 * m + 1)} | " + " | ".join(cells) + " |")
    return lines


def machine_facts(seed: int) -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "commit": "unknown (not a git checkout)",
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
        for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    facts["blas_threads"] = int(fn())
                    break
    except OSError:
        pass
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        facts["commit"] = head
    except OSError:
        pass
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        ops, checks, workdir, own_setup_s = setup(args.workload, args.seed)
    except (ImportError, ValueError, OSError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(own_setup_s, Gauge().read())
            return 0
        if args.trace:
            values, lines, attempted, failed = traced_run(ops, checks, args.seconds, args.workload, args.seed)
            units = dict(layer_metric_names())
        else:
            gauge = Gauge()
            setup_s = probe_setup(args.workload, args.seed, gauge)
            durations = []
            sequence = schedule(len(ops), args.seconds, durations, False)
            executed, _, scales, failed = run_ops(ops, checks, sequence, gauge=gauge, durations=durations)
            values, lines = end_to_end(ops, executed, durations, scales, setup_s)
            units = END_TO_END_UNITS
            attempted = len(durations)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(machine_facts(args.seed)))
    for name, unit in units.items():
        print(f"{name:<52} {values[name]:.6g} {unit}")
    for line in lines:
        print(line)
    print(f"ops_attempted {attempted}  ops_failed {failed}  max_ref_drift {checks.max_ref_drift:.3e}  "
          f"route_gates {checks.gates_passed}/{checks.gates_checked} passed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
