"""In-memory span recorder around the public functions of torusdirac.

Each wrapped call records a span (name, start, end, parent id, failed). The
wrappers are installed from outside the package: every module namespace that
imported a wrapped function by name is rebound too (``galerkin.metric_at``,
``perturbation.spectrum_report``, ``cli.dirac_operator``, ...), so inner calls
do not escape the trace. Leaving the ``traced`` block restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("trigpoly", "geometry", "dirac", "galerkin", "perturbation", "config", "cli")

# (module, qualified name) of every wrapped function; each one is a layer
# boundary whose calls, self time and total time are reported.
TARGETS = (
    ("trigpoly", "Matrix3Field.__matmul__"),
    ("trigpoly", "Matrix3Field.det"),
    ("trigpoly", "TrigPoly.from_samples"),
    ("geometry", "metric_at"),
    ("geometry", "first_order_perturbation"),
    ("geometry", "second_order_perturbation"),
    ("geometry", "arc_length"),
    ("dirac", "DiracOperator.apply"),
    ("dirac", "dirac_operator"),
    ("dirac", "first_order_operator"),
    ("dirac", "second_order_operator"),
    ("galerkin", "galerkin_matrix"),
    ("galerkin", "eigenvalues"),
    ("galerkin", "track_pair"),
    ("galerkin", "spectrum_report"),
    ("perturbation", "Pseudoinverse.apply"),
    ("perturbation", "first_correction_operator"),
    ("perturbation", "second_correction_closed"),
    ("perturbation", "second_correction_operator"),
    ("perturbation", "fit_from_values"),
    ("perturbation", "perturbation_report"),
    ("config", "load_config_file"),
    ("config", "parse_config"),
    ("cli", "main"),
    ("cli", "cmd_galerkin"),
    ("cli", "cmd_fit"),
    ("cli", "cmd_asympt"),
    ("cli", "cmd_dump_matrix"),
)
# spans whose share of calls that raised is reported as ok_ratio
OK_RATIO = ("galerkin.track_pair", "perturbation.fit_from_values")


def _galerkin_cost(op, m, *args, **kwargs) -> dict:
    """Computed cost of the quadrature assembly: the basis-image reduction
    (order^2 * 2n complex multiply-adds) plus four length-n FFTs of both
    spinor components per basis image; bytes are the basis and image arrays
    read once and the matrix written once, cache misses ignored."""
    n, order = op.num_points, 2 * (2 * m + 1)
    return {
        "flops_computed": 16.0 * n * order**2 + 40.0 * order * n * math.log2(n),
        "bytes_computed": 64.0 * order * n + 16.0 * order**2,
    }


def _eigenvalues_cost(gm, *args, **kwargs) -> dict:
    """Computed cost of Hermitian tridiagonal reduction, which dominates eigvalsh."""
    return {"flops_computed": 16.0 / 3.0 * gm.order**3}


COUNTERS = {"galerkin.galerkin_matrix": _galerkin_cost, "galerkin.eigenvalues": _eigenvalues_cost}


class Recorder:
    """Spans as [name, start, end, parent id, failed], in opening order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, False])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[4] = failed
        self._stack.pop()

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds, failed calls].

        Self time is a span's duration minus the durations of its direct
        children, which never overlap in one thread.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for sid, (name, start, end, _, failed) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - covered[sid]
            s[3] += int(failed)
        return stats

    def root_totals(self) -> list[tuple[str, dict[str, float]]]:
        """Per root span: its name and the total time of each span name below it."""
        root = [0] * len(self.spans)
        per_root: dict[int, dict[str, float]] = {}
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            root[sid] = sid if parent < 0 else root[parent]
            totals = per_root.setdefault(root[sid], defaultdict(float))
            totals[name] += end - start
        return [(self.spans[sid][0], totals) for sid, totals in per_root.items()]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, failed) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "failed": failed}) + "\n")


def _wrap(rec: Recorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        if counter is not None:
            try:
                costs = counter(*args, **kwargs)
            except (AttributeError, TypeError):  # signature changed: no cost recorded
                costs = {}
            for key, value in costs.items():
                rec.counters[f"{name}.{key}"] += value
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid, failed=True)
            raise
        rec.close(sid)
        return result

    return traced_call


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap every target while the block runs; restore the originals after."""
    namespaces = [m for n, m in sys.modules.items() if n == "torusdirac" or n.startswith("torusdirac.")]
    undo = []

    def rebind(owners, old, new):
        for owner in owners:
            for alias, value in list(vars(owner).items()):
                if value is old:
                    undo.append((owner, alias, old))
                    setattr(owner, alias, new)

    try:
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            owner = sys.modules.get(f"torusdirac.{module}")
            *cls, attr = qualname.split(".")
            if cls and owner is not None:
                owner = getattr(owner, cls[0], None)
            if owner is None or attr not in vars(owner):
                continue  # gone from the package: reported as zero calls
            if cls:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, name, raw.__func__))
                else:
                    new = _wrap(rec, name, raw)
                rebind([owner], raw, new)  # aliases such as __call__ = apply
            else:
                fn = getattr(owner, attr)
                rebind(namespaces, fn, _wrap(rec, name, fn))
        yield rec
    finally:
        for owner, alias, old in reversed(undo):
            setattr(owner, alias, old)
