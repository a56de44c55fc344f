"""Pin the outputs of every bundled-example operation to bench/reference.json.

    python3 bench/pin_reference.py

The benchmark compares each later run against these values (to 1e-9) and
reports the largest drift. Run it only at a commit whose numbers are trusted.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run  # noqa: F401  (one BLAS thread, as in benchmark runs)
import workloads


def main() -> None:
    refs = {}
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=out) as workdir:
            ops, _ = workloads.build(workload, 0, Path(workdir), {})
            refs[workload] = {}
            for op in ops:
                if op.key.startswith("example-"):
                    observed = op.check(op.run())
                    if observed:
                        refs[workload][op.key] = observed
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
