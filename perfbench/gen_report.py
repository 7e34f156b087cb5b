"""Regenerate the stored report that the constants_d8 workload loads.

    python3 perfbench/gen_report.py            # rewrite perfbench/data/fp-alpha2-depth8.json
    python3 perfbench/gen_report.py --check    # regenerate and compare bytes; exit 1 on change

The report is what `renormlab fixed-point --alpha 2 --depth 8 --grid 64
--tol 1e-8` writes, run in a fresh process with one BLAS thread, the thread
count the benchmark pins (the solver's bits depend on it).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STORED = BENCH / "data" / "fp-alpha2-depth8.json"


def generate(out: Path, alpha: float = 2.0, depth: int = 8, grid: int = 64, tol: float = 1e-8):
    """Write the fixed-point report for these settings to ``out`` through the CLI."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "renormlab.cli", "fixed-point", "--alpha", repr(alpha),
                    "--depth", str(depth), "--grid", str(grid), "--tol", repr(tol),
                    "--out", str(out)], cwd=ROOT, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored bytes")
    args = parser.parse_args(argv)
    if not args.check:
        STORED.parent.mkdir(exist_ok=True)
        generate(STORED)
        return 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        fresh = Path(tmp) / "report.json"
        generate(fresh)
        same = fresh.read_bytes() == STORED.read_bytes()
    print("identical" if same else f"differs from {STORED}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
