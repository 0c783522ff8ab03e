"""Reference medians and run-to-run spread of the benchmark.

    python3 bench/reference.py

Run from the repository root.  Runs bench/run.py on every workload of
BENCHMARK.json with seeds 1-10, one run after another; prints a Markdown
table of each end-to-end metric's median and its quartile spread (Q3 - Q1
over the median, as `statistics.quantiles(values, n=4)` gives the
quartiles), then the tracing overhead: the median over three back-to-back
pairs (seeds 1-3) of an untraced and a traced run of the traced over the
untraced round wall time.  Raw results go to bench/results/reference.json.
"""

import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loads, if it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return str(getattr(lib, name)())
    return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    raw = {}
    print(f"nproc {os.cpu_count()}, BLAS threads {blas_threads()}, "
          f"{len(SEEDS)} runs of {seconds} s, seeds {SEEDS[0]}-{SEEDS[-1]}\n")
    print("| workload | " + " | ".join(metrics) + " | failed share |")
    print("|---" * (len(metrics) + 2) + "|")
    for workload in names:
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        raw[workload] = {"untraced": results}
        cells = []
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results]
            cells.append(f"{statistics.median(values):.4g} ({spread(values):.1%})")
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        share = ", ".join(str(f) for f in sorted(shares))
        print(f"| {workload} | " + " | ".join(cells) + f" | {share} |", flush=True)
    print("\n| workload | traced/untraced round wall, per pair | overhead |")
    print("|---|---|---|")
    for workload in names:
        pairs = [(run(workload, seed, seconds, 0), run(workload, seed, seconds, 1))
                 for seed in TRACED_SEEDS]
        raw[workload]["pairs"] = pairs
        ratios = [traced["metrics"]["trace.wall_s"]["value"] / plain["metrics"]["wall_s"]["value"]
                  for plain, traced in pairs]
        print(f"| {workload} | {', '.join(f'{r:.3f}' for r in ratios)} | "
              f"{statistics.median(ratios) - 1:+.1%} |", flush=True)
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / "reference.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
