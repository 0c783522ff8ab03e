"""pdckit benchmark: run one workload through `pdckit.cli.main` in process.

    python3 bench/run.py --workload spectral_grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src.  A run
writes the workload's inputs under bench/work/, then repeats the
workload's fixed command list in whole rounds until --seconds have
passed, checks every command's CSV against bench/oracle.py, and prints
one JSON line: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  In both modes the first round is
an untimed, untraced warm-up: its outputs are checked and every later
round must print the same bytes and exit codes.  A traced run writes the
spans of its first traced round to bench/results/.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Set-up time is the import every CLI invocation pays, taken cold in
# this fresh process before anything else heavy is imported.
_start = time.perf_counter()
try:
    import pdckit.cli
except ImportError as exc:
    sys.exit(f"bench: cannot import pdckit from {SRC}: {exc}")
SETUP_S = time.perf_counter() - _start
if not os.path.abspath(pdckit.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"bench: pdckit was imported from {pdckit.cli.__file__}, not {SRC}")

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent

# Perturbations that the checks must reject, applied to real outputs of
# each run: (command kind, column, absolute change).  Dropping the last
# row is tried on every kind.
PERTURBATIONS = (("tmax", "tmax", 1e-6), ("invert", "probability", 1e-4),
                 ("fidelity", "fidelity", 1e-6), ("hom-scan", "overlap", 1e-6))


def run_command(argv):
    """(seconds, exit code or None if main raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pdckit.cli.main(argv)
    except Exception as exc:  # a traceback out of main is a failed operation
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_round(commands):
    """Run the command list once: (wall seconds, per-command results)."""
    start = time.perf_counter()
    results = [run_command(cmd.argv) for cmd in commands]
    return time.perf_counter() - start, results


def perturbed(text: str, column: str, delta: float) -> str:
    lines = text.split("\n")
    index = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[index] = repr(float(cells[index]) + delta)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def self_test(commands, results) -> list[str]:
    """Feed the checks perturbed copies of real outputs; list those accepted."""
    first = {}
    for cmd, (_, code, out, err) in zip(commands, results):
        if code == 0 and not cmd.expect_error:
            first.setdefault(cmd.kind, (cmd, out, err))
    cases = []
    for kind, (cmd, out, err) in first.items():
        cases.append((cmd, "\n".join(out.split("\n")[:-2]) + "\n", err, "row missing"))
    for kind, column, delta in PERTURBATIONS:
        if kind in first:
            cmd, out, err = first[kind]
            cases.append((cmd, perturbed(out, column, delta), err, f"{column} {delta:+g}"))
    return [f"{cmd.kind} with {what} was accepted" for cmd, text, err, what in cases
            if not oracle.check_output(cmd, 0, text, err)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs-only", action="store_true",
                        help="write the inputs, print their directory and stop")
    args = parser.parse_args()

    spec = json.loads((Path(ROOT) / "BENCHMARK.json").read_text())
    work = BENCH / "work" / f"{args.workload}-s{args.seed}"
    commands = workloads.generate(args.workload, args.seed, work, Path(ROOT))
    if args.inputs_only:
        print(work)
        return 0

    problems = []
    attempted = failed = 0
    # latencies in a flat array, so that a run's RSS hardly grows with its rounds
    walls, latencies, reference = [], array.array("d"), None
    tracer = tracing.Tracer() if args.trace else None
    traced_walls, printed_iterations = [], 0
    begin = time.perf_counter()
    while True:
        warmup = reference is None
        traced = tracer is not None and not warmup
        if traced:
            tracer.install()
        try:
            wall, results = run_round(commands)
        finally:
            if traced:
                tracer.uninstall()
                tracer.end_round()
        attempted += len(commands)
        failed += sum(code is None for _, code, _, _ in results)
        outputs = [(code, out) for _, code, out, _ in results]
        if warmup:
            reference = outputs
            for cmd, (_, code, out, err) in zip(commands, results):
                if code is not None:
                    problems += [f"{cmd.kind} {cmd.argv[2]}: {p}"
                                 for p in oracle.check_output(cmd, code, out, err)]
                elif not cmd.expect_error:
                    problems.append(f"{cmd.kind} {cmd.argv[2]}: raised {err.strip()}")
            accepted = self_test(commands, results)
            if accepted:
                sys.exit("bench: a check accepted a perturbed output: " + "; ".join(accepted))
        elif outputs != reference:
            problems.append("a command printed other CSV or exit code than in the first round")
        if traced:
            traced_walls.append(wall)
            for cmd, (_, code, _, err) in zip(commands, results):
                if cmd.kind == "invert" and code == 0:
                    count = oracle.converged_iterations(err)
                    if count is None:
                        problems.append(f"invert {cmd.argv[2]} printed no iteration count")
                    else:
                        printed_iterations += count
        elif not warmup:
            walls.append(wall)
            latencies.extend(seconds for seconds, _, _, _ in results)
        if time.perf_counter() - begin >= args.seconds and (walls or traced_walls):
            break

    if tracer is None:
        values = {
            "setup_s": SETUP_S,
            "wall_s": statistics.median(walls),
            "cmd_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        values = tracer.layer_metrics()
        values["trace.wall_s"] = statistics.median(traced_walls)
        if tracer.em_iterations != printed_iterations:
            problems.append(f"traced EM iterations {tracer.em_iterations} disagree with "
                            f"the {printed_iterations} that invert printed")
        results_dir = BENCH / "results"
        results_dir.mkdir(exist_ok=True)
        tracer.write(results_dir / f"{args.workload}-s{args.seed}.spans.jsonl")
        wanted = spec["per_layer"]
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    rounds = walls + traced_walls
    print(f"bench: {args.workload} seed {args.seed}: a warm-up and {len(rounds)} "
          f"{'traced' if tracer else 'untraced'} rounds of {len(commands)} commands, round wall "
          f"{min(rounds):.3f}-{max(rounds):.3f} s", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
