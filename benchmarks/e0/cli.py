"""Command line of e0.

``run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this process (the form ``BENCHMARK.json``
    names): prints every metric, then one JSON object as the last line.
``run.py run [--seed N] [--rounds R] [--smoke] [--out FILE]``
    the whole benchmark: every workload untraced then traced, each in its
    own fresh subprocess, ``R`` interleaved rounds; writes a result set.
``run.py compare BASE.json CANDIDATE.json``
    medians against the bounds; exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _pin_threads() -> None:
    """One BLAS / OpenMP thread, set before NumPy is first imported."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"


def _host(seed: int) -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return dict(nproc=os.cpu_count(), cpu=cpu, python=host_platform.python_version(),
                numpy=numpy.__version__, commit=commit, seed=seed)


# ---------------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e0: no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    _pin_threads()
    from .workloads import OUT_DIR, WORKLOADS, Run

    run = Run(args.workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke)
    try:
        WORKLOADS[args.workload](run)
        run.finish()
        if run.tracer is not None:
            run.tracer.write(
                os.path.join(OUT_DIR, f"trace_{args.workload}.json"),
                dict(workload=args.workload, seed=args.seed, smoke=args.smoke),
            )
    finally:
        run.close()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(run.metrics):
        print(f"{args.workload:<17}{name:<52}{run.metrics[name]:>16.6g} {units.get(name, '')}")
    for failure in run.failures[:20]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        value = run.metrics.get(metric["name"], 0.0)
        if not args.trace and not value:
            raise RuntimeError(f"end-to-end metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not run.failures
    print(json.dumps(dict(correct=correct, attempted=max(run.attempted, 1),
                          failed=len(run.failures), metrics=metrics)))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
def _dump_set(body: Dict[str, object], handle) -> None:
    """A result set as JSON with one metric per line, so two sets diff line by line."""
    runs = body.pop("runs")
    handle.write(json.dumps(body, indent=1, sort_keys=True)[:-2] + ',\n "runs": [\n')
    for i, run in enumerate(runs):
        metrics = run.pop("metrics")
        lines = ",\n".join(f"   {json.dumps(name)}: {json.dumps(metrics[name], sort_keys=True)}"
                           for name in sorted(metrics))
        handle.write("  " + json.dumps(run, sort_keys=True)[:-1] + ', "metrics": {\n' + lines + "\n  }}"
                     + (",\n" if i < len(runs) - 1 else "\n"))
    handle.write(" ]\n}\n")


def run_set(args: argparse.Namespace) -> int:
    """Every workload untraced then traced, each in a fresh subprocess."""
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs: List[Dict[str, object]] = []
    failed = False
    started = time.perf_counter()
    for round_index in range(args.rounds):
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode not in (0, 1) or not lines:
                    sys.stderr.write(done.stderr)
                    print(f"{workload} (trace {trace}) exited with {done.returncode}", file=sys.stderr)
                    return 2
                result = json.loads(lines[-1])
                failed = failed or not result["correct"]
                sys.stderr.write(done.stderr)
                print("\n".join(lines[:-1]))
                print(f"{workload:<17}round {round_index} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                runs.append(dict(workload=workload, round=round_index, trace=trace, **result))
    body = dict(host=_host(args.seed), smoke=args.smoke, run_seconds=seconds, rounds=args.rounds, runs=runs)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        _dump_set(body, handle)
    print(f"wrote {args.out} ({len(runs)} runs, {time.perf_counter() - started:.0f} s)")
    return 1 if failed else 0


def compare(args: argparse.Namespace) -> int:
    from .compare import compare_sets, format_rows, load_values

    rows = compare_sets(load_values(args.base), load_values(args.candidate), load_spec())
    print(format_rows(rows))
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('regression')} regression(s), {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('ok')} ok")
    return 1 if "regression" in verdicts else 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="e0 run")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--rounds", type=int, default=1)
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--out", default=os.path.join(HERE, "out", "results.json"))
        return run_set(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="e0 compare")
        parser.add_argument("base")
        parser.add_argument("candidate")
        return compare(parser.parse_args(argv[1:]))
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="e0")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return run_workload(parser.parse_args(argv))
