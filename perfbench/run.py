"""Benchmark for supergraph: one workload per call, or every workload in smoke mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. Each workload runs in a fresh worker
process with ``SUPERGRAPH_THREADS`` set to the CPUs this process may use.
An untraced run (``--trace 0``) prints the end-to-end metrics of
BENCHMARK.json; a traced run (``--trace 1``) prints the per-layer metrics.
Set-up is timed in several extra worker processes as well and reported as
the median. Every metric is printed as "name value unit", then the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record, with provenance and (traced) the spans, goes
to ``perfbench/out/``. ``--smoke`` runs every workload at tiny sizes,
traced and untraced, with the same checks and no timing bounds.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 6  # extra set-up samples; the worker's own makes the seventh


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    if not os.path.isfile(os.path.join(SRC, "supergraph", "__init__.py")):
        raise BenchError(f"no supergraph sources under {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["SUPERGRAPH_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def call_worker(args: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON on its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
        raise BenchError(f"worker ran past the {BUDGET_S:.0f} s budget") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                 probes: int) -> tuple[dict, dict]:
    """Run one workload; returns (printed result, full record)."""
    spec = load_spec()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {name!r}")
    env = worker_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", name, "--seed", str(seed), "--out-dir", OUT_DIR,
            "--trace", str(trace)] + (["--smoke"] if smoke else [])

    def probe() -> float:
        return call_worker(base + ["--seconds", "0", "--setup-only"], env, deadline)["setup_s"]

    # half the set-up probes run before the workload and half after, so that
    # a slow spell of the machine does not land on all of them
    setup = [] if trace else [probe() for _ in range(probes // 2)]
    record = call_worker(base + ["--seconds", repr(seconds)], env, deadline)
    setup.append(record["setup_s"])
    if not trace:
        setup += [probe() for _ in range(probes - probes // 2)]

    metrics = dict(record["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setup)
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for m in declared:
        value = metrics[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not a finite number: {value!r}")
        if not trace and value <= 0:
            raise BenchError(f"end-to-end metric {m['name']} reads {value!r}")

    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record["setup_samples_s"] = setup
    record.update(result)
    suffix = "_trace" if trace else ""
    spans = record.pop("spans", None)
    with open(os.path.join(OUT_DIR, f"BENCH_{name}{suffix}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"spans_{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    return result, record


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks and schema only."""
    bad = 0
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            start = time.monotonic()
            try:
                result, record = run_workload(w["name"], seed=1, seconds=0, trace=trace,
                                              smoke=True, probes=1)
            except BenchError as exc:
                bad += 1
                print(f"{w['name']:<24} trace={trace} error: {exc}")
                continue
            ok = result["correct"] and result["attempted"] >= 1
            bad += not ok
            print(f"{w['name']:<24} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{time.monotonic() - start:.1f}s")
            for failure in record["failures"]:
                print(f"  FAIL {failure}")
    print("smoke: " + ("all workloads passed" if not bad else f"{bad} run(s) failed"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check outputs only")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        if not 0 <= args.seed < 1 << 64:
            raise BenchError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                      smoke=False, probes=SETUP_PROBES)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
