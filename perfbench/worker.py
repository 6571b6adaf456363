"""One workload in a fresh process; started by run.py, not by hand.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
              [--smoke] [--setup-only]

Set-up (imports, building the workload's configurations, kernels.warmup) is
timed from the first line of this file. An untraced run then repeats whole
rounds of the workload's operations until S seconds have passed, records
the process's peak RSS, and only then imports scipy and checks the outputs.
A traced run replays each round layer by layer instead (see tracing.py).
The result is one JSON object on the last line of standard output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import supergraph  # noqa: E402
from supergraph import cli, kernels, rng  # noqa: E402

import workloads  # noqa: E402


def _commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import platform

    import scipy

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "lane": "numba" if kernels.numba_enabled() else "numpy",
        "threads": os.environ.get("SUPERGRAPH_THREADS"), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "supergraph": supergraph.__version__,
        "commit": _commit(root),
    }


def edges_sampled(op, data: bytes) -> int:
    """Super-edges one run of ``op`` sampled, recounted outside the timed region."""
    if op.kind == "generate":
        return data.count(b"\n") - 1
    if op.kind != "experiment":
        return 0
    plan = op.plan
    arrays = plan.config.size_classes()
    p = plan.params().p
    return sum(kernels.sample_edges(*arrays, p, rng.stream_root(plan.seed, t))[0].shape[0]
               for t in range(plan.trials))


def check_outputs(ops, outcomes, outputs) -> list[str]:
    """All independent checks for one round's outputs."""
    import checks

    per_experiment = {"connectivity": checks.check_connectivity,
                      "giant": checks.check_giant, "degree": checks.check_degree}
    fails = []
    for op, outcome, data in zip(ops, outcomes, outputs):
        if op.kind == "experiment":
            doc = json.loads(data)
            fails += checks.check_components(op.plan, doc["trials"])
            fails += per_experiment[op.plan.experiment](op.plan, doc)
        elif op.kind == "predict":
            fails += checks.check_predict(op, outcome, data)
        else:
            if not outcome.ok:
                fails.append(f"{op.name} failed: {outcome.error.strip()}")
            else:
                fails += checks.check_export(op, data)
    return fails


def run_untraced(ops, args) -> dict:
    rounds, attempted, failed, fails = [], 0, 0, []
    reference = first = None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outcomes = [op.run() for op in ops]
        rounds.append(time.perf_counter() - t)
        attempted += len(ops)
        failed += sum(not o.ok for o in outcomes)
        outputs = [op.output(o) for op, o in zip(ops, outcomes)]
        if reference is None:
            reference, first = outputs, outcomes
        elif outputs != reference:
            fails.append(f"round {len(rounds) - 1} output differs from round 0")
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails += check_outputs(ops, first, reference)
    graphs = sum(op.graphs for op in ops)
    edges = sum(edges_sampled(op, data) for op, data in zip(ops, reference))
    wall = statistics.median(rounds)
    return {
        "attempted": attempted, "failed": failed, "failures": fails, "rounds_s": rounds,
        "graphs_per_round": graphs, "edges_per_round": edges,
        "metrics": {"wall_s": wall, "graphs_per_s": graphs / wall,
                    "edges_per_s": edges / wall, "peak_rss_mib": peak_rss_mib},
    }


def _timed_run(op, threads: str):
    os.environ["SUPERGRAPH_THREADS"] = threads
    t = time.perf_counter()
    outcome = op.run()
    return outcome, time.perf_counter() - t


def _replay_mismatch(op, outcome, data: bytes, replay: dict) -> list[str]:
    """The replay must reproduce what the op itself produced."""
    from supergraph.sampler import sample_direct

    if op.kind == "experiment":
        plan = op.plan
        trials = json.loads(data)["trials"]
        fails = [f"{op.name}: replayed {k} differ from the report"
                 for k, rows in replay["rows"].items() if rows != trials[k]]
        ref = sample_direct(plan.config, plan.params(), rng.stream_root(plan.seed, 0))
        got = replay["first"]
        if not (got.edges.dtype == ref.edges.dtype and np.array_equal(got.edges, ref.edges)
                and np.array_equal(got.sizes, ref.sizes)):
            fails.append(f"{op.name}: replayed trial 0 is not bit-identical to sample_direct")
        return fails
    if op.kind == "predict":
        if outcome.ok != (replay["rho"] is not None):
            return [f"{op.name}: replay and predict disagree on failure"]
        if outcome.ok and json.loads(data)["rho"] != replay["rho"]:
            return [f"{op.name}: replayed rho differs from predict"]
        return []
    if replay["text"] != data:
        return [f"{op.name}: replayed edge list differs from the exported file"]
    return []


def run_traced(ops, args) -> dict:
    import tracing

    threads = os.environ["SUPERGRAPH_THREADS"]
    samples, counts, tracers = [], None, []
    attempted, failed, fails = 0, 0, []
    reference = first = None
    start = time.perf_counter()
    while True:
        tr = tracing.Tracer()
        t_one = t_all = residual = traced = plain = 0.0
        outcomes, outputs = [], []
        for op in ops:
            if op.kind == "experiment":
                single, dt_one = _timed_run(op, "1")
                outcome, dt_all = _timed_run(op, threads)
                t_one += dt_one
                t_all += dt_all
                if op.output(single) != op.output(outcome):
                    fails.append(f"{op.name}: 1-worker and {threads}-worker reports differ")
                if op.render:
                    with tr.span("cli.render", op.name + "/render"):
                        cli.render_report(single.value, "json")
            else:
                outcome = op.run()
            data = op.output(outcome)
            outcomes.append(outcome)
            outputs.append(data)

            t = time.perf_counter()
            replay = tracing.REPLAY[op.kind](tr, op)
            traced += time.perf_counter() - t
            t = time.perf_counter()
            tracing.REPLAY[op.kind](tracing.NullTracer(), op)
            plain += time.perf_counter() - t
            fails += _replay_mismatch(op, outcome, data, replay)
            if op.kind == "experiment":
                residual += dt_one - tracing.op_layer_seconds(tr, op.name)
        attempted += len(ops)
        failed += sum(not o.ok for o in outcomes)
        if reference is None:
            reference, first = outputs, outcomes
        elif outputs != reference:
            fails.append(f"traced round {len(samples)} output differs from round 0")

        times = {f"{name}_s": s for name, s in tracing.layer_seconds(tr).items()}
        times.update({
            "montecarlo.run_experiment_s": t_one,
            "montecarlo.residual_s": residual,
            "montecarlo.thread_speedup": t_one / t_all if t_all else 0.0,
            "trace.overhead_s": traced - plain,
        })
        samples.append(times)
        round_counts = {name: int(tr.counts[name]) for name in tracing.COUNTS}
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            fails.append(f"traced round {len(samples) - 1} counts differ: {round_counts}")
        tracers.append(tr)
        if time.perf_counter() - start >= args.seconds:
            break
    os.environ["SUPERGRAPH_THREADS"] = threads

    fails += check_outputs(ops, first, reference)
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update(counts)
    spans = [{"round": r, "id": s[0], "parent": s[1], "name": s[2], "op": s[3],
              "request": s[4], "start_ns": s[5], "end_ns": s[6]}
             for r, tr in enumerate(tracers) for s in tr.spans]
    return {"attempted": attempted, "failed": failed, "failures": fails,
            "rounds": samples, "metrics": metrics, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.smoke, args.out_dir)
    kernels.warmup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        result = (run_traced if args.trace else run_untraced)(ops, args)
    finally:
        workloads.cleanup(ops)
    result["setup_s"] = setup_s
    result["provenance"] = provenance(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
