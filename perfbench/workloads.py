"""The four benchmark workloads and the operations each one times.

A workload is a fixed list of operations; one round runs each of them once,
on inputs derived only from the workload seed. Every round of a run repeats
the same inputs, so rounds do the same work and their outputs must match
byte for byte. Each operation goes through the program's public entry
points: the Monte Carlo runners, ``cli.render_report`` and ``cli.main``.

Sizes are chosen so one round takes a few seconds on two cores with the
numpy lane; ``SMOKE`` shrinks every workload to a second or two while
keeping its shape (the isolated-count guard stays active, the degree
workload keeps its three predict calls, failing one included).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

from supergraph import cli, montecarlo
from supergraph.config import SizeConfiguration, parse_inline, power_law_configuration

# predict runs at c = c* (1 + eps); the last one is the known solver fault
PREDICT_EPS = (1e-2, 1e-4, 1e-6)
KNOWN_FAULT_EPS = 1e-6

FULL = {
    "conn_small_many": {"sizes": {1: 1000}, "c": 0.0, "trials": 500},
    "giant_large_few": {"sizes": {1: 500_000}, "c": 2.0, "trials": 3},
    "degree_powerlaw_theory": {"n": 100_000, "alpha": 2.0, "max_size": 300, "c": 1.0,
                               "trials": 4, "predict": "1x50000,2x50000"},
    "generate_export": {"inline": "1x500000,2x250000", "c": 1.5},
}
SMOKE = {
    "conn_small_many": {"sizes": {1: 200}, "c": 0.0, "trials": 500},
    "giant_large_few": {"sizes": {1: 20_000}, "c": 2.0, "trials": 3},
    "degree_powerlaw_theory": {"n": 20_000, "alpha": 2.0, "max_size": 30, "c": 1.0,
                               "trials": 4, "predict": "1x500,2x500"},
    "generate_export": {"inline": "1x5000,2x2500", "c": 1.5},
}


@dataclass
class Outcome:
    """What one operation returned: whether it succeeded and its output."""

    ok: bool
    value: object
    error: str = ""


class ExperimentOp:
    """``run_experiment`` on a plan, optionally followed by ``render_report``."""

    kind = "experiment"

    def __init__(self, name: str, plan: montecarlo.ExperimentPlan, render: bool):
        self.name = name
        self.plan = plan
        self.render = render
        self.graphs = plan.trials

    def run(self) -> Outcome:
        report = montecarlo.run_experiment(self.plan)
        if self.render:
            cli.render_report(report, "json")
        return Outcome(True, report)

    def output(self, outcome: Outcome) -> bytes:
        """The rendered report without ``wall_time``, the only field that varies."""
        doc = json.loads(cli.render_report(outcome.value, "json"))
        del doc["meta"]["wall_time"]
        return json.dumps(doc, sort_keys=True).encode()


class PredictOp:
    """``supergraph predict`` at c = c* (1 + eps) in the sparse regime."""

    kind = "predict"
    graphs = 0

    def __init__(self, name: str, inline: str, eps: float, out_path: str):
        self.name = name
        self.inline = inline
        self.config = parse_inline(inline)
        self.eps = eps
        self.known_fault = eps == KNOWN_FAULT_EPS
        # c* = 1/s2 = n / sum j^2 k_j, written out apart from the program
        counts = self.config.counts
        c_star = sum(i * k for i, k in counts.items()) / sum(i * i * k for i, k in counts.items())
        self.c = c_star * (1.0 + eps)
        self.out_path = out_path

    def run(self) -> Outcome:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["predict", "--inline", self.inline, "--regime", "sparse",
                             "--c", repr(self.c), "--out", self.out_path])
        return Outcome(code == 0, code, err.getvalue())

    def output(self, outcome: Outcome) -> bytes:
        if not outcome.ok:
            return outcome.error.encode()
        with open(self.out_path, "rb") as fh:
            return fh.read()


class GenerateOp:
    """``supergraph generate`` in the sparse regime, written to a file."""

    kind = "generate"
    graphs = 1

    def __init__(self, name: str, inline: str, c: float, seed: int, sampler: str,
                 out_path: str):
        self.name = name
        self.inline = inline
        self.config = parse_inline(inline)
        self.c = c
        self.seed = seed
        self.sampler = sampler
        self.out_path = out_path

    def run(self) -> Outcome:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["generate", "--inline", self.inline, "--regime", "sparse",
                             "--c", repr(self.c), "--seed", str(self.seed),
                             "--sampler", self.sampler, "--out", self.out_path])
        return Outcome(code == 0, code, err.getvalue())

    def output(self, outcome: Outcome) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()


def build(name: str, seed: int, smoke: bool, out_dir: str) -> list:
    """The operations of one round of workload ``name`` for ``seed``."""
    spec = (SMOKE if smoke else FULL)[name]
    tmp = os.path.join(out_dir, f"tmp_{os.getpid()}_{name}")
    if name in ("conn_small_many", "giant_large_few"):
        experiment, regime = (("connectivity", "connectivity") if name == "conn_small_many"
                              else ("giant", "sparse"))
        plan = montecarlo.ExperimentPlan(
            config=SizeConfiguration(dict(spec["sizes"])), regime=regime, c=spec["c"],
            trials=spec["trials"], seed=seed, experiment=experiment)
        return [ExperimentOp(experiment, plan, render=name == "conn_small_many")]
    if name == "degree_powerlaw_theory":
        config = power_law_configuration(spec["n"], spec["alpha"], spec["max_size"])
        plan = montecarlo.ExperimentPlan(config=config, regime="sparse", c=spec["c"],
                                         trials=spec["trials"], seed=seed,
                                         experiment="degree")
        ops = [ExperimentOp("degree", plan, render=False)]
        ops += [PredictOp(f"predict_eps{eps:g}", spec["predict"], eps, f"{tmp}_{i}.json")
                for i, eps in enumerate(PREDICT_EPS)]
        return ops
    if name == "generate_export":
        return [GenerateOp(f"generate_{sampler}", spec["inline"], spec["c"], seed, sampler,
                           f"{tmp}_{sampler}.txt")
                for sampler in ("direct", "constructive")]
    raise ValueError(f"unknown workload {name!r}")


def cleanup(ops: list) -> None:
    """Remove the files the operations wrote."""
    for op in ops:
        path = getattr(op, "out_path", None)
        if path and os.path.exists(path):
            os.remove(path)
