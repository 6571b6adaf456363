"""Command-line entry point: generation, prediction, and the experiments.

Exit codes: 0 success, 2 usage error, 1 runtime failure. All data goes to
--out (default stdout); errors go to stderr. Reports render as JSON with a
stable field order, so identical argv give byte-identical output except for
the wall_time field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import theory
from .config import (SizeConfiguration, empirical_profile, parse_configuration,
                     parse_inline, power_law_configuration, serialize_configuration)
from .montecarlo import ExperimentPlan, ExperimentReport, run_experiment
from .sampler import REGIMES, resolve_p, sample_constructive, sample_direct, write_edge_list


def render_report(report: ExperimentReport, fmt: str) -> str:
    """Render a report as canonical JSON or as per-trial / plot-ready CSV."""
    if fmt == "json":
        doc = {
            "meta": report.meta,
            "estimates": {
                name: {"value": value, "stderr": stderr}
                for name, (value, stderr) in report.estimates.items()
            },
            "theory": report.theory,
            "distributions": {
                name: {str(k): v for k, v in sorted(pmf.items())}
                for name, pmf in report.distributions.items()
            },
            "trials": {name: arr.tolist() for name, arr in report.trial_stats.items()},
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        if report.experiment == "degree":
            emp = report.distributions["degree_hist"]
            th = report.distributions["degree_theory"]
            lines = ["k,empirical,theory"]
            lines += [f"{k},{emp[k]!r},{th[k]!r}" for k in sorted(emp)]
            return "\n".join(lines) + "\n"
        stats = report.trial_stats
        lines = ["trial,connected,isolated,L1,L2"]
        for t in range(len(stats["connected"])):
            lines.append(f"{t},{int(stats['connected'][t])},{int(stats['isolated'][t])},"
                         f"{int(stats['L1'][t])},{int(stats['L2'][t])}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _load_config(args) -> SizeConfiguration:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            return parse_configuration(fh.read())
    return parse_inline(args.inline)


@contextlib.contextmanager
def _output(args):
    """Yield stdout, or the --out file opened for writing."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh


def _add_config_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH",
                       help='configuration JSON file {"sizes": {"<i>": <k_i>, ...}}')
    group.add_argument("--inline", metavar="SPEC",
                       help="inline shorthand, e.g. 1x500,2x250 (sizeXcount)")


def _cmd_generate(args) -> int:
    config = _load_config(args)
    params = resolve_p(args.regime, args.c, config)
    sampler = sample_constructive if args.sampler == "constructive" else sample_direct
    graph = sampler(config, params, args.seed)
    with _output(args) as out:
        write_edge_list(graph, out)
    return 0


def _cmd_predict(args) -> int:
    config = _load_config(args)
    params = resolve_p(args.regime, args.c, config)
    profile = empirical_profile(config)
    n_super, n_vert = config.num_super, config.num_vertices
    c_conn = params.p * n_super - math.log(n_super)
    c_sparse = params.p * n_vert
    solution = theory.solve_giant_fraction(profile, c_sparse)
    doc = {
        "N": n_super,
        "n": n_vert,
        "p": params.p,
        "E_isolated": theory.expected_isolated(config, params.p),
        "Var_isolated": theory.variance_isolated(config, params.p),
        "P_connected_limit": theory.limit_connectivity_probability(c_conn, profile.u),
        "c_star": theory.critical_threshold(profile),
        "rho": solution.rho,
        "rho_by_size": {str(i): v for i, v in sorted(solution.rho_by_size.items())},
        "giant_solver": {"iterations": solution.iterations, "residual": solution.residual},
        "degree_pmf": theory.degree_pmf_head(profile, c_sparse),
    }
    with _output(args) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    plan = ExperimentPlan(config=config, regime=args.regime, c=args.c,
                          trials=args.trials, seed=args.seed, experiment=args.experiment)
    report = run_experiment(plan)
    with _output(args) as out:
        out.write(render_report(report, args.format))
    return 0


def _cmd_powerlaw(args) -> int:
    config = power_law_configuration(args.n, args.alpha, args.max_size)
    with _output(args) as out:
        out.write(serialize_configuration(config) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supergraph",
        description="Super-vertex random graphs G(N, K, p): sampling, closed-form "
                    "predictions, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate",
        help="sample one realization and write its edge list",
        description="Sample one realization of G(N, K, p) and write it as an edge list "
                    '(header "# N=... sizes=...", then one "u v" line per edge).')
    _add_config_flags(gen)
    gen.add_argument("--regime", choices=REGIMES, required=True,
                     help="how --c is read: raw probability, (ln N + c)/N, or c/n")
    gen.add_argument("--c", type=float, required=True, help="parameter for the regime")
    gen.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
    gen.add_argument("--sampler", choices=("direct", "constructive"), default="direct",
                     help="pair-Bernoulli sampler or underlying-graph collapse")
    gen.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    pred = sub.add_parser(
        "predict",
        help="emit closed-form predictions as JSON",
        description="Emit the closed-form predictions for a configuration: exact "
                    "isolated-count moments, the connectivity limit exp(-exp(-c)) "
                    "(u = 1 clause), the critical threshold c* = 1/s2, the "
                    "giant-component fraction rho from the kernel fixed point, and "
                    "the mixed-Poisson degree pmf.")
    _add_config_flags(pred)
    pred.add_argument("--regime", choices=REGIMES, required=True)
    pred.add_argument("--c", type=float, required=True)
    pred.add_argument("--out", metavar="PATH")
    pred.set_defaults(func=_cmd_predict)

    experiments = (
        ("connectivity", "connectivity",
         "Monte Carlo check of the connectivity threshold: estimates P(connected) at "
         "p = (ln N + c)/N and compares with the limit exp(-exp(-c)) for u = 1 "
         "(1 for u > 1); also tests the isolated count X against its Poisson limit."),
        ("giant", "sparse",
         "Monte Carlo check of the giant-component phase transition: estimates mean "
         "L1/N and L2/N at p = c/n against the fixed-point fraction rho, with the "
         "transition at c * s2 = 1."),
        ("degree", "sparse",
         "Monte Carlo check of the degree law: averages Z_k/N at p = c/n and compares "
         "with the mixed Poisson sum_i mu_i Po(i c) in total variation."),
    )
    for name, default_regime, description in experiments:
        cmd = sub.add_parser(name, help=f"run the {name} experiment",
                             description=description)
        _add_config_flags(cmd)
        cmd.add_argument("--regime", choices=REGIMES, default=default_regime,
                         help=f"parameterization of p (default: {default_regime})")
        cmd.add_argument("--c", type=float, required=True)
        cmd.add_argument("--trials", type=int, default=100)
        cmd.add_argument("--seed", type=int, required=True, help="64-bit unsigned seed")
        cmd.add_argument("--out", metavar="PATH")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.set_defaults(func=_cmd_experiment, experiment=name)

    pl = sub.add_parser(
        "powerlaw",
        help="write a power-law size configuration file",
        description="Write a power-law size configuration (tail sum_{i>=k} mu_i = "
                    "k^-alpha) as a configuration JSON document, composable with any "
                    "other subcommand via --config.")
    pl.add_argument("--n", type=int, required=True, help="number of super-vertices N")
    pl.add_argument("--alpha", type=float, required=True, help="tail exponent, > 1")
    pl.add_argument("--max-size", type=int, required=True, help="largest super-vertex size")
    pl.add_argument("--out", metavar="PATH")
    pl.set_defaults(func=_cmd_powerlaw)

    return parser


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -1e-3 as an option name; --c=VALUE it reads as a value
    for i in range(len(argv) - 1, 0, -1):  # backwards: a join shifts only what was read
        if argv[i - 1] == "--c" and _is_float(argv[i]):
            argv[i - 1:i + 1] = [f"--c={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"supergraph: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
