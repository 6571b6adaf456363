"""Golden SHA-256 hashes of sampler edges, ``generate`` output and reports.

The hashes pin exact bytes: the edge arrays of both samplers over a grid of
configurations, p and seeds and over a 22-class power-law configuration
(253 blocks, some of them empty), the edge list printed by ``supergraph
generate`` (on N = 420, on N = 210,000, whose endpoints reach six
digits, and on N = 1,000,001, whose endpoints reach seven), and the JSON
reports of the three experiments with the ``wall_time`` line removed (one
giant report on N = 20,000, where labelling takes several hook rounds, and
one degree report on a 34-class power-law configuration), and the CSV
renderings of the same reports, and the JSON that ``supergraph predict``
prints: near c* on a two-class configuration, on a 300-size power-law
configuration read with ``--config``, at c = 0 in the connectivity regime
and on a single super-vertex. A refactor of the kernels, the component
labelling or the theory must leave all of them unchanged.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from supergraph import cli
from supergraph.cli import render_report
from supergraph.config import (SizeConfiguration, empirical_profile, parse_inline,
                               power_law_configuration, serialize_configuration)
from supergraph.montecarlo import ExperimentPlan, run_experiment
from supergraph.sampler import resolve_p, sample_constructive, sample_direct
from supergraph.theory import critical_threshold

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

ROOT = Path(__file__).resolve().parent.parent

EDGE_GRID = [
    ({1: 200}, 0.01),
    ({1: 50, 2: 50}, 0.005),
    ({1: 20, 2: 10, 3: 5, 7: 2}, 0.02),
    ({2: 80}, 0.3),
    ({1: 4, 5: 3}, 0.97),
    ({1: 40}, 0.07),
    ({1: 10, 2: 6, 5: 3}, 0.03),
    ({2: 25}, 0.01),
    ({1: 3, 7: 2}, 0.9),
]
EDGE_SEEDS = (0, 1, 31337, 2024)

EDGE_HASHES = {
    "sample_direct {1: 200} 0.01":
        "71cab8f8aeb9921314549cff2b242b4e80297f7b6d2aa68d6116e7af03c9ba7c",
    "sample_constructive {1: 200} 0.01":
        "9f6272d3f2d06903facc2b38efa6fc79b441f48d8c8bf5e7418a5fe47c71fbf8",
    "sample_direct {1: 50, 2: 50} 0.005":
        "2a0703d277d5e528ffb2c3e586a7a822a62ab721c64159970554e88e2896df32",
    "sample_constructive {1: 50, 2: 50} 0.005":
        "2a8f9e0d41e5e1667a6e8e0013daf49d2bbc7fdf2a465da4fb69e11f22d273fb",
    "sample_direct {1: 20, 2: 10, 3: 5, 7: 2} 0.02":
        "9ff7793b9ee2046c636319eadd07abd4d1be6cc2cb1424f7daaf22a3160cb309",
    "sample_constructive {1: 20, 2: 10, 3: 5, 7: 2} 0.02":
        "057313540339cef452bce9900f18388b10a080f188116f3142def13cde7aa906",
    "sample_direct {2: 80} 0.3":
        "fe7480994c3effa922d1c174f838890bc3306eaecaa26d42de6a2ee70255d1c0",
    "sample_constructive {2: 80} 0.3":
        "df3d8e4502f7329fe9d456ebb9d82244eeed2c9f108aa00602a167f411b615d1",
    "sample_direct {1: 4, 5: 3} 0.97":
        "c54b137bc5b2af6351ce154843226d6a0da597054cd6fa8539c436d02861aa9d",
    "sample_constructive {1: 4, 5: 3} 0.97":
        "e8e847c470638686280e5030d8e459a8abfdb88e12eaee4811344c00fdbdcc40",
    "sample_direct {1: 40} 0.07":
        "3a050714c1f3a783b94dcd7ebec08cf4accf1acd8e959f9d84491f8f298986fd",
    "sample_constructive {1: 40} 0.07":
        "03a5f905efedf24509a7cb9810e315adf1f32d2c30380554d5c570baa6a9ec9b",
    "sample_direct {1: 10, 2: 6, 5: 3} 0.03":
        "2b4352d71962f0832b819e06c0d2885a4690785d902eb3a3a3bfada601b03310",
    "sample_constructive {1: 10, 2: 6, 5: 3} 0.03":
        "63eb1f1f7b47ca4a8f3cb062968db25a7637dd639585bc01fb9a53f6f0546467",
    "sample_direct {2: 25} 0.01":
        "5b3197bef9302fbf947debd773f212e26c417eb0af0321ea0a700265ea31287b",
    "sample_constructive {2: 25} 0.01":
        "f51a81f10c3cbd9d7bdaa8e60e68dbdb05b94ffb71e5a18b26785048629568f0",
    "sample_direct {1: 3, 7: 2} 0.9":
        "7f89a47bf958ff78a90b13a00f46877cbb975e830d667cb33e26c109ca1b01ac",
    "sample_constructive {1: 3, 7: 2} 0.9":
        "7a0b3d4ac97b1517305f30f5708bd23cf9297b96f1025ebb1925d54725da9e7e",
}

# 22 size classes, so 253 blocks; the count-1 classes leave their diagonal blocks empty
MANY_CLASS_CONFIG = (5000, 2.0, 40)
MANY_CLASS_HASHES = {
    "sample_direct 1.0": "b09b0b2ef3b4fa31cc3c38d5ab5402554f1a16891b7cba40ba929de2a2fdc11e",
    "sample_direct 3.0": "d25c8efae6306fdc27c7fbb5318ed766869792d7ad8775d07c908b9da06bae52",
    "sample_constructive 1.0": "a401d70064aa43a1b72ca0150d865cf435967e3ec96e0d4df62b09c06bb5b3a4",
    "sample_constructive 3.0": "97a0b50ae3f20764c136340602a2da708bfdede678adc97fcb9a9ad0e65b41b6",
}

GENERATE_ARGV = ["generate", "--inline", "1x300,2x100,5x20", "--regime", "sparse",
                 "--c", "1.5", "--seed", "7"]
GENERATE_HASHES = {
    "direct": "6df5c7676d633da2ac9922d7cd9e4c53fed59ae263567ad876c3302db00d9290",
    "constructive": "0f9e35d2338940d30af1c9d6888cd624d947dd71a7a245ab154ee00436583e7a",
}
WIDE_GENERATE_ARGV = ["generate", "--inline", "1x150000,2x60000", "--regime", "sparse",
                      "--c", "1.5", "--seed", "9"]
WIDE_GENERATE_HASHES = {
    "direct": "55d380a4157aadcc875d543f15314aca8bcad72940a7405fadc14ac92f944168",
    "constructive": "b67e270b568e6225441efb7039442049fd67fcdb64c97f8ed0740499ed3f1e67",
}
MILLION_GENERATE_ARGV = ["generate", "--inline", "1x600000,2x400001", "--regime", "sparse",
                         "--c", "1.5", "--seed", "9"]
MILLION_GENERATE_HASHES = {
    "direct": "8c17539f9652864ba0458545cf4ee862697e031ef6ad04f1490457217dd833b1",
    "constructive": "f3cc9c08803b9e6075bb5d93095f80f03322aed5773884b6e12f17507d236356",
}

# name -> (experiment, counts, regime, c, trials, seed); "giant_at_scale" takes
# 4 hook rounds per trial, the last with 1,700-2,600 cross edges, and
# "degree_power_law" sums its degree law over 34 size classes
REPORT_PLANS = {
    "connectivity": ("connectivity", {1: 200, 2: 50}, "connectivity", 0.5, 40, 11),
    "giant": ("giant", {1: 300, 3: 40}, "sparse", 1.5, 30, 12),
    "giant_at_scale": ("giant", {1: 20000}, "sparse", 2.0, 3, 5),
    "degree": ("degree", {1: 200, 2: 60, 4: 10}, "sparse", 1.2, 20, 13),
    "degree_power_law": ("degree", power_law_configuration(20000, 2.0, 60).counts,
                         "sparse", 1.0, 4, 14),
}
REPORT_HASHES = {
    "connectivity": "e6391e8f76a60531ac05853c46a94bebb01954d76ee43086d637e98a3a7053f5",
    "degree": "0f0454e81997625c4854a173ae79c9ce2725c7276e7ff0c10fe225587f58ba44",
    "degree_power_law": "388f876a5a37a19bfee561f2352218a190fa43b9d16e5f2a27b8a449f8ea7594",
    "giant": "afe71812aa5e1e0c277f5b1e36fb1f4cdbb5279c91c6a11e050f225ca962db9f",
    "giant_at_scale": "c549391e284db5414ef3198edcc4d117bbea50d64c4be70c43ebaed8ff065913",
}
# the CSV has no wall_time: per-trial rows, or the degree pmfs
CSV_REPORT_HASHES = {
    "connectivity": "b5c8f27bb048ae995abf7ffdee84b4736bb569024fad20911347d71499321d4c",
    "degree": "366e60c13ca5a0b12a3cea56ecfe049bb587e1e59daae846ee91b388ca24753b",
    "degree_power_law": "5d9dbe402202ff27d87c9cc25823d9d42a4d952a6c1296acc73ba8f81c8981ec",
    "giant": "98f7d16efd0deb015aef63469fa25e83ab3e22608deba6907ccb0ab716b626ca",
    "giant_at_scale": "defdfd18910146571c9bd68d6b98040e47d038d38b07d8ed1909993cba540d43",
}

# name -> (inline spec, regime, c); a None spec is power_law_configuration(100000, 2.0, 300),
# passed by --config, and a None c is c* (1 + 10^-2), where rho and the degree pmf are steep
PREDICT_CASES = {
    "near_c_star": ("1x50000,2x50000", "sparse", None),
    "power_law": (None, "sparse", 1.0),
    "connectivity_c0": ("1x1000", "connectivity", 0.0),
    "single_raw": ("1x1", "raw", 0.5),
}
PREDICT_HASHES = {
    "connectivity_c0":
        "672afb6956b478bf19e7a27b436561e42fc5db802b144ff70e2f71aa4d02e864",
    "near_c_star":
        "f59a198af201f0165653365ca8c109bec54843f8eed3bf889a181dbd9f779e86",
    "power_law":
        "9dffcefd5759e34ddddc3dbdde1ab393dc85b675bb2c03593c616d0a086f7cb1",
    "single_raw":
        "2e30c950e69c5c408ab7c01f2dd7b86a9487cae967786188b750c5bfd0a0b91a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edge_digest(sampler, counts, p) -> str:
    return _seeds_digest(sampler, SizeConfiguration(counts), "raw", p)


def _seeds_digest(sampler, cfg, regime, c) -> str:
    params = resolve_p(regime, c, cfg)
    h = hashlib.sha256()
    for seed in EDGE_SEEDS:
        edges = sampler(cfg, params, seed).edges
        assert edges.dtype == np.int64
        h.update(edges.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
@pytest.mark.parametrize("counts,p", EDGE_GRID)
def test_sampler_edges(sampler, counts, p):
    key = f"{sampler.__name__} {counts} {p}"
    assert _edge_digest(sampler, counts, p) == EDGE_HASHES[key]


@pytest.mark.parametrize("sampler", [sample_direct, sample_constructive])
@pytest.mark.parametrize("c", [1.0, 3.0])
def test_sampler_edges_many_classes(sampler, c):
    cfg = power_law_configuration(*MANY_CLASS_CONFIG)
    assert len(cfg.counts) == 22
    assert _seeds_digest(sampler, cfg, "sparse", c) == MANY_CLASS_HASHES[f"{sampler.__name__} {c}"]


@pytest.mark.parametrize("sampler", ["direct", "constructive"])
def test_generate_bytes(capsys, sampler):
    assert cli.main(GENERATE_ARGV + ["--sampler", sampler]) == 0
    assert _sha(capsys.readouterr().out.encode()) == GENERATE_HASHES[sampler]


@pytest.mark.parametrize("sampler", ["direct", "constructive"])
def test_generate_bytes_wide_endpoints(capsys, sampler):
    assert cli.main(WIDE_GENERATE_ARGV + ["--sampler", sampler]) == 0
    assert _sha(capsys.readouterr().out.encode()) == WIDE_GENERATE_HASHES[sampler]


@pytest.mark.parametrize("sampler", ["direct", "constructive"])
def test_generate_bytes_seven_digit_endpoints(capsys, sampler):
    assert cli.main(MILLION_GENERATE_ARGV + ["--sampler", sampler]) == 0
    out = capsys.readouterr().out
    assert " 1000000\n" in out
    assert _sha(out.encode()) == MILLION_GENERATE_HASHES[sampler]


@pytest.mark.parametrize("sampler", ["direct", "constructive"])
def test_generate_bytes_on_the_baseline_cpu_features(sampler):
    # numpy picks its SIMD kernels at run time; switched down to its baseline, the bytes hold
    targets = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    code = (f"import importlib, sys; f = importlib.import_module({_umath.__name__!r}); "
            f"assert not any(f.__cpu_features__[t] for t in {targets!r}), 'dispatch left on'; "
            "from supergraph import cli; sys.exit(cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    proc = subprocess.run([sys.executable, "-c", code, *GENERATE_ARGV, "--sampler", sampler],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha(proc.stdout) == GENERATE_HASHES[sampler]


@functools.cache
def _report(name):
    experiment, counts, regime, c, trials, seed = REPORT_PLANS[name]
    plan = ExperimentPlan(config=SizeConfiguration(counts), regime=regime, c=c,
                          trials=trials, seed=seed, experiment=experiment)
    return run_experiment(plan)


@pytest.mark.parametrize("name", sorted(REPORT_PLANS))
def test_report_without_wall_time(name):
    rendered = render_report(_report(name), "json")
    kept = "\n".join(line for line in rendered.splitlines() if '"wall_time"' not in line)
    assert _sha(kept.encode()) == REPORT_HASHES[name]


@pytest.mark.parametrize("name", sorted(REPORT_PLANS))
def test_csv_report(name):
    assert _sha(render_report(_report(name), "csv").encode()) == CSV_REPORT_HASHES[name]


@pytest.mark.parametrize("name", sorted(PREDICT_CASES))
def test_predict_bytes(capsys, tmp_path, name):
    spec, regime, c = PREDICT_CASES[name]
    if spec is None:
        path = tmp_path / "power_law.json"
        path.write_text(serialize_configuration(power_law_configuration(100_000, 2.0, 300)))
        source = ["--config", str(path)]
    else:
        source = ["--inline", spec]
    if c is None:
        c = critical_threshold(empirical_profile(parse_inline(spec))) * (1 + 1e-2)
    assert cli.main(["predict", *source, "--regime", regime, f"--c={c!r}"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == PREDICT_HASHES[name]
