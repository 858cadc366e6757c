"""The one failure path: every command and script ends through ``latnf.cli.exit_code``.

A certified failure is one ``FAIL <label>: <witness>`` line on stdout with
exit 1; a refused input is one ``config error`` or ``usage error`` line on
stderr with exit 2.  Each case below raises one kind of failure, from a
command's own check, from a layer, or from a script, and checks the code,
the one line and its stream.
"""

import configparser
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from latnf import cli

REPO = Path(__file__).resolve().parents[1]
CONFIG = str(REPO / "configs" / "nls_t1.ini")
#: the radius-5 truncation of nls_t1.ini on which one normalization step is fast
SMALL = ("lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05")


def _sets(*items):
    return [arg for item in items for arg in ("--set", item)]


def _failing(name):
    """``cli.<name>`` with its result marked failed."""
    real = getattr(cli, name)
    return lambda *a, **k: dataclasses.replace(real(*a, **k), passed=False)


def _raising(*a, **k):
    raise RuntimeError("a broken invariant")


CASES = [
    # each command's own check
    ("band invariants", ["spectrum", *_sets("lattice.dim=3", "lattice.radius=6")], {},
     1, "FAIL band invariants: "),
    ("asymptotic fit", ["spectrum", "--config", CONFIG], {"fit_asymptotics": _failing("fit_asymptotics")},
     1, "FAIL asymptotic fit: outer residual "),
    ("dyadic bound",
     ["clusters", "--config", CONFIG,
      *_sets("lattice.radius=12", "lattice.offset=0.3", "clusters.c_delta=2.0")], {},
     1, "FAIL dyadic bound: block 9 "),
    ("nonresonance witness", ["resonances"], {}, 1, "FAIL nonresonance: witness "),
    ("measure bound", ["measure", *_sets("measure.n_samples=200")],
     {"estimate_resonant_measure": _failing("estimate_resonant_measure")},
     1, "FAIL measure bound: fraction "),
    ("verify", ["verify", "--config", CONFIG, *_sets(*SMALL, "model.kind=torus")], {},
     1, "FAIL verify: order-3 certificate: min score 0"),
    # the layers' failures, under the command's label
    ("CertificateError", ["normalform", "--config", CONFIG, *_sets(*SMALL, "model.kind=torus")], {},
     1, "FAIL normal form: order-4 certificate failed"),
    ("SmallnessError", ["normalform", "--config", CONFIG, *_sets(*SMALL, "normalform.radius=0.5")], {},
     1, "FAIL normal form: smallness violated before step 0"),
    ("FloatingPointError",
     ["simulate", "--config", CONFIG, *_sets("model.kind=beam", 'simulate.force={"3": 1e12}')], {},
     1, "FAIL simulate: state blew up at t = "),
    ("RuntimeError", ["normalform", "--config", CONFIG, *_sets(*SMALL)], {"normalize": _raising},
     1, "FAIL invariant: a broken invariant"),
    # refused inputs
    ("ConfigError", ["spectrum", "--config", str(REPO / "configs" / "absent.ini")], {},
     2, "config error: "),
    ("ValueError", ["resonances", "--config", CONFIG, *_sets("resonance.gamma=-1")], {},
     2, "usage error: gamma must be positive"),
    # a value whose power or quotient overflows is refused by name
    ("cutoff overflow", ["normalform", "--config", CONFIG, *_sets("lattice.radius=4", "normalform.cutoff=1e308")], {},
     2, "usage error: cutoff**tau overflows at cutoff=1e+308"),
    ("decay overflow", ["measure", "--config", CONFIG, *_sets("lattice.radius=4", "measure.decay=1e308")], {},
     2, "usage error: the bound 2 gamma K**decay overflows at decay=1e+308"),
    ("horizon overflow", ["simulate", "--config", CONFIG, *_sets("lattice.radius=4", "simulate.horizon=1e308")], {},
     2, "usage error: horizon / dt overflows at horizon=1e+308"),
    ("normalform s overflow", ["normalform", "--config", CONFIG, *_sets("lattice.radius=4", "normalform.s=1e308")], {},
     2, "usage error: Sobolev weights (1+|a|)^(2s) are not all positive and finite at s=1e+308"),
    ("simulate s overflow", ["simulate", "--config", CONFIG, *_sets("lattice.radius=4", "simulate.s=1e308")], {},
     2, "usage error: Sobolev weights (1+|a|)^(2s) are not all positive and finite at s=1e+308"),
]

#: the shipped config with these settings on top, for the failing script runs
TORUS = {("model", "kind"): "torus", ("lattice", "radius"): "5", ("normalform", "cutoff"): "4.5",
         ("normalform", "radius"): "9.221127468086334e-05"}
BLOWN_UP = {("model", "kind"): "beam", ("simulate", "force"): '{"3": 1e12}'}

SCRIPT_CASES = [
    ("normalform_demo.py", None, ["--dt", 0], 2, "usage error: --dt must be positive and finite, got 0.0"),
    ("normalform_demo.py", TORUS, ["--skip-flow"], 1, "FAIL normal form: order-4 certificate failed"),
    ("stability_sweep.py", None, ["--dt", 0, "--epsilons", 0.1, "--horizons", 5], 2,
     "usage error: dt must be positive"),
    ("stability_sweep.py", BLOWN_UP, ["--epsilons", 0.1, "--horizons", 1], 1,
     "FAIL stability sweep: eps 0.1: state blew up at t = 1.0"),
    ("resonance_scan.py", None, ["--radius", -1, "--orders", 3], 2,
     "usage error: radius must be positive and finite, got -1.0"),
    # the scan reports every order, so its failure line is the failed order's
    ("resonance_scan.py", None, ["--flat", "--dim", 2, "--radius", 7, "--orders", 8], 1,
     "order 8: FAILED, the order-8 scan needs more than its budget"),
    # NaN fails each positivity check, before any normalization or trajectory
    ("normalform_demo.py", None, ["--dt", "nan"], 2, "usage error: --dt must be positive and finite, got nan",
     "dt-nan"),
    ("stability_sweep.py", None, ["--epsilons", 0.1, "--horizons", "nan"], 2,
     "usage error: horizon must be positive and finite, got nan", "horizons-nan"),
    # and inf each, where int() or math.ceil() used to refuse it without a name
    ("normalform_demo.py", None, ["--horizon", "inf"], 2, "usage error: --horizon must be positive and finite, got inf",
     "horizon-inf"),
    ("stability_sweep.py", None, ["--epsilons", 0.1, "--horizons", "inf"], 2,
     "usage error: horizon must be positive and finite, got inf", "horizons-inf"),
    ("resonance_scan.py", None, ["--radius", "inf", "--orders", 3], 2,
     "usage error: radius must be positive and finite, got inf", "radius-inf"),
]


def _assert_one_line(code, out, err, want_code, prefix):
    assert code == want_code, (out, err)
    own, other = (out, err) if want_code == 1 else (err, out)
    marked = ("FAIL", "config error", "usage error", prefix)
    assert [line for line in own.splitlines() if line.startswith(marked)] == [own.splitlines()[-1]]
    assert own.splitlines()[-1].startswith(prefix)
    if want_code == 2:
        assert len(own.splitlines()) == 1
    assert not any(line.startswith(marked) for line in other.splitlines())
    if want_code == 1:
        assert other == ""


@pytest.mark.parametrize(
    "argv, patches, code, prefix",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)
def test_each_command_failure_is_one_line_on_its_stream(
    tmp_path, capsys, monkeypatch, argv, patches, code, prefix
):
    for name, value in patches.items():
        monkeypatch.setattr(cli, name, value)
    got = cli.main([*argv, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    _assert_one_line(got, captured.out, captured.err, code, prefix)


@pytest.mark.parametrize("argv", [pytest.param(case[1], id=case[0]) for case in CASES if case[0].endswith("overflow")])
def test_an_overflowing_value_warns_nothing(tmp_path, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "script, settings, args, code, prefix",
    [pytest.param(*case[:5], id="-".join((case[0], f"exit-{case[3]}", *case[5:]))) for case in SCRIPT_CASES],
)
def test_each_script_failure_is_one_line_on_its_stream(tmp_path, script, settings, args, code, prefix):
    if settings is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(CONFIG)
        for (section, key), value in settings.items():
            parser[section][key] = value
        config = tmp_path / "case.ini"
        with config.open("w") as fh:
            parser.write(fh)
        args = ["--config", config, *args]
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=300,
    )
    _assert_one_line(proc.returncode, proc.stdout, proc.stderr, code, prefix)
