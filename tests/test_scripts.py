"""The scripts in ``scripts/``, each run as a subprocess against ``src``.

Every script is run on inputs small enough to finish in about a second.  A
static check keeps the scripts on the public ``latnf`` API.
"""

import ast
import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
CONFIG = REPO / "configs" / "nls_t1.ini"

# The radius-5 truncation of nls_t1.ini at cutoff 4.5, with the normal-form
# radius at its smallness boundary there: orders 3 and 4 certify
# exhaustively and one normalization step takes well under a second.
SMALL_SYSTEM = {
    ("lattice", "radius"): "5",
    ("normalform", "cutoff"): "4.5",
    ("normalform", "radius"): "9.221127468086334e-05",
}


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *map(str, args)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=300,
    )


def _config(tmp_path, name, settings):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIG)
    for (section, key), value in settings.items():
        parser[section][key] = value
    path = tmp_path / name
    with path.open("w") as fh:
        parser.write(fh)
    return path


def test_normalform_demo_on_the_small_system(tmp_path):
    config = _config(tmp_path, "small.ini", SMALL_SYSTEM)
    proc = _run("normalform_demo.py", "--config", config, "--horizon", 50, "--dt", 0.5)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("order 3: min score 0.0495937, ")
    assert lines[0].endswith("(exhaustive over 2024)")
    assert lines[1].endswith("(exhaustive over 12650)")
    assert "  bucket terms: Z0=45, ZB=18, Z2=10, ZGE3=3" in lines
    assert lines[-1].startswith("normal-form flow to t=50: ")


def test_normalform_demo_prints_the_failure_and_exits_1(tmp_path):
    settings = {**SMALL_SYSTEM, ("model", "kind"): "torus"}
    config = _config(tmp_path, "torus.ini", settings)
    proc = _run("normalform_demo.py", "--config", config, "--skip-flow")
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout == (
        "cannot normalize this system: order-4 certificate failed (min score 0: "
        "an exact off-set resonance); witness (((-5,), 1), ((-5,), -1), ((0,), 1), "
        "((0,), 1))\n"
    )


def test_stability_sweep_runs_one_epsilon():
    proc = _run("stability_sweep.py", "--epsilons", 0.1, "--horizons", 5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eps 0.1: horizon 5, max |u|_s / eps = ")
    assert "exceeds 2 eps: never" in proc.stdout


def test_stability_sweep_follows_the_configured_model(tmp_path):
    args = ("--epsilons", 0.1, "--horizons", 5)
    base = _run("stability_sweep.py", *args).stdout
    for name, settings in (
        ("gram.ini", {("model", "gram"): "[[1.1]]"}),
        ("beam.ini", {("model", "kind"): "beam"}),
    ):
        proc = _run("stability_sweep.py", "--config", _config(tmp_path, name, settings), *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("eps 0.1: horizon 5, ")
        assert proc.stdout != base, name


@pytest.mark.parametrize("flag", [("--coupling", 5), ("--flat",)], ids=["coupling", "flat"])
def test_stability_sweep_rejects_nls_flags_on_the_beam(tmp_path, flag):
    config = _config(tmp_path, "beam.ini", {("model", "kind"): "beam"})
    proc = _run("stability_sweep.py", "--config", config, "--epsilons", 0.1, "--horizons", 5, *flag)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "the beam model has neither" in proc.stderr


def test_stability_sweep_rejects_a_non_positive_step():
    proc = _run("stability_sweep.py", "--dt", 0, "--epsilons", 0.1, "--horizons", 5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: dt must be positive\n"


def test_stability_sweep_refuses_the_ground_state(tmp_path):
    config = _config(tmp_path, "ground.ini", {("model", "kind"): "ground_state"})
    proc = _run("stability_sweep.py", "--config", config, "--epsilons", 0.1, "--horizons", 5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ") and "'ground_state'" in proc.stderr


def test_normalform_demo_refuses_the_beam(tmp_path):
    config = _config(tmp_path, "beam.ini", {**SMALL_SYSTEM, ("model", "kind"): "beam"})
    proc = _run("normalform_demo.py", "--config", config, "--skip-flow")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ") and "model.kind 'beam'" in proc.stderr


@pytest.mark.parametrize("flag", ["--dt", "--horizon"])
@pytest.mark.parametrize("value", [0, -0.5])
def test_normalform_demo_rejects_a_non_positive_step_before_normalizing(flag, value):
    proc = _run("normalform_demo.py", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: --dt and --horizon must be positive\n"


@pytest.mark.parametrize("flat, code", [(True, 1), (False, 0)])
def test_resonance_scan_at_order_3(flat, code):
    proc = _run("resonance_scan.py", *(["--flat"] if flat else []), "--orders", 3)
    assert proc.returncode == code, proc.stderr
    assert ("witness" in proc.stdout) == flat
    assert ("certified" in proc.stdout) != flat


def test_resonance_scan_over_the_budget_fails():
    # the order-8 head table of 2-D radius 7 alone is over the row budget
    proc = _run("resonance_scan.py", "--flat", "--dim", 2, "--radius", 7, "--orders", 8)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == (
        "order 8: FAILED, the order-8 scan needs more than its budget of "
        "4000000 rows built or evaluated"
    )


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_scripts_import_no_private_latnf_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latnf"
        for alias in node.names
        if alias.name.startswith("_") or any(m.startswith("_") for m in node.module.split("."))
    ]
    assert private == []
