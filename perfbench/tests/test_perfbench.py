"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The module fixture runs the normalform-line5 operation twice (untraced and
traced, about half a minute in all).
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from run import Runner, temp_dir  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def normalform_reports():
    with temp_dir(ROOT) as tmp:
        runner = Runner(ROOT, "normalform-line5", 3, tmp, time.monotonic() + 300)
        untraced = runner.spawn("op")
        traced = runner.spawn("traced")
    assert runner.failures == []
    return untraced, traced


def test_parent_outputs_pass_the_gate(normalform_reports):
    for report in normalform_reports:
        assert report["ops"][0]["mismatches"] == []


def test_traced_run_reproduces_untraced_outputs(normalform_reports):
    untraced, traced = (r["ops"][0]["summary"] for r in normalform_reports)
    census = {k: v for k, v in untraced.items() if k.startswith("census.")}
    assert census == {"census.Z0": 45, "census.ZB": 18, "census.Z2": 10, "census.ZGE3": 3}
    inventory = {k: v for k, v in untraced.items() if k.endswith(".sha256")}
    assert len(inventory) == 5
    assert traced == untraced


def test_traced_counts_match_outputs(normalform_reports):
    summary = normalform_reports[0]["ops"][0]["summary"]
    layers = normalform_reports[1]["layers"]
    ledger = [summary[f"ledger.{i}.terms"] for i in range(summary["ledger.n"])]
    assert layers["normalform.ledger_terms"] == sum(ledger)
    assert layers["normalform.bucket_terms"] == sum(
        summary[f"census.{b}"] for b in ("Z0", "ZB", "Z2", "ZGE3")
    )
    assert layers["resonance.multisets"] == summary["cert.3.n_checked"] + summary["cert.4.n_checked"]
    assert layers["forms.bracket_calls"] > 0
    assert layers["normalform.remainder_probe_s"] > 0
    assert layers["normalform.self_s"] >= 0
    assert layers["dynamics.strang_steps"] == 0


@pytest.mark.parametrize(
    "rule, key, change",
    [
        ("exact", "census.Z0", lambda v: v + 1),
        ("exact", "ledger.1.terms", lambda v: v - 1),
        ("rel", "mu", lambda v: [v[0] * (1 + 1e-6), v[1]]),
        ("rel", "remainder_bound", lambda v: [v[0] * (1 + 1e-4), v[1]]),
        ("at_most", "max_residual", lambda v: 0.0),
    ],
)
def test_perturbed_reference_fails_the_gate(normalform_reports, rule, key, change):
    summary = normalform_reports[0]["ops"][0]["summary"]
    reference = json.loads(json.dumps(REFERENCE["normalform-line5"]))
    rules = [reference["rules"], reference["variants"]["3"]]
    assert [bad for r in rules for bad in check(summary, r)] == []
    target = next(r for r in rules if key in r.get(rule, {}))
    target[rule][key] = change(target[rule][key])
    bad = [bad for r in rules for bad in check(summary, r)]
    assert len(bad) == 1 and bad[0].startswith(key)


def test_seed_changes_generated_inputs(tmp_path):
    for name in ("normalform-line5", "nls-line8"):
        cls = WORKLOADS[name]
        inputs = [cls(ROOT, seed, tmp_path).inputs() for seed in (1, 2, 1 + cls.variants)]
        assert inputs[0] != inputs[1]
        assert inputs[0] == inputs[2]
        assert sorted(REFERENCE[name]["variants"]) == sorted(map(str, range(cls.variants)))
    certify = WORKLOADS["certify-line8"]
    assert certify(ROOT, 1, tmp_path).inputs() == certify(ROOT, 2, tmp_path).inputs()


def test_tracer_nests_spans_and_restores_functions():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01)

    def outer():
        mod.inner()
        mod.inner()
        return [1, 2, 3]

    mod.outer = outer
    original = mod.inner
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "t.inner")
    tracer.wrap(mod, "outer", "t.outer", lambda a, k, r: {"n": len(r)})
    tracer.phase = "run"
    mod.outer()
    tracer.uninstall()
    assert mod.inner is original
    (span,) = tracer.run_spans("t.outer")
    assert [c.name for c in span.children] == ["t.inner", "t.inner"]
    assert tracer.count("t.outer", "n") == 3
    inner = tracer.total("t.inner")
    assert 0.02 <= inner <= span.duration


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:]
        + ["--workload", "nls-line8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _git_status():
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc.stdout if proc.returncode == 0 else None


def test_run_leaves_the_working_tree_unchanged():
    before = _git_status()
    if before is None:
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nls-line8", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert _git_status() == before
    assert not (ROOT / ".perfbench_tmp").exists()
