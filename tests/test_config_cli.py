"""Config parsing, run manifests, and the command-line driver.

The CLI tests call ``main`` in-process with ``--out-dir`` pointed at a tmp
directory; one subprocess test covers the installed console entry point.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latnf import certify_nonresonance, check_band_invariants
from latnf.cli import build_system, main
from latnf.config import (
    ConfigError,
    apply_overrides,
    config_to_jsonable,
    default_config,
    load_config,
)
from latnf.manifest import (
    build_manifest,
    file_sha256,
    inventory,
    manifest_json,
    spawn_seed,
)

REPO = Path(__file__).resolve().parents[1]
CERTIFIED_CONFIG = str(REPO / "configs" / "nls_t1.ini")


def test_defaults_match_schema():
    cfg = load_config(None)
    assert cfg == default_config()
    assert cfg["run"]["seed"] == 0
    assert cfg["lattice"]["dim"] == 1 and cfg["lattice"]["radius"] == 8.0
    assert cfg["model"]["kind"] == "torus"
    assert cfg["simulate"]["nonlinearity"] == {1: 1.0}
    assert cfg["resonance"]["tau"] is None
    assert cfg["output"]["manifest"] is True


def test_ini_value_coercions(tmp_path):
    path = tmp_path / "mix.ini"
    path.write_text(
        "[model]\n"
        "gram = 2 0; 0 2\n"
        'potential = {"0": 0.5, "-1": -0.25}\n'
        "[lattice]\n"
        "offset = 0.5\n"
        "[measure]\n"
        "support = [[1], [3]]\n"
        "k = 1, -1\n"
        "gamma = 0.1 0.2\n"
        "[resonance]\n"
        "tau = none\n"
        "[output]\n"
        "manifest = off\n"
    )
    cfg = load_config(str(path))
    assert cfg["model"]["gram"] == ((2.0, 0.0), (0.0, 2.0))
    assert cfg["model"]["potential"] == {(0,): 0.5, (-1,): -0.25}
    assert cfg["lattice"]["offset"] == [0.5]
    assert cfg["measure"]["support"] == [(1,), (3,)]
    assert cfg["measure"]["k"] == [1, -1]
    assert cfg["measure"]["gamma"] == [0.1, 0.2]
    assert cfg["resonance"]["tau"] is None
    assert cfg["output"]["manifest"] is False


def test_json_file_equivalent_to_ini(tmp_path):
    as_json = tmp_path / "eq.json"
    as_json.write_text(
        json.dumps({"lattice": {"dim": 2, "radius": 3.0}, "run": {"seed": 9}})
    )
    as_ini = tmp_path / "eq.ini"
    as_ini.write_text("[lattice]\ndim = 2\nradius = 3.0\n\n[run]\nseed = 9\n")
    assert load_config(str(as_json)) == load_config(str(as_ini))


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[widgets]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section \\[widgets\\]"):
        load_config(str(bad_section))
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[lattice]\nspin = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'spin' in section \\[lattice\\]"):
        load_config(str(bad_key))


def test_malformed_ini_reports_line(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[lattice]\ndim 2\n")
    with pytest.raises(ConfigError, match=r"bad\.ini:2:1: malformed INI"):
        load_config(str(path))
    headerless = tmp_path / "hdr.ini"
    headerless.write_text("dim = 2\n")
    with pytest.raises(ConfigError, match="malformed INI"):
        load_config(str(headerless))


@pytest.mark.parametrize(
    "text, message",
    [
        # two bad lines: the first is named
        ("[lattice]\ndim 2\nradius 3\n", "2:1: malformed INI: cannot parse 'dim 2\\n'"),
        ("\ndim = 2\n", "2:1: malformed INI: no [section] header before 'dim = 2\\n'"),
        # a key or a section given twice: the line of the second
        (
            "[lattice]\ndim = 1\n[lattice]\n",
            "3:1: malformed INI: section [lattice] already exists",
        ),
        (
            "[lattice]\ndim = 1\ndim = 2\n",
            "3:1: malformed INI: option 'dim' in section [lattice] already exists",
        ),
    ],
    ids=["parsing", "no-section-header", "duplicate-section", "duplicate-option"],
)
def test_cli_malformed_ini_is_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["spectrum", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {path}:{message}\n"


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"run": \n  bad}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:3: malformed JSON"):
        load_config(str(path))
    flat = tmp_path / "flat.json"
    flat.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_config(str(flat))


def test_bad_value_names_section_and_key(tmp_path):
    path = tmp_path / "val.ini"
    path.write_text("[lattice]\ndim = banana\n")
    with pytest.raises(ConfigError, match=r"\[lattice\] dim: expected an integer"):
        load_config(str(path))


def test_overrides_apply_and_coerce():
    cfg = default_config()
    apply_overrides(
        cfg,
        [
            "clusters.delta=0.7",
            'simulate.nonlinearity={"1": 2.0}',
            "lattice.offset=0.5",
            "run.out_dir=elsewhere",
        ],
    )
    assert cfg["clusters"]["delta"] == 0.7
    assert cfg["simulate"]["nonlinearity"] == {1: 2.0}
    assert cfg["lattice"]["offset"] == [0.5]
    assert cfg["run"]["out_dir"] == "elsewhere"


def test_override_errors():
    with pytest.raises(ConfigError, match="must look like section.key=value"):
        apply_overrides(default_config(), ["nodot"])
    with pytest.raises(ConfigError, match="must look like section.key"):
        apply_overrides(default_config(), ["nodot=1"])
    with pytest.raises(ConfigError, match="unknown setting 'foo.bar'"):
        apply_overrides(default_config(), ["foo.bar=1"])
    # JSON true parses to a boolean, which is not an integer seed.
    with pytest.raises(ConfigError, match="expected an integer"):
        apply_overrides(default_config(), ["run.seed=true"])
    # JSON Infinity and NaN parse to floats that no integer equals
    for value in ("Infinity", "NaN"):
        with pytest.raises(ConfigError, match="expected an integer"):
            apply_overrides(default_config(), [f"measure.n_samples={value}"])


@pytest.mark.parametrize(
    "value,code,written",
    [("true", 0, True), ("false", 0, False), ("yes", 0, True), ("no", 0, False),
     ("on", 0, True), ("off", 0, False),
     # a bare 1 parses as the JSON integer 1, which is no boolean
     ("1", 2, False)],
)
def test_every_documented_boolean_spelling(tmp_path, capsys, value, code, written):
    argv = ["spectrum", "--set", f"output.manifest={value}", "--out-dir", str(tmp_path)]
    assert main(argv) == code
    assert (tmp_path / "spectrum_manifest.json").exists() == written
    if code == 2:
        assert "expected a boolean, got 1" in capsys.readouterr().err


def test_cli_measure_decay_is_an_integer(tmp_path, capsys):
    argv = ["measure", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path), "--set"]
    assert main(argv + ["measure.decay=2.5"]) == 2
    assert "expected an integer, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "measure_manifest.json").exists()
    bounds = {}
    for decay in ("2.0", "3"):
        assert main(argv + [f"measure.decay={decay}"]) == 0
        manifest = json.loads((tmp_path / "measure_manifest.json").read_text())
        echo = manifest["config"]["measure"]["decay"]
        assert echo == int(float(decay)) and isinstance(echo, int)
        bounds[decay] = manifest["results"]["rows"][0]["bound"]
    capsys.readouterr()
    # the bound is 2 gamma K**decay with K**2 = 5 on the support of nls_t1.ini
    assert bounds == {"2.0": pytest.approx(1.0), "3": pytest.approx(0.2 * 5**1.5)}


def test_config_to_jsonable_flattens_tuples():
    cfg = default_config()
    apply_overrides(
        cfg, ['model.potential={"2": 1.0, "0": 0.5}', "model.gram=[[2, 0], [0, 2]]"]
    )
    echo = config_to_jsonable(cfg)
    assert echo["model"]["potential"] == {"2": 1.0, "0": 0.5}
    assert echo["model"]["gram"] == [[2.0, 0.0], [0.0, 2.0]]
    assert echo["measure"]["support"] == [[1], [2]]
    json.dumps(echo)


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 999
    path.write_bytes(payload)
    assert file_sha256(path) == hashlib.sha256(payload).hexdigest()


def test_inventory_is_relative_and_sorted(tmp_path):
    (tmp_path / "sub").mkdir()
    b = tmp_path / "sub" / "b.txt"
    a = tmp_path / "a.txt"
    b.write_text("bee")
    a.write_text("ay")
    inv = inventory([b, a], root=tmp_path)
    assert list(inv) == ["a.txt", "sub/b.txt"]
    assert inv["a.txt"] == hashlib.sha256(b"ay").hexdigest()


def test_spawn_seed_deterministic_and_label_sensitive():
    assert spawn_seed(0, "a") == spawn_seed(0, "a") == 10426478240765714555
    assert spawn_seed(0, "b") == 5782538088377823485
    assert spawn_seed(1, "a") == 13371565896197210392
    assert spawn_seed(0, "a") != spawn_seed(0, "b") != spawn_seed(1, "a")


def test_manifest_json_sorted_and_numpy_safe():
    manifest = build_manifest(
        command="probe",
        config_echo={"run": {"seed": 0}},
        results={
            "count": np.int64(3),
            "score": np.float64(0.5),
            "vec": np.arange(3),
            "pair": (1, 2),
        },
        artifacts={"x.csv": "00"},
        seed=0,
    )
    text = manifest_json(manifest)
    assert text.endswith("\n")
    decoded = json.loads(text)
    assert decoded["results"] == {"count": 3, "score": 0.5, "vec": [0, 1, 2], "pair": [1, 2]}
    assert list(decoded) == sorted(decoded)
    assert "numpy" in decoded["versions"]
    assert manifest_json(manifest) == text


def test_manifest_version_is_the_package_version(tmp_path):
    # read from the package, not from the installed metadata: a source
    # checkout and an installed run write the same manifest
    tomllib = pytest.importorskip("tomllib")
    import latnf

    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    out = tmp_path / "run"
    assert main(["spectrum", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "spectrum_manifest.json").read_text())
    assert manifest["versions"]["latnf"] == latnf.__version__ == project["version"]


def test_cli_spectrum_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["spectrum", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)]) == 0
    assert "spectrum: 17 modes" in capsys.readouterr().out
    csv_path = out / "spectrum.csv"
    assert csv_path.exists()
    manifest = json.loads((out / "spectrum_manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["seed"] == 1
    assert manifest["results"]["n_modes"] == 17
    assert manifest["results"]["n_bands"] == 9
    assert manifest["results"]["band_violations"] == []
    assert manifest["artifacts"]["spectrum.csv"] == file_sha256(csv_path)


def test_cli_spectrum_lists_each_band_violation_once(tmp_path, capsys):
    # the radius-6 torus in three dimensions crowds its bands past the gap rule
    settings = ["lattice.dim=3", "lattice.radius=6"]
    argv = ["spectrum", "--out-dir", str(tmp_path)]
    assert main(argv + [arg for item in settings for arg in ("--set", item)]) == 1
    out = capsys.readouterr().out
    cfg = apply_overrides(load_config(None), settings)
    expected = check_band_invariants(build_system(cfg).bands).violations
    assert out.endswith(f"FAIL band invariants: {expected[0]}\n")
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["results"]["band_violations"] == list(expected)


def test_cli_manifest_byte_identical_on_repeat(tmp_path, capsys):
    out = tmp_path / "rep"
    main(["spectrum", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)])
    first = (out / "spectrum_manifest.json").read_bytes()
    main(["spectrum", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)])
    assert (out / "spectrum_manifest.json").read_bytes() == first
    capsys.readouterr()


def test_cli_clusters(tmp_path, capsys):
    out = tmp_path / "cl"
    assert main(["clusters", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)]) == 0
    assert "dyadic" in capsys.readouterr().out
    assert (out / "clusters.csv").exists()
    summary = json.loads((out / "clusters.json").read_text())
    manifest = json.loads((out / "clusters_manifest.json").read_text())
    assert manifest["results"]["dyadic_passed"] is True
    assert manifest["results"]["n_blocks"] == summary["n_blocks"] == 17


def test_cli_clusters_dyadic_failure_prints_the_worst_block(tmp_path, capsys):
    # The offset lifts the zero mode, so the wide central block is not exempt.
    argv = ["clusters", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path / "cl")]
    for item in ("lattice.radius=12", "lattice.offset=0.3", "clusters.c_delta=2.0"):
        argv += ["--set", item]
    assert main(argv) == 1
    text = capsys.readouterr().out
    assert "18 blocks" in text
    assert "FAIL dyadic bound: block 9 has sup|a|/inf|a| 11; points [(-3,), " in text
    manifest = json.loads((tmp_path / "cl" / "clusters_manifest.json").read_text())
    assert manifest["results"]["dyadic_passed"] is False


def test_cli_clusters_measures_the_dyadic_constant_and_the_margin_once(tmp_path, monkeypatch):
    import latnf.cli
    import latnf.clusters

    calls = []
    for module, name in ((latnf.cli, "certify_dyadic"), (latnf.clusters, "separation_margin")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=inner, _n=name: calls.append(_n) or _f(*args))
    assert main(["clusters", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]) == 0
    assert sorted(calls) == ["certify_dyadic", "separation_margin"]


def test_cli_clusters_single_block_has_no_margin(tmp_path, capsys):
    out = tmp_path / "one"
    argv = ["clusters", "--config", CERTIFIED_CONFIG, "--set", "clusters.c_delta=100"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert "1 blocks, dyadic C=1, margin=n/a" in capsys.readouterr().out
    manifest = json.loads((out / "clusters_manifest.json").read_text())
    assert manifest["results"]["separation_margin"] is None
    assert manifest["results"]["min_margin"] is None


def test_cli_resonances_certifies_multiplier_system(tmp_path, capsys):
    out = tmp_path / "rz"
    code = main(["resonances", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)])
    assert code == 0
    assert "exhaustive over 7140" in capsys.readouterr().out
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["order"] == 3
    assert cert["min_score"] == pytest.approx(0.049593687673059494)


@pytest.mark.parametrize(
    "setting,message",
    [("resonance.gamma=-1", "gamma must be positive"),
     ("resonance.gamma=0", "gamma must be positive"),
     # the scan's row budget is no config key
     ("resonance.budget=-5", "unknown setting 'resonance.budget'"),
     # 8.0**400 overflows a float; nan and +-inf give no meaningful score
     ("resonance.tau=400", "tau=400.0 overflows"),
     ("resonance.tau=nan", "tau must be finite, got nan"),
     ("resonance.tau=inf", "tau must be finite, got inf"),
     ("resonance.tau=-inf", "tau must be finite, got -inf")],
)
def test_cli_resonances_meaningless_arguments_are_usage_errors(
    tmp_path, capsys, setting, message
):
    out = tmp_path / "rz"
    argv = ["resonances", "--config", CERTIFIED_CONFIG, "--set", setting, "--out-dir", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "resonances:" not in captured.out
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize(
    "command,setting",
    [("spectrum", "lattice.radius=inf"),
     ("resonances", "lattice.radius=inf"),
     ("simulate", "lattice.radius=inf"),
     ("measure", "measure.decay=1e308"),
     ("normalform", "normalform.cutoff=1e308"),
     ("simulate", "simulate.horizon=inf"),
     ("simulate", "simulate.horizon=1e308")],
)
def test_cli_overflowing_input_is_a_one_line_usage_error(tmp_path, capsys, command, setting):
    # float arithmetic on the 1e308 values raises OverflowError, not
    # ValueError; the inf values are refused by name where they are read
    argv = [command, "--config", CERTIFIED_CONFIG, "--set", setting, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


def test_cli_empty_truncation_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "empty"
    argv = ["resonances", "--config", CERTIFIED_CONFIG, "--set", "lattice.radius=0.2",
            "--set", "lattice.offset=[0.5]", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "empty truncation" in err and "offset (0.5,)" in err and "radius 0.2" in err
    assert not (out / "certificate.json").exists()


def test_cli_resonances_fails_on_flat_torus(tmp_path, capsys):
    # Without a potential the zero mode collapses an order-3 divisor to 0.
    code = main(["resonances", "--out-dir", str(tmp_path / "flat")])
    assert code == 1
    assert "FAIL nonresonance" in capsys.readouterr().out


def test_cli_measure(tmp_path, capsys):
    out = tmp_path / "me"
    assert main(["measure", "--out-dir", str(out)]) == 0
    assert "measure: gamma=0.1" in capsys.readouterr().out
    manifest = json.loads((out / "measure_manifest.json").read_text())
    rows = manifest["results"]["rows"]
    assert len(rows) == 1
    assert rows[0]["passed"] is True
    assert rows[0]["fraction"] <= rows[0]["bound"] + 3 * rows[0]["stderr"]


@pytest.mark.parametrize(
    "setting, message",
    [
        ("measure.gamma=[]", "measure.gamma must list at least one threshold"),
        ("measure.k=[1]", "measure.k and measure.support must have equal length"),
    ],
)
def test_cli_measure_that_checks_nothing_is_a_usage_error(tmp_path, capsys, setting, message):
    assert main(["measure", "--set", setting, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "measure_manifest.json").exists()


@pytest.mark.parametrize("n_samples", ["0", "-5"])
def test_cli_measure_without_samples_is_a_usage_error(tmp_path, capsys, n_samples):
    assert main(["measure", "--set", f"measure.n_samples={n_samples}", "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"n_samples must be >= 1, got {n_samples}" in captured.err
    assert not (tmp_path / "measure_manifest.json").exists()


def test_cli_simulate_filters_bulky_meta(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--config",
            CERTIFIED_CONFIG,
            "--set",
            "simulate.horizon=0.5",
            "--set",
            "lattice.radius=4",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    assert "simulate:" in capsys.readouterr().out
    head = (out / "trajectory.csv").read_text().splitlines()[0]
    assert head.startswith("t,sobolev,mass,energy,J_0")
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    meta = manifest["results"]["meta"]
    assert "final_modes" not in meta and "band_floors" not in meta
    assert meta["integrator"] == "strang_splitting"
    assert manifest["results"]["growth"] == pytest.approx(1.0, abs=1e-3)
    assert manifest["results"]["mass_drift"] < 1e-12


def test_cli_normalform_rejects_uncertified_system(tmp_path, capsys):
    # The flat torus cannot certify order 4, so normalization must refuse.
    code = main(
        [
            "normalform",
            "--out-dir",
            str(tmp_path / "nf"),
        ]
    )
    assert code == 1
    assert "FAIL normal form" in capsys.readouterr().out


def test_cli_verify_passes_certified_config(tmp_path, capsys):
    out = tmp_path / "ve"
    assert main(["verify", "--config", CERTIFIED_CONFIG, "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "all 8 checks passed" in text
    assert "FAIL" not in text
    manifest = json.loads((out / "verify_manifest.json").read_text())
    assert all(c["passed"] for c in manifest["results"]["checks"])


def test_cli_verify_fails_flat_torus(tmp_path, capsys):
    assert main(["verify", "--out-dir", str(tmp_path / "vf")]) == 1
    assert "order-3 certificate: FAIL" in capsys.readouterr().out


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["spectrum", "--config", str(tmp_path), "--out-dir", str(tmp_path)]) == 2
    assert main(["spectrum", "--set", "foo.bar=1", "--out-dir", str(tmp_path)]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["spectrum", "--set", "model.kind=bogus", "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[lattice]\ndim 2\n")
    assert main(["spectrum", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_seed_flag_overrides_config(tmp_path, capsys):
    out = tmp_path / "sd"
    code = main(
        ["resonances", "--config", CERTIFIED_CONFIG, "--seed", "7", "--out-dir", str(out)]
    )
    assert code == 0
    manifest = json.loads((out / "resonances_manifest.json").read_text())
    assert manifest["seed"] == 7
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "latnf.cli", "spectrum", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "spectrum: 17 modes" in proc.stdout


@pytest.mark.parametrize(
    "overrides",
    [
        # a unitary Strang step of the Schrödinger models cannot blow up
        ["model.kind=beam", 'simulate.force={"3": 1e12}'],
    ],
    ids=["beam"],
)
def test_cli_verify_reports_a_blown_up_trajectory_as_a_failed_check(tmp_path, overrides):
    argv = ["verify", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    proc = subprocess.run(
        [sys.executable, "-m", "latnf.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    # the check list is printed in full, the trajectory last
    lines = proc.stdout.splitlines()
    assert [line.split(": ")[1] for line in lines[:-2]] == [
        "band invariants", "cluster closure", "resonant-set membership",
        "order-3 certificate", "homological residual", "Jacobi identity",
    ]
    assert lines[-2].startswith("verify: trajectory: FAIL (state blew up at t = 0.0138")
    assert lines[-1].startswith("FAIL verify: trajectory: state blew up at t = 0.0138")
    checks = json.loads((tmp_path / "verify_manifest.json").read_text())["results"]["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["trajectory"]


def test_cli_simulate_reports_a_blown_up_trajectory_in_one_line(tmp_path):
    # the force overflows the field within a few steps: the state turns
    # non-finite, and numpy warns about none of the operations it passes
    argv = [
        "simulate", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path),
        "--set", "model.kind=beam", "--set", 'simulate.force={"3": 1e12}',
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "latnf.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout.startswith("FAIL simulate: state blew up at t = 0.0308")
    assert len(proc.stdout.splitlines()) == 1


def test_cli_verify_solves_on_the_configured_clusters(tmp_path, capsys, monkeypatch):
    import latnf.normalform

    seen = []
    inner = latnf.normalform.solve_homological

    def spy(form, table, bands, clusters, *args, **kwargs):
        seen.append(clusters)
        return inner(form, table, bands, clusters, *args, **kwargs)

    monkeypatch.setattr(latnf.normalform, "solve_homological", spy)
    args = ["verify", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    main(args + ["--set", "clusters.c_delta=2.5", "--set", "clusters.delta=0.4"])
    capsys.readouterr()
    assert [(c.delta, c.c_delta) for c in seen] == [(0.4, 2.5)]


def _normalform(tmp_path, *overrides):
    argv = ["normalform", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    return main(argv)


def test_cli_normalform_certificate_failure_exits_1(tmp_path, capsys):
    # the plain torus spectrum is resonant: its order-4 certificate fails
    assert _normalform(tmp_path, "model.kind=torus") == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL normal form: order-4 certificate failed")


def test_cli_normalform_smallness_failure_exits_1(tmp_path, capsys):
    assert _normalform(tmp_path, "normalform.radius=0.5") == 1
    out = capsys.readouterr().out
    assert "FAIL normal form" in out and "smallness violated" in out


@pytest.mark.parametrize("gamma", ["0", "-1e-3"])
def test_cli_normalform_nonpositive_gamma_is_a_usage_error(tmp_path, capsys, gamma):
    # gamma and tau of each degree are those of its certificate: no key sets them
    assert _normalform(tmp_path, f"normalform.gamma={gamma}") == 2
    captured = capsys.readouterr()
    assert "unknown setting 'normalform.gamma'" in captured.err
    assert "FAIL" not in captured.out


@pytest.mark.parametrize(
    "tau,message",
    [("nan", "tau must be finite"), ("400", "overflows max(1, |a|)**tau"),
     # with no cutoff set, tau also picks one from radius**(-1/(2 tau))
     ("0", "tau must be positive to choose a cutoff"),
     ("-1", "tau must be positive to choose a cutoff"),
     ("0.001", "cutoff target radius**(-1/(2 tau)) overflows")],
)
def test_cli_normalform_bad_tau_is_a_usage_error(tmp_path, capsys, tau, message):
    assert _normalform(tmp_path, f"normalform.tau={tau}", "normalform.cutoff=none") == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and "FAIL" not in captured.out


def test_cli_normalform_zero_coupling_is_a_usage_error(tmp_path, capsys):
    # the quartic of coupling 0 has no rows, so there is nothing to normalize
    assert _normalform(tmp_path, "normalform.coupling=0") == 2
    captured = capsys.readouterr()
    assert "the perturbation is zero" in captured.err
    assert "Traceback" not in captured.err and "FAIL" not in captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, key",
    [("normalform", "normalform.s"), ("normalform", "normalform.nu"),
     ("normalform", "normalform.smoothing"), ("normalform", "normalform.mu_max"),
     ("normalform", "normalform.coupling"), ("simulate", "simulate.s")],
)
def test_cli_non_finite_value_is_a_usage_error(tmp_path, capsys, command, key, value):
    # each ran on non-finite arithmetic: exit 0 or 1 after numpy warnings, or
    # exit 2 naming another cause (a nan coupling left no quartic rows)
    argv = [command, "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path),
            "--set", "lattice.radius=4", "--set", "simulate.horizon=0.2", "--set", f"{key}={value}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    field = key.split(".")[1]
    assert captured.err == f"usage error: {field} must be finite, got {value}\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "setting, message",
    [("simulate.dt=nan", "dt must be positive"),
     ("simulate.horizon=nan", "horizon must be positive and finite, got nan"),
     ("simulate.dt_bound=nan", "dt_bound must be positive, got nan"),
     ("simulate.dt_bound=0", "dt_bound must be positive, got 0.0"),
     ("simulate.track_orbital=nan", "track_orbital must be a finite number >= 0, got nan"),
     ("simulate.track_orbital=-1", "track_orbital must be a finite number >= 0, got -1.0")],
)
def test_cli_nan_trajectory_setting_is_a_usage_error(tmp_path, capsys, setting, message):
    # NaN passed each ``<=`` check: dt_bound=nan stepped at dt max omega = 81,
    # track_orbital=nan wrote NaN distances, dt and horizon failed in int()
    argv = ["simulate", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path),
            "--set", "lattice.radius=4", "--set", "simulate.dt=1.0", "--set", "simulate.horizon=5",
            "--set", setting]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, settings, message",
    [("clusters", ["clusters.c_delta=nan"], "c_delta must be positive and finite, got nan"),
     ("normalform", ["clusters.c_delta=nan"], "c_delta must be positive and finite, got nan"),
     ("clusters", ["clusters.c_delta=Infinity"], "c_delta must be positive and finite, got inf"),
     ("normalform", ["normalform.cutoff=nan"], "cutoff must be positive and finite, got nan"),
     ("normalform", ["normalform.cutoff=inf"], "cutoff must be positive and finite, got inf"),
     ("spectrum", ["model.kind=beam", "model.mass=nan"], "mass must be finite, got nan"),
     ("spectrum", ["model.kind=beam", "model.mass=Infinity"], "mass must be finite, got inf"),
     ("simulate", ["model.kind=beam", "model.mass=nan"], "beam mass term must be positive, got nan"),
     ("simulate", ["model.kind=beam", "model.mass=Infinity"], "mass must be finite, got inf"),
     ("measure", ["measure.gamma=[NaN]"], "gamma must be positive and finite, got nan"),
     ("measure", ["measure.gamma=[Infinity]"], "gamma must be positive and finite, got inf"),
     ("spectrum", ['model.potential={"0": NaN}'], "potential must be finite, got nan at (0,)"),
     ("spectrum", ["model.gram=[[Infinity]]"], "gram must be finite, got ((inf,),)"),
     ("simulate", ['simulate.nonlinearity={"1": NaN}'], "nonlinearity coefficients must be finite real numbers, got nan"),
     ("simulate", ["model.kind=beam", 'simulate.force={"3": -Infinity}'],
      "force coefficients must be finite real numbers, got -inf"),
     ("spectrum", ["lattice.radius=inf"], "radius must be positive and finite, got inf"),
     ("resonances", ["lattice.radius=nan"], "radius must be positive and finite, got nan"),
     ("simulate", ["simulate.horizon=inf"], "horizon must be positive and finite, got inf"),
     ("resonances", ["resonance.gamma=inf"], "gamma must be positive and finite, got inf"),
     ("resonances", ["resonance.gamma=nan"], "gamma must be positive and finite, got nan"),
     ("spectrum", ["model.kind=ground_state", "model.f_value=inf"], "f_value must be finite, got inf"),
     ("spectrum", ["model.kind=ground_state", "model.f_value=nan"], "f_value must be finite, got nan")],
    ids=["clusters-c_delta", "normalform-c_delta", "clusters-c_delta-inf", "normalform-cutoff",
         "normalform-cutoff-inf", "spectrum-beam-mass", "spectrum-beam-mass-inf", "simulate-beam-mass",
         "simulate-beam-mass-inf", "measure-gamma", "measure-gamma-inf", "spectrum-potential", "spectrum-gram-inf",
         "simulate-nonlinearity", "simulate-force-inf", "spectrum-radius-inf", "resonances-radius-nan",
         "simulate-horizon-inf", "resonances-gamma-inf", "resonances-gamma-nan", "spectrum-f_value-inf",
         "spectrum-f_value-nan"],
)
def test_cli_nan_domain_setting_is_a_usage_error(tmp_path, capsys, command, settings, message):
    # NaN passed each ``<=`` check and inf each ``>`` check: c_delta=nan changed
    # the normal-form census and c_delta=inf made one block, cutoff=nan and inf
    # ended in a smallness FAIL with mu = nan or inf, a non-finite beam mass,
    # potential or Gram matrix in a FAIL of the asymptotic fit or a negative
    # frequency, gamma=nan in a FAIL of the measure bound and gamma=inf in
    # exit 0, a NaN nonlinearity in a blown-up trajectory, an infinite
    # radius or horizon in a usage error that named neither, resonance.gamma=inf
    # in a FAIL of the nonresonance check, and a non-finite ground-state
    # f_value in a RuntimeWarning, then a line naming the radicand
    argv = [command, "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path), "--set", "lattice.radius=4"]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_normalform_negative_cert_budget_is_a_usage_error(tmp_path, capsys):
    # the scan's row budget is no config key
    assert _normalform(tmp_path, "normalform.cert_budget=-1") == 2
    captured = capsys.readouterr()
    assert "unknown setting 'normalform.cert_budget'" in captured.err
    assert "FAIL" not in captured.out


def test_cli_resonances_over_the_budget_fails(tmp_path, capsys):
    # 2-D radius 7 has 298 signed modes: the order-8 head table alone has
    # 3.3e8 rows, so the scan is refused before it builds anything
    argv = ["resonances", "--set", "lattice.dim=2", "--set", "lattice.radius=7",
            "--set", "resonance.order=8", "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "FAIL nonresonance: the order-8 scan needs more than its budget of "
        "4000000 rows built or evaluated\n"
    )
    assert captured.err == ""


def test_cli_normalform_over_the_budget_fails(tmp_path, capsys, monkeypatch):
    # orders 3 and 4 of the radius-8 table need 701 and 1370 rows
    monkeypatch.setattr(
        "latnf.cli.certify_nonresonance", functools.partial(certify_nonresonance, budget=1000)
    )
    assert _normalform(tmp_path) == 1
    captured = capsys.readouterr()
    assert "FAIL normal form: the order-4 scan needs more than its budget of 1000 rows" in captured.out
    assert "Traceback" not in captured.err and not (tmp_path / "normalform_manifest.json").exists()


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_cli_normalform_without_remainder_samples_is_a_usage_error(tmp_path, capsys, samples):
    # no sample would leave remainder_bound at 0.0, a bound nothing measured
    small = ("lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05")
    assert _normalform(tmp_path, *small, f"normalform.remainder_samples={samples}") == 2
    captured = capsys.readouterr()
    assert f"remainder_samples must be >= 1, got {samples}" in captured.err
    assert not (tmp_path / "normalform_manifest.json").exists()


@pytest.mark.parametrize("kind", ["beam", "ground_state"])
def test_cli_normalform_refuses_a_model_without_its_own_perturbation(tmp_path, capsys, kind):
    # nls_quartic is not the equation of these kinds, so nothing is normalized
    small = ("lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05")
    assert _normalform(tmp_path, *small, f"model.kind={kind}") == 2
    captured = capsys.readouterr()
    assert f"model.kind {kind!r}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "normalform_manifest.json").exists()


def _simulate(tmp_path, *overrides):
    argv = ["simulate", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in ("lattice.radius=4", "simulate.horizon=0.2") + overrides:
        argv += ["--set", item]
    return main(argv)


def test_cli_simulate_runs_the_configured_model(tmp_path, capsys):
    assert _simulate(tmp_path / "nls") == 0
    assert _simulate(tmp_path / "torus", "model.kind=torus") == 0
    assert _simulate(tmp_path / "beam", "model.kind=beam", "model.mass=2.5") == 0
    capsys.readouterr()

    def results(name):
        return json.loads((tmp_path / name / "simulate_manifest.json").read_text())["results"]

    assert results("nls")["meta"]["model"] == "nls"
    assert results("beam")["meta"]["model"] == "beam"
    assert results("beam")["meta"]["mass_term"] == 2.5
    # the torus kind drops the multiplier potential, so its energy differs
    assert results("torus")["initial_sobolev"] == pytest.approx(results("nls")["initial_sobolev"])
    nls_csv = (tmp_path / "nls" / "trajectory.csv").read_text()
    assert (tmp_path / "torus" / "trajectory.csv").read_text() != nls_csv


def test_cli_simulate_records_the_configured_cluster_blocks(tmp_path, capsys):
    # c_delta = 3 joins the 17 modes of the radius-8 line into one block
    argv = ["simulate", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    assert main(argv + ["--set", "clusters.c_delta=3", "--set", "simulate.horizon=0.1"]) == 0
    capsys.readouterr()
    head = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert [name for name in head if name.startswith("Jblk_")] == ["Jblk_0"]


def test_cli_simulate_beam_on_a_skew_integer_gram_is_pinned(tmp_path, capsys):
    # the beam's eigenvalues |k|_g^2 are exact integers on an integer Gram matrix
    settings = (
        "lattice.dim=2", "lattice.radius=3", "model.kind=beam", "model.gram=[[2,1],[1,3]]",
        "simulate.horizon=0.5", "simulate.stride=10",
    )
    argv = ["simulate", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 0
    capsys.readouterr()
    assert file_sha256(tmp_path / "trajectory.csv") == (
        "c3db01b4377e6cacafb96a3be64a1d7c31765eecff97362209a7745947579935"
    )


@pytest.mark.parametrize(
    "overrides, message",
    [
        (("model.kind=ground_state",), "model.kind"),
        (("lattice.offset=0.3",), "lattice.offset"),
        (("model.kind=beam", "simulate.track_orbital=1.0"), "track_orbital"),
        (("simulate.dt=0",), "dt must be positive"),
        (("simulate.dt=-0.01",), "dt must be positive"),
        # one scheme per grid equation, so there is no integrator to choose
        (("simulate.integrator=strang_splitting",), "unknown setting 'simulate.integrator'"),
        # only the beam reads force
        (('simulate.force={"3": 0.5}',), "force needs model='beam'"),
        # the beam's nonlinear term is simulate.force; it would ignore the NLS map
        (("model.kind=beam", 'simulate.nonlinearity={"1": 5, "2": 3}'), "simulate.nonlinearity"),
    ],
)
def test_cli_simulate_rejects_what_it_cannot_honour(tmp_path, capsys, overrides, message):
    assert _simulate(tmp_path, *overrides) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "gram, message",
    [("[[1,0],[0,-1]]", "positive definite"), ("[[1,2],[0,1]]", "symmetric")],
)
def test_cli_bad_gram_matrix_is_a_usage_error_of_every_command(tmp_path, capsys, gram, message):
    # the beam's eigenvalues read the Gram matrix that the spectrum checks
    settings = ("lattice.dim=2", "model.kind=beam", f"model.gram={gram}")
    argv = ["spectrum", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in ("lattice.radius=4",) + settings:
        argv += ["--set", item]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert _simulate(tmp_path, *settings) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "clusters", "resonances"])
def test_cli_beam_with_a_negative_mass_is_a_usage_error(tmp_path, capsys, command):
    # the first point in lattice order with lambda^2 + m < 0 is named
    argv = [command, "--out-dir", str(tmp_path), "--set", "model.kind=beam"]
    assert main(argv + ["--set", "model.mass=-5"]) == 2
    assert "error: positivity violated at (-1,): lambda^2 + m = -4.0 < 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "setting",
    ["run.jobs=2", "output.format=csv", "model.decay=2", "simulate.model=beam",
     "simulate.mass_term=2", "normalform.s0=3", "normalform.perturbation=nls_quartic",
     "model.p0=5"],
)
def test_removed_keys_are_unknown(tmp_path, capsys, setting):
    with pytest.raises(ConfigError, match="unknown setting"):
        apply_overrides(load_config(None), [setting])
    assert main(["spectrum", "--set", setting, "--out-dir", str(tmp_path)]) == 2
    assert main(["spectrum", "--jobs", "2", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_verify_follows_the_beam_model(tmp_path, capsys, monkeypatch):
    import latnf.dynamics

    seen = []
    inner = latnf.dynamics.integrate_beam

    def spy(config):
        seen.append(config)
        return inner(config)

    monkeypatch.setattr(latnf.dynamics, "integrate_beam", spy)
    args = ["verify", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    assert main(args + ["--set", "model.kind=beam", "--set", "model.mass=2.5"]) == 0
    text = capsys.readouterr().out
    assert [(c.model, c.mass_term, c.radius, c.horizon) for c in seen] == [
        ("beam", 2.5, 6.0, 2.0)
    ]
    # the beam's mass column is not conserved, so only its energy is checked
    assert "mass conservation" not in text
    assert "verify: energy drift: PASS" in text
    assert "all 7 checks passed" in text


@pytest.mark.parametrize(
    "setting, message",
    [("model.kind=ground_state", "model.kind"), ("lattice.offset=0.3", "offset")],
)
def test_cli_verify_says_when_it_runs_no_trajectory(tmp_path, capsys, setting, message):
    args = ["verify", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    main(args + ["--set", setting])
    text = capsys.readouterr().out
    skipped = [line for line in text.splitlines() if "trajectory" in line]
    assert len(skipped) == 1
    assert skipped[0].startswith("verify: trajectory checks: not run (")
    assert message in skipped[0]
    assert "mass conservation" not in text and "energy drift" not in text


#: exit codes of each command on each model kind, on the radius-5 line
KIND_EXITS = {
    "torus": {"resonances": 1, "normalform": 1, "verify": 1},
    "multiplier": {},
    "beam": {"normalform": 2},
    "ground_state": {"resonances": 1, "normalform": 2, "simulate": 2, "verify": 1},
    "bogus": dict.fromkeys(
        ("spectrum", "clusters", "resonances", "normalform", "simulate", "verify"), 2
    ),
}

#: what a command that refuses a known kind prints; ``bogus`` gets one message everywhere
KIND_REFUSALS = {
    ("normalform", kind): "config error: normalform treats the NLS quartic of model.kind torus "
    f"or multiplier; model.kind {kind!r} has no perturbation of its own\n"
    for kind in ("beam", "ground_state")
} | {
    ("simulate", "ground_state"): "config error: simulate integrates model.kind torus, "
    "multiplier or beam, not 'ground_state'\n",
}


@pytest.mark.parametrize("kind", list(KIND_EXITS))
@pytest.mark.parametrize(
    "command", ["spectrum", "clusters", "resonances", "measure", "normalform", "simulate", "verify"]
)
def test_cli_each_command_on_each_model_kind(tmp_path, capsys, command, kind):
    settings = (
        "lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05",
        "simulate.horizon=0.2", "measure.n_samples=200", f"model.kind={kind}",
    )
    argv = [command, "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    code = KIND_EXITS[kind].get(command, 0)
    assert main(argv) == code
    # measure reads no model, so the unknown kind passes it by
    unknown = "config error: unknown model kind 'bogus'\n" if kind == "bogus" and code else ""
    assert capsys.readouterr().err == KIND_REFUSALS.get((command, kind), unknown)


def test_kinds_of_one_grid_equation_share_its_frequencies():
    # the grid integrators tabulate the frequencies of the first kind of their equation
    from latnf.dynamics import KINDS

    for equation in ("nls", "beam"):
        assert len({k.frequencies for k in KINDS.values() if k.equation == equation}) == 1


def test_cli_spectrum_builds_no_clusters(tmp_path, capsys):
    # build_clusters rejects delta=0; spectrum must not build clusters at all
    argv = ["spectrum", "--config", CERTIFIED_CONFIG, "--set", "clusters.delta=0"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()


def test_cli_resonances_builds_no_clusters(tmp_path, capsys, monkeypatch):
    import latnf.cli

    seen = []
    inner = latnf.cli.build_clusters

    def spy(*args, **kwargs):
        seen.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(latnf.cli, "build_clusters", spy)
    argv = ["resonances", "--config", CERTIFIED_CONFIG, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == []


def test_cli_normalform_manifest_records_the_certificates(tmp_path, capsys):
    # the radius-5 truncation at cutoff 4.5; see tests/test_scripts.py
    small = ("lattice.radius=5", "normalform.cutoff=4.5")
    assert _normalform(tmp_path, *small, "normalform.radius=9.221127468086334e-05") == 0
    capsys.readouterr()
    results = json.loads((tmp_path / "normalform_manifest.json").read_text())["results"]
    keys = ("order", "exhaustive", "n_checked", "passed")
    certs = [tuple(c[k] for k in keys) for c in results["certificates"]]
    assert certs == [(3, True, 2024, True), (4, True, 12650, True)]


def test_cli_normalform_artifacts_are_pinned(tmp_path, capsys):
    # the radius-5 truncation at cutoff 4.5; the digests are of the artifacts
    # written when forms were still serialized through their coefficient dicts
    small = ("lattice.radius=5", "normalform.cutoff=4.5", "normalform.radius=9.221127468086334e-05")
    assert _normalform(tmp_path, *small) == 0
    capsys.readouterr()
    results = json.loads((tmp_path / "normalform_manifest.json").read_text())["results"]
    assert results["bucket_terms"] == {"Z0": 45, "ZB": 18, "Z2": 10, "ZGE3": 3}
    assert float(results["remainder_bound"]).hex() == "0x1.320a90f970860p-46"
    digests = {path.stem: file_sha256(path) for path in sorted(tmp_path.glob("*.jsonl"))}
    assert digests == {
        "generator_0": "d10d1af990454622b4035973041aea83eb3d4e8f76a722000b712e4e92739f94",
        "z0_deg4": "f8d1e8847319c33c8c2a45670226ced65792f704353811dc05bb1a223405223d",
        "zb_deg4": "60072b06fc3f05016dcacbe3b157833a0ecfbfbbc14d58f2ab09a76d59a858c9",
        "z2_deg4": "91c417da453b35af44397e1ca4d9e79c25438af6318c245bde46655e1e829d63",
        "zge3_deg4": "563f8573f341071d1e8f8f60bc6d1de4603c107d167d85cf9962e42f0cc3d06a",
    }
