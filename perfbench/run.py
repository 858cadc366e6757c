"""Benchmark runner: run one workload and print its metrics as JSON.

Usage, from the root of a latnf checkout:

    python3 perfbench/run.py --workload normalform-line5 --seed 1 --seconds 20 --trace 0

Every timed operation runs in a fresh worker process (see ``worker.py``),
single-threaded, with its artifacts in a temporary directory under
``.perfbench_tmp/`` that is removed at the end.  While a worker runs, this
process samples the host's speed (``SpeedProbe``), and ``setup_s`` and
``run_s`` are reported at a fixed reference speed.

With ``--trace 0`` the run repeats operations until ``--seconds`` have passed
and reports the end-to-end metrics: the medians of ``setup_s``, ``run_s`` and
``peak_rss_mb``, and ``success_rate``, the share of attempted operations whose
output passed the gate in ``reference.json``.  With ``--trace 1`` it runs one
untraced operation and its in-process repeat, then one traced operation, and
reports the per-layer metrics.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

from workloads import CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent

MIN_SETUPS = 5
DEADLINE_S = 170.0
PROBE_PERIOD_S = 0.15
# Typical duration of one SpeedProbe.tick() beside a running worker on the
# machine where the bounds were set; setup_s and run_s are reported at that
# reference speed.
PROBE_REF_S = 0.011
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def git_revision(root: Path) -> str:
    """Commit of a git checkout read from ``.git``, or ``unknown``."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over ``src/latnf/*.py``, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "latnf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
    }


@contextmanager
def temp_dir(root: Path):
    """A temporary directory under ``<root>/.perfbench_tmp``, removed on exit."""
    parent = root / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            yield Path(tmp)
    finally:
        try:
            parent.rmdir()
        except OSError:
            pass


class SpeedProbe:
    """Samples the host's speed while a worker runs on the other core.

    The host's speed drifts by up to 2x within seconds and over minutes, so a
    wall time alone says as much about the neighbours as about latnf.  Every
    ``PROBE_PERIOD_S`` the runner times one fixed chunk of work: random
    updates of a 200k-key dict of tuple keys, like the polynomial layer's,
    and 36-point FFTs, like the integrators'.  A chunk takes about 10 ms
    beside a worker (5 ms on an idle machine: the two cores slow each other
    by about 1.8x whether the worker is compute- or memory-bound), so the
    probe uses under a tenth of the second core and runs no latnf code.
    """

    def __init__(self):
        import numpy as np

        rng = random.Random(0)
        self._table = {((i % 1009,), (i // 1009, 1)): 0j for i in range(200_000)}
        keys = list(self._table)
        self._keys = [keys[rng.randrange(len(keys))] for _ in range(4000)]
        self._fft = np.fft
        self._u = np.ones(36, dtype=complex)
        self.chunks = []

    def tick(self) -> None:
        start = time.monotonic()
        table = self._table
        for key in self._keys:
            table[key] = table[key] + 1j
        u = self._u
        for _ in range(60):
            u = self._fft.fft(self._fft.ifft(u) * 1.0000001)
        self._u = u
        end = time.monotonic()
        self.chunks.append((0.5 * (start + end), end - start))

    def chunk_s(self, window=None) -> float:
        """Mean chunk time inside a window (default: all), or of the 3 nearest."""
        start, end = window or (-float("inf"), float("inf"))
        inside = [d for mid, d in self.chunks if start <= mid <= end]
        if len(inside) < 3:
            centre = 0.5 * (start + end)
            nearest = sorted(self.chunks, key=lambda c: abs(c[0] - centre))[:3]
            inside = [d for _, d in nearest]
        return statistics.mean(inside)


class Runner:
    """Starts worker processes for one workload and collects what they report."""

    def __init__(self, root: Path, workload: str, seed: int, tmp: Path, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.probe = SpeedProbe()
        self.reports = []
        self.failures = []
        self._n = 0

    def _wait(self, proc) -> bool:
        """Sample the speed until the worker exits; False at the deadline."""
        while proc.poll() is None:
            if time.monotonic() > self.deadline:
                return False
            self.probe.tick()
            time.sleep(PROBE_PERIOD_S)
        return True

    def spawn(self, mode: str, repeat: bool = False):
        """One worker process; returns its report, or None if it failed."""
        self._n += 1
        out = self.tmp / f"{mode}-{self._n}"
        out.mkdir()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--out", str(out),
        ] + (["--repeat"] if repeat else [])
        log = out / "stdout.txt"
        with open(log, "w") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0)], cwd=self.root, env=self.env,
                stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                finished = self._wait(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not finished:
            self.failures.append(f"{mode}: killed at the {DEADLINE_S:.0f} s deadline")
            return None
        lines = log.read_text().strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failures.append(f"{mode}: exit {proc.returncode}: {' | '.join(lines[-3:])}")
            return None
        report = json.loads(lines[-1])
        for op in report["ops"]:
            if not op["ok"]:
                self.failures.append(f"{mode}: {op.get('error') or op['mismatches'][:5]}")
        self.reports.append(report)
        return report

    def ops(self):
        return [op for r in self.reports for op in r["ops"]]

    def run_at_reference_speed(self, op: dict) -> float:
        """An operation's wall time scaled by the speed sampled over its window."""
        return op["run_s"] * PROBE_REF_S / self.probe.chunk_s(op["window"])

    def setup_at_reference_speed(self, report: dict) -> float:
        """A set-up time scaled by the speed sampled over the whole run.

        A set-up window (about 0.3 s) holds too few chunks to scale by alone.
        """
        return report["setup_s"] * PROBE_REF_S / self.probe.chunk_s()


def measure(runner: Runner, seconds: float):
    """End-to-end metrics: operations in fresh processes for ``seconds``."""
    attempted = 0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        attempted += 1
        runner.spawn("op")
        now = time.monotonic()
        if now - start >= seconds or now + (now - t) > runner.deadline:
            break
    while len(runner.reports) < MIN_SETUPS and time.monotonic() < runner.deadline - 10:
        if runner.spawn("setup") is None:
            attempted += 1
            break

    ok = [op for op in runner.ops() if op["ok"]]
    timed = ok or runner.ops()
    rss = [r["peak_rss_mb"] for r in runner.reports if "peak_rss_mb" in r]
    failed = len(runner.failures)
    samples = {
        "setup_s": [runner.setup_at_reference_speed(r) for r in runner.reports],
        "run_s": [runner.run_at_reference_speed(op) for op in timed],
        "wall_setup_s": [r["setup_s"] for r in runner.reports],
        "wall_run_s": [op["run_s"] for op in timed],
        "probe_chunk_s": [runner.probe.chunk_s(op["window"]) for op in timed],
        "peak_rss_mb": rss,
    }
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]) if runner.reports else 0.0, "s"),
        "run_s": (statistics.median(samples["run_s"]) if timed else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
        "success_rate": ((attempted - min(failed, attempted)) / attempted, "ratio"),
    }
    return attempted, failed, metrics, samples


UNIT_SUFFIXES = (
    ("_us_per_step", "us"),
    ("_per_s", "1/s"),
    ("_bytes", "bytes"),
    ("_mb", "MB"),
    ("_s", "s"),
    ("overhead", "ratio"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def trace(runner: Runner):
    """Per-layer metrics: an untraced operation and its repeat, then a traced one."""
    base = runner.spawn("op", repeat=True)
    traced = runner.spawn("traced")
    attempted = 3
    layers = {}
    samples = {}
    if base is not None and traced is not None:
        layers = dict(traced["layers"])
        layers["mem.rss_growth_mb"] = base["rss_growth_mb"]
        untraced, repeat = base["ops"]
        traced_op = traced["ops"][0]
        layers["trace.overhead"] = (
            runner.run_at_reference_speed(traced_op)
            / runner.run_at_reference_speed(untraced)
            - 1.0
        )
        samples = {
            "untraced_run_s": untraced["run_s"],
            "repeat_run_s": repeat["run_s"],
            "traced_run_s": traced_op["run_s"],
        }
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    return attempted, len(runner.failures), metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "latnf" / "__init__.py").is_file() or not (root / CONFIG).is_file():
        print(
            "perfbench: run from the root of a latnf checkout "
            f"(needs src/latnf and {CONFIG})",
            file=sys.stderr,
        )
        return 2

    with temp_dir(root) as tmp:
        runner = Runner(root, args.workload, args.seed, tmp, deadline)
        if args.trace:
            attempted, failed, metrics, samples = trace(runner)
        else:
            attempted, failed, metrics, samples = measure(runner, args.seconds)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": args.seed % WORKLOADS[args.workload].variants,
        "trace": args.trace,
        "environment": environment(root),
        "samples": samples,
        "failures": runner.failures,
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
