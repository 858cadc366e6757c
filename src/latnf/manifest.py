"""Deterministic run manifests.

A manifest is a JSON document with sorted keys and no timestamps: the same
inputs and seed produce byte-identical output.  It echoes the resolved
configuration, records library versions, and carries a sha256 inventory of
every artifact the run wrote.
"""

from __future__ import annotations

import hashlib
import json
import platform
import zlib
from pathlib import Path
from typing import Dict, Iterable, Optional

import numpy as np


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def inventory(paths: Iterable, root: Optional[Path] = None) -> Dict[str, str]:
    """Sorted relative-path -> sha256 mapping for the given files."""
    out = {}
    for p in paths:
        p = Path(p)
        name = str(p.relative_to(root)) if root is not None else p.name
        out[name] = file_sha256(p)
    return dict(sorted(out.items()))


def spawn_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named sub-task of a run."""
    key = zlib.crc32(label.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def versions() -> Dict[str, str]:
    try:
        from importlib.metadata import version

        pkg = version("latnf")
    except Exception:
        pkg = "unknown"
    return {
        "latnf": pkg,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def build_manifest(
    command: str,
    config_echo: Dict,
    results: Dict,
    artifacts: Dict[str, str],
    seed: int,
) -> Dict:
    return {
        "artifacts": artifacts,
        "command": command,
        "config": config_echo,
        "results": results,
        "seed": seed,
        "versions": versions(),
    }


class _CompactEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, tuple):
            return list(o)
        return super().default(o)


def manifest_json(manifest: Dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2, cls=_CompactEncoder) + "\n"


def write_manifest(manifest: Dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(manifest_json(manifest))
