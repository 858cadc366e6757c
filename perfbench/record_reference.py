"""Record the output gate's reference values from the current checkout.

Usage, from the root of a latnf checkout whose outputs are trusted:

    python3 perfbench/record_reference.py

Runs each input variant of each workload once, in a fresh worker process,
and writes ``perfbench/reference.json``.  For every workload, ``rules`` hold
what all variants share: counts, flags and key hashes compared exactly,
seed-independent floats to ``FLOAT_RTOL``, and criteria (residuals, drifts,
growth ratios) as upper limits.  ``variants`` hold each variant's
seed-dependent floats to ``VARIANT_RTOL``.
"""

from __future__ import annotations

import fnmatch
import json
import sys
import time
from pathlib import Path

from run import HERE, Runner, temp_dir
from workloads import WORKLOADS

FLOAT_RTOL = 1e-9
VARIANT_RTOL = 1e-6

EXACT = {
    "normalform-line5": [
        "exit_code", "census.*", "n_generators", "ledger.n", "ledger.*.step",
        "ledger.*.source_degree", "ledger.*.lie_index", "ledger.*.degree",
        "ledger.*.terms", "cert.*.n_checked", "cert.*.passed", "cert.*.exhaustive",
        "artifact.*.n_terms", "artifact.*.keys_sha256",
    ],
    "certify-line8": ["o*.n_checked", "o*.passed", "o*.exhaustive"],
    "nls-line8": ["sweep.*.steps", "kick.steps", "kick.exact"],
}
REL = {
    "normalform-line5": [
        "mu", "step_norms.*", "ledger.*.norm_r", "gamma.*", "cert.*.min_score",
        "artifact.*.l1",
    ],
    "certify-line8": ["o*.min_score", "o*.min_divisor"],
    "nls-line8": [],
}
AT_MOST = {
    "normalform-line5": {"max_residual": 1e-12, "commutation.*": 1e-12},
    "certify-line8": {},
    "nls-line8": {
        "sweep.*.max_ratio": 2.0,
        "sweep.*.mass_drift": 1e-10,
        "kick.energy_drift": 1e-7,
    },
}
PER_VARIANT = {
    "normalform-line5": ["remainder_bound"],
    "certify-line8": [],
    "nls-line8": ["sweep.*.max_ratio", "kick.final_sobolev"],
}


def _matching(summary: dict, patterns) -> list:
    return sorted(k for k in summary if any(fnmatch.fnmatchcase(k, p) for p in patterns))


def rules(name: str, summaries: list) -> dict:
    first = summaries[0]
    exact = {k: first[k] for k in _matching(first, EXACT[name])}
    rel = {k: [first[k], FLOAT_RTOL] for k in _matching(first, REL[name])}
    for summary in summaries[1:]:
        for key, value in exact.items():
            if summary[key] != value:
                raise SystemExit(f"{name}: {key} depends on the seed")
        for key, (value, rtol) in rel.items():
            if abs(summary[key] - value) > rtol * abs(value):
                raise SystemExit(f"{name}: {key} depends on the seed")
    at_most = {}
    for pattern, limit in AT_MOST[name].items():
        for key in _matching(first, [pattern]):
            worst = max(s[key] for s in summaries)
            if worst > limit:
                raise SystemExit(f"{name}: {key} = {worst} exceeds its limit {limit}")
            at_most[key] = limit
    variants = {
        str(i): {"rel": {k: [s[k], VARIANT_RTOL] for k in _matching(s, PER_VARIANT[name])}}
        for i, s in enumerate(summaries)
    }
    return {"rules": {"exact": exact, "rel": rel, "at_most": at_most}, "variants": variants}


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name, cls in WORKLOADS.items():
        summaries = []
        for variant in range(cls.variants):
            with temp_dir(root) as tmp:
                runner = Runner(root, name, variant, tmp, time.monotonic() + 600)
                report = runner.spawn("op")
            if report is None or "summary" not in report["ops"][0]:
                raise SystemExit(f"{name} variant {variant} failed: {runner.failures}")
            summaries.append(report["ops"][0]["summary"])
            print(f"{name} variant {variant}: {report['ops'][0]['run_s']:.2f} s", file=sys.stderr)
        reference[name] = rules(name, summaries)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
