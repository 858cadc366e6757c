"""Spans around the calls into each latnf layer, recorded from outside the package.

A ``Tracer`` replaces module attributes with timing wrappers: the names that
``latnf.cli`` and ``latnf.normalform`` import (``latnf.normalform.poisson_bracket``
and so on) and the public entry points the workloads call.  No file under
``src/`` changes.  Spans nest through a stack, so a span's self time is its
duration minus its direct children's durations.

Counts come from the arguments and return values of the wrapped calls.  Code
that runs millions of times (``canonical_key``, ``small_divisor``,
``is_resonant_W``) and the ``lru_cache``d ``derivative_maps`` are never wrapped.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(eq=False)
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    children: List["Span"] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call, tagged with the current phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._stack: List[Span] = []
        self._patched: List[tuple] = []

    def wrap(self, module, attr: str, name: str, counter: Optional[Callable] = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name=name, phase=self.phase, start=time.perf_counter())
            if self._stack:
                self._stack[-1].children.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def run_spans(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name and s.phase == "run"]

    def total(self, name: str, phase: str = "run") -> float:
        return sum(s.duration for s in self.spans if s.name == name and s.phase == phase)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.run_spans(name))


SYSTEM_SPANS = ("system.lattice", "system.spectrum", "system.bands", "system.clusters")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _terms_in(args, kwargs, result):
    return {"terms": len(args[0].coeffs)}


def _normalize_counts(args, kwargs, result):
    return {
        "ledger_terms": sum(len(e.form.coeffs) for e in result.ledger),
        "bucket_terms": sum(
            result.bucket(b).n_terms() for b in ("Z0", "ZB", "Z2", "ZGE3")
        ),
    }


def _certify_counts(args, kwargs, result):
    return {"order": result.order, "multisets": result.n_checked}


def _steps(args, kwargs, result):
    return {"steps": result.meta["n_steps"]}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import latnf.bands
    import latnf.cli
    import latnf.clusters
    import latnf.dynamics
    import latnf.frequencies
    import latnf.lattice
    import latnf.normalform
    import latnf.resonance

    cli, nf = latnf.cli, latnf.normalform
    system_steps = (
        ("enumerate_lattice", latnf.lattice, "system.lattice"),
        ("build_spectrum", latnf.frequencies, "system.spectrum"),
        ("band_partition", latnf.bands, "system.bands"),
        ("build_clusters", latnf.clusters, "system.clusters"),
    )
    for attr, home, name in system_steps:
        tracer.wrap(home, attr, name)
        tracer.wrap(cli, attr, name)

    tracer.wrap(latnf.resonance, "certify_nonresonance", "resonance.certify", _certify_counts)
    tracer.wrap(cli, "certify_nonresonance", "resonance.certify", _certify_counts)

    tracer.wrap(cli, "normalize", "normalform.normalize", _normalize_counts)
    tracer.wrap(nf, "solve_homological", "normalform.homological")
    tracer.wrap(nf, "lie_transform", "normalform.lie_transform")
    tracer.wrap(nf, "check_superaction_commutation", "normalform.commutation")
    tracer.wrap(
        nf, "poisson_bracket", "forms.bracket",
        lambda a, k, r: {"calls": 1, "terms_out": len(r.coeffs)},
    )
    tracer.wrap(nf, "scaled_norm", "forms.norm", _terms_in)
    tracer.wrap(nf, "localized_norm", "forms.norm", _terms_in)
    tracer.wrap(nf, "vector_field", "forms.vector_field", _terms_in)

    tracer.wrap(cli, "form_to_jsonl", "cli.artifacts", _file_bytes)
    tracer.wrap(cli, "inventory", "cli.artifacts")
    tracer.wrap(cli, "write_manifest", "cli.artifacts", _file_bytes)

    tracer.wrap(latnf.dynamics, "stability_experiment", "dynamics.sweep")
    tracer.wrap(latnf.dynamics, "integrate_nls", "dynamics.strang", _steps)
    tracer.wrap(latnf.dynamics, "integrate_normal_form", "dynamics.kick", _steps)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _normalize_split(tracer: Tracer) -> tuple:
    """Remainder-probe time and self time summed over ``normalize`` spans.

    The remainder probe is the tail of ``normalize`` after
    ``check_superaction_commutation`` returns: the loop that evaluates the
    remainder vector fields.  Self time is the span minus its children and
    minus that tail.
    """
    probe = own = 0.0
    for span in tracer.run_spans("normalform.normalize"):
        comm = [c for c in span.children if c.name == "normalform.commutation"]
        cut = comm[-1].end if comm else span.end
        tail = span.end - cut
        before = sum(c.duration for c in span.children if c.end <= cut)
        probe += tail
        own += span.duration - before - tail
    return probe, own


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the run phase (of set-up, for ``system.build_s``)."""
    t, n = tracer.total, tracer.count
    certify = tracer.run_spans("resonance.certify")
    by_order = {
        k: sum(s.duration for s in certify if s.counts.get("order") == k)
        for k in (3, 4, 5, 6)
    }
    multisets = n("resonance.certify", "multisets")
    probe, nf_self = _normalize_split(tracer)
    strang_steps = n("dynamics.strang", "steps")
    kick_steps = n("dynamics.kick", "steps")
    sweep_self = sum(
        s.duration - sum(c.duration for c in s.children)
        for s in tracer.run_spans("dynamics.sweep")
    )
    return {
        "system.build_s": sum(t(name, phase="setup") for name in SYSTEM_SPANS),
        **{f"resonance.certify_o{k}_s": v for k, v in by_order.items()},
        "resonance.multisets": multisets,
        "resonance.multisets_per_s": _ratio(multisets, t("resonance.certify")),
        "normalform.normalize_s": t("normalform.normalize"),
        "normalform.homological_s": t("normalform.homological"),
        "normalform.lie_transform_s": t("normalform.lie_transform"),
        "normalform.remainder_probe_s": probe,
        "normalform.commutation_s": t("normalform.commutation"),
        "normalform.self_s": nf_self,
        "normalform.ledger_terms": n("normalform.normalize", "ledger_terms"),
        "normalform.bucket_terms": n("normalform.normalize", "bucket_terms"),
        "forms.bracket_s": t("forms.bracket"),
        "forms.bracket_calls": n("forms.bracket", "calls"),
        "forms.bracket_terms_out": n("forms.bracket", "terms_out"),
        "forms.norm_s": t("forms.norm"),
        "forms.norm_terms": n("forms.norm", "terms"),
        "forms.vector_field_s": t("forms.vector_field"),
        "forms.vector_field_terms": n("forms.vector_field", "terms"),
        "dynamics.strang_us_per_step": 1e6 * _ratio(t("dynamics.strang"), strang_steps),
        "dynamics.strang_steps": strang_steps,
        "dynamics.kick_us_per_step": 1e6 * _ratio(t("dynamics.kick"), kick_steps),
        "dynamics.kick_steps": kick_steps,
        "dynamics.sweep_self_s": sweep_self,
        "cli.artifacts_s": t("cli.artifacts"),
        "cli.artifact_bytes": n("cli.artifacts", "bytes"),
    }
