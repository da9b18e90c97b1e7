"""Layer spans recorded from outside the nanojunction package.

A traced run replaces every module binding of a layer's public functions
with a timing wrapper and puts the originals back afterwards.  Spans are
kept in memory as (name, start, end, parent) and written out once, when the
run ends.  Self time is a span's duration minus the durations of its
children; the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from nanojunction import cli, fcs, rc, superop, thermo, wcme

# (module, attribute, span name).  Every binding of each function in the
# loaded nanojunction modules is replaced, because thermo, fcs and cli import
# several of them by name.
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "write_csv", "cli.write_csv"),
    (cli, "write_manifest", "cli.write_manifest"),
    (thermo, "transport_report", "thermo.transport_report"),
    (thermo, "stopping_voltage", "thermo.stopping_voltage"),
    (thermo, "energy_currents", "thermo.energy_currents"),
    (fcs, "cumulants", "fcs.cumulants"),
    (fcs, "mean_current", "fcs.mean_current"),
    (fcs, "zero_frequency_noise", "fcs.zero_frequency_noise"),
    (rc, "assemble_rcme", "rc.assemble_rcme"),
    (rc, "assemble_arcme", "rc.assemble_arcme"),
    (rc, "build_augmented_hamiltonian", "rc.build_augmented_hamiltonian"),
    (rc, "build_rate_operators", "rc.build_rate_operators"),
    (wcme, "assemble_wcme", "wcme.assemble_wcme"),
    (superop, "assemble", "superop.assemble"),
    (superop, "steady_state", "superop.steady_state"),
    (superop, "apply_terms", "superop.apply_terms"),
    (superop, "restricted_pseudo_inverse_apply", "superop.pseudo_inverse_apply"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def bindings(fn) -> list:
    """Every (module, attribute) of the loaded nanojunction modules bound to fn."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nanojunction" or name.startswith("nanojunction.")):
            continue
        found += [(mod, attr) for attr, val in vars(mod).items() if val is fn]
    return found


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def replace_everywhere(self, fn, value) -> None:
        for mod, attr in bindings(fn):
            self.set(mod, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            setattr(obj, attr, old)


class Tracer:
    """In-memory span recorder with wrappers for the nanojunction layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **info):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent, info=info)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if name == "superop.assemble":
                # kept by reference; sizes and bytes are computed after the op
                s.info["space"], s.info["terms"] = args[0], list(args[1])
            elif name in ("rc.assemble_rcme", "rc.assemble_arcme"):
                s.info["terms"] = len(out.terms)
            return out
        return timed

    def install(self, patches: Patches) -> None:
        """Wrap every binding of the layer functions, and the first LU call."""
        for mod, attr, name in WRAPPED:
            fn = getattr(mod, attr)
            patches.replace_everywhere(fn, self._wrap(name, fn))
        lu = superop.Liouvillian.bordered_lu

        @functools.wraps(lu)
        def first_lu(L):
            if L._lu is not None:   # cached factorization: nothing to time
                return lu(L)
            with self.span("superop.bordered_lu", n=L.space.n):
                return lu(L)

        patches.set(superop.Liouvillian, "bordered_lu", first_lu)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, index: int) -> float:
        return self.spans[index].duration - sum(c.duration for c in self.children(index))

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                rec = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                if "n" in s.info:
                    rec["n"] = s.info["n"]
                f.write(json.dumps(rec) + "\n")
