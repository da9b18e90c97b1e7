"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload drives only the public API.  Seed 0 is the nominal operating
point; any other seed moves one physical parameter uniformly inside a stated
window, and never the problem size or the number of generator builds.

* ``report_m34``   -- one dense RCME transport report at M = 34 (n = 5780):
  the O(M^6) assembly + bordered-LU path, one generator build.
* ``stopping_rcme`` -- one RCME stopping voltage at M = 14 (n = 980): 32
  generator builds of the same H' at different biases, c1 only.
* ``cli_sweep``    -- an in-process 63-point CLI sweep (wcme, rcme, arcme;
  21 biases; M = 12): full reports with c2 and energy flows on every point,
  then the CSV and manifest.
"""
from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass

import numpy as np

import nanojunction as nj
import nanojunction.cli  # noqa: F401  (the sweep is driven through cli.main)

# Each balance check accepts the larger of two allowances.  (1) A tolerance
# relative to the largest value of the whole operation: near the stopping
# voltage the currents and flows themselves nearly vanish.  (2) CERT_FACTOR
# times the bound the library's residual certificate r = max|L vec(rho)|
# implies: the left/right mismatch equals tr(N L rho), at most 2 d r for at
# most two electrons, and the RCME energy imbalance equals tr(E L rho), at
# most sum_i |E_ii| r for its diagonal E; evaluating the separately rounded
# traces adds error of the same order, hence the factor.  At lam = 1000 the
# generator's entries reach ~2e4 and r ~ 1e-14, so both defects are far
# above 1e-10 of the tiny current (c1 ~ 6e-7) yet inside what r certifies.
RESIDUAL_TOL = 1e-9     # the library's own steady-state certificate
LEFT_RIGHT_TOL = 1e-10  # left- vs right-counted c1, relative
ENERGY_TOL = 1e-8       # |IE_L + IE_R + IE_ph|, relative to the largest flow
CERT_FACTOR = 10.0
REFERENCE_TOL = 1e-8    # match to the seed-commit numbers, relative
SIGN_STEP = 1e-6        # the current must change sign across V_s +- this

SIZES = {
    "full": {"report_M": 34, "stop_M": 14, "cli_points": 21, "cli_M": 12},
    "smoke": {"report_M": 10, "stop_M": 6, "cli_points": 3, "cli_M": 4},
}


def jitter(seed: int, nominal: float, half_width: float) -> float:
    """The nominal value at seed 0, else uniform in nominal +- half_width."""
    if seed == 0:
        return nominal
    return nominal + half_width * (2.0 * random.Random(seed).random() - 1.0)


def close(a: float, b: float, tol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), scale)


@dataclass(frozen=True)
class Point:
    """What the invariant checks need from one solved steady state."""

    residual: float
    left: float          # left-counted c1
    right: float         # right-counted c1
    dim: int             # Hilbert dimension d
    flows: tuple | None  # (IE_L, IE_R, IE_ph) for RCME, else None
    energy_sum: float    # sum_i |E_ii| of the bookkeeping Hamiltonian


def point(L, ss) -> Point:
    rcme = L.method == "rcme"
    return Point(residual=ss.residual, left=nj.mean_current(L, ss, "left"),
                 right=nj.mean_current(L, ss, "right"), dim=L.space.dim,
                 flows=nj.energy_currents(L, ss) if rcme else None,
                 energy_sum=float(np.abs(np.diag(L.energy_op)).sum()))


def invariant_failures(points, label: str) -> list:
    """Residual certificate, left = right current and RCME energy balance."""
    c1_scale = max((max(abs(p.left), abs(p.right)) for p in points), default=0.0)
    ie_scale = max((abs(x) for p in points if p.flows for x in p.flows), default=0.0)
    out = []
    for p in points:
        r = p.residual
        if not r <= RESIDUAL_TOL:
            out.append(f"{label}: steady-state residual {r:.3e} > {RESIDUAL_TOL:.0e}")
        allowed = max(LEFT_RIGHT_TOL * c1_scale, CERT_FACTOR * 2 * p.dim * r)
        if not abs(p.left - p.right) <= allowed:
            out.append(f"{label}: left c1 {p.left:.12e} != right c1 {p.right:.12e}")
        if p.flows is not None:
            allowed = max(ENERGY_TOL * ie_scale, CERT_FACTOR * p.energy_sum * r)
            if not abs(sum(p.flows)) <= allowed:
                out.append(f"{label}: IE_L + IE_R + IE_ph = {sum(p.flows):.3e}")
    return out


def reference_failures(summary: dict, reference: dict | None, label: str) -> list:
    """Compare every recorded number; a list is compared relative to its largest entry."""
    if reference is None:
        return []
    out = []
    for key, ref in reference.items():
        got = summary[key]
        if isinstance(ref, list):
            scale = max(abs(x) for x in ref)
            if len(got) != len(ref):
                out.append(f"{label}: {key} has {len(got)} entries, reference {len(ref)}")
                continue
            bad = [i for i, (g, r) in enumerate(zip(got, ref))
                   if not close(g, r, REFERENCE_TOL, scale)]
            if bad:
                out.append(f"{label}: {key} differs from the reference at rows {bad}")
        elif not close(got, ref, REFERENCE_TOL):
            out.append(f"{label}: {key} = {got!r}, reference {ref!r}")
    return out


class ReportM34:
    name = "report_m34"

    def inputs(self, seed: int, size: dict) -> dict:
        V = jitter(seed, 0.1, 0.05)
        return {"params": nj.regime_params(1, lam=1000.0).with_bias(V),
                "M": size["report_M"]}

    def run(self, inp: dict, workdir: str):
        return nj.transport_report(inp["params"], "rcme", 1, M=inp["M"])

    def summary(self, rep) -> dict:
        return {"c1": rep.c1, "c2": rep.c2}

    def same(self, a, b) -> bool:
        return all(close(x, y, REFERENCE_TOL) for x, y in
                   zip(self.summary(a).values(), self.summary(b).values()))

    def check(self, inp: dict, rep, points) -> list:
        fails = []
        if len(points) != 1:
            fails.append(f"expected one steady state, captured {len(points)}")
        if not rep.residual <= RESIDUAL_TOL:
            fails.append(f"report residual {rep.residual:.3e}")
        if not rep.c2 >= 0.0:
            fails.append(f"c2 = {rep.c2:.3e} < 0")
        return fails + invariant_failures(points, "report")


class StoppingRcme:
    name = "stopping_rcme"

    def inputs(self, seed: int, size: dict) -> dict:
        return {"params": nj.regime_params(1, lam=jitter(seed, 3.0, 0.5)),
                "M": size["stop_M"]}

    def run(self, inp: dict, workdir: str):
        return nj.stopping_voltage(inp["params"], "rcme", M=inp["M"])

    def summary(self, V_s: float) -> dict:
        return {"V_s": V_s}

    def same(self, a, b) -> bool:
        return close(a, b, REFERENCE_TOL)

    def check(self, inp: dict, V_s: float, points) -> list:
        fails = invariant_failures(points, "bisection point")
        if len(points) < 2:
            fails.append(f"captured only {len(points)} steady states")
        p, M = inp["params"], inp["M"]
        below, above = (_current(p.with_bias(V_s + d), M) for d in (-SIGN_STEP, SIGN_STEP))
        if not (below > 0.0 > above):
            fails.append(f"no sign change across V_s +- {SIGN_STEP:g}: "
                         f"c1 = {below:.3e}, {above:.3e}")
        return fails


def _current(p, M: int) -> float:
    L = nj.assemble_rcme(p, M)
    return nj.mean_current(L, nj.steady_state(L))


class CliSweep:
    name = "cli_sweep"

    def inputs(self, seed: int, size: dict) -> dict:
        to = jitter(seed, 2.0, 0.1)
        return {"argv": ["--method", "wcme,rcme,arcme", "--regime", "2",
                         "--sweep", "V", "--from", "0", "--to", repr(to),
                         "--points", str(size["cli_points"]),
                         "--rc-levels", str(size["cli_M"]), "--workers", "1"]}

    def run(self, inp: dict, workdir: str):
        out = os.path.join(workdir, "sweep.csv")
        code = nj.cli.main(inp["argv"] + ["--out", out])
        with open(out, "rb") as f:
            data = f.read()
        with open(out + ".manifest.json") as f:
            timings = json.load(f)["timings"]
        return {"code": code, "csv": data, "points": timings["points"],
                "failed_points": timings["failed_points"]}

    @staticmethod
    def rows(out) -> list:
        return list(csv.DictReader(io.StringIO(out["csv"].decode())))

    def summary(self, out) -> dict:
        rows = self.rows(out)
        return {"c1": [float(r["c1"]) for r in rows], "c2": [float(r["c2"]) for r in rows]}

    def same(self, a, b) -> bool:
        return a == b

    def check(self, inp: dict, out, points) -> list:
        fails = []
        if out["code"] != 0:
            fails.append(f"cli exit status {out['code']}")
        if out["failed_points"]:
            fails.append(f"{out['failed_points']} of {out['points']} points failed")
        rows = self.rows(out)
        if len(rows) != out["points"] or len(points) != len(rows):
            fails.append(f"{len(rows)} rows, {out['points']} points, "
                         f"{len(points)} captured steady states")
        for r in rows:
            label = f"{r['method']} V={r['V']}"
            if r["c1"] == "":
                fails.append(f"{label}: empty outputs")
                continue
            if not float(r["residual"]) <= RESIDUAL_TOL:
                fails.append(f"{label}: residual {r['residual']}")
            if not float(r["c2"]) >= 0.0:
                fails.append(f"{label}: c2 = {r['c2']} < 0")
        return fails + invariant_failures(points, "sweep point")


WORKLOADS = {w.name: w for w in (ReportM34(), StoppingRcme(), CliSweep())}
