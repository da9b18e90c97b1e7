"""Energy flows, output power, efficiency, the stopping voltage and the
report at a Fock cutoff certified on its mean current.

Sign convention: every energy current is the flow *into* the system from the
named environment, IE_X = tr(E D_X rho_ss), so in steady state the three
contributions sum to zero.  ``E`` is the generator's bookkeeping Hamiltonian:
the full dynamical one for the non-additive method, the bare electronic one
for the additive methods (whose lead channels neither see nor dress the
mode, so their energy quanta are the bare addition energies; the phonon flow
is then fixed by energy balance).

The machine is judged as an engine: output power P = V * c1 against the heat
drawn from the hot resource (hot left lead in regime 1, hot phonons in
regime 2).  The efficiency eta = P / Q_in is reported only for a positive
heat intake: otherwise the device is not an engine, and dividing anyway
produces spurious super-Carnot numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fcs import cumulants, mean_current
from .model import REGIMES, ModelParams
from .rc import LadderCertificate, build_generator, converge_in_levels
from .superop import ConvergenceFailure, Liouvillian, SteadyState, apply_terms, steady_state


class BracketError(Exception):
    """The stopping-voltage bracket does not enclose a sign change."""


def bath_energy_current(L: Liouvillian, ss: SteadyState, bath: str) -> float:
    """Energy current into the system from one environment, tr(E D_bath rho)."""
    dv = apply_terms(L.bath(bath), L.space, ss.vec)
    drho = L.space.devec(dv)
    return float(np.trace(L.energy_op @ drho).real)


def energy_currents(L: Liouvillian, ss: SteadyState):
    """(IE_L, IE_R, IE_ph) with the method's bookkeeping.

    For the additive methods the lead channels carry sharp bare energies and
    the phonon intake follows from steady-state energy balance; the
    non-additive method gets all three from independent traces (their sum
    vanishing is then a real check, not an identity).
    """
    IE_L = bath_energy_current(L, ss, "left")
    IE_R = bath_energy_current(L, ss, "right")
    if L.method == "arcme":
        IE_ph = -(IE_L + IE_R)
    else:
        IE_ph = bath_energy_current(L, ss, "phonon")
    return IE_L, IE_R, IE_ph


def carnot_efficiency(p: ModelParams, regime: int) -> float:
    """1 - beta_hot/beta_cold for the regime's hot resource (``model.REGIMES``)."""
    if regime not in REGIMES:
        raise ValueError("regime must be 1 or 2")
    hot, cold = REGIMES[regime]
    return 1.0 - getattr(p, hot) / getattr(p, cold)


@dataclass
class TransportReport:
    """One operating point: cumulants, energy flows and engine figures.

    ``eta`` and ``upsilon`` are ``None`` where undefined (no heat intake /
    no mean current).  ``carnot_violated`` records eta > eta_carnot without
    erring: the additive method really does produce such points, and they
    are data, not exceptions.
    """

    params: ModelParams
    method: str
    regime: int
    M: int | None
    c1: float
    c2: float
    upsilon: float | None
    P: float
    IE_L: float
    IE_R: float
    IE_ph: float
    Q_in: float
    eta: float | None
    eta_carnot: float
    carnot_violated: bool
    converged: bool
    residual: float


def transport_report(p: ModelParams, method: str, regime: int,
                     M: int | None = None) -> TransportReport:
    """Solve one operating point and assemble the full report (``converged=True``)."""
    eta_c = carnot_efficiency(p, regime)   # rejects a bad regime before any build
    L = build_generator(p, method, M)
    ss = steady_state(L)
    cum = cumulants(L, ss)
    IE_L, IE_R, IE_ph = energy_currents(L, ss)
    P = p.V * cum.c1
    Q_in = IE_L - p.mu_L * cum.c1 if regime == 1 else IE_ph
    eta = P / Q_in if Q_in > 0.0 else None
    violated = eta is not None and eta > eta_c + 1e-12
    return TransportReport(params=p, method=method, regime=regime,
                           M=None if method == "wcme" else M,
                           c1=cum.c1, c2=cum.c2, upsilon=cum.upsilon, P=P,
                           IE_L=IE_L, IE_R=IE_R, IE_ph=IE_ph, Q_in=Q_in,
                           eta=eta, eta_carnot=eta_c, carnot_violated=violated,
                           converged=True, residual=ss.residual)


def bisect_root(f, a: float, b: float, tol: float = 1e-8) -> float:
    """Plain bisection for a decreasing sign change of f on [a, b], 200 steps at most."""
    if tol <= 0:
        raise ValueError(f"bisection tolerance must be positive, got {tol!r}")
    fa, fb = f(a), f(b)
    if fa <= 0.0:
        raise BracketError(f"f({a}) = {fa:.3e} is not positive at the lower bracket")
    if fb >= 0.0:
        raise BracketError(f"f({b}) = {fb:.3e} is not negative at the upper bracket")
    for _ in range(200):
        if b - a <= tol:
            return 0.5 * (a + b)
        m = 0.5 * (a + b)
        fm = f(m)
        if fm > 0.0:
            a = m
        elif fm < 0.0:
            b = m
        else:
            return m
    raise ConvergenceFailure("bisection exceeded its iteration budget")


def default_bracket(p: ModelParams) -> float:
    """Generous upper bracket for the stopping voltage, 5 Delta eta_carnot."""
    beta_cold = max(p.beta_L, p.beta_R, p.beta_ph)
    beta_hot = min(p.beta_L, p.beta_R, p.beta_ph)
    return 5.0 * p.Delta * (beta_cold - beta_hot) / beta_cold


def _current(p: ModelParams, method: str, M: int | None) -> float:
    """Mean right-lead current of the method's steady state."""
    L = build_generator(p, method, M)
    return mean_current(L, steady_state(L))


def stopping_voltage(p: ModelParams, method: str = "wcme", M: int | None = None,
                     tol: float = 1e-8) -> float:
    """Bias where the mean current reverses, bisected to tol on [0, default_bracket(p)]."""
    return bisect_root(lambda V: _current(p.with_bias(V), method, M),
                       0.0, default_bracket(p), tol=tol)


def converge_report(p: ModelParams, method: str, regime: int,
                    **ladder) -> tuple[TransportReport, LadderCertificate]:
    """(report, certificate) at the cutoff certified on c1 (``ladder``: start, step, tol, cap)."""
    if method == "wcme":
        raise ValueError("method 'wcme' has no Fock ladder; use a reaction-coordinate method")
    reports = {}   # every level's: after a bounce the certificate names the one before last
    cert = converge_in_levels(lambda M: reports.setdefault(
        M, transport_report(p, method, regime, M=M)).c1, **ladder)
    return replace(reports[cert.M], converged=cert.converged), cert
