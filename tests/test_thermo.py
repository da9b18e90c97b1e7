"""Energy bookkeeping, engine efficiency and the stopping voltage.

The two-site junction is a tight-coupling machine: every transferred electron
enters at eps_L, climbs by Delta on the phonon quantum, and leaves at eps_R.
That fixes closed forms for the weak-coupling energy flows, efficiencies and
stopping voltages which the solver has to hit to near machine precision, and
it pins the Carnot bound eta_C = 0.9 for both hot-resource configurations.
"""
from dataclasses import replace

import numpy as np
import pytest

from nanojunction import superop, thermo
from nanojunction.model import ModelParams, regime_params
from nanojunction.thermo import (
    BracketError,
    bisect_root,
    carnot_efficiency,
    converge_report,
    default_bracket,
    energy_currents,
    stopping_voltage,
    transport_report,
)
from nanojunction.superop import steady_state
from nanojunction.wcme import assemble_wcme


@pytest.mark.parametrize("method", ["wcme", "rcme", "arcme"])
@pytest.mark.parametrize("regime", [1, 2])
def test_energy_flows_balance(method, regime):
    p = regime_params(regime, mu_R=0.1)
    M = None if method == "wcme" else 10
    rep = transport_report(p, method, regime, M=M)
    assert abs(rep.IE_L + rep.IE_R + rep.IE_ph) < 1e-9
    assert rep.P == pytest.approx(p.V * rep.c1, abs=1e-15)
    assert rep.converged and rep.residual < 1e-9
    assert rep.M == M
    assert rep.eta_carnot == pytest.approx(0.9, rel=1e-12)
    assert not rep.carnot_violated


@pytest.mark.parametrize("method", ["wcme", "rcme", "arcme"])
def test_report_makes_one_solve_for_rho_and_one_for_the_noise(method, monkeypatch):
    """Both right-hand sides are Hermitian, so each is one real LU solve."""
    solve, calls = superop.sla.lu_solve, []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(superop.sla, "lu_solve", counting)
    transport_report(regime_params(1, lam=30.0), method, 1, M=None if method == "wcme" else 6)
    assert len(calls) == 2


def test_weak_coupling_flows_are_tightly_coupled():
    p = regime_params(2, mu_R=0.1)
    L = assemble_wcme(p)
    ss = steady_state(L)
    from nanojunction.fcs import mean_current
    c1 = mean_current(L, ss)
    ie_l, ie_r, ie_ph = energy_currents(L, ss)
    assert ie_l == pytest.approx(p.eps_L * c1, rel=1e-10)
    assert ie_r == pytest.approx(-p.eps_R * c1, rel=1e-10)
    assert ie_ph == pytest.approx(p.Delta * c1, rel=1e-10)


def test_weak_coupling_efficiency_identities():
    rep2 = transport_report(regime_params(2, mu_R=0.1), "wcme", 2)
    assert rep2.eta == pytest.approx(0.1 / 2.0, rel=1e-10)      # V / Delta
    rep1 = transport_report(regime_params(1, mu_R=0.1), "wcme", 1)
    assert rep1.eta == pytest.approx(0.1 / 1.0, rel=1e-10)      # V / eps_L


def test_carnot_bound_is_parameter_only():
    assert carnot_efficiency(regime_params(1), 1) == pytest.approx(0.9)
    assert carnot_efficiency(regime_params(2), 2) == pytest.approx(0.9)


@pytest.mark.parametrize("lam", [0.1, 30.0])
def test_weak_coupling_stopping_voltages(lam):
    p1 = regime_params(1, lam=lam)
    vs1 = stopping_voltage(p1, "wcme")
    assert vs1 == pytest.approx(p1.eps_L * (1.0 - p1.beta_L / p1.beta_R),
                                rel=1e-6)
    p2 = regime_params(2, lam=lam)
    vs2 = stopping_voltage(p2, "wcme")
    assert vs2 == pytest.approx(p2.Delta * (1.0 - p2.beta_ph / p2.beta_L),
                                rel=1e-6)


def test_weak_coupling_stopping_voltage_ignores_coupling_strength():
    vals = [stopping_voltage(regime_params(2, lam=lam), "wcme")
            for lam in (0.1, 30.0)]
    assert abs(vals[0] - vals[1]) < 1e-8


# mode dressing moves the stopping voltage: up with coupling in the hot-lead
# configuration, down from the bare 1.8 when the phonons drive
RC_STOPPING = {
    (1, 0.1): 0.90176528,
    (1, 3.0): 0.95144557,
    (1, 10.0): 1.06050942,
    (2, 3.0): 1.69513168,
    (2, 10.0): 1.47361518,
}


@pytest.mark.parametrize("regime,lam", sorted(RC_STOPPING))
def test_mode_dressed_stopping_voltages(regime, lam):
    p = regime_params(regime, lam=lam)
    _, cert = converge_report(p, "rcme", regime)
    assert cert.converged
    vs = stopping_voltage(p, "rcme", M=cert.M)
    assert vs == pytest.approx(RC_STOPPING[(regime, lam)], rel=1e-6)
    if regime == 1:
        assert vs >= 0.9 - 1e-9
    else:
        assert vs <= 1.8 + 1e-9


def test_certified_report_is_the_level_its_certificate_names(monkeypatch):
    """After a bounce the certificate names the level before the last, and the
    report is that level's, as solved, with the verdict; a report that fails
    with anything but ``ConvergenceFailure`` ends the walk."""
    base = transport_report(regime_params(1), "wcme", 1)
    c1 = {10: 1.0, 14: 1.1, 18: 1.11, 22: 1.2}
    monkeypatch.setattr(thermo, "transport_report",
                        lambda p, method, regime, M: replace(base, M=M, c1=c1[M]))
    rep, cert = converge_report(regime_params(1), "rcme", 1, cap=30)
    assert (cert.M, cert.converged, len(cert.history)) == (18, False, 4)
    assert "bounce at M=22" in cert.message
    assert rep == replace(base, M=18, c1=1.11, converged=False)

    def noise_fails_at_14(p, method, regime, M):
        if M == 14:
            raise ValueError("zero-frequency noise is negative")
        return replace(base, M=M, c1=c1[M])

    monkeypatch.setattr(thermo, "transport_report", noise_fails_at_14)
    with pytest.raises(ValueError, match="noise"):
        converge_report(regime_params(1), "rcme", 1)


def test_additive_method_overshoots_carnot_downhill_of_reversal():
    p = regime_params(2, lam=5.0).with_bias(1.81)
    rep_a = transport_report(p, "arcme", 2, M=10)
    assert rep_a.eta is not None and rep_a.eta > rep_a.eta_carnot
    assert rep_a.carnot_violated
    # the non-additive and weak-coupling treatments have already reversed
    for method in ("rcme", "wcme"):
        M = None if method == "wcme" else 10
        rep = transport_report(p, method, 2, M=M)
        assert rep.c1 < 0.0
        assert rep.eta is None
        assert not rep.carnot_violated


def test_not_an_engine_is_refused():
    rep = transport_report(regime_params(2).with_bias(2.0), "wcme", 2)
    assert rep.eta is None and rep.Q_in <= 0.0


def test_rc_methods_require_truncation():
    with pytest.raises(ValueError):
        transport_report(regime_params(2), "rcme", 2)


def test_bad_regime_is_rejected_before_any_build():
    # M = 60 would trip the dense-solver guard, so only a check made before
    # building H' can raise the ValueError
    with pytest.raises(ValueError, match="regime"):
        transport_report(regime_params(1), "rcme", 3, M=60)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_nonpositive_stopping_tolerance_is_rejected_before_any_build(monkeypatch, tol):
    builds = []
    real_build = thermo.build_generator

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(thermo, "build_generator", counting_build)
    with pytest.raises(ValueError, match="tolerance"):
        stopping_voltage(regime_params(2), "wcme", tol=tol)
    assert builds == []


def test_bisection_on_closed_form():
    assert bisect_root(lambda x: 1.0 - x, 0.0, 2.0, tol=1e-10) == pytest.approx(
        1.0, abs=1e-9)
    with pytest.raises(BracketError):
        bisect_root(lambda x: -1.0 - x, 0.0, 2.0)
    with pytest.raises(BracketError):
        bisect_root(lambda x: 1.0 + x, 0.0, 2.0)
    calls = []                 # a reversed bracket is refused before f is evaluated
    with pytest.raises(BracketError, match=r"\[-5.0, -10.0\] is empty"):
        bisect_root(lambda V: calls.append(V) or V + 7.0, -5.0, -10.0)
    assert calls == []


def test_equilibrium_has_no_stopping_voltage():
    p = ModelParams()          # all baths at the same temperature
    assert default_bracket(p) == 0.0
    with pytest.raises(BracketError):
        stopping_voltage(p, "wcme")
