"""Acceptance gate: one test per advertised behavior, in a fixed order.

Every test prints the numbers it judges, so a red line carries its own
evidence.  One test documents a known limitation of the physics and
fails: the two blockade points at lam*beta = 1e3 cannot be certified to
the 1e-6 ladder tolerance (test 12).  Out there the second-order
residual-bath dissipator leaves negative populations as large as the
blockade current itself (non-additive) or growing with the cutoff
(additive); see test 12 for the measured tables.

Reaction-coordinate ladders all go through the memoised ``_certified``,
which files every point's report and certificate in ``_CERTS``.
``_reported_points`` lists every point the module reports, so test 12
audits the same ladders whether it runs alone or after the rest.
"""
import functools

import numpy as np
import pytest

from counting_oracle import counting_field_oracle
from nanojunction.fcs import cumulants, mean_current
from nanojunction.model import ModelParams, regime_params
from nanojunction.rc import assemble_arcme, assemble_rcme
from nanojunction.superop import Liouvillian, Space, coherent_terms, steady_state
from nanojunction.thermo import (
    converge_report,
    energy_currents,
    stopping_voltage,
    transport_report,
)
from nanojunction.wcme import assemble_wcme, build_wcme_lead_dissipator
from reference import trace_defect

ETA_CARNOT = 0.9
LAMBDA_SWEEP = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)
WINDOW_PARAMS = regime_params(2, lam=5.0)     # tests 09 and the companion
COMPANION_GRID = np.linspace(1.805, 1.825, 5)

_CERTS: dict = {}


def _certified(p: ModelParams, method: str, regime: int):
    """Memoized ``converge_report``: (report, certificate), filed in ``_CERTS``.

    The regime is part of the key: the certificate does not depend on it,
    but the report's eta, Q_in and eta_C do.
    """
    key = (method, p, regime)
    if key not in _CERTS:
        _CERTS[key] = converge_report(p, method, regime)
    return _CERTS[key]


def _describe(key, cert):
    method, p, _ = key
    flag = "ok " if (cert.converged and cert.increment < 1e-6) else "RED"
    return (f"[{flag}] {method:5s} lam={p.lam:<7g} V={p.V:<10.6g} "
            f"betas=({p.beta_L:g},{p.beta_R:g},{p.beta_ph:g}) "
            f"M={cert.M} I={cert.value:.9e} inc={cert.increment:.3e} "
            f"converged={cert.converged} {cert.message or ''}")


def _saturation_current(p: ModelParams) -> float:
    """Weak-coupling current at lam -> infinity, in closed form.

    The weak-coupling model is the rate chain G <-> L (left lead, Gamma_L f
    at eps_L), L <-> R (phonons) and R <-> G (right lead, Gamma_R f at
    eps_R).  Both phonon rates grow like lam, so the current follows the
    saturation law I(lam) = I_inf lam / (lam + lam*).  In the limit the
    phonons hold L and R in the Boltzmann ratio exp(-beta_ph Delta) and
    the chain collapses to G <-> {L, R}.
    """
    def f(beta, mu, e):
        return 1.0 / (np.exp(beta * (e - mu)) + 1.0)

    f_l = f(p.beta_L, p.mu_L, p.eps_L)
    f_r = f(p.beta_R, p.mu_R, p.eps_R)
    x = np.exp(-p.beta_ph * p.Delta)
    w_l, w_r = 1.0 / (1.0 + x), x / (1.0 + x)
    fill = p.Gamma_L * f_l + p.Gamma_R * f_r
    drain = w_l * p.Gamma_L * (1.0 - f_l) + w_r * p.Gamma_R * (1.0 - f_r)
    p_empty = drain / (fill + drain)
    return p.Gamma_L * (f_l * p_empty - (1.0 - f_l) * w_l * (1.0 - p_empty))


def _sub_stop_grid() -> np.ndarray:
    """Test 09's grid strictly inside (0.8 V_S^w, V_S^w)."""
    vs_w = stopping_voltage(WINDOW_PARAMS, "wcme")
    return np.linspace(0.8 * vs_w, vs_w, 21)[1:-1]


@functools.cache
def _additive_window() -> tuple:
    """(V_S^w, V_S^arcme, interior biases) of the super-Carnot window.

    The additive stopping voltage is located at the cutoff the ladder
    certifies at the last sub-stop bias.  The interior points keep a
    quarter of the window clear of either edge, where the current is
    still large enough for every ladder to certify.
    """
    p = WINDOW_PARAMS
    vs_w = stopping_voltage(p, "wcme")
    M = _certified(p.with_bias(float(_sub_stop_grid()[-1])), "arcme", 2)[1].M
    vs_a = stopping_voltage(p, "arcme", M=M, tol=1e-6)
    return vs_w, vs_a, vs_w + (vs_a - vs_w) * np.array([0.25, 0.5, 0.75])


def _reported_points() -> list:
    """Every (method, params, regime) whose ladder backs a number this module reports."""
    p = WINDOW_PARAMS
    points = [("rcme", regime_params(1, lam=lam), 1) for lam in LAMBDA_SWEEP]
    points += [("rcme", regime_params(r, lam=0.01), r) for r in (1, 2)]
    points += [(m, regime_params(r), r) for r in (1, 2) for m in ("rcme", "arcme")]
    points += [(m, p.with_bias(float(v)), 2)
               for v in _sub_stop_grid() for m in ("rcme", "arcme")]
    points += [("arcme", p.with_bias(float(v)), 2)
               for v in (*_additive_window()[2], *COMPANION_GRID)]
    points.append(("arcme", regime_params(1, lam=1000.0), 1))
    return list(dict.fromkeys(points))


@pytest.fixture(scope="module")
def lambda_ladders():
    """Regime-1 non-additive current across the coupling sweep."""
    return {lam: _certified(regime_params(1, lam=lam), "rcme", 1)[1]
            for lam in LAMBDA_SWEEP}


@pytest.fixture(scope="module")
def reported_ladders():
    """The ladder behind every reported point, independent of test order."""
    return {(m, p, r): _certified(p, m, r)[1] for m, p, r in _reported_points()}


def test_criterion_01_weak_coupling_efficiency_identity():
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        p = regime_params(1, lam=lam)
        rep = transport_report(p, "wcme", 1)
        ident = p.V / (p.eps_L - p.mu_L)
        print(f"lam={lam:<6g} eta={rep.eta:.15f} "
              f"V/(eps_L-mu_L)={ident:.15f} diff={rep.eta - ident:+.3e}")
        assert rep.eta == pytest.approx(ident, abs=1e-10)


def test_criterion_02_carnot_approach_at_stopping_voltage():
    # The default U = inf (three states) keeps the energy traces clean at
    # vanishing current.  A large finite U (1e3) adds |D> at ~1e3, whose
    # weight is ~exp(-1000) yet whose energy amplifies solver roundoff in
    # the heat intake far above 1e-6 once c1 drops to ~1e-11.  The two
    # agree on every quantity at finite current.
    p = regime_params(1)
    vs = stopping_voltage(p, "wcme")
    rep = transport_report(p.with_bias(vs * (1.0 - 1e-8)), "wcme", 1)
    print(f"V_S={vs:.12f} eta={rep.eta:.12f} "
          f"|eta - 0.9|={abs(rep.eta - ETA_CARNOT):.3e}")
    assert abs(rep.eta - ETA_CARNOT) < 1e-6


def test_criterion_03_stopping_voltage_formulas():
    for regime in (1, 2):
        vs = {}
        for lam in (0.1, 30.0):
            p = regime_params(regime, lam=lam)
            vs[lam] = stopping_voltage(p, "wcme")
        if regime == 1:
            formula = (p.eps_L - p.mu_L) * (p.beta_R - p.beta_L) / p.beta_R
        else:
            formula = p.Delta * (p.beta_L - p.beta_ph) / p.beta_L
        spread = abs(vs[0.1] - vs[30.0])
        print(f"regime {regime}: V_S={vs[0.1]:.12f} formula={formula:.12f} "
              f"|V_S(lam=0.1)-V_S(lam=30)|={spread:.3e}")
        assert vs[0.1] == pytest.approx(formula, rel=1e-6)
        assert spread < 1e-8


def test_criterion_04_methods_agree_at_weak_coupling():
    for regime in (1, 2):
        p = regime_params(regime, lam=0.01)
        cert = _certified(p, "rcme", regime)[1]
        i_w = transport_report(p, "wcme", regime).c1
        rel = abs(cert.value - i_w) / abs(i_w)
        print(f"regime {regime}: I_rcme={cert.value:.9e} (M={cert.M}, "
              f"converged={cert.converged}) I_wcme={i_w:.9e} rel={rel:.3e}")
        assert cert.converged
        assert rel < 5e-2


def test_criterion_05_coupling_sweep_shapes(lambda_ladders):
    """Weak coupling saturates; the non-additive current turns over.

    The weak-coupling current follows I(lam) = I_inf lam / (lam + lam*)
    (see ``_saturation_current``), so its distance to the plateau,
    (I_inf - I) / I_inf = lam* / (lam + lam*), must be positive and fall
    nearly ten-fold per decade of lam.  The knee lam* ~ 0.84 is set by
    Gamma and the normalisation of J, so the first decade above lam = 30
    still moves the current by 9 lam* / (300 + lam*) ~ 2.5%.  I_inf is
    computed here in closed form, not read off the program.
    """
    grid = (30.0, 300.0, 3000.0, 30000.0)
    i_w = [transport_report(regime_params(1, lam=lam), "wcme", 1).c1
           for lam in grid]
    decades = [abs(b - a) / abs(a) for a, b in zip(i_w, i_w[1:])]
    for (lo, hi), d in zip(zip(grid, grid[1:]), decades):
        print(f"wcme decade {lo:g} -> {hi:g}: relative change {d:.4e}")
    i_inf = _saturation_current(regime_params(1))
    gaps = [(i_inf - i) / i_inf for i in i_w]
    for lam, g in zip(grid, gaps):
        print(f"wcme lam={lam:<7g} (I_inf - I)/I_inf={g:.4e} "
              f"(I_inf={i_inf:.9e})")

    vals = {lam: lambda_ladders[lam].value for lam in lambda_ladders}
    lams = sorted(vals)
    peak = max(vals, key=vals.get)
    for lam in lams:
        print(f"rcme lam={lam:<6g} I={vals[lam]:.9e}")
    print(f"rcme peak at lam={peak:g}; "
          f"I(1000)/I(peak)={vals[1000.0] / vals[peak]:.3e}")
    assert 1.0 < peak < 100.0
    assert vals[peak] > vals[1.0] and vals[peak] > vals[100.0]
    assert vals[1000.0] < 1e-3 * vals[peak]

    assert all(g > 0.0 for g in gaps)
    assert all(a >= 9.0 * b for a, b in zip(gaps, gaps[1:])), \
        "distance to the plateau falls slower than nine-fold per decade"
    assert gaps[-1] < 1e-4


def test_criterion_06_counting_oracle_agreement():
    for regime in (1, 2):
        p = regime_params(regime)          # lam = 3 operating point
        builds = [("wcme", assemble_wcme(p))]
        for method, assemble in (("rcme", assemble_rcme),
                                 ("arcme", assemble_arcme)):
            builds.append((method, assemble(p, _certified(p, method, regime)[1].M)))
        for method, L in builds:
            ss = steady_state(L)
            c1, c2 = cumulants(L, ss)
            c1o, c2o = counting_field_oracle(L, ss)
            r1 = abs(c1 - c1o) / abs(c1o)
            r2 = abs(c2 - c2o) / abs(c2o)
            print(f"regime {regime} {method:5s}: c1={c1:.9e} "
                  f"(oracle rel {r1:.2e})  c2={c2:.9e} "
                  f"(oracle rel {r2:.2e})")
            assert r1 < 1e-6 and r2 < 1e-6


def test_criterion_07_single_resonant_level_closed_form():
    gamma = 0.3
    H = np.diag([0.0, 0.5]).astype(complex)
    remove = np.zeros((2, 2), dtype=complex)
    remove[0, 1] = 1.0
    evals = np.array([0.0, 0.5])
    terms = coherent_terms(H)
    terms += build_wcme_lead_dissipator(remove, evals, gamma, 1.0, 1e4, "left")
    terms += build_wcme_lead_dissipator(remove, evals, gamma, 1.0, -1e4,
                                        "right")
    L = Liouvillian(Space([0, 1]), terms, method="srl", energy_op=H)
    c1, c2 = cumulants(L, steady_state(L))
    fano = c2 / abs(c1)
    print(f"I={c1:.15f} (want {gamma / 2}) fano={fano:.15f} (want 0.5)")
    assert c1 == pytest.approx(gamma / 2.0, rel=1e-10)
    assert fano == pytest.approx(0.5, rel=1e-10)


def test_criterion_08_conservation_suite():
    for regime in (1, 2):
        p = regime_params(regime)
        for method in ("wcme", "rcme", "arcme"):
            if method == "wcme":
                L = assemble_wcme(p)
            else:
                assemble = assemble_rcme if method == "rcme" else assemble_arcme
                L = assemble(p, _certified(p, method, regime)[1].M)
            ss = steady_state(L)
            trace_def = trace_defect(L)
            norm_def = abs(np.trace(ss.rho).real - 1.0)
            ie = energy_currents(L, ss)
            balance = abs(sum(ie))
            il = mean_current(L, ss, "left")
            ir = mean_current(L, ss, "right")
            sides = abs(il - ir) / abs(ir)
            print(f"regime {regime} {method:5s}: 1†L={trace_def:.2e} "
                  f"|tr-1|={norm_def:.2e} |sum IE|={balance:.2e} "
                  f"left/right rel={sides:.2e}")
            assert trace_def < 1e-10
            assert norm_def < 1e-12
            assert balance < 1e-9
            assert sides < 1e-8


def test_criterion_09_additive_carnot_violation_window():
    """The additive method beats Carnot, exactly in (V_S^w, V_S^arcme).

    The additive method books lead energy at the bare addition energies
    and takes the phonon intake from energy balance, so in regime 2
    Q_in = Delta c1 and eta_arcme = V / Delta wherever it is defined.
    Test 03 pins V_S^w = Delta (beta_L - beta_ph) / beta_L = Delta eta_C,
    so the additive efficiency exceeds eta_C exactly above the weak-
    coupling stop and up to the additive method's own reversal.  Below
    V_S^w the non-additive method stays bounded and the additive one
    obeys the identity; inside the window the additive one violates.
    """
    p = WINDOW_PARAMS
    rows = []
    for v in _sub_stop_grid():
        pv = p.with_bias(float(v))
        rows.append((v, _certified(pv, "rcme", 2)[0], _certified(pv, "arcme", 2)[0]))
    for v, rep_r, rep_a in rows:
        fmt = lambda e: "  engine off " if e is None else f"{e:.9f} "
        print(f"V={v:.6f}  eta_rcme={fmt(rep_r.eta)} "
              f"eta_arcme={fmt(rep_a.eta)}")
    bounded = [r for _, r, _ in rows if r.eta is not None]
    assert all(not r.carnot_violated for r in bounded)
    assert all(r.eta <= ETA_CARNOT + 1e-12 for r in bounded)

    vs_w, vs_a, window = _additive_window()
    print(f"V_S^w={vs_w:.9f}  V_S^arcme={vs_a:.9f}")
    additive = [(v, a) for v, _, a in rows]
    additive += [(v, _certified(p.with_bias(float(v)), "arcme", 2)[0])
                 for v in window]
    defined = [(v, a.eta) for v, a in additive if a.eta is not None]
    assert len(defined) == len(additive), "additive engine off below V_S^arcme"
    worst = max(abs(eta - v / p.Delta) for v, eta in defined)
    print(f"max |eta_arcme - V/Delta| over {len(defined)} points: {worst:.3e}")
    assert worst <= 1e-8

    violating = [(v, a.eta) for v, a in additive if a.carnot_violated]
    print(f"additive points above eta_C: {violating}")
    assert [v for v, _ in violating] == list(window), (
        f"additive efficiency not above {ETA_CARNOT} throughout "
        f"({vs_w:.4f}, {vs_a:.4f})")


def test_additive_carnot_violation_sits_above_weak_coupling_stop():
    """The super-Carnot window of test 09 on a fixed grid: between the
    weak-coupling stopping voltage (1.8) and the additive method's own
    reversal (~1.83)."""
    p = WINDOW_PARAMS
    found = []
    for v in COMPANION_GRID:
        rep = _certified(p.with_bias(float(v)), "arcme", 2)[0]
        print(f"V={v:.4f} eta_arcme={rep.eta!r} violated={rep.carnot_violated}")
        if rep.carnot_violated:
            found.append((v, rep.eta))
    assert len(found) >= 4
    assert max(eta for _, eta in found) > ETA_CARNOT


def test_criterion_10_additive_method_misses_the_blockade(lambda_ladders):
    p = regime_params(1, lam=1000.0)
    cert_a = _certified(p, "arcme", 1)[1]
    cert_r = lambda_ladders[1000.0]
    print(_describe(("arcme", p, 1), cert_a))
    print(_describe(("rcme", p, 1), cert_r))
    print(f"I_arcme/I_rcme = {cert_a.value / cert_r.value:.3e}")
    # both walks end honestly unconverged out here (see test 12); the
    # four-orders-of-magnitude gap dwarfs either truncation error
    assert cert_a.value > 10.0 * cert_r.value


def test_criterion_11_relative_uncertainty_diverges_at_stopping():
    p = regime_params(1, lam=3.0)
    cert = _certified(p, "rcme", 1)[1]
    vs = stopping_voltage(p, "rcme", M=cert.M)
    ups, pows = [], []
    for dv in (3e-2, 1e-2, 3e-3, 1e-3):
        rep = transport_report(p.with_bias(vs - dv), "rcme", 1, M=cert.M)
        print(f"V_S - V={dv:<7g} upsilon={rep.upsilon:.3e} P={rep.P:.3e}")
        ups.append(rep.upsilon)
        pows.append(rep.P)
    assert all(b > a for a, b in zip(ups, ups[1:]))
    assert ups[-1] > 1e4
    assert all(b < a for a, b in zip(pows, pows[1:]))
    assert pows[-1] < pows[0] / 10.0


def test_criterion_12_truncation_certificates_all_converged(reported_ladders):
    """Fails at the two regime-1 points at lam*beta = 1e3; physics, not solver.

    Non-additive walk, M = 30/34/38/42 (bordered-solve residual <= 1e-14
    at every level):

        I                 5.6213e-7  5.6168e-7  5.6153e-7  5.6247e-7
        negative mass    -4.2e-7    -4.3e-7    -1.8e-6    -8.2e-7

    The increment bounces from 2.6e-4 to 1.7e-3, which ends the walk at
    M = 42 (the memory guard first refuses M = 62).  A blockade current
    of 5.6e-7 rests on negative probability weight of the same order,
    moving non-monotonically with M: the second-order residual-bath
    dissipator is not positive.  Neither round-off nor a truncation floor
    explains the bounce.

    Additive walk: the current settles (1.6722552e-2, 1.6722578e-2,
    1.6722574e-2 at M = 22/26/30), but the minimum population grows with
    the cutoff, -2.3e-4, -1.3e-3, -5.2e-3, -1.4e-2, -2.7e-2 at M = 14 ...
    30, so the -1e-3 gate of ``steady_state`` rightly refuses M >= 18.

    Mending either needs a positivity-preserving residual-bath treatment
    or a different model.  Every other reported point certifies.
    """
    unlisted = [key for key in _CERTS if key not in reported_ladders]
    bad = [(key, cert) for key, cert in reported_ladders.items()
           if not (cert.converged and cert.increment < 1e-6)]
    print(f"{len(reported_ladders)} reaction-coordinate points reported, "
          f"{len(reported_ladders) - len(bad)} certified converged")
    for key, cert in bad:
        print(_describe(key, cert))
        print(f"      history: {[(M, f'{v:.6e}') for M, v in cert.history]}")
    assert not unlisted, \
        f"{len(unlisted)} reported points missing from _reported_points"
    assert not bad, f"{len(bad)} reported points lack a converged certificate"
