"""Counting statistics against closed-form results and the tilted-generator
oracle.

The single resonant level in the unidirectional limit is the sharpest test
available: mean current Gl*Gr/(Gl+Gr) and Fano factor (Gl^2+Gr^2)/(Gl+Gr)^2
are exact, so both the jump bookkeeping and the pseudo-inverse route have to
land on them to full precision.
"""
import numpy as np
import pytest

from counting_oracle import OracleError, _eigenvalue_slope, counting_field_oracle
from nanojunction import fcs
from nanojunction.fcs import (
    cumulants,
    mean_current,
    zero_frequency_noise,
)
from nanojunction.model import ModelParams, regime_params
from nanojunction.rc import assemble_arcme, assemble_rcme
from nanojunction.superop import Liouvillian, Space, coherent_terms, steady_state
from nanojunction.thermo import transport_report
from nanojunction.wcme import assemble_wcme, build_wcme_lead_dissipator
from reference import dense


def _single_level(gamma_left, gamma_right):
    """Resonant level fed by a full left lead and drained by an empty right."""
    H = np.diag([0.0, 0.5]).astype(complex)
    remove = np.zeros((2, 2), dtype=complex)
    remove[0, 1] = 1.0
    evals = np.array([0.0, 0.5])
    terms = coherent_terms(H)
    terms += build_wcme_lead_dissipator(remove, evals, gamma_left, 1.0, 1e4,
                                        "left")
    terms += build_wcme_lead_dissipator(remove, evals, gamma_right, 1.0, -1e4,
                                        "right")
    return Liouvillian(Space([0, 1]), terms, method="srl", energy_op=H)


def test_resonant_level_mean_and_fano():
    gl = gr = 0.3
    L = _single_level(gl, gr)
    ss = steady_state(L)
    c1, c2 = cumulants(L, ss)
    assert c1 == pytest.approx(gl * gr / (gl + gr), rel=1e-10)
    assert c2 / abs(c1) == pytest.approx(0.5, rel=1e-10)


def test_resonant_level_poisson_limit():
    gl, gr = 0.2, 200.0
    L = _single_level(gl, gr)
    c1, c2 = cumulants(L, steady_state(L))
    want = (gl**2 + gr**2) / (gl + gr) ** 2
    fano = c2 / abs(c1)
    assert fano == pytest.approx(want, rel=1e-8)
    assert abs(fano - 1.0) < 1e-2   # rare injections -> Poissonian


def test_both_leads_count_the_same_current():
    L = assemble_wcme(regime_params(2, mu_R=0.1))
    ss = steady_state(L)
    assert abs(mean_current(L, ss) - mean_current(L, ss, "left")) < 1e-12
    sr = zero_frequency_noise(L, ss)
    sl = zero_frequency_noise(L, ss, "left")
    assert sr == pytest.approx(sl, rel=1e-8)


def test_generator_spectrum_has_simple_zero():
    L = assemble_wcme(regime_params(1, mu_R=0.1))
    ev = np.linalg.eigvals(dense(L.space, L.terms))
    assert ev.real.max() < 1e-12
    assert np.count_nonzero(np.abs(ev) < 1e-10) == 1


@pytest.mark.parametrize("label,build", [
    ("wcme-hot-left", lambda: assemble_wcme(regime_params(1, mu_R=0.1))),
    ("wcme-hot-phonon", lambda: assemble_wcme(regime_params(2, mu_R=0.1))),
    ("rcme", lambda: assemble_rcme(regime_params(2, mu_R=0.1), 10)),
    ("arcme", lambda: assemble_arcme(regime_params(2, mu_R=0.1), 10)),
])
def test_oracle_confirms_pseudo_inverse_cumulants(label, build):
    L = build()
    ss = steady_state(L)
    c1, c2 = cumulants(L, ss)
    c1o, c2o = counting_field_oracle(L, ss)
    assert c1o == pytest.approx(c1, rel=1e-6)
    assert c2o == pytest.approx(c2, rel=1e-6)


def test_oracle_rejects_defective_generator():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(OracleError):
        _eigenvalue_slope(jordan, eye, 0.0 * eye, 0.02,
                          np.array([1.0, 0.0], dtype=complex),
                          np.array([0.0, 1.0], dtype=complex), 3)


def test_negative_noise_rejected(monkeypatch):
    """zero_frequency_noise checks its own sign: a tenfold R J(rho) term turns the
    resonant level's c2 = c1/2 negative, and a direct call raises."""
    L = _single_level(0.3, 0.3)
    ss = steady_state(L)
    real = fcs.restricted_pseudo_inverse_apply
    monkeypatch.setattr(fcs, "restricted_pseudo_inverse_apply",
                        lambda L, ss, y: 10.0 * real(L, ss, y))
    with pytest.raises(ValueError, match="noise is negative"):
        zero_frequency_noise(L, ss)
    with pytest.raises(ValueError, match="noise is negative"):
        cumulants(L, ss)


def test_equilibrium_ratios_are_undefined():
    rep = transport_report(ModelParams(mu_R=0.0), "wcme", 1)
    assert abs(rep.c1) < 1e-13
    assert rep.c2 > 0.0            # thermal noise survives at zero current
    assert rep.upsilon is None


def test_only_a_lead_can_be_counted():
    L = assemble_wcme(ModelParams())
    ss = steady_state(L)
    for count in (mean_current, zero_frequency_noise, cumulants):
        with pytest.raises(ValueError, match="side"):
            count(L, ss, side="phonon")
