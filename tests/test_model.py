"""Unit checks for the electronic model, coupling operators and bath functions."""
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from nanojunction.model import (
    ModelParams,
    build_lead_coupling_ops,
    build_phonon_coupling_op,
    build_system_hamiltonian,
    drude_lorentz,
    fermi,
    regime_params,
    sector_labels,
    states,
)


def test_default_parameters_and_derived():
    p = ModelParams()
    assert p.eps_R == p.eps_L + p.Delta == 3.0
    assert p.V == pytest.approx(0.1)
    q = p.with_bias(0.5)
    assert q.V == 0.5 and q.mu_L == 0.0
    assert p.V == pytest.approx(0.1)  # original untouched


@pytest.mark.parametrize("bad", [
    dict(beta_L=0.0), dict(beta_ph=-1.0), dict(Gamma_L=-0.1),
    dict(lam=-1.0), dict(omega0=0.0), dict(gamma=-2.0), dict(U=-1.0),
])
def test_parameter_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


@pytest.mark.parametrize("name", [f.name for f in fields(ModelParams)])
def test_nan_is_rejected_in_every_field(name):
    with pytest.raises(ValueError, match=f"{name} is NaN"):
        ModelParams(**{name: math.nan})
    if name != "U":             # U = inf is the hard Coulomb blockade
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**{name: math.inf})


def test_regime_presets():
    r1 = regime_params(1)
    assert (r1.beta_L, r1.beta_R, r1.beta_ph) == (0.1, 1.0, 1.0)
    r2 = regime_params(2)
    assert (r2.beta_L, r2.beta_R, r2.beta_ph) == (1.0, 1.0, 0.1)
    assert regime_params(2, lam=7.0).lam == 7.0
    with pytest.raises(ValueError):
        regime_params(3)


def test_basis_projection():
    """U alone decides the states: infinite U excludes double occupancy."""
    p4, p3 = ModelParams(U=1e3), ModelParams()
    assert p3.U == math.inf
    assert states(p4) == ("G", "L", "R", "D") and states(ModelParams(U=0.0)) == states(p4)
    assert states(p3) == ("G", "L", "R")
    assert list(sector_labels(p4, 1)) == [0, 2, 3, 5]      # 2 * charge + [Pi odd]
    assert list(sector_labels(p3, 2)) == [0, 1, 2, 3, 3, 2]


def test_hamiltonian_energies():
    p = ModelParams(eps_L=1.0, Delta=2.0, U=5.0)
    H4 = build_system_hamiltonian(p)
    assert np.allclose(np.diag(H4), [0.0, 1.0, 3.0, 9.0])
    H3 = build_system_hamiltonian(ModelParams(eps_L=1.0, Delta=2.0))
    assert H3.shape == (3, 3) and np.allclose(np.diag(H3), [0.0, 1.0, 3.0])


def test_lead_ops_jw_signs_and_charge():
    p = ModelParams(U=1e3)
    A1, A3 = build_lead_coupling_ops(p)
    G, L, R, D = (states(p).index(s) for s in "GLRD")
    assert A1[G, L] == -1.0 and A1[R, D] == 1.0
    assert A3[G, R] == 1.0 and A3[L, D] == 1.0
    # both remove exactly one electron: [A, N] = A; A1 is Pi-even, A3 Pi-odd
    N = np.diag((sector_labels(p, 1) // 2).astype(complex))
    Pi = np.diag(1 - 2 * (sector_labels(p, 1) % 2))
    for A, parity in ((A1, 1), (A3, -1)):
        assert np.allclose(A @ N - N @ A, A)
        assert np.array_equal(Pi @ A @ Pi, parity * A)


def test_lead_ops_projected_basis():
    A1, A3 = build_lead_coupling_ops(ModelParams())
    assert np.count_nonzero(A1) == 1 and np.count_nonzero(A3) == 1


def test_phonon_coupling_structure():
    p = ModelParams(U=1e3)
    s = build_phonon_coupling_op(p)
    assert np.allclose(s, s.conj().T)
    N = np.diag((sector_labels(p, 1) // 2).astype(complex))
    assert np.allclose(s @ N, N @ s)
    Pi = np.diag(1 - 2 * (sector_labels(p, 1) % 2))
    assert np.array_equal(Pi @ s @ Pi, -s)   # odd like a + a^dag: s (a + a^dag) in H' is even
    assert np.allclose(np.diag(s @ s), [0.0, 1.0, 1.0, 0.0])


def test_spectral_density_normalization():
    """The reorganisation energy is the J/w integral; the peak sits near omega0."""
    p = ModelParams()
    val, err = quad(lambda w: drude_lorentz(p, w) / w, 0.0, np.inf, limit=400)
    assert abs(val - 3.0) < 1e-8 + 10 * err
    # at omega0 = gamma the peak value is (2/pi) * lam
    assert drude_lorentz(p, 100.0) == pytest.approx(6.0 / np.pi, rel=1e-14)
    # the slope at w = 0 that the weak-coupling phonon filter takes as its limit
    assert drude_lorentz(p, 1e-6) / 1e-6 == pytest.approx(
        (2.0 / np.pi) * 3.0 * 100.0 / 100.0**2, rel=1e-10)


def test_drude_lorentz_domain():
    p = ModelParams()
    assert drude_lorentz(p, 0.0) == 0.0
    with pytest.raises(ValueError):
        drude_lorentz(p, -1.0)
    with pytest.raises(ValueError):
        drude_lorentz(p, np.array([1.0, -2.0]))


def _fermi_reference(x: float) -> float:
    """1/(1 + e^x) with the C library's exp; 0 where e^x exceeds the largest double."""
    try:
        return 1.0 / (1.0 + math.exp(x))
    except OverflowError:
        return 0.0


def test_fermi_stability_and_particle_hole():
    assert 0.0 <= fermi(1.0, 0.0, 700.0) < 1e-300
    assert fermi(1.0, 0.0, -700.0) == 1.0
    assert np.isfinite(fermi(0.01, 0.0, 7e4))
    rng = np.random.default_rng(7)
    for _ in range(50):
        beta = rng.uniform(0.05, 20.0)
        mu = rng.normal(scale=3.0)
        x = rng.normal(scale=5.0)
        assert fermi(beta, mu, mu + x) + fermi(beta, mu, mu - x) == pytest.approx(1.0, abs=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # exp's overflow gives exactly 0 and no RuntimeWarning
        assert fermi(1.0, 0.0, 800.0) == 0.0
        assert fermi(1.0, 0.0, -800.0) == 1.0
        for beta, mu in ((1.0, 0.0), (0.1, 0.3), (20.0, -1.5)):
            omega = mu + np.linspace(-740.0, 740.0, 2961) / beta
            want = [_fermi_reference(beta * (w - mu)) for w in omega]
            np.testing.assert_allclose(fermi(beta, mu, omega), want, rtol=1e-14, atol=0.0)

