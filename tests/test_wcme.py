"""Golden-rule content of the weak-coupling generator.

In this model every coupling operator connects states of different charge (or
the two singly occupied states), so the population dynamics closes on itself
and must reproduce an ordinary classical rate equation exactly: lead
transitions at the four addition energies with Fermi weights, phonon
absorption/emission across the inter-site splitting with Bose weights.  That
classical chain, built independently here, is the oracle for the full
non-secular generator.
"""
import itertools
import math

import numpy as np
import pytest

from nanojunction import rc
from nanojunction.model import (
    ModelParams,
    build_lead_coupling_ops,
    build_system_hamiltonian,
    drude_lorentz,
    fermi,
    regime_params,
    states,
)
from nanojunction.superop import apply_terms, steady_state
from nanojunction.wcme import assemble_wcme, build_wcme_lead_dissipator, fermi_half
from reference import dense, devec, trace_defect, vec


def _classical_rates(p):
    """Transition rates of the equivalent 4-state classical chain."""
    fL1 = fermi(p.beta_L, p.mu_L, p.eps_L)
    fL2 = fermi(p.beta_L, p.mu_L, p.eps_L + p.U)
    fR1 = fermi(p.beta_R, p.mu_R, p.eps_R)
    fR2 = fermi(p.beta_R, p.mu_R, p.eps_R + p.U)
    J = drude_lorentz(p, p.Delta)
    n = 1.0 / np.expm1(p.beta_ph * p.Delta)
    absorb = 2.0 * np.pi * J * n          # L -> R, quantum taken from the bath
    emit = 2.0 * np.pi * J * (n + 1.0)    # R -> L
    return fL1, fL2, fR1, fR2, absorb, emit


def _classical_generator(p):
    """Column-stochastic rate matrix on populations (G, L, R, D)."""
    fL1, fL2, fR1, fR2, absorb, emit = _classical_rates(p)
    G, L, R, D = range(4)
    K = np.zeros((4, 4))

    def move(i, j, rate):  # j -> i
        K[i, j] += rate
        K[j, j] -= rate

    move(L, G, p.Gamma_L * fL1)
    move(G, L, p.Gamma_L * (1.0 - fL1))
    move(R, G, p.Gamma_R * fR1)
    move(G, R, p.Gamma_R * (1.0 - fR1))
    move(D, R, p.Gamma_L * fL2)            # left lead works the R <-> D pair
    move(R, D, p.Gamma_L * (1.0 - fL2))
    move(D, L, p.Gamma_R * fR2)            # right lead works the L <-> D pair
    move(L, D, p.Gamma_R * (1.0 - fR2))
    move(R, L, absorb)
    move(L, R, emit)
    return K


def _classical_steady(K):
    A = np.vstack([K, np.ones(4)])
    b = np.zeros(5)
    b[4] = 1.0
    pop, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pop


# generic parameters that exercise every channel at comparable strength
P_MIXED = ModelParams(U=0.8, mu_R=0.35, beta_L=0.7, beta_R=1.3, beta_ph=0.9,
                      Gamma_L=0.13, Gamma_R=0.07, lam=2.0)


def test_populations_match_classical_chain():
    L = assemble_wcme(P_MIXED)
    ss = steady_state(L)
    pop = _classical_steady(_classical_generator(P_MIXED))
    assert np.allclose(np.diag(ss.rho).real, pop, atol=1e-12)


def test_counted_current_matches_classical_chain():
    from nanojunction.fcs import mean_current
    p = P_MIXED
    L = assemble_wcme(p)
    ss = steady_state(L)
    pop = _classical_steady(_classical_generator(p))
    _, _, fR1, fR2, _, _ = _classical_rates(p)
    iG, iL, iR, iD = range(4)
    expect = p.Gamma_R * ((1.0 - fR1) * pop[iR] + (1.0 - fR2) * pop[iD]
                          - fR1 * pop[iG] - fR2 * pop[iL])
    assert mean_current(L, ss) == pytest.approx(expect, rel=1e-10)
    assert mean_current(L, ss, "left") == pytest.approx(expect, rel=1e-10)


def _dissipator_action(L, baths, rho):
    return apply_terms(L.bath(*baths), rho)


def test_lead_rates_with_and_without_interaction_shift():
    p = P_MIXED
    L = assemble_wcme(p)
    G, Lx, R, D = (states(p).index(s) for s in "GLRD")
    fL1, fL2, _, _, _, _ = _classical_rates(p)
    proj = np.zeros((4, 4), dtype=complex)
    proj[G, G] = 1.0
    out = _dissipator_action(L, ("left",), proj)
    assert out[Lx, Lx].real == pytest.approx(p.Gamma_L * fL1, rel=1e-12)
    proj = np.zeros((4, 4), dtype=complex)
    proj[R, R] = 1.0
    out = _dissipator_action(L, ("left",), proj)
    assert out[D, D].real == pytest.approx(p.Gamma_L * fL2, rel=1e-12)
    # feeding |L><L| back: hole-weighted decay to G
    proj = np.zeros((4, 4), dtype=complex)
    proj[Lx, Lx] = 1.0
    out = _dissipator_action(L, ("left",), proj)
    assert out[G, G].real == pytest.approx(p.Gamma_L * (1.0 - fL1), rel=1e-12)


def test_phonon_rates_and_detailed_balance():
    p = P_MIXED
    L = assemble_wcme(p)
    Lx, R = states(p).index("L"), states(p).index("R")
    *_, absorb, emit = _classical_rates(p)
    projR = np.zeros((4, 4), dtype=complex)
    projR[R, R] = 1.0
    projL = np.zeros((4, 4), dtype=complex)
    projL[Lx, Lx] = 1.0
    gain_L = _dissipator_action(L, ("phonon",), projR)[Lx, Lx].real
    gain_R = _dissipator_action(L, ("phonon",), projL)[R, R].real
    assert gain_L == pytest.approx(emit, rel=1e-12)
    assert gain_R == pytest.approx(absorb, rel=1e-12)
    assert gain_L / gain_R == pytest.approx(np.exp(p.beta_ph * p.Delta), rel=1e-12)


def test_lead_weights_keep_detailed_balance_in_both_tails():
    """phi / chi = exp(beta (omega - mu)) where either weight is ~exp(-40).

    A complement taken as 1 - f loses the small weight to rounding where f
    rounds to 1 (it returns 0 there); the exact complement keeps it.
    """
    chi, phi = fermi_half(np.ones((2, 2)), np.array([0.0, 20.0]), 2.0, 0.0)
    # omega = -(eta_jk): +20 at (0, 1), -20 at (1, 0); beta (omega - mu) = +-40
    ratio = [phi[0, 1] / chi[0, 1], phi[1, 0] / chi[1, 0]]
    np.testing.assert_allclose(ratio, np.exp([40.0, -40.0]), rtol=1e-12, atol=0.0)


def test_decoupled_baths_leave_no_trace():
    p = ModelParams(Gamma_L=0.0, lam=0.0)
    L = assemble_wcme(p)
    assert np.max(np.abs(dense(L.space, L.bath("left")))) == 0.0
    assert np.max(np.abs(dense(L.space, L.bath("phonon")))) == 0.0
    assert np.max(np.abs(dense(L.space, L.bath("right")))) > 0.0


def test_equilibrium_carries_no_current():
    from nanojunction.fcs import mean_current
    p = ModelParams(mu_R=0.0)  # all temperatures equal, no bias
    L = assemble_wcme(p)
    ss = steady_state(L)
    assert abs(mean_current(L, ss)) < 1e-13
    # and the state is Gibbs at the common temperature
    e = np.diag(L.energy_op).real
    w = np.exp(-1.0 * (e - e.min()))
    assert np.allclose(np.diag(ss.rho).real, w / w.sum(), atol=1e-10)


def test_filled_bands_pin_single_occupancy():
    p = ModelParams(U=1e3, mu_L=30.0, mu_R=30.0, beta_L=2.0, beta_R=2.0)
    L = assemble_wcme(p)
    ss = steady_state(L)
    pops = np.diag(ss.rho).real
    assert pops[0] < 1e-12          # empty state frozen out
    assert pops[3] < 1e-12          # U = 1e3 keeps D empty even at high mu
    assert pops[1] + pops[2] == pytest.approx(1.0, abs=1e-11)


def test_degenerate_transition_rejected():
    with pytest.raises(ValueError):
        assemble_wcme(ModelParams(Delta=0.0))


def test_tag_partition_reassembles_generator():
    L = assemble_wcme(regime_params(2))
    full = dense(L.space, L.terms)
    total = np.zeros_like(full)
    for key in itertools.product(("coherent", "left", "right", "phonon"), (-1, 0, 1)):
        total += dense(L.space, [t for t in L.terms if (t.bath, t.jump) == key])
    assert np.allclose(total, full, atol=1e-14)
    for t in L.terms:
        if t.jump != 0:
            assert t.bath in ("left", "right")


def test_generator_preserves_hermiticity():
    L = assemble_wcme(P_MIXED)
    rng = np.random.default_rng(11)
    gen = dense(L.space, L.terms)
    for _ in range(5):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = devec(L.space, vec(L.space, x + x.conj().T))
        out = devec(L.space, gen @ vec(L.space, rho))
        assert np.max(np.abs(out - out.conj().T)) < 1e-13
    assert trace_defect(L) < 1e-13


def test_projected_basis_supported():
    L = assemble_wcme(regime_params(2, U=math.inf))
    assert L.space.dim == 3 and L.space.n == 3
    ss = steady_state(L)
    assert np.trace(ss.rho).real == pytest.approx(1.0, abs=1e-12)


def test_lead_dissipator_stays_trace_preserving_under_a_compressing_lift():
    """Factors are lifted before the products are formed.

    The terms preserve the trace when sum coef * right @ left = 0.  With a
    lift V^dag (X kron 1_M) V through an isometry V onto k < 3M columns,
    lift(X Y) != lift(X) lift(Y), so terms that lift bare products leave
    that sum ~ 1e-2.
    """
    p = regime_params(1, U=math.inf)
    M, k = 8, 15
    rng = np.random.default_rng(3)
    V, _ = np.linalg.qr(rng.normal(size=(3 * M, k)) + 1j * rng.normal(size=(3 * M, k)))

    def lift(X):
        return V.conj().T @ np.kron(X, np.eye(M)) @ V

    A1, _ = build_lead_coupling_ops(p)
    terms = build_wcme_lead_dissipator(A1, np.diag(build_system_hamiltonian(p)).real,
                                       p.Gamma_L, p.beta_L, p.mu_L, "left", lift)
    eye = np.eye(k)
    total = sum(t.coef * (eye if t.right is None else t.right)
                @ (eye if t.left is None else t.left) for t in terms)
    assert len(terms) == 8 and total.shape == (k, k)
    assert np.max(np.abs(total)) <= 1e-15


def test_arcme_lifts_each_lead_removal_factor_once_and_adds_by_adjoint(monkeypatch):
    """On a line's first build (the memo cleared), ARCME lifts A_rem, rem_chi
    and rem_phi of each lead, plus its energy operator: 7 lifts (RCME lifts
    A1 and A3: 2).  A second bias on the same line lifts only the right
    lead's three factors (RCME: none).  The adding factors are exact
    adjoints of the lifted removal factors, since
    W^dag (X^dag kron 1) W = (W^dag (X kron 1) W)^dag."""
    calls = []
    lift = rc.AugmentedSystem.lift
    monkeypatch.setattr(rc.AugmentedSystem, "lift",
                        lambda self, A: calls.append(1) or lift(self, A))
    p, M = regime_params(2, lam=30.0, U=0.8), 6
    counts = []
    for build in (rc.assemble_rcme, rc.assemble_arcme):
        for V in (1.3, p.V):   # the line's first build, then a second bias on it
            calls.clear()
            L = build(p.with_bias(V), M)
            counts.append(len(calls))
    assert counts == [2, 0, 7, 3]

    aug = rc.build_augmented_hamiltonian(p, M)
    evals = np.diag(build_system_hamiltonian(p)).real
    for side, A, beta, mu in zip(("left", "right"), build_lead_coupling_ops(p),
                                 (p.beta_L, p.beta_R), (p.mu_L, p.mu_R)):
        rem_chi, rem_phi = fermi_half(A, evals, beta, mu)
        A, rem_chi, rem_phi = aug.lift(A), aug.lift(rem_chi), aug.lift(rem_phi)
        t_in, t_in_phi, t_out_chi, t_out = [t for t in L.terms if t.bath == side and t.jump]
        assert np.array_equal(t_in.left, A) and np.array_equal(t_in_phi.left, rem_phi)
        assert np.array_equal(t_out.right, rem_chi)
        assert np.array_equal(t_in_phi.right, A.conj().T)
        assert np.array_equal(t_in.right, rem_phi.conj().T)
        assert np.array_equal(t_out_chi.left, rem_chi.conj().T)
        assert np.array_equal(t_out.left, A.conj().T)
