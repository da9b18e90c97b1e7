"""Reaction-coordinate construction and level-ladder convergence."""
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from nanojunction.model import ModelParams, drude_lorentz, regime_params, states
import nanojunction.rc as rc_mod
from nanojunction.rc import (
    LadderCertificate,
    assemble_arcme,
    assemble_rcme,
    build_augmented_hamiltonian,
    build_generator,
    converge_in_levels,
    ladder_op,
    residual_density,
)
from nanojunction.superop import _CHUNK_BYTES, ConvergenceFailure, assemble, steady_state
from nanojunction.fcs import mean_current
from nanojunction.thermo import converge_report
from nanojunction.wcme import assemble_wcme


def test_mapping_reproduces_reorganization_energy():
    p = ModelParams()
    M = 10
    H = build_augmented_hamiltonian(p, M).hamiltonian
    L0, R1 = states(p).index("L") * M, states(p).index("R") * M + 1
    near, _ = quad(lambda w: drude_lorentz(p, w) / w, 0.0, 4.0 * p.omega0,
                   points=[p.omega0], limit=200)
    tail, _ = quad(lambda w: drude_lorentz(p, w) / w, 4.0 * p.omega0, np.inf, limit=200)
    reorg = near + tail
    # <L,0|H'|R,1> = kappa and the Fock ladder is spaced by Omega = omega0
    assert H[L0, R1].real == pytest.approx(np.sqrt(p.omega0 * reorg), rel=1e-6)
    assert H[L0 + 1, L0 + 1] - H[L0, L0] == pytest.approx(p.omega0, rel=1e-12)


def test_fock_cutoff_below_one_is_refused_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(rc_mod, "build_system_hamiltonian",
                        lambda *args: built.append(args))
    p = ModelParams()
    for build in (build_augmented_hamiltonian, assemble_rcme, assemble_arcme,
                  lambda p, M: build_generator(p, "rcme", M),
                  lambda p, M: build_generator(p, "arcme", M)):
        with pytest.raises(ValueError, match="M must be at least 1"):
            build(p, 0)
    assert built == []


def test_ladder_operator_algebra():
    a = ladder_op(6)
    n = a.conj().T @ a
    comm = a @ a.conj().T - n
    # [a, a^dag] = 1 except in the unavoidable top corner of the truncation
    assert np.allclose(comm[:-1, :-1], np.eye(5))
    assert np.allclose(np.diag(n), np.arange(6))


def test_residual_mode_damping_rate():
    p = ModelParams()
    # the leftover bath must damp the coordinate at exactly the original width
    assert 2.0 * np.pi * residual_density(p, p.omega0) == pytest.approx(p.gamma, rel=1e-12)


def test_decoupled_mode_gives_shifted_ladder_spectrum():
    p = ModelParams(lam=0.0, omega0=7.0)
    aug = build_augmented_hamiltonian(p, 4)
    want = np.sort([e + n * 7.0
                    for e in (0.0, p.eps_L, p.eps_R)
                    for n in range(4)])
    assert np.allclose(np.sort(aug.evals), want, atol=1e-12)
    assert aug.residual < 1e-9


def test_rotation_is_unitary_and_charge_sharp():
    p, M = ModelParams(), 8
    aug = build_augmented_hamiltonian(p, M)
    W = aug.modes
    assert np.allclose(W.conj().T @ W, np.eye(aug.space.dim), atol=1e-12)
    sector = np.empty(aug.space.dim, dtype=int)
    for k, idx in enumerate(aug.space.sectors):
        sector[idx] = k
    for j in range(aug.space.dim):
        support = np.abs(W[:, j]) > 1e-12
        assert set(sector[support]) == {sector[j]}
    # the generator is restricted on the same sectors H' was diagonalized in
    assert np.array_equal(assemble_rcme(p, M).space.index, aug.space.index)


def test_single_fock_level_reduces_to_weak_coupling():
    p = ModelParams(lam=0.0)
    L_rc = assemble_rcme(p, 1)
    L_w = assemble_wcme(p)
    assert np.max(np.abs(assemble(L_rc.space, L_rc.terms) - assemble(L_w.space, L_w.terms))) < 1e-12


@pytest.mark.parametrize("build", [assemble_rcme, assemble_arcme])
def test_finite_U_reaches_the_reaction_coordinate_methods(build):
    """A finite U admits |D> into H', so the space and the current both move."""
    p = regime_params(2, U=0.8)
    L, L_inf = build(p, 6), build(replace(p, U=math.inf), 6)
    assert (L.space.dim, L.space.n) == (24, 3 * 6**2)
    assert (L_inf.space.dim, L_inf.space.n) == (18, 90)
    c1, c1_inf = (mean_current(x, steady_state(x)) for x in (L, L_inf))
    assert abs(c1 - c1_inf) > 1e-2 * abs(c1_inf)


def test_single_lead_thermalizes_to_gibbs():
    p = ModelParams(Gamma_R=0.0, mu_R=0.0)
    L = assemble_rcme(p, 12)
    ss = steady_state(L)
    e = np.diag(L.energy_op).real
    w = np.exp(-1.0 * (e - e.min()))   # common beta = 1, mu = 0
    assert np.max(np.abs(ss.rho - np.diag(w / w.sum()))) < 1e-8


@pytest.mark.parametrize("regime", [1, 2])
def test_weak_coupling_limit_agrees_with_perturbative_generator(regime):
    p = regime_params(regime, lam=0.01, mu_R=0.1)
    L_rc = assemble_rcme(p, 10)
    L_w = assemble_wcme(p)
    i_rc = mean_current(L_rc, steady_state(L_rc))
    i_w = mean_current(L_w, steady_state(L_w))
    assert i_rc == pytest.approx(i_w, rel=5e-2)


def test_additive_variant_matches_at_weak_coupling():
    p = regime_params(2, lam=0.01, mu_R=0.1)
    L_r = assemble_rcme(p, 10)
    L_a = assemble_arcme(p, 10)
    i_r = mean_current(L_r, steady_state(L_r))
    i_a = mean_current(L_a, steady_state(L_a))
    assert i_a == pytest.approx(i_r, rel=1e-2)


def test_equilibrium_carries_no_current():
    p = ModelParams(mu_R=0.0)
    L = assemble_rcme(p, 8)
    ss = steady_state(L)
    assert abs(mean_current(L, ss)) < 1e-12


def test_tag_partition_reassembles_generator():
    for build in (assemble_rcme, assemble_arcme):
        L = build(regime_params(2), 6)
        full = assemble(L.space, L.terms)
        total = np.zeros_like(full)
        for key in itertools.product(("coherent", "left", "right", "phonon"), (-1, 0, 1)):
            total += assemble(L.space, [t for t in L.terms if (t.bath, t.jump) == key])
        assert np.allclose(total, full, atol=1e-12)
        for t in L.terms:
            if t.jump != 0:
                assert t.bath in ("left", "right")


def test_additive_energy_operator_stays_electronic():
    p = ModelParams()
    M = 6
    L = assemble_arcme(p, M)
    got = np.sort(np.linalg.eigvalsh(L.energy_op))
    want = np.sort(np.repeat([0.0, p.eps_L, p.eps_R], M))
    assert np.allclose(got, want, atol=1e-10)


def test_ladder_converges_on_fast_decaying_tail():
    cert = converge_in_levels(lambda M: 1.0 + 2.0**-M, start=10, step=4,
                              tol=1e-6)
    assert cert.converged
    assert cert.M == 26
    assert cert.value == pytest.approx(1.0 + 2.0**-26)
    assert cert.increment < 1e-6
    assert len(cert.history) == 5


def test_ladder_detects_truncation_floor():
    table = {10: 1.0, 14: 1.001, 18: 1.0012, 22: 1.00125, 26: 1.0017}
    cert = converge_in_levels(table.__getitem__, start=10, step=4, tol=1e-6)
    assert not cert.converged
    assert "relative increments stopped decreasing (bounce at M=26)" in cert.message
    assert cert.M == 22          # report the best level, not the bounced one
    assert cert.value == 1.00125
    assert cert.history[-1] == (26, 1.0017)   # the bounce stays on record


def test_ladder_reports_cap():
    cert = converge_in_levels(float, start=10, step=4, tol=1e-12, cap=30)
    assert not cert.converged
    assert cert.M == 30
    assert "cap" in cert.message or "30" in cert.message


def test_ladder_survives_resource_stop_after_first_level():
    def evaluate(M):
        if M > 20:
            raise ConvergenceFailure("synthetic resource limit")
        return 1.0 + 0.1 / M

    cert = converge_in_levels(evaluate, start=10, step=4, tol=1e-9)
    assert isinstance(cert, LadderCertificate)
    assert not cert.converged
    assert "stopped" in cert.message
    assert cert.M == 18


def test_ladder_skips_failing_levels_before_first_success():
    # undersized cutoffs can fail for the same reason they are inaccurate;
    # the walk moves past them and starts the history at the first level
    # that actually computes
    def evaluate(M):
        if M < 14:
            raise ConvergenceFailure("synthetic undersized cutoff")
        return 1.0 + 2.0**-M

    cert = converge_in_levels(evaluate, start=10, step=4, tol=1e-6)
    assert cert.converged
    assert cert.history[0][0] == 14
    assert cert.M == 26


@pytest.mark.parametrize("method", ["wcme", "bogus"])
def test_converge_report_rejects_methods_without_a_ladder(method):
    with pytest.raises(ValueError, match=method):
        converge_report(ModelParams(), method, 1)
    with pytest.raises(ValueError, match="rcme"):
        build_generator(ModelParams(), "rcme", M=None)
    with pytest.raises(ValueError, match="bogus"):
        build_generator(ModelParams(), "bogus", M=6)


def test_ladder_reraises_when_nothing_computed():
    def evaluate(M):
        raise ConvergenceFailure("synthetic resource limit")

    with pytest.raises(ConvergenceFailure):
        converge_in_levels(evaluate, start=10, step=4)


@pytest.mark.parametrize("start, step, cap, tol", [
    pytest.param(10, 4, 5, 1e-6, id="10-4-5"),
    pytest.param(0, 4, 60, 1e-6, id="0-4-60"),
    pytest.param(10, 0, 60, 1e-6, id="10-0-60"),
    pytest.param(10, -4, 60, 1e-6, id="10--4-60"),
    (10, 4, 60, 0.0),
    (10, 4, 60, -1.0),
])
def test_ladder_rejects_bad_settings_before_evaluating(start, step, cap, tol):
    calls = []

    def evaluate(M):
        calls.append(M)
        raise ConvergenceFailure("synthetic undersized cutoff")

    with pytest.raises(ValueError, match="start"):
        converge_in_levels(evaluate, start=start, step=step, cap=cap, tol=tol)
    assert calls == []


def test_memory_guard_blocks_oversized_space(monkeypatch):
    monkeypatch.setattr(rc_mod, "MAX_RESTRICTED_DIM", 100)
    with pytest.raises(ConvergenceFailure):
        assemble_rcme(ModelParams(), 10)


@pytest.mark.parametrize("U, M, n, n_next", [(math.inf, 60, 9000, 9303),
                                              (1e3, 54, 8748, 9076)])
def test_memory_guard_stops_the_ladder_after_the_largest_admitted_cutoff(
        monkeypatch, U, M, n, n_next):
    """The guard admits n = 2.5 M^2 up to M = 60 (3 M^2 up to M = 54 at finite U)."""
    p = regime_params(1, U=U)
    assert build_augmented_hamiltonian(p, M).space.n == n <= rc_mod.MAX_RESTRICTED_DIM
    built = []
    monkeypatch.setattr(rc_mod, "build_rate_operators", lambda *args: built.append(args))
    # the Space is guarded where it is made, before H' is built (or diagonalized)
    hamiltonian = rc_mod.build_system_hamiltonian
    monkeypatch.setattr(rc_mod, "build_system_hamiltonian",
                        lambda *args: built.append(args) or hamiltonian(*args))
    with pytest.raises(ConvergenceFailure, match=f"restricted dimension {n_next} exceeds"):
        assemble_rcme(p, M + 1)
    with pytest.raises(ConvergenceFailure, match=f"restricted dimension {n_next} exceeds"):
        build_augmented_hamiltonian(p, M + 1)
    assert built == []


@pytest.mark.parametrize("M", [14, 22])
def test_build_and_factorization_hold_one_bordered_array(M):
    """Peak memory of a build plus its LU: the bordered buffer, and little else.

    Assembly adds into each sector-pair block of the float64 (n+1)^2
    bordered buffer (8 bytes an entry, real coordinates) in place, one
    contraction over the stacked m x m factor blocks of the terms that reach
    the pair, a few l-slabs at a time, each slab turned into its real image
    before the next, and the real LU overwrites the buffer.  Besides the
    buffer, the bound allows exactly what that holds: the terms' own
    factors, one sector pair's stacked blocks (at most two per term), a
    slab's complex product with its two real images (together at most
    ``_CHUNK_BYTES`` at these cutoffs) and as much again for the operand
    copies and the buffers of the masked adds.  A complex buffer, a
    block-sized temporary, a separate generator matrix or a copy made for
    the factorization would not fit.  The factors are counted once per use,
    not once per array: a factor shared by several terms then stands in for
    the build's own transient arrays (filtered operators, products), which
    the distinct arrays alone do not cover (keyed by ``id``, the bound falls
    short of the peak by about 187 KiB at M = 22).
    """
    tracemalloc.start()
    try:
        L = assemble_rcme(regime_params(1), M)
        L.bordered_lu()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = max(len(s) for s in L.space.sectors)
    terms = sum(f.nbytes for t in L.terms for f in (t.left, t.right) if f is not None)
    pair_blocks = 2 * len(L.terms) * 16 * m * m
    assert peak <= 8 * (L.space.n + 1) ** 2 + terms + 2 * _CHUNK_BYTES + pair_blocks
