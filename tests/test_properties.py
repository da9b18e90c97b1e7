"""Generator invariants over random parameters, for every registered method.

Each example draws a method, a regime, lam in [0.01, 10], a bias V in
[-1, 2], Gamma_L in [0.01, 1] and the Coulomb energy U from {inf, 1e3}, so
every method runs in both electronic state spaces: {G, L, R} at U = inf,
with the doubly occupied state added at finite U.  It solves at Fock
cutoff M = 6.  The float64 buffer the LU factors must be the generator in
real Hermitian coordinates, T dense T^-1.  Trace
and Hermiticity preservation, c2 >= 0 and the equality of left- and
right-counted currents must hold for all three methods, and so must the
parity Pi the generators are solved under: every term keeps Pi-even
operators Pi-even, exactly, and a re-solve on charge sectors alone gives the
same current and a steady state with no Pi-odd part.  Energy balance is
an identity for the additive method (its phonon flow is defined by it), so
it is asserted for WCME and RCME only.

Zero current at global equilibrium is asserted for WCME and RCME only.  The
additive method breaks it: at equal temperatures and mu_R = 0 it carries a
current of 3.67e-6, 3.32e-4 and 2.74e-3 at lam = 0.01, 1 and 10, the same
at M = 6, 10 and 14, fed by heat drawn from the phonons (IE_ph > 0).  Its
lead rates see the bare addition energies while the mode dresses the
system, and that current is the additive artefact itself, not truncation.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nanojunction import ModelParams, build_generator, cumulants
from nanojunction import Liouvillian, Space
from nanojunction import energy_currents, mean_current, regime_params, steady_state
from nanojunction.model import sector_labels
from nanojunction.rc import METHODS
from reference import dense, devec, hermitian_coordinates, trace_defect, vec

M = 6
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
COULOMB = st.sampled_from([math.inf, 1e3])   # three states, four states


def _hermiticity_defect(L, gen) -> float:
    """max |Y - Y^dag| for Y = L(X), X a fixed random Hermitian matrix."""
    rng = np.random.default_rng(0)
    d = L.space.dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    X = devec(L.space, vec(L.space, X + X.conj().T))
    Y = devec(L.space, gen @ vec(L.space, X))
    return float(np.max(np.abs(Y - Y.conj().T)) / np.max(np.abs(X)))


def _real_buffer_defect(L, gen) -> float:
    """max |B - T gen T^-1| for the n x n block B of the buffer the LU factors."""
    n = L.space.n
    T = hermitian_coordinates(L.space)
    return float(np.max(np.abs(L._bordered[:n, :n] - T @ gen @ np.linalg.inv(T))))


def _parity(f, flips) -> int:
    """+1 / -1 if a term factor is exactly Pi-even / Pi-odd, 0 if it mixes."""
    return 1 if not f[flips].any() else -1 if not f[~flips].any() else 0


def _parity_holds(L, ss, labels) -> bool:
    """Pi maps the terms into themselves, exactly, and the charge-only solve agrees.

    Every term keeps Pi-even operators Pi-even (its factors have definite
    parity, equal for a sandwich, even for a one-sided term), so re-solving
    the same terms on charge sectors alone gives the same current and a
    steady state with no Pi-odd part.
    """
    sign = 1 - 2 * (labels % 2)
    flips = np.not_equal.outer(sign, sign)
    for t in L.terms:
        parities = [_parity(f, flips) for f in (t.left, t.right) if f is not None]
        if np.prod(parities) != 1:
            return False
    charge_only = Liouvillian(space=Space(labels // 2), terms=L.terms, method=L.method)
    ss_q = steady_state(charge_only)
    c1, c1_q = mean_current(L, ss), mean_current(charge_only, ss_q)
    odd = float(np.max(np.abs(ss_q.rho[flips])))
    return abs(c1_q - c1) <= 1e-10 * abs(c1) and odd <= 1e-14 * np.max(np.abs(ss_q.rho))


@SETTINGS
@given(method=st.sampled_from(METHODS), regime=st.sampled_from([1, 2]),
       lam=st.floats(0.01, 10.0), V=st.floats(-1.0, 2.0),
       Gamma_L=st.floats(0.01, 1.0), U=COULOMB)
def test_invariants_hold_at_random_points(method, regime, lam, V, Gamma_L, U):
    p = regime_params(regime, lam=lam, Gamma_L=Gamma_L, U=U).with_bias(V)
    L = build_generator(p, method, M)
    gen = dense(L.space, L.terms)
    scale = float(np.max(np.abs(gen)))
    assert _real_buffer_defect(L, gen) <= 1e-13 * scale   # before the LU overwrites it
    ss = steady_state(L)
    assert trace_defect(L) <= 1e-13 * scale
    assert _hermiticity_defect(L, gen) <= 1e-13 * scale
    _, c2 = cumulants(L, ss)
    assert c2 >= 0.0
    assert _parity_holds(L, ss, sector_labels(p, 1 if method == "wcme" else M))
    left, right = mean_current(L, ss, "left"), mean_current(L, ss, "right")
    d = L.space.dim
    assert abs(left - right) <= max(1e-10 * max(abs(left), abs(right)),
                                    20 * d * ss.residual)
    if method != "arcme":
        flows = energy_currents(L, ss)
        energy_sum = float(np.sum(np.abs(np.diag(L.energy_op))))
        assert abs(sum(flows)) <= max(1e-8 * max(map(abs, flows)),
                                      20 * energy_sum * ss.residual)


@SETTINGS
@given(method=st.sampled_from(["wcme", "rcme"]), lam=st.floats(0.01, 10.0),
       Gamma_L=st.floats(0.01, 1.0), U=COULOMB)
def test_equilibrium_carries_no_current(method, lam, Gamma_L, U):
    p = ModelParams(lam=lam, Gamma_L=Gamma_L, U=U, mu_R=0.0)   # one temperature, V = 0
    L = build_generator(p, method, M)
    assert abs(mean_current(L, steady_state(L))) < 1e-12
