"""Counting-field oracle for the tests: c1 and c2 from the tilted generator.

``counting_field_oracle`` recomputes both cumulants from the tilted
generator L(chi) = L + (e^{i chi}-1) J+ + (e^{-i chi}-1) J- alone: the
derivative of its dominant eigenvalue is sampled at four small counting
fields via two-sided inverse iteration and a first-derivative identity, then
Richardson-extrapolated once.  No pseudo-inverse enters that path, which is
the point -- it cross-checks the production formulas of ``nanojunction.fcs``
end to end.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from nanojunction.fcs import _jumps, _transport_sign
from nanojunction.superop import Liouvillian, SteadyState, steady_state
from reference import dense, vec


class OracleError(Exception):
    """The tilted-generator eigenvalue could not be tracked reliably."""


def _eigenvalue_slope(Lx: np.ndarray, Ip: np.ndarray, Im: np.ndarray, chi: float,
                      v0: np.ndarray, w0: np.ndarray, iterations: int) -> complex:
    """-i dlambda/dchi of the tilted generator at finite chi.

    Two-sided inverse iteration from the chi = 0 stationary pair converges on
    the dominant eigenvalue branch (it stays within O(chi) of zero while the
    rest of the spectrum keeps its finite gap); the slope then follows from
    the eigenvalue first-derivative identity without ever differencing
    eigenvalues.
    """
    with warnings.catch_warnings():
        # an exactly singular tilt shows up as inf/nan in the iteration below,
        # which we turn into OracleError; no need for the solver to warn first
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(Lx, check_finite=False)
    v = v0 / np.linalg.norm(v0)
    w = w0 / np.linalg.norm(w0)
    for _ in range(iterations):
        v = sla.lu_solve(lu, v, check_finite=False)
        w = sla.lu_solve(lu, w, trans=2, check_finite=False)
        nv, nw = np.linalg.norm(v), np.linalg.norm(w)
        if not (np.isfinite(nv) and np.isfinite(nw)) or nv == 0 or nw == 0:
            raise OracleError("inverse iteration diverged while tracking the eigenvalue")
        v /= nv
        w /= nw
    denom = w.conj() @ v
    if abs(denom) < 1e-8:
        raise OracleError("left/right eigenvectors of the tilted generator collapsed")
    dL_v = 1j * np.exp(1j * chi) * (Ip @ v) - 1j * np.exp(-1j * chi) * (Im @ v)
    return -1j * (w.conj() @ dL_v) / denom


def counting_field_oracle(L: Liouvillian, ss: SteadyState | None = None,
                          side: str = "right", h: float = 0.02,
                          iterations: int = 3):
    """Recompute (c1, c2) from the tilted generator's eigenvalue alone.

    Samples -i dlambda/dchi at chi = +-h, +-h/2 and Richardson-extrapolates
    once, which cancels the h^2 truncation terms of both the even (c1) and
    odd (c2) combinations.  Raises ``OracleError`` when the eigenvalue branch
    cannot be tracked.
    """
    if ss is None:
        ss = steady_state(L)
    plus, minus = _jumps(L, side)
    L0 = dense(L.space, L.terms)
    Ip = dense(L.space, plus)
    Im = dense(L.space, minus)
    v0, t = vec(L.space, ss.rho), L.space.trace_vec.astype(complex)
    g = {}
    for chi in (h, -h, h / 2, -h / 2):
        Lx = L0 + (np.exp(1j * chi) - 1.0) * Ip + (np.exp(-1j * chi) - 1.0) * Im
        g[chi] = _eigenvalue_slope(Lx, Ip, Im, chi, v0, t, iterations)
    c1_h = 0.5 * (g[h] + g[-h]).real
    c1_h2 = 0.5 * (g[h / 2] + g[-h / 2]).real
    c2_h = (g[h] - g[-h]).imag / (2.0 * h)
    c2_h2 = (g[h / 2] - g[-h / 2]).imag / h
    c1 = (4.0 * c1_h2 - c1_h) / 3.0
    c2 = (4.0 * c2_h2 - c2_h) / 3.0
    return _transport_sign(side) * c1, c2
