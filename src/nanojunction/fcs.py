"""Steady-state full counting statistics of lead electron transfers.

Each generator term carries its bath and the signed number of electrons it
moves into that bath's lead (``jump``).  J+ / J- are a lead's terms with
jump +1 / -1, so the first two zero-frequency cumulants of the counted net
transfer come out of term-list applications against the steady state:

    c1 = <J+ - J->,
    c2 = <J+ + J-> - 2 <J R J>,        J = J+ - J-,

with R the pseudo-inverse restricted off the stationary direction and
<X> = tr X(rho_ss), every application and trace on d x d matrices.  Currents
are reported in the transport direction (left lead -> system -> right lead
positive), so left- and right-counted values agree in steady state.
"""
from __future__ import annotations

import numpy as np

from .superop import Liouvillian, SteadyState, apply_terms, restricted_pseudo_inverse_apply


def _jumps(L: Liouvillian, side: str):
    """The lead's counting terms (J+, J-): jump into / out of it, in term order."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    lead = L.bath(side)
    return [t for t in lead if t.jump > 0], [t for t in lead if t.jump < 0]


def _transport_sign(side: str) -> float:
    # Transfers into the right lead are forward; out of the left lead likewise.
    return 1.0 if side == "right" else -1.0


def mean_current(L: Liouvillian, ss: SteadyState, side: str = "right") -> float:
    """Mean particle current through the given lead, transport-positive."""
    tp, tm = _jumps(L, side)
    jp = np.trace(apply_terms(tp, ss.rho))
    jm = np.trace(apply_terms(tm, ss.rho))
    return _transport_sign(side) * float((jp - jm).real)


def zero_frequency_noise(L: Liouvillian, ss: SteadyState, side: str = "right") -> float:
    """Zero-frequency noise c2 of the counted transfer at a lead; ValueError if < -1e-10."""
    tp, tm = _jumps(L, side)
    jp = apply_terms(tp, ss.rho)
    jm = apply_terms(tm, ss.rho)
    self_term = np.trace(jp + jm).real
    y = restricted_pseudo_inverse_apply(L, ss, jp - jm)
    corr = (np.trace(apply_terms(tp, y)) - np.trace(apply_terms(tm, y))).real
    c2 = float(self_term - 2.0 * corr)
    if c2 < -1e-10:
        raise ValueError(f"zero-frequency noise is negative: c2 = {c2:.3e}")
    return c2


def cumulants(L: Liouvillian, ss: SteadyState, side: str = "right") -> tuple[float, float]:
    """(c1, c2) at a lead; ``thermo.transport_report`` forms upsilon = c2/c1^2."""
    return mean_current(L, ss, side), zero_frequency_noise(L, ss, side)
