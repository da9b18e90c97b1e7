"""Weak-coupling (Born-Markov, non-secular) master equation for the junction.

The dissipators are assembled in the energy eigenbasis of the system
Hamiltonian by elementwise filtering of the coupling operators: every matrix
element A_jk is weighted by the bath response at its own transition frequency
eta_jk = psi_j - psi_k.  For the diagonal electronic Hamiltonian used here,
that reproduces the golden-rule lead rates Gamma*f / Gamma*(1-f) at the
single-particle addition energies and the phonon rates pi*J(Delta)*n and
pi*J(Delta)*(n+1) across the inter-site splitting, while keeping the
non-secular coupling between coherences and populations.  Lamb shifts are
dropped throughout.

Each filter returns a pair (chi, phi): the bare operator with its matrix
elements scaled by the occupied-bath weight (quanta available to absorb) and
by the complementary weight.  A lead is filtered once, through the operator
that removes an electron (``fermi_half``); the factors of its adjoint, which
adds one, are the adjoints of that pair.  A generator is ``coherent_terms`` +
one ``build_wcme_lead_dissipator`` per lead + ``bosonic_dissipator_terms``; ``rc``
makes the same calls on the augmented space of the reaction coordinate, with the
residual Ohmic bath in place of J (ARCME filters each lead at the bare energies
and lifts its three removal factors; the adding factors stay their adjoints).

Every term carries the bath it came from, and the lead sandwich terms also
carry the signed number of electrons they move into that lead, so the same
term lists drive energy bookkeeping and counting statistics downstream.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .model import (
    ModelParams,
    build_lead_coupling_ops,
    build_phonon_coupling_op,
    build_system_hamiltonian,
    drude_lorentz,
    fermi,
    sector_labels,
)
from .superop import Liouvillian, Space, TaggedTerm, coherent_terms

# Lead weights below 2**-511 (beta*|omega - mu| > 354) are set to 0: far below the generator's
# rounding, yet a product of two would be subnormal and slow the LU (~1.5x at M = 34).
FERMI_FLOOR = np.finfo(float).tiny ** 0.5


def fermi_half(A: np.ndarray, evals: np.ndarray, beta: float, mu: float):
    """Filter a lead coupling operator that removes an electron, into (chi, phi).

    The quantum enters the lead at -eta_jk.  The factors of the adjoint, which
    adds an electron, are the adjoints of these (fl(a - b) = -fl(b - a)).
    """
    omega = -np.subtract.outer(evals, evals)
    occ, emp = fermi(beta, mu, omega), fermi(-beta, mu, omega)   # emp = 1 - occ, exact in its tail
    return np.where(occ < FERMI_FLOOR, 0.0, occ) * A, np.where(emp < FERMI_FLOOR, 0.0, emp) * A


def bose_half(A: np.ndarray, evals: np.ndarray, J, slope0: float, beta: float):
    """Filter a Hermitian coupling operator with bosonic responses into (chi, phi).

    ``chi`` picks up (pi/2) J(eta) coth(beta eta / 2) (even in eta, finite at
    eta -> 0 for the linear-in-frequency densities used here, where it limits
    to 2*slope0/beta), ``phi`` picks up (pi/2) J(eta) continued oddly.
    """
    eta = np.subtract.outer(evals, evals)
    jodd = np.sign(eta) * np.asarray(J(np.abs(eta)), dtype=float)
    x = 0.5 * beta * eta
    small = np.abs(x) < 1e-7
    K = np.where(small, 2.0 * slope0 / beta, jodd / np.tanh(np.where(small, 1.0, x)))
    return (np.pi / 2) * K * A, (np.pi / 2) * jodd * A


def build_wcme_lead_dissipator(A_rem: np.ndarray, evals: np.ndarray, Gamma: float,
                               beta: float, mu: float, side: str, lift=None) -> list:
    """Factorized Redfield dissipator of one wideband lead.

    ``A_rem`` removes an electron from the system into the lead; every term
    is on bath ``side``, and the sandwiches that move one electron into/out
    of the lead carry ``jump`` +1 / -1.  ``lift`` maps the three removal
    factors onto another space before the products are formed, so trace
    preservation survives a ``lift`` that is not multiplicative; the adding
    factors are their adjoints (a ``lift`` X -> W^dag (X kron I) W commutes
    with the adjoint).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    rem_chi, rem_phi = fermi_half(A_rem, evals, beta, mu)
    if lift is not None:
        A_rem, rem_chi, rem_phi = map(lift, (A_rem, rem_chi, rem_phi))
    A_add, add_chi, add_phi = A_rem.conj().T, rem_chi.conj().T, rem_phi.conj().T
    g = 0.5 * Gamma
    return [
        TaggedTerm(-g, left=A_rem @ add_chi, bath=side),
        TaggedTerm(-g, right=add_phi @ A_rem, bath=side),
        TaggedTerm(-g, left=A_add @ rem_phi, bath=side),
        TaggedTerm(-g, right=rem_chi @ A_add, bath=side),
        TaggedTerm(g, left=A_rem, right=add_phi, bath=side, jump=1),
        TaggedTerm(g, left=rem_phi, right=A_add, bath=side, jump=1),
        TaggedTerm(g, left=add_chi, right=A_rem, bath=side, jump=-1),
        TaggedTerm(g, left=A_add, right=rem_chi, bath=side, jump=-1),
    ]


def bosonic_dissipator_terms(s, evals, J, slope0: float, beta: float) -> list:
    """-[s, [chi, rho]] + [s, {phi, rho}], factorized; (chi, phi) from ``bose_half``."""
    chi, phi = bose_half(s, evals, J, slope0, beta)
    return [
        TaggedTerm(-1.0, left=s @ chi, bath="phonon"),
        TaggedTerm(1.0, left=s, right=chi, bath="phonon"),
        TaggedTerm(1.0, left=chi, right=s, bath="phonon"),
        TaggedTerm(-1.0, right=chi @ s, bath="phonon"),
        TaggedTerm(1.0, left=s @ phi, bath="phonon"),
        TaggedTerm(1.0, left=s, right=phi, bath="phonon"),
        TaggedTerm(-1.0, left=phi, right=s, bath="phonon"),
        TaggedTerm(-1.0, right=phi @ s, bath="phonon"),
    ]


def assemble_wcme(p: ModelParams) -> Liouvillian:
    """Full weak-coupling generator: coherent part, both leads, phonons.

    The electronic states follow U (``model.states``).  The phonon
    dissipator needs a non-degenerate inter-site transition, so Delta = 0
    is rejected.
    """
    if p.Delta == 0.0:
        raise ValueError("inter-site transition is degenerate (Delta = 0)")
    H = build_system_hamiltonian(p)
    evals = np.diag(H).real
    slope0 = 2.0 / np.pi * p.lam * p.gamma / p.omega0**2
    A1, A3 = build_lead_coupling_ops(p)
    terms = (coherent_terms(H)
             + build_wcme_lead_dissipator(A1, evals, p.Gamma_L, p.beta_L, p.mu_L, "left")
             + build_wcme_lead_dissipator(A3, evals, p.Gamma_R, p.beta_R, p.mu_R, "right")
             + bosonic_dissipator_terms(build_phonon_coupling_op(p), evals,
                                        partial(drude_lorentz, p), slope0, p.beta_ph))
    return Liouvillian(space=Space(sector_labels(p, 1)), terms=terms, method="wcme",
                       energy_op=H)
