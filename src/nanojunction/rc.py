"""Reaction-coordinate treatments of the strongly coupled phonon mode.

The peaked Drude-Lorentz environment is mapped exactly onto a single bosonic
mode (frequency Omega = omega0, coupling kappa = sqrt(lam * omega0)) that is
absorbed into the system Hamiltonian, plus a residual Ohmic bath
J_res(nu) = gamma * nu / (2 pi omega0) that is treated at second order
(Strasberg et al., New J. Phys. 18, 073007 (2016)).  The three numbers come
straight from ``ModelParams`` (lam, omega0, gamma); only the Fock cutoff M
is added, and U decides the electronic states as everywhere (``model.states``:
{G, L, R} at U = inf, so n = 2.5M^2, else {G, L, R, D} with n = 3M^2).  H' is
diagonalized charge x parity sector by sector (``model.sector_labels``), and
that one ``Space`` (guarded before H' is built) is also the restricted space
of the generators.  Both make the weak-coupling generator's three calls on
the augmented space (coherent part of H', leads, residual bath) and differ
only in which Hamiltonian's transition frequencies filter the leads:

* ``assemble_rcme``: the augmented one (lead and phonon effects are non-additive);
* ``assemble_arcme``: the bare electronic one, whose filtered factors are then
  lifted onto the augmented space (strictly additive rates).

``build_generator`` is the one registry of methods (``METHODS``): it builds
the weak-coupling generator or either of these by name.  Mode-space
truncation is handled by ``converge_in_levels``, which walks the Fock cutoff
upward and certifies (or honestly refuses to certify) relative convergence
of an observable; ``check_ladder`` is the one rule for its settings, and
``thermo.converge_report`` walks it on each level's report.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import (
    ModelParams,
    build_lead_coupling_ops,
    build_phonon_coupling_op,
    build_system_hamiltonian,
    sector_labels,
    states,
)
from .superop import ConvergenceFailure, Liouvillian, Space, coherent_terms
from .wcme import assemble_wcme, bosonic_dissipator_terms, lead_terms

# The registered master equations.  Every method but "wcme" puts the
# reaction coordinate into the system and needs a Fock cutoff M.
METHODS = ("wcme", "rcme", "arcme")

# Largest restricted superoperator dimension the dense solve path may
# allocate, checked from the sector sizes before H' is built.  The peak is
# the float64 (n+1)^2 bordered buffer, which the LU overwrites, plus
# assembly's working set of a few MB (one sector pair's stacked term blocks
# and one contraction slab): ~8 (n+1)^2 bytes, ~648 MB at n = 9000, which
# is M = 60 (an M = 60 report peaked at 734 MB RSS).
MAX_RESTRICTED_DIM = 9000


def residual_density(p: ModelParams, nu):
    """Residual Ohmic bath J_res(nu) = gamma * nu / (2 pi omega0) of the mapping."""
    return p.gamma * np.asarray(nu, dtype=float) / (2.0 * np.pi * p.omega0)


def ladder_op(M: int) -> np.ndarray:
    """Bosonic annihilation operator on the M-level Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, M)), 1).astype(complex)


@dataclass
class AugmentedSystem:
    """System + reaction coordinate (Omega = omega0, kappa = sqrt(lam * omega0)).

    H' lives on the product basis (electronic kron Fock), whose charge x
    parity sectors ``space`` partitions.  It is diagonalized sector by sector,
    and each sector's eigencolumns sit at its own positions, so every
    eigenvector has a sharp electron number and parity, and ``space`` is also
    the restricted space of both generators built on it.
    """

    M: int                           # Fock cutoff
    hamiltonian: np.ndarray          # product basis
    space: Space                     # charge x parity sectors of the product basis
    evals: np.ndarray                # eigenvalue per eigencolumn
    modes: np.ndarray = field(repr=False)  # eigencolumns, block-unitary
    residual: float = 0.0            # max |H W - W diag(evals)|

    def rotate(self, A: np.ndarray) -> np.ndarray:
        """Transform a product-basis operator into the eigenbasis."""
        return self.modes.conj().T @ A @ self.modes

    def lift(self, A: np.ndarray) -> np.ndarray:
        """Embed an electronic operator, A kron identity, into the eigenbasis."""
        return self.rotate(np.kron(A, np.eye(self.M)))


def build_augmented_hamiltonian(p: ModelParams, M: int) -> AugmentedSystem:
    """H' = H_el + lam s^2 + kappa s (a + a^dag) + Omega a^dag a, diagonalized.

    A restricted space over ``MAX_RESTRICTED_DIM`` raises before H' is built.
    """
    if M < 1:
        raise ValueError(f"Fock truncation M must be at least 1, got {M}")
    space = Space(sector_labels(p, M))
    if space.n > MAX_RESTRICTED_DIM:
        raise ConvergenceFailure(
            f"restricted dimension {space.n} exceeds the dense-solver guard "
            f"({MAX_RESTRICTED_DIM}); lower the Fock truncation M={M}")
    Hel = build_system_hamiltonian(p)
    s = build_phonon_coupling_op(p)
    a = ladder_op(M)
    x = a + a.conj().T
    eye_f = np.eye(M, dtype=complex)
    Hp = (np.kron(Hel + p.lam * (s @ s), eye_f)
          + np.sqrt(p.lam * p.omega0) * np.kron(s, x)
          + p.omega0 * np.kron(np.eye(len(Hel), dtype=complex), a.conj().T @ a))
    evals = np.empty(Hp.shape[0])
    W = np.zeros_like(Hp)
    for idx in space.sectors:
        evals[idx], W[np.ix_(idx, idx)] = np.linalg.eigh(Hp[np.ix_(idx, idx)])
    residual = float(np.max(np.abs(Hp @ W - W * evals)))
    if residual > 1e-9:
        raise ConvergenceFailure(f"augmented eigendecomposition residual {residual:.3e}")
    return AugmentedSystem(M=M, hamiltonian=Hp, space=space,
                           evals=evals, modes=W, residual=residual)


def build_rate_operators(aug: AugmentedSystem, p: ModelParams):
    """Residual-bath terms: the residual bath couples to the RC displacement a + a^dag."""
    a = ladder_op(aug.M)
    B = aug.rotate(np.kron(np.eye(len(states(p)), dtype=complex), a + a.conj().T))
    return bosonic_dissipator_terms(B, aug.evals, partial(residual_density, p),
                                    p.gamma / (2.0 * np.pi * p.omega0), p.beta_ph)


def assemble_rcme(p: ModelParams, M: int) -> Liouvillian:
    """Non-additive generator: leads filtered at augmented frequencies."""
    aug = build_augmented_hamiltonian(p, M)
    Hd = np.diag(aug.evals).astype(complex)
    A1, A3 = build_lead_coupling_ops(p)
    terms = (coherent_terms(Hd) + lead_terms(p, aug.evals, aug.lift(A1), aug.lift(A3))
             + build_rate_operators(aug, p))
    return Liouvillian(space=aug.space, terms=terms, method="rcme", energy_op=Hd)


def assemble_arcme(p: ModelParams, M: int) -> Liouvillian:
    """Additive generator: lead factors filtered at the bare energies, then lifted.

    Every lead factor is filtered at the bare electronic transition
    frequencies and lifted before the products are formed, so the phonon
    mode cannot renormalize the rates.  Energy bookkeeping stays with the
    bare electronic energies.
    """
    aug = build_augmented_hamiltonian(p, M)
    Hel = build_system_hamiltonian(p)
    terms = (lead_terms(p, np.diag(Hel).real, *build_lead_coupling_ops(p), lift=aug.lift)
             + coherent_terms(np.diag(aug.evals).astype(complex))
             + build_rate_operators(aug, p))
    return Liouvillian(space=aug.space, terms=terms, method="arcme", energy_op=aug.lift(Hel))


def build_generator(p: ModelParams, method: str, M: int | None = None) -> Liouvillian:
    """Generator of one of ``METHODS``; the RC methods need the Fock cutoff M."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    if method == "wcme":
        return assemble_wcme(p)
    if M is None:
        raise ValueError(f"method {method!r} needs a Fock truncation M")
    if method == "rcme":
        return assemble_rcme(p, M)
    return assemble_arcme(p, M)


@dataclass
class LadderCertificate:
    """Outcome of walking the Fock truncation upward.

    ``M``, ``value`` and ``increment`` are those of the reported level (the one
    before a bounce, else the last computed; ``inf`` if it was the first);
    ``history`` holds every computed (M, value) pair.  An unconverged
    certificate reports why the walk stopped instead of pretending.
    """

    converged: bool
    M: int
    value: float
    increment: float
    history: list
    message: str = ""


def check_ladder(start: int, step: int, tol: float, cap: int) -> None:
    """Reject ladder settings that cannot walk: 1 <= start <= cap, step >= 1, tol > 0."""
    if start < 1 or step < 1 or cap < start or tol <= 0:
        raise ValueError(f"ladder needs 1 <= start <= cap, step >= 1 and tol > 0 "
                         f"(start={start}, step={step}, cap={cap}, tol={tol})")


def converge_in_levels(evaluate, start: int = 10, step: int = 4,
                       tol: float = 1e-6, cap: int = 60) -> LadderCertificate:
    """Increase the truncation until an observable settles to relative tol.

    ``evaluate(M)`` returns the observable at Fock cutoff M.  Each computed
    level appends (M, value) to ``history`` and its relative increment to
    ``incs`` (``inf`` for the first).  The verdict is read from their last
    entries: converged at an increment <= tol; a bounce, where an increment
    is no smaller than the one before, reported at the level before it (the
    best estimate on offer; the message records where, not why); the cap.
    A ``ConvergenceFailure`` before the first computed level skips that
    level -- undersized cutoffs can fail for the same reason they are
    inaccurate -- and is re-raised if no level is left; a later one (e.g.
    the memory guard) ends the walk with an honest certificate.
    """
    check_ladder(start, step, tol, cap)
    history, incs = [], []
    for M in range(start, cap + 1, step):
        try:
            val = float(evaluate(M))
        except ConvergenceFailure as exc:
            if history:
                return LadderCertificate(False, *history[-1], incs[-1], history,
                                         f"stopped at M={M}: {exc}")
            if M + step > cap:
                raise
            continue
        if history:
            prev = history[-1][1]
            incs.append(abs(val - prev) / max(abs(val), abs(prev), 1e-300))
        else:
            incs.append(np.inf)
        history.append((M, val))
        if incs[-1] <= tol:
            return LadderCertificate(True, M, val, incs[-1], history)
        if len(incs) > 2 and incs[-1] >= incs[-2]:
            return LadderCertificate(False, *history[-2], incs[-2], history,
                                     f"relative increments stopped decreasing (bounce at M={M})")
    return LadderCertificate(False, *history[-1], incs[-1], history,
                             f"cap M={cap} reached without convergence")
