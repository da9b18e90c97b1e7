"""Reaction-coordinate treatments of the strongly coupled phonon mode.

The peaked Drude-Lorentz environment is mapped exactly onto a single bosonic
mode (frequency Omega = omega0, coupling kappa = sqrt(lam * omega0)) that is
absorbed into the system Hamiltonian, plus a residual Ohmic bath
J_res(nu) = gamma * nu / (2 pi omega0) that is treated at second order.  Two
generators are built on the augmented space:

* ``assemble_rcme``: leads filtered at the transition frequencies of the full
  augmented Hamiltonian (lead and phonon effects are non-additive);
* ``assemble_arcme``: lead dissipators of the bare electronic problem lifted
  onto the augmented space (strictly additive rates), with the same coherent
  part and residual-bath dissipator as the RCME.

``build_generator`` is the one registry of methods (``METHODS``): it builds
the weak-coupling generator or either of these by name.  Mode-space
truncation is handled by ``converge_in_levels``, which walks the Fock cutoff
upward and certifies (or honestly refuses to certify) relative convergence
of an observable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fcs import mean_current
from .model import (
    ElectronicBasis,
    ModelParams,
    build_lead_coupling_ops,
    build_phonon_coupling_op,
    build_system_hamiltonian,
)
from .superop import ConvergenceFailure, Liouvillian, Space, TaggedTerm
from .superop import coherent_terms, steady_state
from .wcme import (
    RedfieldHalfTransform,
    assemble_wcme,
    bose_half,
    bosonic_dissipator_terms,
    build_wcme_lead_dissipator,
)

# The registered master equations.  Every method but "wcme" puts the
# reaction coordinate into the system and needs a Fock cutoff M.
METHODS = ("wcme", "rcme", "arcme")

# Largest restricted superoperator dimension the dense solve path may
# allocate.  The peak holds the (n+1)^2 bordered buffer, which the LU
# overwrites, and one O(m^3) assembly slab, ~16 (n+1)^2 bytes: ~1.30 GB at
# n = 9000 (an M = 42 report, n = 8820, peaked at 1279 MB RSS).
MAX_RESTRICTED_DIM = 9000


@dataclass(frozen=True)
class RcParams:
    """Reaction-coordinate mode parameters and Fock truncation.

    The mode must carry the full reorganisation energy of the mapped
    environment: kappa^2 = lambda_shift * Omega is enforced on construction.
    """

    Omega: float
    kappa: float
    M: int
    lambda_shift: float
    gamma: float

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("Fock truncation M must be at least 1")
        if self.Omega <= 0 or self.gamma <= 0:
            raise ValueError("mode frequency and residual coupling must be positive")
        target = self.lambda_shift * self.Omega
        if abs(self.kappa**2 - target) > 1e-6 * max(abs(target), 1e-12):
            raise ValueError("kappa^2 must equal lambda_shift * Omega")

    def residual_density(self, nu):
        """Residual bath spectral density gamma * nu / (2 pi Omega)."""
        return self.gamma * np.asarray(nu, dtype=float) / (2.0 * np.pi * self.Omega)

    @property
    def residual_slope0(self) -> float:
        return self.gamma / (2.0 * np.pi * self.Omega)


def rc_map(p: ModelParams, M: int) -> RcParams:
    """Map the Drude-Lorentz parameters onto the reaction-coordinate mode."""
    return RcParams(Omega=p.omega0, kappa=np.sqrt(p.lam * p.omega0), M=M,
                    lambda_shift=p.lam, gamma=p.gamma)


def ladder_op(M: int) -> np.ndarray:
    """Bosonic annihilation operator on the M-level Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, M)), 1).astype(complex)


def _sector_eigh(H: np.ndarray, numbers: np.ndarray):
    """Eigendecompose a number-conserving H sector by sector.

    Returns eigenvalues, the block-unitary of eigencolumns (grouped by charge
    sector, ascending within each sector) and the charge per eigencolumn.
    Per-sector diagonalization keeps every eigenvector at sharp electron
    number even when eigenvalues collide across sectors.
    """
    d = H.shape[0]
    evals = np.empty(d)
    W = np.zeros((d, d), dtype=complex)
    eigen_numbers = np.empty(d, dtype=int)
    col = 0
    for v in np.unique(numbers):
        idx = np.flatnonzero(numbers == v)
        w, U = np.linalg.eigh(H[np.ix_(idx, idx)])
        m = len(idx)
        evals[col : col + m] = w
        W[idx, col : col + m] = U
        eigen_numbers[col : col + m] = v
        col += m
    return evals, W, eigen_numbers


@dataclass
class AugmentedSystem:
    """System + reaction coordinate, diagonalized charge sector by sector."""

    rc: RcParams
    basis: ElectronicBasis
    hamiltonian: np.ndarray          # product basis (electronic kron Fock)
    numbers: np.ndarray              # electron count per product index
    evals: np.ndarray                # sector-grouped eigenvalues
    modes: np.ndarray = field(repr=False)  # eigencolumns, same grouping
    eigen_numbers: np.ndarray = None  # electron count per eigencolumn
    residual: float = 0.0            # max |H W - W diag(evals)|

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def rotate(self, A: np.ndarray) -> np.ndarray:
        """Transform a product-basis operator into the eigenbasis."""
        return self.modes.conj().T @ A @ self.modes

    def lift(self, A: np.ndarray) -> np.ndarray:
        """Embed an electronic operator, A kron identity, into the eigenbasis."""
        return self.rotate(np.kron(A, np.eye(self.rc.M)))


def build_augmented_hamiltonian(p: ModelParams, M: int,
                                basis: ElectronicBasis | None = None) -> AugmentedSystem:
    """H' = H_el + lam s^2 + kappa s (a + a^dag) + Omega a^dag a, diagonalized."""
    if basis is None:
        basis = ElectronicBasis(project_out_double=True)
    rc = rc_map(p, M)
    Hel = build_system_hamiltonian(p, basis)
    s = build_phonon_coupling_op(basis)
    a = ladder_op(M)
    x = a + a.conj().T
    eye_f = np.eye(M, dtype=complex)
    Hp = (np.kron(Hel + rc.lambda_shift * (s @ s), eye_f)
          + rc.kappa * np.kron(s, x)
          + rc.Omega * np.kron(np.eye(basis.dim, dtype=complex), a.conj().T @ a))
    numbers = np.repeat(basis.electron_numbers, M)
    evals, W, eigen_numbers = _sector_eigh(Hp, numbers)
    residual = float(np.max(np.abs(Hp @ W - W * evals)))
    if residual > 1e-9:
        raise ConvergenceFailure(f"augmented eigendecomposition residual {residual:.3e}")
    return AugmentedSystem(rc=rc, basis=basis, hamiltonian=Hp, numbers=numbers,
                           evals=evals, modes=W, eigen_numbers=eigen_numbers,
                           residual=residual)


@dataclass(frozen=True)
class RateOperators:
    """Eigenbasis coupling operators feeding the augmented dissipators."""

    A_left: np.ndarray               # removes an electron into the left lead
    A_right: np.ndarray              # removes an electron into the right lead
    position: np.ndarray             # RC displacement a + a^dag, lifted
    residual_half: RedfieldHalfTransform  # filtered residual-bath pair


def build_rate_operators(aug: AugmentedSystem, p: ModelParams) -> RateOperators:
    """Lift and rotate the coupling operators; filter the residual bath."""
    A1, A3 = build_lead_coupling_ops(aug.basis)
    a = ladder_op(aug.rc.M)
    B = aug.rotate(np.kron(np.eye(aug.basis.dim, dtype=complex), a + a.conj().T))
    half = bose_half(B, aug.evals, aug.rc.residual_density,
                     aug.rc.residual_slope0, p.beta_ph)
    return RateOperators(A_left=aug.lift(A1), A_right=aug.lift(A3),
                         position=B, residual_half=half)


def _augmented_parts(p: ModelParams, M: int, basis: ElectronicBasis | None):
    """What both RC generators share: H', its guarded space, rate operators."""
    aug = build_augmented_hamiltonian(p, M, basis)
    space = Space(aug.eigen_numbers)
    if space.n > MAX_RESTRICTED_DIM:
        raise ConvergenceFailure(
            f"restricted dimension {space.n} exceeds the dense-solver guard "
            f"({MAX_RESTRICTED_DIM}); lower the Fock truncation M={aug.rc.M}")
    ops = build_rate_operators(aug, p)
    return aug, space, ops, np.diag(aug.evals).astype(complex)


def assemble_rcme(p: ModelParams, M: int,
                  basis: ElectronicBasis | None = None) -> Liouvillian:
    """Non-additive generator: leads filtered at augmented frequencies."""
    aug, space, ops, Hd = _augmented_parts(p, M, basis)
    terms = coherent_terms(Hd)
    terms += build_wcme_lead_dissipator(ops.A_left, aug.evals, p.Gamma_L,
                                        p.beta_L, p.mu_L, "left")
    terms += build_wcme_lead_dissipator(ops.A_right, aug.evals, p.Gamma_R,
                                        p.beta_R, p.mu_R, "right")
    terms += bosonic_dissipator_terms(ops.position, ops.residual_half)
    return Liouvillian(space=space, terms=terms, method="rcme", energy_op=Hd)


def assemble_arcme(p: ModelParams, M: int,
                   basis: ElectronicBasis | None = None) -> Liouvillian:
    """Additive generator: bare-electronic lead dissipators on the augmented space.

    Lead terms are built at the transition frequencies of the bare electronic
    Hamiltonian and then lifted, so the phonon mode cannot renormalize them.
    Energy bookkeeping stays with the bare electronic energies.
    """
    aug, space, ops, Hd = _augmented_parts(p, M, basis)
    Hel = build_system_hamiltonian(p, aug.basis)
    evals_el = np.diag(Hel).real
    A1, A3 = build_lead_coupling_ops(aug.basis)
    bare = build_wcme_lead_dissipator(A1, evals_el, p.Gamma_L, p.beta_L, p.mu_L, "left")
    bare += build_wcme_lead_dissipator(A3, evals_el, p.Gamma_R, p.beta_R, p.mu_R, "right")
    terms = [TaggedTerm(t.coef,
                        left=None if t.left is None else aug.lift(t.left),
                        right=None if t.right is None else aug.lift(t.right),
                        tag=t.tag, bath=t.bath)
             for t in bare]
    terms += coherent_terms(Hd)
    terms += bosonic_dissipator_terms(ops.position, ops.residual_half)
    return Liouvillian(space=space, terms=terms, method="arcme", energy_op=aug.lift(Hel))


def build_generator(p: ModelParams, method: str, M: int | None = None,
                    basis: ElectronicBasis | None = None) -> Liouvillian:
    """Generator of one of ``METHODS``; the RC methods need the Fock cutoff M."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    if method == "wcme":
        return assemble_wcme(p, basis)
    if M is None:
        raise ValueError(f"method {method!r} needs a Fock truncation M")
    if method == "rcme":
        return assemble_rcme(p, M, basis)
    return assemble_arcme(p, M, basis)


@dataclass
class LadderCertificate:
    """Outcome of walking the Fock truncation upward.

    ``value`` and ``increment`` refer to the last evaluated level; ``history``
    holds every (M, value) pair.  An unconverged certificate reports why the
    walk stopped instead of pretending.
    """

    converged: bool
    M: int
    value: float
    increment: float
    history: list
    message: str = ""


def converge_in_levels(evaluate, start: int = 10, step: int = 4,
                       tol: float = 1e-6, cap: int = 60) -> LadderCertificate:
    """Increase the truncation until an observable settles to relative tol.

    ``evaluate(M)`` returns the observable at Fock cutoff M.  A level that
    raises ``ConvergenceFailure`` before anything has converged is skipped --
    undersized cutoffs can fail for the same reason they are inaccurate --
    but once a level has been computed, a later failure (e.g. the memory
    guard) ends the walk with an honest certificate.  The walk also stops
    early (unconverged) at the first bounce, where a relative increment
    stops decreasing; the message records where, not why.
    """
    if start < 1 or step < 1 or cap < start or tol <= 0:
        raise ValueError(f"ladder needs 1 <= start <= cap, step >= 1 and tol > 0 "
                         f"(start={start}, step={step}, cap={cap}, tol={tol})")
    history = []
    prev_val = None
    prev_inc = None
    last_exc = None
    M = start
    while M <= cap:
        try:
            val = float(evaluate(M))
        except ConvergenceFailure as exc:
            if not history:
                last_exc = exc
                M += step
                continue
            Mp, vp = history[-1]
            return LadderCertificate(False, Mp, vp, prev_inc if prev_inc is not None
                                     else np.inf, history, f"stopped at M={M}: {exc}")
        history.append((M, val))
        if prev_val is not None:
            scale = max(abs(val), abs(prev_val), 1e-300)
            inc = abs(val - prev_val) / scale
            if inc <= tol:
                return LadderCertificate(True, M, val, inc, history)
            if prev_inc is not None and inc >= prev_inc:
                # the level before the bounce is the best estimate on offer,
                # so that is what we certify
                Mp, vp = history[-2]
                return LadderCertificate(False, Mp, vp, prev_inc, history,
                                         "relative increments stopped "
                                         f"decreasing (bounce at M={M})")
            prev_inc = inc
        prev_val = val
        M += step
    if not history:
        raise last_exc
    return LadderCertificate(False, history[-1][0], history[-1][1],
                             prev_inc if prev_inc is not None else np.inf,
                             history, f"cap M={cap} reached without convergence")


def converge_current(p: ModelParams, method: str = "rcme",
                     basis: ElectronicBasis | None = None, start: int = 10,
                     step: int = 4, tol: float = 1e-6,
                     cap: int = 60) -> LadderCertificate:
    """Ladder convergence of the mean right-lead current."""
    if method not in METHODS or method == "wcme":
        raise ValueError(f"method {method!r} has no Fock ladder; "
                         "use a reaction-coordinate method")

    def evaluate(M):
        L = build_generator(p, method, M, basis)
        return mean_current(L, steady_state(L))

    return converge_in_levels(evaluate, start=start, step=step, tol=tol, cap=cap)
