"""Electronic model: parameters, states, coupling operators, bath functions.

The junction is a two-site system (left dot L, right dot R) between two
wideband fermionic leads, with the inter-site coherence coupled to a bosonic
environment of Drude-Lorentz form (``drude_lorentz``).  After the
Jordan-Wigner transformation the states are G, L, R and D (empty, left, right
and double occupancy); U alone picks the ones kept (``states``), and the lead
operators pick up a sign on the G<->L transitions from the string operator.

All energies are in units of the reference inverse temperature (hbar = k_B = 1),
and the chemical-potential gauge is mu_L = 0, mu_R = V.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the junction and its environments.

    Energies and rates are dimensionless (units of the reference inverse
    temperature).  ``eps_R`` and ``V`` are derived accessors, not fields.
    """

    eps_L: float = 1.0
    Delta: float = 2.0           # eps_R - eps_L
    U: float = math.inf          # Coulomb energy; inf excludes double occupancy
    mu_L: float = 0.0
    mu_R: float = 0.1            # = V in the mu_L = 0 gauge
    beta_L: float = 1.0
    beta_R: float = 1.0
    beta_ph: float = 1.0
    Gamma_L: float = 0.1
    Gamma_R: float = 0.1
    lam: float = 3.0             # reorganisation energy
    omega0: float = 100.0
    gamma: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            x = getattr(self, f.name)
            if math.isnan(x):
                raise ValueError(f"model parameter {f.name} is NaN")
            if math.isinf(x) and f.name != "U":
                raise ValueError(f"model parameter {f.name} must be finite, got {x}")
        if min(self.beta_L, self.beta_R, self.beta_ph) <= 0:
            raise ValueError("inverse temperatures must be positive")
        if self.Gamma_L < 0 or self.Gamma_R < 0:
            raise ValueError("lead rates must be non-negative")
        if self.lam < 0:
            raise ValueError("reorganisation energy must be non-negative")
        if self.omega0 <= 0 or self.gamma <= 0:
            raise ValueError("spectral density needs omega0 > 0 and gamma > 0")
        if self.U < 0:
            raise ValueError("Coulomb energy must be non-negative")

    @property
    def eps_R(self) -> float:
        return self.eps_L + self.Delta

    @property
    def V(self) -> float:
        """Bias voltage mu_R - mu_L."""
        return self.mu_R - self.mu_L

    def with_bias(self, V: float) -> "ModelParams":
        """Return a copy at bias V (gauge mu_L fixed)."""
        return replace(self, mu_R=self.mu_L + V)


# The hot and cold inverse-temperature fields of each operating regime.
REGIMES = {1: ("beta_L", "beta_R"), 2: ("beta_ph", "beta_L")}


def regime_params(which: int, **overrides) -> ModelParams:
    """Convenience constructor for the two operating regimes (``REGIMES``).

    Regime 1 ("lead resource"): hot left lead, beta_L = 0.1, beta_R = beta_ph = 1.
    Regime 2 ("phonon resource"): hot phonons, beta_L = beta_R = 1, beta_ph = 0.1.
    """
    if which not in REGIMES:
        raise ValueError("regime must be 1 or 2")
    base = {"beta_L": 1.0, "beta_R": 1.0, "beta_ph": 1.0, REGIMES[which][0]: 0.1}
    base.update(overrides)
    return ModelParams(**base)


# Electron number and parity sign of each electronic state: empty, left dot,
# right dot, both.  Pi = diag(sign) (x) (-1)^{a^dag a} commutes with H' and every
# dissipator keeps Pi-even operators Pi-even, so the steady state is Pi-even.
QUANTUM_NUMBERS = {"G": (0, 1), "L": (1, 1), "R": (1, -1), "D": (2, -1)}


def states(p: ModelParams) -> tuple:
    """States U admits: {G, L, R} at U = inf (hard Coulomb blockade), else {G, L, R, D}."""
    return ("G", "L", "R") if p.U == math.inf else ("G", "L", "R", "D")


def sector_labels(p: ModelParams, M: int) -> np.ndarray:
    """2 * charge + [Pi odd] per product-basis index (state s, Fock level k < M)."""
    charge, sign = np.array([QUANTUM_NUMBERS[s] for s in states(p)]).T
    return (2 * charge[:, None] + (np.outer(sign, (-1) ** np.arange(M)) < 0)).ravel()


def _ket_bra(p: ModelParams, i: str, j: str) -> np.ndarray:
    labels = states(p)
    m = np.zeros((len(labels), len(labels)), dtype=complex)
    m[labels.index(i), labels.index(j)] = 1.0
    return m


def build_system_hamiltonian(p: ModelParams) -> np.ndarray:
    """Electronic Hamiltonian diag(0, eps_L, eps_R[, eps_L+eps_R+U])."""
    energy = {"G": 0.0, "L": p.eps_L, "R": p.eps_R, "D": p.eps_L + p.eps_R + p.U}
    return np.diag(np.array([energy[s] for s in states(p)], dtype=complex))


def build_lead_coupling_ops(p: ModelParams):
    """Lead coupling operators (A1, A3) after Jordan-Wigner.

    A1 = -|G><L| + |R><D| and A3 = |G><R| + |L><D| remove an electron from
    the system (into the left/right lead respectively); their adjoints add
    one.  The minus sign on the G<->L transition is the Jordan-Wigner string
    sign and is load-bearing for interference terms.
    """
    A1 = -_ket_bra(p, "G", "L")
    A3 = _ket_bra(p, "G", "R")
    if "D" in states(p):
        A1 = A1 + _ket_bra(p, "R", "D")
        A3 = A3 + _ket_bra(p, "L", "D")
    return A1, A3


def build_phonon_coupling_op(p: ModelParams) -> np.ndarray:
    """Inter-site coherence operator s = |L><R| + |R><L| (phonon coupling)."""
    return _ket_bra(p, "L", "R") + _ket_bra(p, "R", "L")


def drude_lorentz(p: ModelParams, omega):
    """Drude-Lorentz spectral density J(omega) for omega >= 0 (domain error otherwise).

    J(w) = (2/pi) * lam * w * omega0^2 * gamma / ((omega0^2 - w^2)^2 + gamma^2 w^2),
    peaked near omega0 with width gamma and normalized so that the
    reorganisation energy is lam = int_0^inf J(w)/w dw.  Its slope at w = 0
    is (2/pi) * lam * gamma / omega0^2.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("drude_lorentz is defined for omega >= 0")
    num = 2.0 / np.pi * p.lam * w * p.omega0**2 * p.gamma
    den = (p.omega0**2 - w**2) ** 2 + (p.gamma * w) ** 2
    return num / den


def fermi(beta: float, mu: float, omega):
    """Fermi-Dirac occupation f = 1/(exp(beta*(omega-mu)) + 1), exactly 0 where exp overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(beta * (np.asarray(omega, dtype=float) - mu)))
