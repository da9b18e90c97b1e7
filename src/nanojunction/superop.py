"""Superoperator algebra over column-stacked density matrices.

The generators built here conserve electron number and commute with
rho -> Pi rho Pi (``model.sector_labels``), so the steady state and all traced
against it live on the blocks rho[S, S] of charge x parity sectors S.
``Space`` restricts vec(rho) to them (dimension sum_s m_s^2 over sectors of
size m_s instead of d^2), which keeps dense LU factorizations affordable at
large reaction-coordinate truncations; a single-sector ``Space`` is all d^2.

Superoperator terms are stored in factorized form, coef * (A . B), i.e.
rho -> coef * A @ rho @ B, the generator's only stored form: a
``Liouvillian`` sums them blockwise, via vec(A rho B) = (B^T kron A) vec(rho),
straight into its bordered LU buffer; its certificates apply them matrix-free.
Each m^2 x m^2 sector-pair block gets one contraction over the stacked
m x m factor blocks of the terms whose factors reach that pair (identity
factors reach only the diagonal pairs), added in place a few l-slabs at a
time, so assembly holds one pair's stacked blocks and a slab temporary.

Importing this module sets NumPy's bundled OpenBLAS to one thread when SciPy
links its own, so that NumPy's idle workers do not spin on the LU's cores.
"""
from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _pin_numpy_blas(numpy_ext: str, scipy_ext: str) -> None:
    """Give NumPy's OpenBLAS one thread if SciPy's extension links another one.

    A shared OpenBLAS, another BLAS or a library that cannot be opened leaves
    both pools alone; SciPy's pool, which runs the LU, is never changed.
    """
    setters = []
    for path in (numpy_ext, scipy_ext):
        try:
            lib = ctypes.CDLL(path)   # dlsym searches the extension's dependencies
        except OSError:
            return
        setter = next((getattr(lib, s) for s in _OPENBLAS_SETTERS if hasattr(lib, s)), None)
        if setter is None:
            return
        setters.append(ctypes.cast(setter, ctypes.c_void_p).value)
    if setters[0] != setters[1]:   # void openblas_set_num_threads(int)
        ctypes.CFUNCTYPE(None, ctypes.c_int)(setters[0])(1)


_pin_numpy_blas(np.linalg._umath_linalg.__file__, sla._flapack.__file__)

_CHUNK_BYTES = 1 << 18   # bound on ``assemble``'s contraction temporary (or one l-slab)


class NonUniqueSteadyState(Exception):
    """The generator's stationary space is degenerate (no unique steady state)."""


class ConvergenceFailure(Exception):
    """A solve finished but its certificate failed the requested tolerance."""


class Space:
    """Sector-restricted vectorization of d x d matrices.

    Parameters
    ----------
    numbers : array_like
        Conserved label per Hilbert basis index (``model.sector_labels``).
        Basis indices with equal label form a sector; the restricted space
        keeps exactly the same-sector blocks rho[S, S].
    """

    def __init__(self, numbers):
        numbers = np.asarray(numbers)
        d = self.dim = len(numbers)
        labels, self.sector_id = np.unique(numbers, return_inverse=True)   # per index
        self.sectors = [np.flatnonzero(self.sector_id == s) for s in range(len(labels))]
        self.offsets = np.cumsum([0] + [len(s) ** 2 for s in self.sectors])[:-1]
        # row-major position in rho of every kept entry, each block column-stacked
        self.index = np.concatenate([(s[:, None] + d * s).ravel() for s in self.sectors])
        self.n = len(self.index)
        self.trace_vec = (self.index % (d + 1) == 0).astype(float)

    def vec(self, rho: np.ndarray) -> np.ndarray:
        """Restrict and column-stack a d x d matrix."""
        return rho.reshape(-1)[self.index].astype(complex, copy=False)

    def devec(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``vec``; unrestricted blocks are zero."""
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        rho[self.index] = x
        return rho.reshape(self.dim, self.dim)


@dataclass
class TaggedTerm:
    """One factorized superoperator term: rho -> coef * A @ rho @ B.

    ``left``/``right`` default to the identity.  ``bath`` records which
    environment the term came from, for energy-current bookkeeping;
    ``jump`` is the number of electrons the term moves into that bath's lead
    when it fires (+1 into it, -1 out of it, 0 for none), for counting.
    """

    coef: complex
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    bath: str = "coherent"
    jump: int = 0

    def __post_init__(self):
        if self.jump not in (-1, 0, 1):
            raise ValueError(f"jump must be -1, 0 or 1, got {self.jump!r}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = rho if self.left is None else self.left @ rho
        if self.right is not None:
            out = out @ self.right
        return self.coef * out


def assemble(space: Space, terms, out: np.ndarray | None = None) -> np.ndarray:
    """Sum the factorized terms into a dense restricted superoperator.

    Returns a fresh Fortran-ordered n x n array, or adds the sum into the
    leading n x n block of ``out`` (Fortran-ordered, so that its transpose
    is written row by row).  Each sector-pair block gets one contraction
    over the stacked factor blocks of the terms that reach it, a few
    l-slabs at a time; entries are summed in the BLAS kernel's order.
    """
    if out is None:
        out = np.zeros((space.n, space.n), dtype=complex, order="F")
    nsec = len(space.sectors)

    def reach(X):   # reach[a, c]: X[sa, sc] has a non-zero; the identity's is a == c
        if X is None:
            return np.eye(nsec, dtype=bool)
        r = np.zeros((nsec, nsec), dtype=bool)
        rows, cols = np.nonzero(X)
        r[space.sector_id[rows], space.sector_id[cols]] = True
        return r

    reaches = [(reach(t.left), reach(t.right).T) for t in terms]
    eye = np.eye(space.dim, dtype=complex)
    # a block of L is coef * kron(B^T, A); its transpose kron(B, A^T), viewed
    # as blk[l, k, j, i] = sum_t coef_t B_t[l, j] A_t[i, k], is added into
    # the C-ordered out.T
    LT = out.T
    for a, (sa, offa) in enumerate(zip(space.sectors, space.offsets)):
        for c, (sc, offc) in enumerate(zip(space.sectors, space.offsets)):
            hit = [t for t, (lr, rr) in zip(terms, reaches) if lr[a, c] and rr[a, c]]
            if not hit:
                continue
            ma, mc, ac, ca = len(sa), len(sc), np.ix_(sa, sc), np.ix_(sc, sa)
            As = np.stack([(eye if t.left is None else t.left)[ac] for t in hit])
            Bs = np.stack([t.coef * (eye if t.right is None else t.right)[ca] for t in hit])
            blk = LT[offc : offc + mc * mc, offa : offa + ma * ma].reshape(mc, mc, ma, ma)
            nl = max(1, _CHUNK_BYTES // (16 * mc * ma * ma))   # whole l-slabs per contraction
            for l0 in range(0, mc, nl):
                slab = np.tensordot(Bs[:, l0 : l0 + nl], As, (0, 0))   # [l, j, i, k]
                blk[l0 : l0 + nl] += slab.transpose(0, 3, 1, 2)
    return out


def apply_terms(terms, space: Space, x: np.ndarray) -> np.ndarray:
    """Apply a list of factorized terms to a restricted vector (matrix-free)."""
    rho = space.devec(x)
    out = np.zeros_like(rho)
    for t in terms:
        out += t.apply(rho)
    return space.vec(out)


def coherent_terms(H: np.ndarray):
    """Factorized terms of the coherent part -i[H, .]."""
    return [TaggedTerm(-1j, left=H), TaggedTerm(1j, right=H)]


@dataclass
class Liouvillian:
    """Restricted generator: its factorized terms and their bordered LU.

    ``terms`` is the one stored form; construction sums them into the
    Fortran-ordered bordered buffer [[L, t^dag], [t, 0]], which the first
    ``bordered_lu`` call factors in place.  ``energy_op`` is the Hamiltonian
    energy currents are traced against: the one in the coherent part, except
    for the additive methods, which book energy at the bare electronic one.
    """

    space: Space
    terms: list
    method: str = ""
    energy_op: np.ndarray | None = None
    _bordered: np.ndarray | None = field(default=None, init=False, repr=False)
    _lu: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = self.space.n
        self._bordered = np.zeros((n + 1, n + 1), dtype=complex, order="F")
        assemble(self.space, self.terms, self._bordered)
        self._bordered[:n, n] = self.space.trace_vec
        self._bordered[n, :n] = self.space.trace_vec

    def bath(self, *baths):
        return [t for t in self.terms if t.bath in baths]

    def trace_defect(self) -> float:
        """Infinity norm of the trace functional acting from the left, 1^dag L.

        tr(A rho B) = tr(B A rho), so 1^dag L = vec(K^T) with K = sum coef B A,
        the terms with their factors swapped applied to the identity.
        """
        eye = np.eye(self.space.dim, dtype=complex)
        K = sum(TaggedTerm(t.coef, t.right, t.left).apply(eye) for t in self.terms)
        return float(np.max(np.abs(self.space.vec(K.T))))

    def bordered_lu(self):
        """LU of [[L, t^dag], [t, 0]]; shared by steady state and pseudo-inverse."""
        if self._lu is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                self._lu = sla.lu_factor(self._bordered, overwrite_a=True, check_finite=False)
            self._bordered = None   # overwritten by the factors
        du = np.abs(np.diag(self._lu[0]))
        if du.min() <= len(du) * np.finfo(float).eps * du.max():
            raise NonUniqueSteadyState(
                "stationary space is degenerate (singular bordered system)"
            )
        return self._lu


@dataclass
class SteadyState:
    """Normalized stationary density matrix with its solve certificate."""

    rho: np.ndarray
    vec: np.ndarray
    residual: float
    hermiticity_defect: float
    min_population: float


def _bordered_solve(L: Liouvillian, y, trace: float, error: type) -> np.ndarray:
    """x from [[L, t^dag], [t, 0]] [x; s] = [y; trace], with the cached LU."""
    n = L.space.n
    rhs = np.empty(n + 1, dtype=complex)
    rhs[:n] = y
    rhs[n] = trace
    x = sla.lu_solve(L.bordered_lu(), rhs, check_finite=False)[:n]
    if not np.all(np.isfinite(x)):
        raise error("bordered solve returned non-finite entries")
    return x


def steady_state(L: Liouvillian, tol: float = 1e-9) -> SteadyState:
    """Solve L vec(rho) = 0 with unit trace via the bordered system.

    Raises ``NonUniqueSteadyState`` when the stationary direction is
    degenerate and ``ConvergenceFailure`` when the residual certificate
    ``max|L vec(rho)|`` (L applied from its terms) exceeds ``tol`` or
    populations go below -1e-3.
    """
    x = _bordered_solve(L, 0.0, 1.0, NonUniqueSteadyState)
    rho = L.space.devec(x)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceFailure("steady-state trace vanished")
    rho /= tr
    x = L.space.vec(rho)
    residual = float(np.max(np.abs(apply_terms(L.terms, L.space, x))))
    if residual > tol:
        raise ConvergenceFailure(f"steady-state residual {residual:.3e} > tol {tol:.1e}")
    pops = np.diag(rho).real
    minpop = float(pops.min())
    # second-order generators are not completely positive, so populations
    # dip below zero structurally, not numerically: about -1e-8 at weak
    # coupling, a negative mass of -4e-7 to -1.8e-6 for the RCME at
    # lam = 1000, and for the ARCME there (regime 1) a minimum that grows
    # with the cutoff, -2.3e-4 at M = 14 to -2.7e-2 at M = 30.  This -1e-3
    # gate is what stops that additive ladder; a broken solve mostly trips
    # the residual check above first.
    if minpop < -1e-3:
        raise ConvergenceFailure(f"steady-state population {minpop:.3e} below -1e-3")
    if minpop < -1e-10:
        warnings.warn(f"slightly negative steady-state population {minpop:.3e}")
    return SteadyState(rho=rho, vec=x, residual=residual,
                       hermiticity_defect=herm, min_population=minpop)


def restricted_pseudo_inverse_apply(L: Liouvillian, ss: SteadyState, y: np.ndarray) -> np.ndarray:
    """Apply R = Q L^{-1} Q to a restricted vector.

    Q projects out the stationary direction: Q y = y - vec(rho_ss) (1^dag y).
    The solve reuses the bordered LU; the trace row pins 1^dag (R y) = 0.
    """
    t = L.space.trace_vec
    x = _bordered_solve(L, y - ss.vec * (t @ y), 0.0, ConvergenceFailure)
    return x - ss.vec * (t @ x)
