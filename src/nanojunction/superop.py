"""Superoperator algebra: factorized terms, their real bordered LU, solves.

The generators built here conserve electron number and commute with
rho -> Pi rho Pi (``model.sector_labels``), so the steady state and all traced
against it live on the blocks rho[S, S] of charge x parity sectors S.  The
LU covers only those blocks (dimension n = sum_s m_s^2 over sectors of
size m_s instead of d^2), which keeps dense factorizations affordable at
large reaction-coordinate truncations; a single-sector ``Space`` is all d^2.
Everywhere else rho, and every operator a solve hands back, is a d x d array.

Superoperator terms are stored in factorized form, coef * (A . B), i.e.
rho -> coef * A @ rho @ B, the generator's only stored form: a
``Liouvillian`` sums them blockwise straight into its bordered LU buffer;
its certificates apply them to d x d matrices (``apply_terms``).

The generators map Hermitian rho to Hermitian rho, so the buffer and its LU
are real (float64): each position of ``Space.index`` holds a real coordinate
of a Hermitian matrix, Re rho_rc at (r, c) for r <= c and Im rho_rc at
(c, r) for r < c (``Space.to_real`` / ``Space.from_real``, the only maps
between d x d matrices and the LU).  The diagonal keeps its positions, so
the trace row and column are unchanged.

Assembly computes only the tiles L(E_kl), k <= l, of each sector-pair
block: as L(E_lk) = L(E_kl)^dag, one tile gives both real columns (k, l)
and (l, k).  A rectangle of tiles at a time is one batched product of the
stacked factor blocks of the terms that reach the pair (identity factors
reach only the diagonal pairs), added in place through slices of the
buffer, so assembly holds one pair's stacked blocks and two tile arrays.

A failed solve names its cause: ``NonUniqueSteadyState`` comes only from the
pivot test of ``Liouvillian.bordered_lu`` (a degenerate stationary space), and
a non-finite solve or a failed certificate is a ``ConvergenceFailure``.

Importing this module sets NumPy's bundled OpenBLAS to one thread when SciPy
links its own, so that NumPy's idle workers do not spin on the LU's cores.
"""
from __future__ import annotations

import ctypes
import functools
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

_CHUNK_BYTES = 1 << 18   # bound on ``assemble``'s tile temporaries (or one tile's)
RESIDUAL_TOL = 1e-9      # bound on the steady-state residual certificate max|L(rho)|


class NonUniqueSteadyState(Exception):
    """The generator's stationary space is degenerate (no unique steady state)."""


class ConvergenceFailure(Exception):
    """A solve returned non-finite entries or its certificate failed its bound."""


class Space:
    """The map between d x d matrices and the LU's real coordinates.

    Parameters
    ----------
    numbers : array_like
        Conserved label per Hilbert basis index (``model.sector_labels``).
        Basis indices with equal label form a sector; the coordinates cover
        exactly the same-sector blocks rho[S, S].
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
        self._upper = self.index // d <= self.index % d   # on or above the diagonal

    def to_real(self, X: np.ndarray) -> np.ndarray:
        """Real coordinates of the Hermitian part H = (X + X^dag) / 2 of a d x d X.

        Re H_rc at (r, c) for r <= c and Im H_rc at (c, r) for r < c; blocks
        off the sectors are dropped.  For a Hermitian X that is X itself.
        """
        x, xt = X.take(self.index), X.T.take(self.index)   # X_rc and X_cr
        return np.where(self._upper, 0.5 * (x.real + xt.real), 0.5 * (xt.imag - x.imag))

    def from_real(self, y: np.ndarray) -> np.ndarray:
        """The d x d Hermitian matrix with real coordinates y, zero off the sectors."""
        d = self.dim
        Y = np.zeros(d * d)
        Y[self.index] = y
        Y = Y.reshape(d, d)
        low = np.tril(Y, -1)   # Im of the entries above the diagonal, transposed
        up = Y - low
        X = np.empty((d, d), dtype=complex)
        X.real = up + np.triu(up, 1).T
        X.imag = low.T - low
        return X


@dataclass(frozen=True)   # one term may serve every generator built on an RC line
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


def assemble(space: Space, terms, out: np.ndarray) -> np.ndarray:
    """Add the factorized terms, in real coordinates, into a float64 buffer.

    ``out`` is Fortran-ordered (so that its transpose is written row by row)
    and receives, in its leading n x n block, ``to_real`` of the terms'
    action on ``from_real``, provided the summed terms keep rho Hermitian
    (its rows read the entries of the image on and above the diagonal).
    Each column pair (k, l), (l, k) is read off the one tile L(E_kl), k <= l,
    through L(E_lk) = L(E_kl)^dag, which only such terms satisfy: for any
    other terms the buffer is not their real image, and the complex residual
    of ``steady_state`` refuses the solve.  The map is linear in the terms,
    so partial sums add up.  Entries are summed in the BLAS kernel's order.
    """
    d, nsec = space.dim, len(space.sectors)
    onehot = np.zeros((nsec, d))
    onehot[space.sector_id, np.arange(d)] = 1.0

    same = np.eye(nsec, dtype=bool)   # the identity's reach

    def reach(X):   # reach[a, c]: X[sa, sc] has a non-zero
        return same if X is None else onehot @ (X != 0) @ onehot.T > 0

    reaches = [(reach(t.left), reach(t.right).T) for t in terms]
    eye = np.eye(d, dtype=complex)
    # a block of L is coef * kron(B^T, A); its transpose, added into the C-ordered
    # out.T, is blk[l, k, j, i] = L(E_kl)[i, j] = sum_t coef_t B_t[l, j] A_t[i, k]
    LT = out.T
    # one work array for all rectangles: per-rectangle temporaries churn the heap into page faults
    m = max(map(len, space.sectors))
    work = np.empty(2 * max(min(_CHUNK_BYTES // 32, m**4), m * m), dtype=complex)
    for a, (sa, offa) in enumerate(zip(space.sectors, space.offsets)):
        for c, (sc, offc) in enumerate(zip(space.sectors, space.offsets)):
            hit = [t for t, (lr, rr) in zip(terms, reaches) if lr[a, c] and rr[a, c]]
            if not hit:
                continue
            ma, mc = len(sa), len(sc)
            ka = (sc[:, None] + d * sa).ravel()   # flat positions of X[sa, sc] by (k, i)
            lj = (sc[:, None] * d + sa).ravel()   # and of X[sc, sa] by (l, j)
            # over the terms t: Ak[k][t] = A_t[sa, sc[k]], Bl[l][:, t] = coef_t B_t[sc[l], sa]
            Ak = np.stack([(eye if t.left is None else t.left).reshape(-1).take(ka)
                           for t in hit]).reshape(-1, mc, ma).transpose(1, 0, 2)
            Bl = np.stack([t.coef * (eye if t.right is None else t.right).reshape(-1).take(lj)
                           for t in hit]).reshape(-1, mc, ma).transpose(1, 2, 0)
            blk = LT[offc : offc + mc * mc, offa : offa + ma * ma].reshape(mc, mc, ma, ma)
            rects, ph, phc = _tiling(mc, ma, max(1, _CHUNK_BYTES // (32 * ma * ma)))
            for l0, l1, k0, k1, wgt in rects:
                # z[l, k, j, i] = Z[i, j] for Z = L(E_kl); with S = Z + Z^T and
                # D = Z^T - Z, the column (k, l) takes Re S at rows i <= j and
                # Im D below, the column (l, k) -Im S and Re D: Re u and -Im u
                # for u = ph z + conj(ph) z^T, ph = 1 where i <= j, else i
                shape = (2, l1 - l0, k1 - k0, ma, ma)
                z, u = work[: 2 * (l1 - l0) * (k1 - k0) * ma * ma].reshape(shape)
                np.matmul(Bl[l0:l1, None], Ak[None, k0:k1], out=z)
                np.multiply(z.swapaxes(2, 3), phc, out=u)
                z *= ph
                u += z
                if wgt is not None:
                    u[:, l0 - k0 :] *= wgt[:, :, None, None]
                re = blk[l0:l1, k0:k1]                  # the columns (k, l)
                re += u.real
                im = blk[k0:k1, l0:l1].swapaxes(0, 1)   # and (l, k)
                im -= u.imag
    return out


@functools.lru_cache(maxsize=64)
def _tiling(mc: int, ma: int, tiles: int):
    """Rectangles [l0, l1) x [k0, k1) of at most ``tiles`` tiles (or one) that
    cover the tiles k <= l of an (ma, mc) pair, and the phase ph of ``assemble``.

    Bands of rows [l0, l1) by columns [0, l1), all of one height, or single
    rows in pieces.  Where a rectangle reaches the diagonal, its tiles in
    [l0, l1) x [l0, k1) are weighed 1 below, 1/2 on (the column (l, l) is
    to_real(L(E_ll))) and 0 above the diagonal (tiles of later rows).
    """
    h = max(1, tiles // mc)
    h = -(-mc // -(-mc // h))   # the same height for every band
    rects = []
    for l0 in range(0, mc, h):
        l1 = min(l0 + h, mc)
        step = tiles // (l1 - l0)   # all of [0, l1) unless the band is one row
        for k0 in range(0, l1, step):
            k1 = min(k0 + step, l1)
            wgt = np.tri(l1 - l0, k1 - l0, -1) + 0.5 * np.eye(l1 - l0, k1 - l0) if k1 > l0 else None
            rects.append((l0, l1, k0, k1, wgt))
    ph = np.where(np.tri(ma, dtype=bool), 1.0, 1j)
    return rects, ph, ph.conj()


def apply_terms(terms, rho: np.ndarray) -> np.ndarray:
    """Apply a list of factorized terms to a d x d matrix (matrix-free)."""
    out = np.zeros(rho.shape, dtype=complex)
    for t in terms:
        out += t.apply(rho)
    return out


def coherent_terms(H: np.ndarray):
    """Factorized terms of the coherent part -i[H, .]."""
    return [TaggedTerm(-1j, left=H), TaggedTerm(1j, right=H)]


@dataclass
class Liouvillian:
    """Restricted generator: its factorized terms and their bordered LU.

    ``terms`` is the one stored form; construction sums them, in real
    coordinates (``Space.to_real``), into the float64 Fortran-ordered
    bordered buffer [[L, t^T], [t, 0]], which the first ``bordered_lu`` call
    factors in place.  ``energy_op`` is the Hamiltonian
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
        self._bordered = np.zeros((n + 1, n + 1), order="F")
        assemble(self.space, self.terms, self._bordered)
        self._bordered[:n, n] = self.space.trace_vec
        self._bordered[n, :n] = self.space.trace_vec

    def bath(self, *baths):
        return [t for t in self.terms if t.bath in baths]

    def bordered_lu(self):
        """Real LU of [[L, t^T], [t, 0]]; shared by steady state and pseudo-inverse."""
        if self._lu is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                self._lu = sla.lu_factor(self._bordered, overwrite_a=True, check_finite=False)
            self._bordered = None   # overwritten by the factors
        du = np.abs(np.diag(self._lu[0]))
        if du.min() <= len(du) * np.finfo(float).eps * du.max():
            raise NonUniqueSteadyState(
                "stationary space is degenerate (singular bordered system)")
        return self._lu


@dataclass
class SteadyState:
    """Normalized stationary density matrix with its solve certificate."""

    rho: np.ndarray
    residual: float
    min_population: float


def _bordered_solve(L: Liouvillian, Y: np.ndarray, trace: float) -> np.ndarray:
    """Hermitian X from [[L, t^T], [t, 0]] [X; s] = [H; trace], H the Hermitian
    part of Y: one real solve with the cached LU."""
    sp = L.space
    x = sla.lu_solve(L.bordered_lu(), np.append(sp.to_real(Y), trace), check_finite=False)[:-1]
    if not np.all(np.isfinite(x)):
        raise ConvergenceFailure("bordered solve returned non-finite entries")
    return sp.from_real(x)


def steady_state(L: Liouvillian) -> SteadyState:
    """Solve L(rho) = 0 with unit trace via the bordered system.

    Raises ``NonUniqueSteadyState`` when the stationary direction is
    degenerate and ``ConvergenceFailure`` when the solve returns non-finite
    entries, the residual certificate ``max|L(rho)|`` (L applied from its
    terms) exceeds ``RESIDUAL_TOL`` or populations go below -1e-3.
    """
    d = L.space.dim
    rho = _bordered_solve(L, np.zeros((d, d)), 1.0)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceFailure("steady-state trace vanished")
    rho /= tr
    residual = float(np.max(np.abs(apply_terms(L.terms, rho))))
    if residual > RESIDUAL_TOL:
        raise ConvergenceFailure(f"steady-state residual {residual:.3e} > tol {RESIDUAL_TOL:.1e}")
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
    return SteadyState(rho=rho, residual=residual, min_population=minpop)


def restricted_pseudo_inverse_apply(L: Liouvillian, ss: SteadyState, Y: np.ndarray) -> np.ndarray:
    """Apply R = Q L^{-1} Q to the Hermitian part of a d x d Y, read on the kept blocks.

    Q projects out the stationary direction: Q Y = Y - rho_ss tr Y.  The
    counting right-hand sides are Hermitian (each lead's jump terms come in
    adjoint pairs), and so is R Y.  The solve reuses the bordered LU, whose
    trace row pins tr(R Y) = 0: it is R's output projection.
    """
    return _bordered_solve(L, Y - ss.rho * np.trace(Y), 0.0)
