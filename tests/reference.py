"""Complex restricted coordinates for the tests: vec, devec, the dense generator
and the map to the package's real coordinates; the trace defect of a
generator and the augmented Hamiltonian H' in the product basis.

``vec`` column-stacks the kept blocks rho[S, S] of a d x d matrix in the
order of ``Space.index``, ``devec`` undoes it with zeros off the blocks, and
``dense`` is the complex n x n matrix of a term list in those coordinates,
every sector-pair block summed as one full kron(B, A^T) per term.
``hermitian_coordinates`` is the n x n T that takes ``vec`` of a Hermitian
matrix to its real coordinates, so the real generator the package
assembles is T dense T^-1.  The package itself never forms any of them: it
keeps rho as a d x d array and the generator in real coordinates.
"""
import numpy as np

from nanojunction.model import build_phonon_coupling_op, build_system_hamiltonian
from nanojunction.superop import TaggedTerm


def vec(space, rho: np.ndarray) -> np.ndarray:
    """Restrict and column-stack a d x d matrix."""
    return rho.reshape(-1)[space.index].astype(complex, copy=False)


def devec(space, x: np.ndarray) -> np.ndarray:
    """Inverse of ``vec``; unrestricted blocks are zero."""
    rho = np.zeros(space.dim * space.dim, dtype=complex)
    rho[space.index] = x
    return rho.reshape(space.dim, space.dim)


def dense(space, terms) -> np.ndarray:
    """Dense per-term assembly: every sector-pair block as one full kron(B, A^T)."""
    out = np.zeros((space.n, space.n), dtype=complex, order="F")
    LT = out.T
    eye = np.eye(space.dim, dtype=complex)
    for t in terms:
        A = eye if t.left is None else t.left
        B = eye if t.right is None else t.right
        for sa, offa in zip(space.sectors, space.offsets):
            ma = len(sa)
            for sc, offc in zip(space.sectors, space.offsets):
                mc = len(sc)
                Ablk = A[np.ix_(sa, sc)]
                Bblk = B[np.ix_(sc, sa)]
                if not (Ablk.any() and Bblk.any()):
                    continue
                blk = np.multiply(Bblk[:, None, :, None], Ablk.T[None, :, None, :], order="C")
                blk *= t.coef
                LT[offc : offc + mc * mc, offa : offa + ma * ma] += blk.reshape(mc * mc, ma * ma)
    return out


def hermitian_coordinates(space) -> np.ndarray:
    """T with y = T x on Hermitian x, entry by entry from ``Space.index``:
    y holds Re rho_rc at (r, c) for r <= c and Im rho_rc at (c, r) for r < c."""
    d, n = space.dim, space.n
    pos = {int(v): p for p, v in enumerate(space.index)}
    T = np.zeros((n, n), dtype=complex)
    for p, v in enumerate(space.index):
        r, c = divmod(int(v), d)
        q = pos[c * d + r]
        if r <= c:   # Re x_p = (x_p + x_q) / 2
            T[p, p] += 0.5
            T[p, q] += 0.5
        else:        # Im x_q = (x_q - x_p) / 2i
            T[p, q], T[p, p] = -0.5j, 0.5j
    return T


def trace_defect(L) -> float:
    """Infinity norm of the trace functional acting from the left, 1^dag L.

    tr(A rho B) = tr(B A rho), so tr L(rho) = tr(K rho) with K = sum coef B A,
    the terms with their factors swapped applied to the identity; the
    functional is K^T read on the kept blocks.
    """
    eye = np.eye(L.space.dim, dtype=complex)
    K = sum(TaggedTerm(t.coef, t.right, t.left).apply(eye) for t in L.terms)
    return float(np.max(np.abs(K.T.take(L.space.index))))


def augmented_hamiltonian(p, M: int) -> np.ndarray:
    """H' = (H_el + lam s^2) x 1 + kappa s x (a + a^dag) + Omega 1 x a^dag a
    on the product basis (electronic kron Fock), kappa = sqrt(lam omega0)."""
    Hel = build_system_hamiltonian(p)
    s = build_phonon_coupling_op(p)
    a = np.diag(np.sqrt(np.arange(1.0, M)), 1)
    return (np.kron(Hel + p.lam * (s @ s), np.eye(M))
            + np.sqrt(p.lam * p.omega0) * np.kron(s, a + a.T)
            + p.omega0 * np.kron(np.eye(len(Hel)), a.T @ a))
