"""Vectorization, blockwise assembly and the steady-state solve certificate."""
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import nanojunction
from nanojunction import superop
from nanojunction.model import regime_params
from nanojunction.rc import METHODS, assemble_rcme, build_generator
from nanojunction.superop import (
    ConvergenceFailure,
    Liouvillian,
    NonUniqueSteadyState,
    Space,
    TaggedTerm,
    apply_terms,
    assemble,
    coherent_terms,
    restricted_pseudo_inverse_apply,
    steady_state,
)


def _lindblad_terms(c):
    """D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c) / 2 in factorized form."""
    cdc = c.conj().T @ c
    return [TaggedTerm(1.0, left=c, right=c.conj().T),
            TaggedTerm(-0.5, left=cdc),
            TaggedTerm(-0.5, right=cdc)]


def _random_ergodic(rng, d):
    """Coherent part plus two random jump channels; unique steady state w.p. 1."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = A + A.conj().T
    terms = coherent_terms(H)
    for _ in range(2):
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        terms += _lindblad_terms(c)
    return Liouvillian(space=Space(np.zeros(d)), terms=terms, energy_op=H)


def test_vec_roundtrip_full_space():
    rng = np.random.default_rng(0)
    sp = Space(np.zeros(5))
    rho = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.allclose(sp.devec(sp.vec(rho)), rho)
    assert sp.n == 25


def test_vec_roundtrip_charge_sectors():
    sp = Space([0, 1, 1, 2])
    assert sp.n == 1 + 4 + 1
    rng = np.random.default_rng(1)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = sp.devec(sp.vec(rho))
    # same-charge blocks survive, the rest is projected away
    assert back[0, 0] == rho[0, 0]
    assert np.allclose(back[1:3, 1:3], rho[1:3, 1:3])
    assert back[0, 1] == 0.0 and back[3, 0] == 0.0
    assert sp.trace_vec @ sp.vec(rho) == pytest.approx(np.trace(rho))


def _kron_reference(space, terms):
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


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_term_block_matches_sandwich():
    rng = np.random.default_rng(2)
    sp = Space(np.zeros(4))
    for left, right in [(True, True), (True, False), (False, True)] * 20:
        A = _random_matrix(rng, 4) if left else None
        B = _random_matrix(rng, 4) if right else None
        rho = _random_matrix(rng, 4)
        t = TaggedTerm(0.7 - 0.2j, left=A, right=B)
        assert np.allclose(sp.devec(assemble(sp, [t]) @ sp.vec(rho)), t.apply(rho))


def test_assembly_matches_full_kron_blocks(monkeypatch):
    """Stacked per-pair contractions, on sectors not contiguous in the basis,
    give the dense per-term kron blocks up to the order of summation: terms
    that do not reach a sector pair (block-sparse or zero factors) are
    skipped, and one-sided terms reach only the diagonal pairs."""
    rng = np.random.default_rng(9)
    sp = Space([0, 1, 1, 2, 1, 0])
    lower = np.zeros((6, 6), dtype=complex)   # lowers the charge by one
    lower[0, 1] = 1.3
    lower[5, 2] = -0.4
    lower[1, 3] = 0.9j
    lower[4, 3] = 0.2
    lower[0, 4] = 0.7
    terms = [TaggedTerm(0.3 - 0.1j),
             TaggedTerm(-0.7j, left=_random_matrix(rng, 6)),
             TaggedTerm(1.1, right=_random_matrix(rng, 6)),
             TaggedTerm(0.4 + 0.9j, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
             TaggedTerm(-2.0, left=_random_matrix(rng, 6)),
             TaggedTerm(1.0, left=lower, right=lower.conj().T),
             TaggedTerm(1.0, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
             TaggedTerm(0.5j, right=_random_matrix(rng, 6)),
             TaggedTerm(0.8, left=np.zeros((6, 6), dtype=complex),
                        right=_random_matrix(rng, 6)),
             TaggedTerm(-1.0, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
             TaggedTerm(-0.35, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6))]
    ref = _kron_reference(sp, terms)
    L = assemble_rcme(regime_params(1, lam=1000.0), 6)
    L_ref = _kron_reference(L.space, L.terms)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    # besides the default, tiny chunks: one l-slab each, and several whole
    # slabs with a partial last one
    for chunk_bytes in (superop._CHUNK_BYTES, 48, 96, 288):
        monkeypatch.setattr(superop, "_CHUNK_BYTES", chunk_bytes)
        assert close(assemble(sp, terms), ref)
        # the rest of the terms is added into a partial sum
        out = assemble(sp, terms[:4])
        assert assemble(sp, terms[4:], out) is out
        assert close(out, ref)
        assert close(assemble(L.space, L.terms), L_ref)


def test_sector_assembly_matches_full_space():
    """Restricting to charge blocks must not change the action on them."""
    rng = np.random.default_rng(3)
    numbers = [0, 1, 1, 2]
    sp = Space(numbers)
    full = Space(np.zeros(4))
    lower = np.zeros((4, 4), dtype=complex)   # lowers the charge by one
    lower[0, 1] = 1.3
    lower[0, 2] = -0.4
    lower[1, 3] = 0.9j
    lower[2, 3] = 0.2
    terms = [TaggedTerm(1.0, left=lower, right=lower.conj().T),
             TaggedTerm(-0.5, left=lower.conj().T @ lower),
             TaggedTerm(-0.5, right=lower.conj().T @ lower)]
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = sp.devec(sp.vec(rho))  # keep only the allowed blocks
    y_full = full.devec(assemble(full, terms) @ full.vec(rho))
    y_restr = sp.devec(assemble(sp, terms) @ sp.vec(rho))
    assert np.allclose(y_restr, y_full, atol=1e-13)


def _hermitian_coordinates(space):
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


def test_real_coordinates_of_hermitian_matrices():
    rng = np.random.default_rng(10)
    sp = Space([0, 1, 1, 2, 1, 0])
    T = _hermitian_coordinates(sp)
    for _ in range(5):
        X = _random_matrix(rng, 6)
        x = sp.vec(X + X.conj().T)
        y = sp.to_real(x)
        assert np.allclose(T @ x, y, rtol=0, atol=1e-15)
        assert np.array_equal(sp.from_real(y), x)
        assert sp.trace_vec @ y == pytest.approx((sp.trace_vec @ x).real, abs=1e-14)
    y = rng.normal(size=sp.n)
    assert np.allclose(sp.from_real(y), np.linalg.solve(T, y), rtol=0, atol=1e-14)
    # any matrix is H + iK, both Hermitian, through the same two maps
    x = sp.vec(_random_matrix(rng, 6))
    H, K = sp.devec(sp.from_real(sp.to_real(x))), sp.devec(sp.from_real(sp.to_real(-1j * x)))
    assert np.array_equal(H, H.conj().T) and np.array_equal(K, K.conj().T)
    assert np.allclose(sp.vec(H + 1j * K), x, rtol=0, atol=1e-15)


@pytest.mark.parametrize("U", [np.inf, 0.8])
@pytest.mark.parametrize("method", METHODS)
def test_real_bordered_block_is_the_generator_in_hermitian_coordinates(method, U):
    """The float64 buffer holds T L T^-1 (real, since L keeps rho Hermitian)
    bordered by the unchanged trace row and column; U = 0.8 has four states."""
    L = build_generator(regime_params(1, lam=30.0, U=U), method, 4)
    n = L.space.n
    T = _hermitian_coordinates(L.space)
    dense = assemble(L.space, L.terms)
    expected = T @ dense @ np.linalg.inv(T)
    scale = np.max(np.abs(dense))
    assert L._bordered.dtype == np.float64 and L._bordered.flags.f_contiguous
    assert np.max(np.abs(expected.imag)) <= 1e-13 * scale
    assert np.max(np.abs(L._bordered[:n, :n] - expected.real)) <= 1e-13 * scale
    assert np.array_equal(L._bordered[:n, n], L.space.trace_vec)
    assert np.array_equal(L._bordered[n, :n], L.space.trace_vec)
    assert L._bordered[n, n] == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_terms_that_break_hermiticity_fail_the_residual_certificate(seed):
    """The real solve returns a Hermitian rho whatever the terms; the residual,
    applied from the complex terms, is what refuses a generator that does
    not keep rho Hermitian."""
    rng = np.random.default_rng(20 + seed)
    L = _random_ergodic(rng, 4)
    X = _random_matrix(rng, 4)
    broken = Liouvillian(space=L.space, terms=L.terms + [TaggedTerm(0.3j, left=X + X.conj().T)])
    with pytest.raises(ConvergenceFailure, match="residual"):
        steady_state(broken)


def test_classical_two_state_rates():
    up = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    terms = _lindblad_terms(np.sqrt(1.0) * up)            # 0 -> 1 at rate 1
    terms += _lindblad_terms(np.sqrt(3.0) * up.conj().T)  # 1 -> 0 at rate 3
    L = Liouvillian(space=Space(np.zeros(2)), terms=terms)
    ss = steady_state(L)
    assert np.allclose(np.diag(ss.rho).real, [0.75, 0.25], atol=1e-13)


def test_steady_state_certificate_fields():
    rng = np.random.default_rng(4)
    L = _random_ergodic(rng, 4)
    ss = steady_state(L, tol=1e-9)
    assert ss.residual < 1e-9
    assert np.trace(ss.rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(ss.rho - ss.rho.conj().T)) == 0.0
    assert ss.min_population > -1e-10
    assert np.min(np.linalg.eigvalsh(ss.rho)) > -1e-10


def test_hamiltonian_only_is_degenerate():
    L = Liouvillian(space=Space(np.zeros(2)),
                    terms=coherent_terms(np.diag([0.0, 1.0]).astype(complex)))
    with pytest.raises(NonUniqueSteadyState):
        steady_state(L)
    with pytest.raises(NonUniqueSteadyState):   # again, with the LU already made
        steady_state(L)


def test_disconnected_blocks_are_degenerate():
    """Two independent ergodic components leave the stationary direction ambiguous."""
    up = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    blocks = []
    for rate in (1.0, 2.0):
        c = np.zeros((4, 4), dtype=complex)
        terms = []
        off = 0 if rate == 1.0 else 2
        cc = c.copy()
        cc[off, off + 1] = np.sqrt(rate)
        terms += _lindblad_terms(cc)
        cc = c.copy()
        cc[off + 1, off] = 1.0
        terms += _lindblad_terms(cc)
        blocks += terms
    L = Liouvillian(space=Space(np.zeros(4)), terms=blocks)
    with pytest.raises(NonUniqueSteadyState):
        steady_state(L)


def test_pseudo_inverse_contract():
    rng = np.random.default_rng(5)
    L = _random_ergodic(rng, 4)
    ss = steady_state(L)
    t = L.space.trace_vec
    dense = assemble(L.space, L.terms)
    for _ in range(10):
        y = rng.normal(size=L.space.n) + 1j * rng.normal(size=L.space.n)
        r = restricted_pseudo_inverse_apply(L, ss, y)
        qy = y - ss.vec * (t @ y)
        assert np.max(np.abs(dense @ r - qy)) < 1e-9
        assert abs(t @ r) < 1e-11
    # the stationary direction itself maps to (numerically) nothing
    r0 = restricted_pseudo_inverse_apply(L, ss, ss.vec.copy())
    assert np.max(np.abs(r0)) < 1e-10


def test_generator_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(6)
    L = _random_ergodic(rng, 3)
    assert L.trace_defect() < 1e-12
    sp = L.space
    dense = assemble(sp, L.terms)
    for _ in range(10):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = x + x.conj().T
        out = sp.devec(dense @ sp.vec(rho))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert abs(np.trace(out)) < 1e-12


def test_apply_terms_matches_matrix():
    rng = np.random.default_rng(7)
    L = _random_ergodic(rng, 4)
    x = rng.normal(size=L.space.n) + 1j * rng.normal(size=L.space.n)
    assert np.allclose(apply_terms(L.terms, L.space, x), assemble(L.space, L.terms) @ x)


def test_tagged_term_rejects_unknown_tag():
    with pytest.raises(ValueError):
        TaggedTerm(1.0, jump=2)


def test_residual_tolerance_enforced():
    rng = np.random.default_rng(8)
    L = _random_ergodic(rng, 3)
    with pytest.raises(ConvergenceFailure):
        steady_state(L, tol=1e-30)


# Both pools' thread counts, read through the extension modules that link them
# (the getters of the OpenBLAS builds bundled in the NumPy and SciPy wheels).
_READ_POOLS = """
import ctypes, json
import numpy.linalg._umath_linalg as np_ext, scipy.linalg._flapack as sp_ext
{setup}
print(json.dumps([ctypes.CDLL(np_ext.__file__).scipy_openblas_get_num_threads64_(),
                  ctypes.CDLL(sp_ext.__file__).scipy_openblas_get_num_threads()]))
"""


def _pool_threads(setup: str) -> list:
    """[NumPy's, SciPy's] OpenBLAS threads in a fresh process started with 2."""
    np_lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    sp_lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    if not (hasattr(np_lib, "scipy_openblas_get_num_threads64_")
            and hasattr(sp_lib, "scipy_openblas_get_num_threads")):
        pytest.skip("NumPy and SciPy do not bundle their own OpenBLAS builds")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a 2-thread pool needs 2 cores")
    src = str(Path(nanojunction.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _READ_POOLS.format(setup=setup)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def test_import_gives_numpy_blas_one_thread_and_keeps_scipy_pool():
    assert _pool_threads("import nanojunction") == [1, 2]


def test_shared_openblas_keeps_its_threads():
    # one library passed for both sides stands for a shared system OpenBLAS
    setup = ("from nanojunction.superop import _pin_numpy_blas\n"
             "_pin_numpy_blas(sp_ext.__file__, sp_ext.__file__)")
    assert _pool_threads(setup)[1] == 2
