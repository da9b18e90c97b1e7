"""Real coordinates, blockwise assembly and the steady-state solve certificate."""
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
from reference import dense, devec, hermitian_coordinates, trace_defect, vec


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


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_hermitian(rng, d):
    X = _random_matrix(rng, d)
    return X + X.conj().T


def test_real_coordinates_roundtrip_full_space():
    rng = np.random.default_rng(0)
    sp = Space(np.zeros(5))
    assert sp.n == 25
    H = _random_hermitian(rng, 5)
    assert np.array_equal(sp.from_real(sp.to_real(H)), H)


def test_real_coordinates_roundtrip_charge_sectors():
    sp = Space([0, 1, 1, 2])
    assert sp.n == 1 + 4 + 1
    rng = np.random.default_rng(1)
    H = _random_hermitian(rng, 4)
    back = sp.from_real(sp.to_real(H))
    # same-charge blocks survive bit for bit, the rest is projected away
    assert back[0, 0] == H[0, 0] and back[3, 3] == H[3, 3]
    assert np.array_equal(back[1:3, 1:3], H[1:3, 1:3])
    assert not back[0, 1:].any() and not back[3, :3].any() and not back[1:3, [0, 3]].any()
    assert np.array_equal(sp.from_real(sp.to_real(back)), back)
    assert sp.trace_vec @ sp.to_real(H) == pytest.approx(np.trace(H).real, abs=1e-14)


def _with_adjoints(terms):
    """Each term followed by its adjoint, rho -> conj(c) B^dag rho A^dag."""
    def dag(X):
        return None if X is None else X.conj().T
    return [u for t in terms
            for u in (t, TaggedTerm(np.conj(t.coef), left=dag(t.right), right=dag(t.left)))]


def _real_generator(space, terms):
    """The n x n float64 block that ``assemble`` fills."""
    return assemble(space, terms, np.zeros((space.n, space.n), order="F"))


def test_term_block_matches_sandwich():
    """A term paired with its adjoint (conj(c), B^dag, A^dag) keeps rho Hermitian;
    the real buffer applied to y is to_real of the pair's sandwich of from_real(y)."""
    rng = np.random.default_rng(2)
    sp = Space(np.zeros(4))
    for left, right in [(True, True), (True, False), (False, True)] * 20:
        A = _random_matrix(rng, 4) if left else None
        B = _random_matrix(rng, 4) if right else None
        pair = _with_adjoints([TaggedTerm(0.7 - 0.2j, left=A, right=B)])
        y = rng.normal(size=sp.n)
        X = sp.from_real(y)
        expected = sp.to_real(sum(t.apply(X) for t in pair))
        assert np.allclose(_real_generator(sp, pair) @ y, expected, rtol=0, atol=1e-13)


def test_assembly_matches_full_kron_blocks(monkeypatch):
    """Tiles L(E_kl), k <= l, each giving a pair of real columns, on sectors
    not contiguous in the basis, give T dense T^-1 of the per-term kron
    blocks up to the order of summation: terms that do not reach a sector
    pair (block-sparse or zero factors) are skipped, and one-sided terms
    reach only the diagonal pairs."""
    rng = np.random.default_rng(9)
    sp = Space([0, 1, 1, 2, 1, 0])
    lower = np.zeros((6, 6), dtype=complex)   # lowers the charge by one
    lower[0, 1] = 1.3
    lower[5, 2] = -0.4
    lower[1, 3] = 0.9j
    lower[4, 3] = 0.2
    lower[0, 4] = 0.7
    terms = _with_adjoints([
        TaggedTerm(0.3 - 0.1j),
        TaggedTerm(-0.7j, left=_random_matrix(rng, 6)),
        TaggedTerm(1.1, right=_random_matrix(rng, 6)),
        TaggedTerm(0.4 + 0.9j, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
        TaggedTerm(-2.0, left=_random_matrix(rng, 6)),
        TaggedTerm(1.0, left=lower, right=lower.conj().T),
        TaggedTerm(1.0, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
        TaggedTerm(0.5j, right=_random_matrix(rng, 6)),
        TaggedTerm(0.8, left=np.zeros((6, 6), dtype=complex), right=_random_matrix(rng, 6)),
        TaggedTerm(-1.0, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6)),
        TaggedTerm(-0.35, left=_random_matrix(rng, 6), right=_random_matrix(rng, 6))])
    L = assemble_rcme(regime_params(1, lam=1000.0), 6)

    def expected(space, terms):
        T = hermitian_coordinates(space)
        full = T @ dense(space, terms) @ np.linalg.inv(T)
        assert np.max(np.abs(full.imag)) <= 1e-13 * np.max(np.abs(full))
        return full.real

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    ref, L_ref = expected(sp, terms), expected(L.space, L.terms)
    # a tile of an m-index output sector counts 32 m^2 bytes.  Besides the
    # default (one band per pair), on both spaces: one tile per chunk (32);
    # rows split inside, into pieces of two with a partial last one (576);
    # bands of two rows with a partial last one (256 on the toy space's
    # 3-index sector, 8192 on RCME's) and whole bands of three (8192)
    for chunk_bytes in (superop._CHUNK_BYTES, 32, 256, 576, 8192):
        monkeypatch.setattr(superop, "_CHUNK_BYTES", chunk_bytes)
        assert close(_real_generator(sp, terms), ref)
        # the rest of the terms is added into a partial sum
        out = _real_generator(sp, terms[:7])
        assert assemble(sp, terms[7:], out) is out
        assert close(out, ref)
        assert close(_real_generator(L.space, L.terms), L_ref)


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
    rho = sp.from_real(sp.to_real(_random_hermitian(rng, 4)))  # only the allowed blocks
    y_full = full.from_real(_real_generator(full, terms) @ full.to_real(rho))
    y_restr = sp.from_real(_real_generator(sp, terms) @ sp.to_real(rho))
    assert np.allclose(y_restr, y_full, atol=1e-13)


def test_real_coordinates_of_hermitian_matrices():
    rng = np.random.default_rng(10)
    sp = Space([0, 1, 1, 2, 1, 0])
    T = hermitian_coordinates(sp)
    for _ in range(5):
        H = _random_hermitian(rng, 6)
        y = sp.to_real(H)
        assert np.allclose(T @ vec(sp, H), y, rtol=0, atol=1e-15)
        assert np.array_equal(sp.from_real(y), devec(sp, vec(sp, H)))
    y = rng.normal(size=sp.n)
    assert np.allclose(vec(sp, sp.from_real(y)), np.linalg.solve(T, y), rtol=0, atol=1e-14)
    # any matrix is H + iK, both Hermitian, through the same two maps
    X = _random_matrix(rng, 6)
    H, K = sp.from_real(sp.to_real(X)), sp.from_real(sp.to_real(-1j * X))
    assert np.array_equal(H, H.conj().T) and np.array_equal(K, K.conj().T)
    assert np.allclose(H + 1j * K, devec(sp, vec(sp, X)), rtol=0, atol=1e-15)


@pytest.mark.parametrize("U", [np.inf, 0.8])
@pytest.mark.parametrize("method", METHODS)
def test_real_bordered_block_is_the_generator_in_hermitian_coordinates(method, U):
    """The float64 buffer holds T L T^-1 (real, since L keeps rho Hermitian)
    bordered by the unchanged trace row and column; U = 0.8 has four states."""
    L = build_generator(regime_params(1, lam=30.0, U=U), method, 4)
    n = L.space.n
    T = hermitian_coordinates(L.space)
    gen = dense(L.space, L.terms)
    expected = T @ gen @ np.linalg.inv(T)
    scale = np.max(np.abs(gen))
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
    ss = steady_state(L)
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
    """R = Q L^-1 Q on Hermitian Y, the kind the counting statistics pass."""
    rng = np.random.default_rng(5)
    L = _random_ergodic(rng, 4)
    ss = steady_state(L)
    gen = dense(L.space, L.terms)
    for _ in range(10):
        Y = _random_hermitian(rng, 4)
        R = restricted_pseudo_inverse_apply(L, ss, Y)
        QY = Y - ss.rho * np.trace(Y)
        assert np.max(np.abs(gen @ vec(L.space, R) - vec(L.space, QY))) < 1e-9
        assert abs(np.trace(R)) < 1e-11
        assert np.array_equal(R, R.conj().T)
    # the stationary direction itself maps to (numerically) nothing
    R0 = restricted_pseudo_inverse_apply(L, ss, ss.rho.copy())
    assert np.max(np.abs(R0)) < 1e-10


def test_generator_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(6)
    L = _random_ergodic(rng, 3)
    assert trace_defect(L) < 1e-12
    for _ in range(10):
        out = apply_terms(L.terms, _random_hermitian(rng, 3))
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert abs(np.trace(out)) < 1e-12


def test_apply_terms_matches_matrix():
    rng = np.random.default_rng(7)
    L = _random_ergodic(rng, 4)
    X = _random_matrix(rng, 4)
    assert np.allclose(vec(L.space, apply_terms(L.terms, X)), dense(L.space, L.terms) @ vec(L.space, X))


def test_tagged_term_rejects_unknown_tag():
    with pytest.raises(ValueError):
        TaggedTerm(1.0, jump=2)


def test_residual_tolerance_enforced(monkeypatch):
    rng = np.random.default_rng(8)
    L = _random_ergodic(rng, 3)
    monkeypatch.setattr(superop, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(ConvergenceFailure):
        steady_state(L)


def test_non_finite_solve_is_a_convergence_failure():
    """A NaN coefficient passes the pivot test: the blown-up solve is a
    failure, not a degenerate stationary space."""
    down = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    terms = _lindblad_terms(down) + _lindblad_terms(down.T)
    terms[0].coef = np.nan
    L = Liouvillian(space=Space(np.zeros(2)), terms=terms)
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        steady_state(L)


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
