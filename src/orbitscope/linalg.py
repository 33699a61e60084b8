"""Dense small-matrix primitives for commuting generator sets.

Everything here operates on n x n real matrices with n <= 6: matrix
exponential, tolerance-aware rank, commutativity checks, and the joint
root / generalized-eigenspace decomposition that the orbit and
classification machinery is built on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditioned,
    MatrixOverflow,
    NonCommuting,
)

DEFAULT_TOL = 1e-9
MAX_DIM = 6

# Coefficients of the generic combination that seeds the joint roots (a
# d-generator family uses _ROOT_DRAWS[:d]): the first MAX_DIM values of
# np.random.default_rng(_ROOT_SEED).standard_normal, written out so that a
# decomposition does not import numpy.random.
_ROOT_SEED = 20260808
_ROOT_DRAWS = np.array([
    -1.1305643663071248, -1.315808323692046, -0.021805977949173817,
    1.8955906623007115, -0.37928320322115355, -2.719279033999097,
])


def seeded_draws(seed: int, count: int, uniforms: int,
                 normals: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, Z) from one random.Random(seed) stream: U is (count, uniforms),
    uniform on [0, 1), and Z is (count, normals), standard normal.

    Only Random.random() is called, whose sequence for an integer seed
    Python keeps across versions, and numpy has loaded the random module
    already, so sampled checks do not import numpy.random.  U takes the
    first draws; Z maps the next pairs (u1, u2) by Box-Muller to
    sqrt(-2 ln(1 - u1)) (cos 2 pi u2, sin 2 pi u2).  random.Random would give
    -seed the stream of seed, so a negative seed raises ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    pairs = -(-count * normals // 2)
    draw = random.Random(seed).random
    u = np.array([draw() for _ in range(count * uniforms + 2 * pairs)])
    u1, u2 = u[count * uniforms:].reshape(pairs, 2).T
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.column_stack([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return (u[:count * uniforms].reshape(count, uniforms),
            z.ravel()[:count * normals].reshape(count, normals))


def as_matrix(M, n: int | None = None) -> np.ndarray:
    """Validate and return a finite square float matrix."""
    A = np.array(M, dtype=float)
    if A.ndim == 1:
        k = int(round(np.sqrt(A.size)))
        if k * k != A.size:
            raise ValueError(f"flat matrix of length {A.size} is not square")
        A = A.reshape(k, k)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise ValueError(f"expected a {n}x{n} matrix, got {A.shape[0]}x{A.shape[0]}")
    if not (1 <= A.shape[0] <= MAX_DIM):
        raise ValueError(f"dimension {A.shape[0]} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


# largest ||M||_F mat_exp accepts; entries of exp(M) can reach e^350, about 1e152
_EXP_NORM_BOUND = 350.0


def mat_exp(M) -> np.ndarray:
    """exp(M) by scaling-and-squaring with a truncated series.

    Matrices are at most 6x6 so accuracy dominates speed.  Raises
    MatrixOverflow when ||M||_F exceeds _EXP_NORM_BOUND instead of silently
    saturating.
    """
    A = as_matrix(M)
    nrm = np.linalg.norm(A)
    if not np.isfinite(nrm) or nrm > _EXP_NORM_BOUND:
        raise MatrixOverflow(f"||M|| = {nrm:.3g} exceeds bound {_EXP_NORM_BOUND:.3g}")
    squarings = max(0, int(np.ceil(np.log2(nrm))) + 1) if nrm > 0.5 else 0
    B = A / (2.0 ** squarings)
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 40):
        term = term @ B / k
        E = E + term
        if np.linalg.norm(term) < 1e-18 * max(1.0, np.linalg.norm(E)):
            break
    for _ in range(squarings):
        E = E @ E
    return E


def _pow2_exponent(mats) -> int:
    """The frexp exponent of the largest entry of mats."""
    return int(np.frexp(max(float(np.max(np.abs(M))) for M in mats))[1])


def pow2_scaled(mats) -> list[np.ndarray]:
    """mats divided by 2^e, e the frexp exponent of their largest entry: they
    span the same group, the division is exact and the largest entry lands in
    [1/2, 1), so no norm overflows and no threshold sees the scale."""
    e = _pow2_exponent(mats)
    return [np.ldexp(M, -e) for M in mats]


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def check_commuting(generators, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all pairwise commutators vanish relative to the generator scales.

    Returns (ok, worst) with worst = max ||[X_i, X_j]|| over i < j, in the
    generators' units (inf past the float range).  The test runs on the
    pow2_scaled copies, so no norm product overflows or underflows.
    """
    mats = [as_matrix(G) for G in generators]
    if len({A.shape[0] for A in mats}) > 1:
        raise ValueError("generators must share one dimension")
    scaled = pow2_scaled(mats)
    worst = 0.0
    ok = True
    for i in range(len(scaled)):
        for j in range(i + 1, len(scaled)):
            c = np.linalg.norm(commutator(scaled[i], scaled[j]))
            worst = max(worst, c)
            scale = max(np.linalg.norm(scaled[i]) * np.linalg.norm(scaled[j]), 1e-300)
            if c > tol * scale:
                ok = False
    with np.errstate(over="ignore"):  # a commutator past the float range reads inf
        return ok, float(np.ldexp(worst, 2 * _pow2_exponent(mats)))


def rank_tol(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol * (largest singular value)."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def null_space(M, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space.

    With `scale` given, singular values are compared against tol * scale
    (absolute cut); needed when M is a power of a normalized matrix and can
    be uniformly tiny.
    """
    A = np.atleast_2d(np.asarray(M))
    u, s, vh = np.linalg.svd(A)
    ref = scale if scale is not None else (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol * ref)) if ref > 0 else 0
    return vh[r:].conj().T


def orth_columns(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space."""
    A = np.atleast_2d(np.asarray(M))
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    top = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * top)) if top > 0 else 0
    return u[:, :r]


@dataclass(frozen=True)
class DilationAlgebra:
    """Generator set of the abelian dilation algebra; single source of truth for H.

    `generators` is the basis of the algebra (d commuting n x n matrices).
    Validated on construction: shared dimension, commutativity to `tol`,
    linear independence.
    """

    generators: tuple
    n: int
    tol: float = DEFAULT_TOL

    def __init__(self, generators, n: int | None = None, tol: float = DEFAULT_TOL):
        mats = [as_matrix(G, n) for G in generators]
        if not mats:
            raise ValueError("at least one generator required")
        dim = mats[0].shape[0]
        for A in mats:
            if A.shape[0] != dim:
                raise ValueError("generators must share one dimension")
        if len(mats) > dim:
            raise ValueError(f"d = {len(mats)} exceeds n = {dim}")
        ok, worst = check_commuting(mats, tol)
        if not ok:
            raise NonCommuting(f"worst commutator norm {worst:.3g} exceeds tolerance")
        stacked = np.stack([A.ravel() for A in mats])
        if rank_tol(stacked, tol) != len(mats):
            raise ValueError("generators are linearly dependent")
        frozen = []
        for A in mats:
            A = A.copy()
            A.flags.writeable = False
            frozen.append(A)
        object.__setattr__(self, "generators", tuple(frozen))
        object.__setattr__(self, "n", dim)
        object.__setattr__(self, "tol", float(tol))

    @property
    def d(self) -> int:
        return len(self.generators)

    def element(self, params) -> np.ndarray:
        """The algebra element sum_j t_j X_j."""
        t = np.asarray(params, dtype=float)
        if t.shape != (self.d,):
            raise ValueError(f"expected {self.d} parameters, got shape {t.shape}")
        return np.einsum("j,jkl->kl", t, np.stack(self.generators))

    def scale(self) -> float:
        return max(np.linalg.norm(G) for G in self.generators)

    def conjugated(self, P) -> "DilationAlgebra":
        P = as_matrix(P, self.n)
        Pinv = np.linalg.inv(P)
        return DilationAlgebra([Pinv @ G @ P for G in self.generators], tol=self.tol)


@dataclass(frozen=True)
class RootDecomposition:
    """Joint roots of the algebra with merged real blocks.

    roots[k] is the complex vector of values of the k-th root on the
    generators; blocks[k] is a real orthonormal basis (columns) of the merged
    generalized eigenspace V_k (conjugate pairs merged, dimension 2m).
    """

    roots: tuple
    blocks: tuple
    nilpotent_basis: tuple
    p: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", len(self.roots))

    def is_real(self, k: int) -> bool:
        return bool(np.max(np.abs(np.imag(self.roots[k]))) < 1e-12 * _root_scale(self.roots))

    def all_real(self) -> bool:
        return all(self.is_real(k) for k in range(self.p))

    def zero_root_index(self, scale: float, tol: float) -> int | None:
        for k, lam in enumerate(self.roots):
            if np.max(np.abs(lam)) <= tol * max(scale, 1.0):
                return k
        return None


def _root_scale(roots) -> float:
    m = max((float(np.max(np.abs(lam))) for lam in roots), default=0.0)
    return max(m, 1.0)


def kernel_filtration(M) -> list[np.ndarray]:
    """Orthonormal bases (columns) of ker M, ker M^2, ... until the kernel stops
    growing (one empty basis when M is invertible).

    K_{j+1} = {v : Mv in K_j} = ker (I - P_{K_j}) M: each step is one null
    space of M / ||M|| cut at 1e-8, conditioned like M, not like M^j."""
    n = M.shape[0]
    M = M / np.linalg.norm(M)
    kernels = [null_space(M, 1e-8, scale=1.0)]
    for _ in range(n - 1):
        K = kernels[-1]
        if K.shape[1] in (0, n):
            break
        K_new = null_space(M - K @ (K.conj().T @ M), 1e-8, scale=1.0)
        if K_new.shape[1] == K.shape[1]:
            break
        kernels.append(K_new)
    return kernels


def _generalized_eigenspace(A: np.ndarray, mu: complex, n: int) -> np.ndarray:
    """Stabilized kernel of A - mu: the whole space when A - mu is below
    rounding of A (A - mu / ||A - mu|| would be noise of unit norm)."""
    M = A.astype(complex) - mu * np.eye(n)
    if np.linalg.norm(M) <= 1e-9 * np.linalg.norm(A):
        return np.eye(n, dtype=complex)
    return kernel_filtration(M)[-1]


def roots_decompose(alg: DilationAlgebra) -> RootDecomposition:
    """All joint roots and generalized eigenspaces of the commuting family.

    A Jordan block of size m splits an eigenvalue by about (eps ||A||)^(1/m),
    so no fixed radius clusters the eigenvalues of the generic combination
    _ROOT_DRAWS[:d].  Their single-linkage groupings are tried from coarsest
    to finest, never splitting values within rounding (1e-12 max|lambda|);
    the first is accepted whose every cluster's generalized eigenspace has
    its multiplicity, is invariant under every generator and holds one joint
    root, with pairwise distinct roots.  Otherwise IllConditioned, as for two
    roots whose difference is orthogonal to the combination.
    """
    n, d = alg.n, alg.d
    scale = alg.scale()
    tol = alg.tol
    Agen = alg.element(_ROOT_DRAWS[:d])
    eigs = np.sort_complex(np.linalg.eigvals(Agen))  # by real, then imaginary part
    gaps = np.abs(eigs[:, None] - eigs[None, :])
    gaps = np.maximum(gaps, 1e-12 * max(np.max(np.abs(eigs)), 1.0))
    tried, err = [], None
    for cut in sorted(set(gaps.ravel().tolist()), reverse=True):
        label = np.arange(n)  # components of gaps <= cut, labelled by first index
        for _ in range(n):
            label = np.where(gaps <= cut, label, n).min(axis=1)
        if label.tolist() in tried:
            continue
        tried.append(label.tolist())
        try:
            raw = []
            for first in sorted(set(label.tolist())):
                cl = np.flatnonzero(label == first)
                mu = complex(np.mean(eigs[cl]))
                B = _generalized_eigenspace(Agen, mu, n)
                if B.shape[1] != len(cl):
                    raise IllConditioned(
                        f"eigenspace dimension {B.shape[1]} != multiplicity {len(cl)}"
                    )
                lam = np.empty(d, dtype=complex)
                for j, X in enumerate(alg.generators):
                    lam[j] = np.trace(B.conj().T @ X.astype(complex) @ B) / B.shape[1]
                    # invariance of the eigenspace under every generator
                    resid = np.linalg.norm(X @ B - B @ (B.conj().T @ X @ B))
                    if resid > 1e-6 * max(scale, 1.0):
                        raise IllConditioned("eigenspace not invariant; clusters merged badly")
                    nil = B @ np.linalg.matrix_power(
                        B.conj().T @ X.astype(complex) @ B - lam[j] * np.eye(B.shape[1]), n
                    )
                    if np.linalg.norm(nil) > 1e-6 * max(scale, 1.0) ** n:
                        raise IllConditioned("cluster contains two distinct joint roots")
                raw.append((lam, B))
            for a in range(len(raw)):
                for b in range(a + 1, len(raw)):
                    if np.max(np.abs(raw[a][0] - raw[b][0])) <= tol * max(scale, 1.0):
                        raise IllConditioned("two distinct roots closer than tolerance")
            return _merge_conjugates(raw, alg)
        except IllConditioned as exc:  # try the next finer grouping
            err = exc
    raise IllConditioned(f"no grouping of the generic combination's eigenvalues passes: {err}")


def _merge_conjugates(raw, alg: DilationAlgebra) -> RootDecomposition:
    imag_tol = 1e-8 * max(alg.scale(), 1.0)
    roots, blocks = [], []
    for lam, B in raw:
        # a complex root is kept once: as the member with positive imaginary
        # part on the first generator where it is non-real (a missing partner
        # leaves the block dimensions short of n)
        nonreal = np.abs(lam.imag) > imag_tol
        if nonreal.any() and lam.imag[np.argmax(nonreal)] < 0:
            continue
        roots.append(lam if nonreal.any() else lam.real.astype(complex))
        blocks.append(orth_columns(np.hstack([B.real, B.imag]), tol=1e-8))
    order = np.lexsort(
        (
            [np.round(r.imag[0], 9) for r in roots],
            [np.round(r.real[0], 9) for r in roots],
            [-b.shape[1] for b in blocks],
        )
    )
    roots = [roots[k] for k in order]
    blocks = [blocks[k] for k in order]
    if sum(b.shape[1] for b in blocks) != alg.n:
        raise IllConditioned("merged block dimensions do not sum to n")
    return RootDecomposition(
        roots=tuple(r.copy() for r in roots),
        blocks=tuple(b.copy() for b in blocks),
        nilpotent_basis=tuple(_nilpotent_basis(roots, alg)),
    )


def _nilpotent_basis(roots, alg: DilationAlgebra) -> list[np.ndarray]:
    rows = []
    for lam in roots:
        rows.append(lam.real)
        if np.max(np.abs(lam.imag)) > 0:
            rows.append(lam.imag)
    A = np.array(rows)
    coeffs = null_space(A, tol=1e-9)
    basis = []
    for k in range(coeffs.shape[1]):
        c = coeffs[:, k].real
        lead = np.argmax(np.abs(c))
        if c[lead] < 0:
            c = -c
        basis.append(alg.element(c))
    return basis


def blocks_semisimple(alg: DilationAlgebra, rd: RootDecomposition) -> bool:
    """Whether every generator acts as a scalar (real) or rotation-scaling
    (complex pair) on each merged root block, i.e. no nilpotent block action."""
    for k, (lam, V) in enumerate(zip(rd.roots, rd.blocks)):
        real = rd.is_real(k)
        m = V.shape[1]
        for j, G in enumerate(alg.generators):
            M = V.T @ G @ V
            a, b = lam[j].real, lam[j].imag
            if real:
                R = M - a * np.eye(m)
            else:
                # (M - (a+ib))(M - (a-ib)) = 0 iff the complex eigenspace is honest
                S = M - a * np.eye(m)
                R = S @ S + b * b * np.eye(m)
            scale = max(np.linalg.norm(G), 1.0)
            if np.linalg.norm(R) > 1e-7 * (scale if real else scale ** 2 + 1.0):
                return False
    return True
