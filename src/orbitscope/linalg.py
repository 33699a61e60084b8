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

MAX_DIM = 6

# The tolerance table: every threshold a decision compares with, named once,
# each with its reason and, after "x", the scale it multiplies: "scale" is
# alg.scale(), "largest" the largest singular value (numerical_rank), "1" an
# absolute cut on a quantity unit-sized by construction.  Only DEFAULT_TOL can
# be overridden, as alg.tol (a spec's "tol" or --tol), and only the decisions
# that read alg.tol move with it.
# alg.tol's default: commutators (x ||B_i|| ||B_j||), independence and orbit
# ranks (x largest), roots, Re(lambda) at d = 1 and classify (x scale or the
# tested matrix's norm), normal_form and section layers (x max |lambda|, |v|)
DEFAULT_TOL = 1e-9
# kernel_filtration's one zero rule: a singular value of M is zero below either
KERNEL_TOL = 1e-8  # relative cut, each step conditioned like M; x ||M||_F
SHIFT_ZERO_TOL = 1e-9  # M's rounding from its source (A_gen - mu, X on a block); x ref = ||source||_F
# below the rounding of its scale: eigenvalue gaps (x ||A_gen||_F), merged-root
# spread (x scale), ray entries and adapted-basis det (x 1)
ROUNDING = 1e-12
CLUSTER_TOL = 1e-6  # one invariant root per cluster: ||X B - B M|| (x scale), ||B N^n|| (x scale^n)
SEMISIMPLE_TOL = 1e-7  # a generator's nilpotent part on a root block is zero; x ||B_j||_F
ROOT_PART_TOL = 1e-8  # Im of a root (realness), Re of case 3b's w (product); x scale
BLOCK_RANK_TOL = 1e-8  # rank of [Re B, Im B], a kept root's real span; x largest
ROOT_ROWS_TOL = 1e-9  # rank of the root rows (nilpotent basis, a real root's kernel); x largest
PENCIL_TOL = 1e-8  # case-1 pencil Y(b) = 0, subcase 1a (1b/1c read squares at alg.tol); x scale
SPAN_RESID_TOL = 1e-8  # least-squares residual of a semisimple part in the algebra; x ||S||_F
CHAIN_RANK_TOL = 1e-10  # rank of stacked Jordan-chain vectors; x largest
NEW_CHAIN_TOL = 1e-6  # a unit kernel vector's part off the avoided span starts a chain; x 1
TIE_TOL = 1e-9  # entries this close to the largest |entry| tie for a chain's sign; x max |W v|
# a normal form checked by its residual: W X-invariant, adapted X 0/1-subdiagonal
# (x ||X_c||_F), a representative on its section (x max(1, |v*|))
FORM_RESID_TOL = 1e-7
POLY_SLACK = 1e-9  # slack of L t <= c (x 1: c holds log ratios) and of L u <= 0 (x max |L|)
POLY_RANK_TOL = 1e-9  # rank of L_A and of its row subsets (x largest), e_j in its row space (x 1)
SIGN_TOL = 1e-10  # an entry of pinv(L_B) this close to 0 counts as either sign; x max |pinv(L_B)|
COVERAGE_MARGIN = 1e-6  # smallest block magnitude of a coverage sample (stratum boundary); x 1
SIGMA_STEP_TOL = 1e-3  # sigma's block integrals from N to 2N intervals, warned above; x integral
CALDERON_TOL = 1e-3  # Calderon integral's deviation from 1 (criterion 6), warned above; x 1
L1_STEP_TOL = 1e-2  # L1 estimate from n/2 to n points or S/2 to S intervals, warned above; x value
NYQUIST_SHARE = 1e-8  # largest share of a signal's spectral mass in the Nyquist shell; x total
ISOMETRY_TOL = 5e-2  # a cwt's isometry ratio off 1 (criterion 7): energy it misses, warned above; x 1
# a wavelet or cwt box bound b > 0 on a block of dimension m has b^max(2, m) within this
# of 1: block norms' squares (~ b^2) and L1 radial profiles (~ b^m) stay finite; x 1
BOX_POWER_RANGE = 1e-304

# Coefficients of the generic combination that seeds the joint roots (a
# d-generator family uses _ROOT_DRAWS[:d]): the first MAX_DIM values of
# np.random.default_rng(_ROOT_SEED).standard_normal, written out so that a
# decomposition does not import numpy.random.
_ROOT_SEED = 20260808
_ROOT_DRAWS = np.array([
    -1.1305643663071248, -1.315808323692046, -0.021805977949173817,
    1.8955906623007115, -0.37928320322115355, -2.719279033999097,
])


def seeded_draws(seed: int, count: int, normals: int) -> np.ndarray:
    """A (count, normals) standard normal array from one random.Random(seed) stream.

    Only Random.random() is called, whose sequence for an integer seed
    Python keeps across versions, and numpy has loaded the random module
    already, so sampled checks do not import numpy.random.  Consecutive
    pairs (u1, u2) of the stream map by Box-Muller to
    sqrt(-2 ln(1 - u1)) (cos 2 pi u2, sin 2 pi u2).  random.Random would give
    -seed the stream of seed, so a negative seed raises ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    pairs = -(-count * normals // 2)
    draw = random.Random(seed).random
    u1, u2 = np.fromiter((draw() for _ in range(2 * pairs)), float, 2 * pairs).reshape(-1, 2).T
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.column_stack([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z.ravel()[:count * normals].reshape(count, normals)


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


def _balance(mats) -> tuple[list[np.ndarray], list[int]]:
    """(mats[j] / 2^e_j, e_j), e_j the frexp exponent of mats[j]'s largest entry:
    exact, with every largest entry in [1/2, 1), so no norm overflows."""
    exps = [int(np.frexp(np.max(np.abs(M)))[1]) for M in mats]
    return [np.ldexp(M, -e) for M, e in zip(mats, exps)], exps


def row_norms(V) -> np.ndarray:
    """np.linalg.norm(V, axis=1), bit for bit where no square over- or
    underflows, taken on each row scaled exactly by a power of two."""
    e = np.frexp(np.max(np.abs(V), axis=1))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(V, -e[:, None]), axis=1), e)


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def check_commuting(generators, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether all pairwise commutators vanish relative to the generator scales.

    Returns (ok, worst) with worst = max ||[X_i, X_j]|| over i < j, in the
    generators' units (inf past the float range).  The test runs on the
    _balance copies, so no norm product overflows or underflows.
    """
    mats = [as_matrix(G) for G in generators]
    if len({A.shape[0] for A in mats}) > 1:
        raise ValueError("generators must share one dimension")
    balanced, exps = _balance(mats)
    ok, worst = True, 0.0
    for i in range(len(balanced)):
        for j in range(i + 1, len(balanced)):
            c = np.linalg.norm(commutator(balanced[i], balanced[j]))
            ok &= bool(c <= tol * np.linalg.norm(balanced[i]) * np.linalg.norm(balanced[j]))
            with np.errstate(over="ignore"):  # a commutator past the float range reads inf
                worst = max(worst, float(np.ldexp(c, exps[i] + exps[j])))
    return ok, worst


def numerical_rank(s, tol: float, scale: float | None = None):
    """The rank rule: how many of the singular values s (descending along the
    last axis, one row of a stack per matrix) exceed tol times the reference,
    the largest singular value or, given, the absolute `scale`; 0 where the
    reference is <= 0 (Golub & Van Loan, numerical rank)."""
    ref = np.max(s, axis=-1, initial=0.0) if scale is None else np.asarray(scale)
    return np.where(ref > 0, np.sum(s > tol * ref[..., None], axis=-1), 0)


def rank_tol(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol * (largest singular value)."""
    A = np.atleast_2d(np.asarray(M, dtype=float))
    return int(numerical_rank(np.linalg.svd(A, compute_uv=False), tol))


def null_space(M, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space.

    With `scale` given, singular values are compared against tol * scale
    (absolute cut); needed when M is a power of a normalized matrix and can
    be uniformly tiny.
    """
    u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(M)))
    return vh[int(numerical_rank(s, tol, scale)):].conj().T


def orth_columns(M, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space."""
    u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(M)), full_matrices=False)
    return u[:, :int(numerical_rank(s, tol))]


@dataclass(frozen=True)
class DilationAlgebra:
    """Generator set of the abelian dilation algebra; single source of truth for H.

    `generators` is the basis as written (d commuting n x n matrices), and
    (balanced, exponents) = _balance(generators), the same group with each
    generator at its own scale, is what every structural decision reads.
    Validated: shared dimension, commutativity to `tol`, `balanced` independent.
    """

    generators: tuple
    balanced: tuple
    exponents: tuple
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
        balanced, exps = _balance(mats)
        if rank_tol(np.stack([B.ravel() for B in balanced]), tol) != len(mats):
            raise ValueError("generators as written are nearly linearly dependent")
        for A in mats + balanced:
            A.flags.writeable = False
        object.__setattr__(self, "generators", tuple(mats))
        object.__setattr__(self, "balanced", tuple(balanced))
        object.__setattr__(self, "exponents", tuple(exps))
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

    def balanced_element(self, params) -> np.ndarray:
        """sum_j t_j B_j over the balanced generators B_j."""
        return np.einsum("j,jkl->kl", params, np.stack(self.balanced))

    def scale(self) -> float:
        """The largest Frobenius norm of a balanced generator, in [1/2, n)."""
        return max(np.linalg.norm(B) for B in self.balanced)


@dataclass(frozen=True)
class RootDecomposition:
    """Joint roots of the algebra with merged real blocks, and each balanced
    generator's Jordan-Chevalley parts on them, measured once.

    roots[k] is the complex vector of values of the k-th root on the
    generators, balanced_roots[k] on the balanced ones; blocks[k] is a real
    orthonormal basis (columns) of the merged generalized eigenspace V_k
    (conjugate pairs merged, dimension 2m) and eigenspaces[k] an orthonormal
    basis B of the kept root's complex generalized eigenspace (dimension m).
    nilpotent[k, j] is ||B^H B_j B - lambda_j I||_F, the norm of balanced
    generator j's nilpotent part on B; semisimple says every entry is within
    SEMISIMPLE_TOL ||B_j||.  zero_root is the first root within tol * scale() of zero
    on every balanced generator, or None.
    """

    roots: tuple
    balanced_roots: tuple
    blocks: tuple
    eigenspaces: tuple
    nilpotent: np.ndarray
    semisimple: bool
    nilpotent_basis: tuple
    zero_root: int | None
    p: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", len(self.roots))

    def is_real(self, k: int) -> bool:
        """Reads the exact zero imaginary part roots_decompose gives a real root."""
        return not np.any(self.balanced_roots[k].imag)

    def all_real(self) -> bool:
        return all(self.is_real(k) for k in range(self.p))


def kernel_filtration(M, ref: float) -> list[np.ndarray]:
    """Orthonormal bases (columns) of ker M, ker M^2, ... until the kernel stops
    growing (one empty basis when M is invertible).

    A singular value is zero below KERNEL_TOL ||M|| or below SHIFT_ZERO_TOL ref,
    ref the norm of the matrix M was formed from, whose rounding M carries; an
    M within SHIFT_ZERO_TOL ref of zero has the whole space as kernel.
    K_{j+1} = {v : Mv in K_j} = ker (I - P_{K_j}) M: each step is one null
    space of M / ||M|| at that cut, conditioned like M, not like M^j."""
    n = M.shape[0]
    norm = np.linalg.norm(M)
    if norm <= SHIFT_ZERO_TOL * ref:
        return [np.eye(n, dtype=M.dtype)]
    M = M / norm
    tol = max(KERNEL_TOL, SHIFT_ZERO_TOL * ref / norm)
    kernels = [null_space(M, tol, scale=1.0)]
    for _ in range(n - 1):
        K = kernels[-1]
        if K.shape[1] in (0, n):
            break
        K_new = null_space(M - K @ (K.conj().T @ M), tol, scale=1.0)
        if K_new.shape[1] == K.shape[1]:
            break
        kernels.append(K_new)
    return kernels


def roots_decompose(alg: DilationAlgebra) -> RootDecomposition:
    """All joint roots and generalized eigenspaces of the commuting family,
    decided on its balanced generators B_j: the roots (a real one with an
    exact zero imaginary part) on B_j and, by ldexp, on the generators, and
    the nilpotent basis as sum_j c_j B_j, c a unit vector.  On each cluster's
    space B, M_j = B^H B_j B is formed once: lambda_j is its mean eigenvalue,
    and N_j = M_j - lambda_j I the nilpotent part whose norms the record keeps.

    A Jordan block of size m splits an eigenvalue by about (eps ||A||)^(1/m),
    so no fixed radius clusters the eigenvalues of the generic combination
    _ROOT_DRAWS[:d].  Their single-linkage groupings are tried from coarsest
    to finest, never splitting values within rounding (ROUNDING ||A||);
    the first is accepted whose every cluster's generalized eigenspace has
    its multiplicity, is invariant under every generator and holds one joint
    root, with pairwise distinct roots.  None may pass, as when two roots
    differ orthogonally to the combination or its nilpotent part nearly
    cancels on a large Jordan block: then _ROOT_DRAWS[::-1][:d] is tried,
    and IllConditioned raised when it fails too.
    """
    n, d = alg.n, alg.d
    scale = alg.scale()
    err = None
    for draws in (_ROOT_DRAWS[:d], _ROOT_DRAWS[::-1][:d]):
        Agen = alg.balanced_element(draws)
        ref = np.linalg.norm(Agen)
        eigs = np.sort_complex(np.linalg.eigvals(Agen))  # by real, then imaginary part
        gaps = np.abs(eigs[:, None] - eigs[None, :])
        gaps = np.maximum(gaps, ROUNDING * ref)
        tried = []
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
                    B = kernel_filtration(Agen - mu * np.eye(n), ref)[-1]
                    if B.shape[1] != len(cl):
                        raise IllConditioned(
                            f"eigenspace dimension {B.shape[1]} != multiplicity {len(cl)}"
                        )
                    lam = np.empty(d, dtype=complex)
                    nil = np.empty(d)
                    for j, X in enumerate(alg.balanced):
                        M = B.conj().T @ X.astype(complex) @ B
                        lam[j] = np.trace(M) / B.shape[1]
                        # invariance of the eigenspace under every generator
                        if np.linalg.norm(X @ B - B @ M) > CLUSTER_TOL * scale:
                            raise IllConditioned("eigenspace not invariant; clusters merged badly")
                        N = M - lam[j] * np.eye(B.shape[1])  # X's nilpotent part on B
                        if np.linalg.norm(B @ np.linalg.matrix_power(N, n)) > CLUSTER_TOL * scale ** n:
                            raise IllConditioned("cluster contains two distinct joint roots")
                        nil[j] = np.linalg.norm(N)
                    raw.append((lam, B, nil))
                for a in range(len(raw)):
                    for b in range(a + 1, len(raw)):
                        if np.max(np.abs(raw[a][0] - raw[b][0])) <= alg.tol * scale:
                            raise IllConditioned("two distinct roots closer than tolerance")
                roots, spaces, nils, blocks = _merge_conjugates(raw, alg)
                nils, e = np.array(nils), alg.exponents
                norms = np.array([np.linalg.norm(X) for X in alg.balanced])
                return RootDecomposition(
                    roots=tuple(np.ldexp(r.real, e) + 1j * np.ldexp(r.imag, e) for r in roots),
                    balanced_roots=roots, blocks=blocks, eigenspaces=spaces, nilpotent=nils,
                    semisimple=bool(np.all(nils <= SEMISIMPLE_TOL * norms)),
                    nilpotent_basis=tuple(_nilpotent_basis(roots, alg)),
                    zero_root=next((k for k, r in enumerate(roots)
                                    if np.max(np.abs(r)) <= alg.tol * scale), None))
            except IllConditioned as exc:  # try the next finer grouping
                err = exc
    raise IllConditioned(f"no grouping of the generic combination's eigenvalues passes: {err}")


def _merge_conjugates(raw, alg: DilationAlgebra) -> tuple:
    """(roots, eigenspaces, nilpotent norms, merged real blocks) of the kept
    roots, in block order."""
    imag_tol = ROOT_PART_TOL * alg.scale()
    kept = []
    for lam, B, nil in raw:
        # a complex root is kept once: as the member with positive imaginary
        # part on the first generator where it is non-real (a missing partner
        # leaves the block dimensions short of n)
        nonreal = np.abs(lam.imag) > imag_tol
        if nonreal.any() and lam.imag[np.argmax(nonreal)] < 0:
            continue
        kept.append((lam if nonreal.any() else lam.real.astype(complex), B, nil,
                     orth_columns(np.hstack([B.real, B.imag]), tol=BLOCK_RANK_TOL)))
    order = np.lexsort(
        (
            [np.round(r.imag[0], 9) for r, *_ in kept],
            [np.round(r.real[0], 9) for r, *_ in kept],
            [-V.shape[1] for *_, V in kept],
        )
    )
    kept = [kept[k] for k in order]
    if sum(V.shape[1] for *_, V in kept) != alg.n:
        raise IllConditioned("merged block dimensions do not sum to n")
    return tuple(zip(*kept))


def _nilpotent_basis(roots, alg: DilationAlgebra) -> list[np.ndarray]:
    rows = []
    for lam in roots:
        rows.append(lam.real)
        if np.max(np.abs(lam.imag)) > 0:
            rows.append(lam.imag)
    A = np.array(rows)
    coeffs = null_space(A, tol=ROOT_ROWS_TOL)
    basis = []
    for k in range(coeffs.shape[1]):
        c = coeffs[:, k].real
        lead = np.argmax(np.abs(c))
        if c[lead] < 0:
            c = -c
        basis.append(alg.balanced_element(c))
    return basis
