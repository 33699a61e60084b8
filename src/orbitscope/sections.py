"""Layer decomposition and explicit topological sections for diag+nilpotent pairs.

Given a commuting pair (A diagonalizable with real eigenvalues, X nilpotent),
an adapted basis puts X into the 0/1-subdiagonal normal form on each
eigenspace W of A.  Layers are indexed by the first coordinate b with
p_b(Xv) != 0; the canonical representative of v is

    v* = exp(sA + tX) v,   t = -p_b(v)/p_b(Xv),   s = -ln|p_b(Xv)| / lambda,

which lands on the section {p_b = 0, |p_b(X .)| = 1} of its layer.  The
basis is that of (sigma A, X / ||X||_2), so no answer moves with A's sign or
A's or X's scale (see normal_form); the witnesses are in the caller's units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonCommuting, NotDiagonalizable, NotNilpotent
from .linalg import (
    CHAIN_RANK_TOL, DEFAULT_TOL, FORM_RESID_TOL, NEW_CHAIN_TOL, SPAN_RESID_TOL, TIE_TOL,
    DilationAlgebra,
    as_matrix,
    check_commuting,
    kernel_filtration,
    orth_columns,
    rank_tol,
    roots_decompose,
)


@dataclass(frozen=True)
class EigenBlock:
    """Bookkeeping for one eigenspace in the adapted basis."""

    eigenvalue: float  # of the A passed in; 0.0 within tol * max |lambda| of 0
    offset: int  # first adapted-coordinate index (0-based)
    dim: int
    epsilon: tuple  # local pattern, entries for i = 2..dim
    active: tuple  # B = local indices i with epsilon_i != 0


@dataclass(frozen=True)
class LayeredFamily:
    """Commuting (A, X) pair as passed in, with the adapted coordinates of
    its canonical pair (see normal_form), immutable after build."""

    A: np.ndarray
    X: np.ndarray
    basis: np.ndarray  # columns = adapted basis
    basis_inv: np.ndarray  # rows = the adapted-coordinate functionals p_i
    blocks: tuple
    tol: float

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SectionBatch:
    """Per-row layers and sections of an (m, n) array of points.

    Rows without a layer have block -1; rows flagged `not_in_layer` or
    `zero_eigenvalue` (never both) have no section and carry NaN witnesses
    and representatives and sign 0.
    """

    block: np.ndarray  # (m,) index into fam.blocks
    b: np.ndarray  # (m,) local layer index
    eigenvalue: np.ndarray  # (m,) of sigma A, the canonical sign (see normal_form)
    marginal: np.ndarray  # (m,) layer decided within 10x of the zero threshold
    representative: np.ndarray  # (m, n)
    s: np.ndarray  # (m,) witnesses: exp(sA + tX) v = v*
    t: np.ndarray
    sign: np.ndarray  # (m,) sign of p_b(X v*)
    not_in_layer: np.ndarray  # (m,) no layer, or the section residual check failed
    zero_eigenvalue: np.ndarray  # (m,) the layer's eigenspace has eigenvalue 0


def diag_nilpotent_pair(alg: DilationAlgebra):
    """Coefficients (a, x) on the two generators of alg of a diagonalizable A
    and a nilpotent X with span{A, X} = the algebra, or None.

    X spans the algebra's nilpotent elements.  A is the semisimple
    (Jordan-Chevalley) part of a generator: for span{A, X} the semisimple
    part of aA + bX is aA, so it lies in the algebra, and families where it
    escapes are not of this type.  A generator that is semisimple (or
    nilpotent) within tolerance is A (or X) itself: a (or x) is a unit vector.
    Decided on the balanced generators, and mapped to the written ones.
    """
    if alg.d != 2:
        return None
    rd = roots_decompose(alg)
    if len(rd.nilpotent_basis) != 1 or not rd.all_real():
        return None
    P = np.hstack(rd.blocks)
    lam = np.repeat(np.real(rd.balanced_roots), [V.shape[1] for V in rd.blocks], axis=0)
    # oblique spectral combinations: the semisimple parts of the balanced generators
    semisimple = [P @ np.diag(lam[:, j]) @ np.linalg.inv(P) for j in range(2)]
    G = np.stack([g.ravel() for g in alg.balanced], axis=1)
    e = np.array(alg.exponents)
    # A in the units of the written generator whose semisimple part is largest
    k = max(range(2), key=lambda j: np.ldexp(np.linalg.norm(semisimple[j]), e[j]))
    S = semisimple[k]
    rhs = np.column_stack([S.ravel(), rd.nilpotent_basis[0].ravel()])
    coef = np.linalg.lstsq(G, rhs, rcond=None)[0]
    if np.linalg.norm(G @ coef[:, 0] - S.ravel()) > SPAN_RESID_TOL * np.linalg.norm(S):
        return None
    a, x = np.ldexp(coef[:, 0], e[k] - e), np.ldexp(coef[:, 1], -e)
    for j, (g, g_s) in enumerate(zip(alg.balanced, semisimple)):
        if np.linalg.norm(g - g_s) <= alg.tol * np.linalg.norm(g):
            a = np.eye(2)[j]
        elif np.linalg.norm(g_s) <= alg.tol * np.linalg.norm(g):
            x = np.eye(2)[j]
    return a, x


def _jordan_chain_basis(W: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Columns spanning the X-invariant space W (orthonormal columns) in which X
    has the 0/1-subdiagonal form, plus the epsilon pattern.

    Chains are built top-down from the kernel filtration of N = X on W with
    deterministic pivoting, each chain listed as (v, Xv, X^2 v, ...) with v
    oriented so that its first entry of largest magnitude (within rounding)
    is positive.
    """
    N = W.T @ X @ W
    m = N.shape[0]
    kernels = [np.zeros((m, 0)), *kernel_filtration(N, np.linalg.norm(X))]
    chains: list[list[np.ndarray]] = []
    for k in range(len(kernels) - 1, 0, -1):
        # span to avoid: ker(N^{k-1}) plus the height-k elements of longer chains
        stacked = np.hstack([kernels[k - 1]] + [ch[len(ch) - k].reshape(-1, 1)
                                                for ch in chains if len(ch) >= k])
        avoid = orth_columns(stacked, tol=CHAIN_RANK_TOL) if stacked.shape[1] else np.zeros((m, 0))
        cand = kernels[k]
        for j in range(cand.shape[1]):
            v = cand[:, j] - avoid @ (avoid.T @ cand[:, j])
            if np.linalg.norm(v) > NEW_CHAIN_TOL:
                v = v / np.linalg.norm(v)
                u = np.abs(W @ v)
                if (W @ v)[np.argmax(u >= (1.0 - TIE_TOL) * np.max(u))] < 0:
                    v = -v
                chain = [v]
                for _ in range(k - 1):
                    chain.append(N @ chain[-1])
                chains.append(chain)
                avoid = orth_columns(np.hstack([avoid, v.reshape(-1, 1)]), tol=CHAIN_RANK_TOL)
    chains.sort(key=lambda ch: (-len(ch)))
    cols = [w for ch in chains for w in ch]
    C = np.column_stack(cols) if cols else np.zeros((m, 0))
    if C.shape != (m, m) or rank_tol(C, CHAIN_RANK_TOL) != m:
        raise NotNilpotent("Jordan chain construction did not span the eigenspace")
    # epsilon_i = 1 where column i continues the chain of column i - 1
    eps = tuple(int(h > 0) for ch in chains for h in range(len(ch)))[1:]
    return W @ C, eps


def normal_form(A, X, tol: float = DEFAULT_TOL) -> LayeredFamily:
    """Adapted basis of the canonical pair (sigma A, X / ||X||_2): A = lambda I
    on each eigenspace, in descending order of sigma lambda, and X / ||X||_2
    has the 0/1-subdiagonal pattern; raises NotDiagonalizable / NotNilpotent
    / NonCommuting when the hypotheses fail.

    (aA, bX) spans the group of (A, X) for a, b != 0, so neither factor moves
    the basis: sigma = +-1 makes the eigenvalue of largest |lambda| positive,
    the trace breaks a tie with -lambda, and a zero trace keeps sigma = 1.
    The blocks keep A's own eigenvalues (0 within tol max|lambda|), so sigma
    is the sign of the first.  A's eigenspaces and eigenvalues are the root
    blocks of span{A}.  Chain tops are oriented (see _jordan_chain_basis),
    so the basis, and with it the sign of a section, does not depend on a
    singular vector's sign.
    """
    A = as_matrix(A)
    X = as_matrix(X, A.shape[0])
    n = A.shape[0]
    ok, worst = check_commuting([A, X], tol)
    if not ok:
        raise NonCommuting(f"[A, X] has norm {worst:.3g}")
    alg = DilationAlgebra([A], tol=tol)
    rd = roots_decompose(alg)
    if not rd.all_real():
        raise NotDiagonalizable("A has non-real eigenvalues")
    if not rd.semisimple:
        raise NotDiagonalizable("A is not diagonalizable")
    lam = np.array([r[0].real for r in rd.roots])
    top = np.max(np.abs(lam))
    trace = np.dot([V.shape[1] for V in rd.blocks], lam)
    # the signs of the eigenvalues of largest |lambda| sum to 0 on a tie
    ends = np.sign(lam[np.abs(lam) >= (1.0 - tol) * top]).sum()
    sigma = np.sign(ends) or (np.sign(trace) if abs(trace) > tol * top else 1.0)
    lam = np.where(np.abs(lam) <= tol * top, 0.0, lam)
    Xc = X / (np.linalg.norm(X, 2) or 1.0)  # the SVD scales, so no norm overflows
    blocks, cols, offset = [], [], 0
    for k in np.argsort(-sigma * lam):
        W = rd.blocks[k]
        # commuting implies X preserves W; verify
        resid = np.linalg.norm(Xc @ W - W @ (W.T @ Xc @ W))
        if resid > FORM_RESID_TOL * np.linalg.norm(Xc):
            raise NotDiagonalizable("eigenspace of A is not X-invariant")
        C, eps = _jordan_chain_basis(W, Xc)
        cols.append(C)
        active = tuple(i for i in range(2, W.shape[1] + 1) if eps[i - 2] == 1)
        blocks.append(EigenBlock(float(lam[k]), offset, W.shape[1], eps, active))
        offset += W.shape[1]
    P = np.hstack(cols)
    Pinv = np.linalg.inv(P)
    # snap the adapted forms and verify
    Xa = Pinv @ Xc @ P
    expected = np.zeros(n - 1)
    for blk in blocks:
        for i in blk.active:
            expected[blk.offset + i - 2] = 1.0
    off = Xa - np.diag(expected, -1)
    if np.linalg.norm(off) > FORM_RESID_TOL * np.linalg.norm(Xc):
        raise NotNilpotent("adapted X is not in 0/1-subdiagonal form")
    return LayeredFamily(A=A, X=X, basis=P, basis_inv=Pinv, blocks=tuple(blocks), tol=tol)


def _times_transpose(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """V @ M.T with each row reduced on its own: a BLAS product blocks the
    rows of a batch together, and its last digits then depend on the batch."""
    return np.sum(V[:, None, :] * M[None], axis=2)


def section_batch(fam: LayeredFamily, V) -> SectionBatch:
    """Layers and canonical representatives of the rows of V in one pass.

    The layer of v is the first active index b, scanned block by block, with
    p_b(Xv) = p_{b-1}(v) above tol * max(|v|, 1), X and p the canonical
    X / ||X||_2 and its adapted coordinates; the witnesses (s, t), in the
    units of fam.A and fam.X, put v* = exp(sA + tX) v on the section
    p_b(v*) = 0, |p_b(Xv*)| = 1.  In order of precedence, a row without a
    layer is flagged not_in_layer, a layer with eigenvalue 0 zero_eigenvalue,
    and a v* that is not finite or misses the section by more than
    FORM_RESID_TOL * max(1, |v*|) not_in_layer.  No row's result depends on another
    row.  Layers decided within a factor 10 of the threshold are flagged
    marginal, with one stability warning per batch.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != fam.n:
        raise ValueError(f"expected an (m, {fam.n}) array of points, got shape {V.shape}")
    m, n = V.shape
    x_norm = np.linalg.norm(fam.X, 2) or 1.0  # normal_form's canonical X is X / x_norm
    W = _times_transpose(V, fam.basis_inv)
    # candidate (block, b, column of p_b(Xv)) in scan order, then a no-layer sentinel
    cand = [(bi, i, blk.offset + i - 2)
            for bi, blk in enumerate(fam.blocks) for i in blk.active]
    blk_c, b_c, col_c = np.array(cand + [(-1, 0, 0)], dtype=int).T
    thr = fam.tol * np.maximum(np.linalg.norm(V, axis=1), 1.0)
    above = np.abs(W[:, col_c[:-1]]) > thr[:, None]
    first = np.argmax(np.column_stack([above, np.ones(m, dtype=bool)]), axis=1)
    block, b, col = blk_c[first], b_c[first], col_c[first]
    has = block >= 0
    marginal = has & (np.abs(W[np.arange(m), col]) < 10.0 * thr)
    if marginal.any():
        warnings.warn("layer index decided within 10x of the zero threshold", stacklevel=2)
    eigenvalue = np.array([blk.eigenvalue for blk in fam.blocks] + [np.nan])[block]
    zero = has & (eigenvalue == 0.0)

    r = np.flatnonzero(has & ~zero)
    c = col[r]
    c1, c0 = W[r, c], W[r, c + 1]  # p_b(Xv), p_b(v)
    t = -c0 / c1  # for the canonical X
    s = -np.log(np.abs(c1)) / eigenvalue[r]
    # X is nilpotent, so exp(tX) v is the exact finite series
    U = term = V[r]
    for k in range(1, n):
        term = _times_transpose(term, fam.X / x_norm) * (t / k)[:, None]
        U = U + term
    # A = lambda I on each block of the adapted basis: exp(sA) scales coordinates
    lam = np.concatenate([np.full(blk.dim, blk.eigenvalue) for blk in fam.blocks])
    with np.errstate(over="ignore", invalid="ignore"):
        vstar = _times_transpose(
            _times_transpose(U, fam.basis_inv) * np.exp(np.outer(s, lam)), fam.basis)
        wstar = _times_transpose(vstar, fam.basis_inv)
        rows = np.arange(r.size)
        lead = wstar[rows, c]  # p_b(X v*)
        resid0 = np.abs(wstar[rows, c + 1])
        resid1 = np.abs(np.abs(lead) - 1.0)
        tol = FORM_RESID_TOL * np.maximum(1.0, np.linalg.norm(vstar, axis=1))
        ok = np.isfinite(tol) & (resid0 <= tol) & (resid1 <= tol)
    r = r[ok]
    representative = np.full((m, n), np.nan)
    representative[r] = vstar[ok]
    s_all, t_all, sign = np.full(m, np.nan), np.full(m, np.nan), np.zeros(m, dtype=int)
    s_all[r], t_all[r], sign[r] = s[ok], t[ok] / x_norm, np.where(lead[ok] > 0, 1, -1)
    # sign is nonzero exactly on the rows that have a section; blocks[0] has
    # sigma's sign
    return SectionBatch(block=block, b=b, eigenvalue=np.sign(fam.blocks[0].eigenvalue) * eigenvalue,
                        marginal=marginal, representative=representative, s=s_all, t=t_all,
                        sign=sign, not_in_layer=(sign == 0) & ~zero, zero_eigenvalue=zero)
