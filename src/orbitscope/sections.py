"""Layer decomposition and explicit topological sections for diag+nilpotent pairs.

Given a commuting pair (A diagonalizable with real eigenvalues, X nilpotent),
an adapted basis puts X into the 0/1-subdiagonal normal form on each
eigenspace W of A.  Layers are indexed by the first coordinate b with
p_b(Xv) != 0; the canonical representative of v is

    v* = exp(sA + tX) v,   t = -p_b(v)/p_b(Xv),   s = -ln|p_b(Xv)| / lambda,

which lands on the section {p_b = 0, |p_b(X .)| = 1} of its layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonCommuting, NotDiagonalizable, NotNilpotent
from .linalg import (
    as_matrix,
    check_commuting,
    null_space,
    orth_columns,
    rank_tol,
)


@dataclass(frozen=True)
class EigenBlock:
    """Bookkeeping for one eigenspace in the adapted basis."""

    eigenvalue: float
    offset: int  # first adapted-coordinate index (0-based)
    dim: int
    epsilon: tuple  # local pattern, entries for i = 2..dim
    active: tuple  # B = local indices i with epsilon_i != 0


@dataclass(frozen=True)
class LayeredFamily:
    """Commuting (A, X) pair in adapted coordinates, immutable after build."""

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
    eigenvalue: np.ndarray  # (m,)
    marginal: np.ndarray  # (m,) layer decided within 10x of the zero threshold
    representative: np.ndarray  # (m, n)
    s: np.ndarray  # (m,) witnesses: exp(sA + tX) v = v*
    t: np.ndarray
    sign: np.ndarray  # (m,) sign of p_b(X v*)
    not_in_layer: np.ndarray  # (m,) no layer, or the section residual check failed
    zero_eigenvalue: np.ndarray  # (m,) the layer's eigenspace has eigenvalue 0


def _cluster_reals(values: np.ndarray, tol: float) -> list[float]:
    """Cluster means of real values, sorted descending."""
    out: list[list[float]] = []
    for v in np.sort(values)[::-1]:
        if out and abs(v - out[-1][0]) <= tol:
            out[-1].append(float(v))
        else:
            out.append([float(v)])
    return [float(np.mean(cl)) for cl in out]


def _nilpotency_check(X: np.ndarray, tol: float) -> None:
    n = X.shape[0]
    nrm = np.linalg.norm(X)
    if nrm == 0.0:
        return
    P = np.linalg.matrix_power(X / nrm, n)
    if np.linalg.norm(P) > tol * n:
        raise NotNilpotent("X^n does not vanish")


def _jordan_chain_basis(N: np.ndarray, tol: float) -> tuple[np.ndarray, tuple]:
    """Columns C with C^-1 N C in 0/1-subdiagonal form, plus the epsilon pattern.

    Chains are built top-down from the kernel filtration of N with
    deterministic pivoting, each chain listed as (v, Nv, N^2 v, ...).
    """
    m = N.shape[0]
    nrm = np.linalg.norm(N)
    if nrm <= tol:
        return np.eye(m), tuple([0] * (m - 1))
    kernels = [np.zeros((m, 0))]
    P = np.eye(m)
    q = 0
    for k in range(1, m + 1):
        P = P @ (N / nrm)
        K = null_space(P, tol=1e-8, scale=1.0)
        kernels.append(K)
        q = k
        if K.shape[1] == m:
            break
    chains: list[list[np.ndarray]] = []
    for k in range(q, 0, -1):
        # span to avoid: ker(N^{k-1}) plus the height-k elements of longer chains
        avoid_cols = [kernels[k - 1]]
        for ch in chains:
            if len(ch) >= k:
                avoid_cols.append(ch[len(ch) - k].reshape(-1, 1))
        stacked = np.hstack(avoid_cols)
        avoid = orth_columns(stacked, tol=1e-10) if stacked.shape[1] else np.zeros((m, 0))
        cand = kernels[k]
        for j in range(cand.shape[1]):
            v = cand[:, j]
            if avoid.shape[1]:
                v = v - avoid @ (avoid.T @ v)
            if np.linalg.norm(v) > 1e-6:
                v = v / np.linalg.norm(v)
                chain = [v]
                w = v
                for _ in range(k - 1):
                    w = N @ w
                    chain.append(w)
                chains.append(chain)
                avoid = orth_columns(np.hstack([avoid, v.reshape(-1, 1)]), tol=1e-10)
    chains.sort(key=lambda ch: (-len(ch)))
    cols = [w for ch in chains for w in ch]
    C = np.column_stack(cols) if cols else np.zeros((m, 0))
    if rank_tol(C, 1e-10) != m:
        raise NotNilpotent("Jordan chain construction did not span the eigenspace")
    eps = []
    for i, ch in enumerate(chains):
        if i > 0:
            eps.append(0)
        eps.extend([1] * (len(ch) - 1))
    return C, tuple(eps)


def normal_form(A, X, tol: float = 1e-9) -> LayeredFamily:
    """Adapted basis in which A = lambda I on each eigenspace and X has the
    0/1-subdiagonal pattern; raises NotDiagonalizable / NotNilpotent /
    NonCommuting when the hypotheses fail."""
    A = as_matrix(A)
    X = as_matrix(X, A.shape[0])
    n = A.shape[0]
    ok, worst = check_commuting([A, X], tol)
    if not ok:
        raise NonCommuting(f"[A, X] has norm {worst:.3g}")
    _nilpotency_check(X, tol)
    eigs = np.linalg.eigvals(A)
    scale = max(np.max(np.abs(eigs)), 1.0)
    if np.max(np.abs(eigs.imag)) > 1e-8 * scale:
        raise NotDiagonalizable("A has non-real eigenvalues")
    values = _cluster_reals(eigs.real, 1e-8 * scale)
    blocks = []
    cols = []
    offset = 0
    for lam in values:
        W = null_space(A - lam * np.eye(n), tol=1e-8, scale=max(np.linalg.norm(A), 1.0))
        if W.shape[1] == 0:
            continue
        # commuting implies X preserves W; verify
        resid = np.linalg.norm(X @ W - W @ (W.T @ X @ W))
        if resid > 1e-7 * max(np.linalg.norm(X), 1.0):
            raise NotDiagonalizable("eigenspace of A is not X-invariant")
        Nw = W.T @ X @ W
        C, eps = _jordan_chain_basis(Nw, tol * max(np.linalg.norm(X), 1.0))
        cols.append(W @ C)
        active = tuple(i for i in range(2, W.shape[1] + 1) if eps[i - 2] == 1)
        blocks.append(EigenBlock(float(lam), offset, W.shape[1], eps, active))
        offset += W.shape[1]
    if offset != n:
        raise NotDiagonalizable("geometric multiplicities do not sum to n")
    P = np.hstack(cols)
    Pinv = np.linalg.inv(P)
    # snap the adapted forms and verify
    Xa = Pinv @ X @ P
    sub = np.diag(Xa, -1)
    expected = np.zeros(n - 1) if n > 1 else np.zeros(0)
    for blk in blocks:
        for i in blk.active:
            expected[blk.offset + i - 2] = 1.0
    off = Xa - np.diag(expected, -1) if n > 1 else Xa
    if np.linalg.norm(off) > 1e-7 * max(np.linalg.norm(X), 1.0):
        raise NotNilpotent("adapted X is not in 0/1-subdiagonal form")
    return LayeredFamily(A=A, X=X, basis=P, basis_inv=Pinv, blocks=tuple(blocks), tol=tol)


def _times_transpose(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """V @ M.T with each row reduced on its own: a BLAS product blocks the
    rows of a batch together, and its last digits then depend on the batch."""
    return np.sum(V[:, None, :] * M[None], axis=2)


def section_batch(fam: LayeredFamily, V) -> SectionBatch:
    """Layers and canonical representatives of the rows of V in one pass.

    The layer of v is the first active index b, scanned block by block, with
    p_b(Xv) = p_{b-1}(v) above tol * max(|v|, 1); the witnesses (s, t) put
    v* = exp(sA + tX) v on the section p_b(v*) = 0, |p_b(Xv*)| = 1.  In order
    of precedence, a row without a layer is flagged not_in_layer, a layer
    with eigenvalue 0 zero_eigenvalue, and a v* that is not finite or misses
    the section by more than 1e-7 * max(1, |v*|) not_in_layer.  No row's
    result depends on another row.  Layers decided within a factor 10 of
    the threshold are flagged marginal, with one stability warning per batch.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != fam.n:
        raise ValueError(f"expected an (m, {fam.n}) array of points, got shape {V.shape}")
    m, n = V.shape
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
    zero = has & (np.abs(eigenvalue) <= fam.tol)

    r = np.flatnonzero(has & ~zero)
    c = col[r]
    c1, c0 = W[r, c], W[r, c + 1]  # p_b(Xv), p_b(v)
    t = -c0 / c1
    s = -np.log(np.abs(c1)) / eigenvalue[r]
    # X is nilpotent, so exp(tX) v is the exact finite series
    U = term = V[r]
    for k in range(1, n):
        term = _times_transpose(term, fam.X) * (t / k)[:, None]
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
        tol = 1e-7 * np.maximum(1.0, np.linalg.norm(vstar, axis=1))
        ok = np.isfinite(tol) & (resid0 <= tol) & (resid1 <= tol)
    r = r[ok]
    representative = np.full((m, n), np.nan)
    representative[r] = vstar[ok]
    s_all, t_all, sign = np.full(m, np.nan), np.full(m, np.nan), np.zeros(m, dtype=int)
    s_all[r], t_all[r], sign[r] = s[ok], t[ok], np.where(lead[ok] > 0, 1, -1)
    # sign is nonzero exactly on the rows that have a section
    return SectionBatch(block=block, b=b, eigenvalue=eigenvalue, marginal=marginal,
                        representative=representative, s=s_all, t=t_all, sign=sign,
                        not_in_layer=(sign == 0) & ~zero, zero_eigenvalue=zero)
