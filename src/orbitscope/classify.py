"""Integrability decision procedures, and the routing of a family to them.

Three procedures:

* ``classify_one_param`` -- the one-parameter criterion (signs of Re lambda).
* ``classify3`` -- the complete decision tree for connected abelian
  subgroups of GL(3, R) with d in {2, 3}, following the case ladder
  p / root dependence / nilpotent part.  Verdicts are exact categorical
  outputs derived from structure, never from sampling.
* ``classify_diag_nilpotent`` -- the diagonalizable + nilpotent pair family
  in any dimension (no integrable vectors once n >= 3).

Families the table does not cover are returned as ``unclassified`` verdicts
rather than guessed.  ``classify_dispatch`` picks the procedure that covers
a family (one parameter, n = 3, or a diagonalizable + nilpotent pair) and
raises UnclassifiedFamily when none does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameter, DomainError, NotNilpotent, UnclassifiedFamily
from .linalg import (
    DEFAULT_TOL, PENCIL_TOL, ROOT_PART_TOL, ROOT_ROWS_TOL, ROUNDING,
    DilationAlgebra,
    as_matrix,
    null_space,
    roots_decompose,
)

YES, NO, UNKNOWN, OPEN, UNCLASSIFIED = "yes", "no", "unknown", "open", "unclassified"


@dataclass(frozen=True)
class ClassificationVerdict:
    """Machine-checkable classification outcome, constructed with the five
    fields positional: case tag, compact, section, quasi-section, integrable.

    The consistency triangle (section => quasi-section, integrable=yes =>
    compact=yes, integrable=open only for case (b) with alpha*beta != 0) is
    asserted on construction, so no inconsistent verdict can be emitted.
    """

    case_tag: str
    orbit_space_compact: str
    topological_section: str
    quasi_section: str
    integrable: str
    witnesses: dict = field(default_factory=dict)
    normalized_params: tuple | None = None
    notes: tuple = ()
    alternates: tuple = ()

    def __post_init__(self):
        for name in ("orbit_space_compact", "topological_section", "quasi_section"):
            if getattr(self, name) not in (YES, NO, UNKNOWN):
                raise ValueError(f"bad value for {name}: {getattr(self, name)!r}")
        if self.integrable not in (YES, NO, OPEN, UNCLASSIFIED):
            raise ValueError(f"bad value for integrable: {self.integrable!r}")
        if self.topological_section == YES and self.quasi_section != YES:
            raise ValueError("consistency: section = yes forces quasi_section = yes")
        if self.integrable == YES and self.orbit_space_compact != YES:
            raise ValueError("consistency: integrable = yes forces compact = yes")
        if self.integrable == OPEN:
            a_b = self.normalized_params
            if self.case_tag != "(b)" or a_b is None or a_b[0] * a_b[1] == 0:
                raise ValueError("consistency: open verdict only for case (b), alpha*beta != 0")

    def fields(self) -> dict:
        return {
            "compact": self.orbit_space_compact,
            "section": self.topological_section,
            "quasi_section": self.quasi_section,
            "integrable": self.integrable,
        }

    def to_json(self) -> dict:
        out = {"case_tag": self.case_tag, **self.fields()}
        if self.normalized_params is not None:
            out["normalized_params"] = [float(x) for x in self.normalized_params]
        if self.witnesses:
            out["witnesses"] = {k: _jsonable(v) for k, v in self.witnesses.items()}
        if self.notes:
            out["notes"] = list(self.notes)
        if self.alternates:
            out["alternates"] = [dict(a) for a in self.alternates]
        return out


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def classify_one_param(alg: DilationAlgebra) -> ClassificationVerdict:
    """One-parameter criterion: integrable iff the signs of Re(lambda)
    coincide, decided on the balanced generator of alg (d = 1): a real part
    within alg.tol * alg.scale() of 0 counts as 0."""
    [A] = alg.balanced
    re = np.linalg.eigvals(A).real
    tol = alg.tol * alg.scale()
    if np.min(np.abs(re)) <= tol:
        warnings.warn("an eigenvalue real part sits at zero", DegenerateParameter)
    one_signed = bool(np.all(re > tol) or np.all(re < -tol))
    if one_signed:
        return ClassificationVerdict(
            "one_param", YES, YES, YES, YES,
            witnesses={"section": "sphere of an adapted norm"},
            notes=("strictly contractive (or expansive) one-parameter group",),
        )
    return ClassificationVerdict(
        "one_param", UNKNOWN, UNKNOWN, UNKNOWN, NO,
        notes=("mixed signs of Re(lambda)",),
    )


def _unclassified(notes, compact=UNKNOWN, section=UNKNOWN, quasi=UNKNOWN):
    return ClassificationVerdict(
        "unclassified", compact, section, quasi, UNCLASSIFIED,
        notes=tuple(notes),
    )


def classify3(alg: DilationAlgebra) -> ClassificationVerdict:
    """Classification of connected abelian H < GL(3, R), d in {2, 3}, on the balanced generators."""
    if alg.n != 3:
        raise ValueError("classify3 requires n = 3")
    if alg.d not in (2, 3):
        raise ValueError("classify3 requires d in {2, 3}; use classify_one_param for d = 1")
    rd = roots_decompose(alg)
    scale = alg.scale()
    tol = alg.tol
    if alg.d == 3:
        return _classify_d3(rd, scale, tol)
    return _classify_d2(alg, rd, scale, tol)


def _classify_d3(rd, scale, tol):
    if not rd.all_real():
        return _unclassified(
            ("d = 3 with complex roots: finitely many open orbits but absent "
             "from the classification table",),
        )
    if rd.p == 3:
        return ClassificationVerdict(
            "(e)", YES, YES, YES, YES,
            witnesses={"open_orbits": 8, "section": "one point per orthant orbit"},
        )
    if rd.p == 2:
        if len(rd.nilpotent_basis) != 1:
            return _unclassified(("d = 3, p = 2 with unexpected nilpotent dimension",))
        return ClassificationVerdict(
            "(d)", YES, YES, YES, YES,
            witnesses={"open_orbits": 4, "section": "one point per open orbit"},
        )
    # p = 1; a three-dimensional abelian algebra cannot be purely nilpotent
    if rd.zero_root is not None:
        return _unclassified(("d = 3 with a single zero root is not realizable",))
    if len(rd.nilpotent_basis) != 2:
        return _unclassified(("d = 3, p = 1 with unexpected nilpotent dimension",))
    for N in rd.nilpotent_basis:
        if np.linalg.norm(N @ N) > tol * np.linalg.norm(N) ** 2:
            return _unclassified(
                ("d = 3, p = 1 whose nilpotent ideal contains an element with "
                 "nonzero square: not conjugate to case (c), absent from the table",),
            )
    sq = rd.nilpotent_basis[0] @ rd.nilpotent_basis[1]
    if np.linalg.norm(sq) > tol * scale ** 2:
        return _unclassified(("d = 3, p = 1 with non-annihilating nilpotent pair",))
    return ClassificationVerdict(
        "(c)", YES, YES, YES, YES,
        witnesses={"open_orbits": 2, "section": "one point per half-space orbit"},
    )


def _classify_d2(alg, rd, scale, tol):
    all_real = rd.all_real()
    if rd.p == 1:
        if rd.zero_root is not None:
            return ClassificationVerdict(
                "0", NO, UNKNOWN, UNKNOWN, NO,
                notes=("purely nilpotent algebra: det = 1 on H and no compact "
                       "open subset of the orbit space",),
            )
        return _classify_case1(alg, rd, scale, tol)
    if rd.zero_root is not None:
        if not all_real:
            return _unclassified(
                ("zero root together with a complex root: compactness fails but "
                 "the integrability theorem does not apply",),
                compact=NO,
            )
        if rd.p == 2:
            return ClassificationVerdict(
                "2", NO, UNKNOWN, UNKNOWN, NO,
                notes=("dependent pair with a zero root; no compact open subset",),
            )
        return _case4_verdict(0.0, 0.0, notes=("third root vanishes",))
    if rd.p == 2:
        if not all_real:
            return _classify_case3_complex(rd, scale, tol)
        if len(rd.nilpotent_basis) == 1:  # the root rows have rank 1
            return ClassificationVerdict(
                "2", NO, YES, YES, NO,
                witnesses={"section": "{p_2(v) = 0, |p_2(Xv)| = 1} in an adapted basis"},
                notes=("two dependent nonzero real roots; noncompact global section",),
            )
        # independent real roots: Case 3 with real c; needs semisimple block action
        if not rd.semisimple:
            return _unclassified(
                ("p = 2 independent real roots with non-semisimple block action: "
                 "outside the proposition's case analysis",),
            )
        notes, alternates = _merged_root_degeneracy(rd, scale)
        return ClassificationVerdict(
            "3a", YES, YES, YES, YES,
            witnesses={"section": "{v_1^2 + v_2^2 = 1, |v_3| = 1} in an adapted basis"},
            notes=notes,
            alternates=alternates,
        )
    # p = 3: all roots real automatically, none zero here
    return _classify_case4(rd, scale, tol)


def _merged_root_degeneracy(rd, scale):
    """A repeated real root may be a near-degenerate pair merged by the
    clustering; surface the adjacent split-root reading instead of silently
    committing (the split reading of case (b) with alpha*beta != 0 is 'open').
    Its spread is the largest nilpotent part on a real block of dimension >= 2."""
    spread = max((float(np.max(rd.nilpotent[k])) for k in range(rd.p)
                  if rd.is_real(k) and rd.blocks[k].shape[1] > 1), default=0.0)
    if spread <= ROUNDING * scale:
        return (), ()
    warnings.warn(
        f"repeated root with spread {spread:.2e}: may be a merged "
        "near-degenerate pair; adjacent verdict attached",
        DegenerateParameter,
    )
    alt = {
        "params": "split-root reading (case (b), alpha*beta != 0)",
        "compact": YES, "section": NO, "quasi_section": NO, "integrable": OPEN,
    }
    return (f"repeated root carries spread {spread:.2e}",), (alt,)


def _classify_case1(alg, rd, scale, tol) -> ClassificationVerdict:
    """p = 1 with nonzero real root: never compact, never integrable.

    The subcase letter follows the canonical pencil presentation: Y(b) =
    N(A0) + b X with X spanning the nilpotent ideal; 1a if some Y(b) = 0,
    1b if some Y(b)^2 = 0, else 1c.
    """
    lam = rd.balanced_roots[0].real
    X = rd.nilpotent_basis[0]
    a0 = np.linalg.lstsq(lam.reshape(1, -1), np.array([1.0]), rcond=None)[0]
    A0 = alg.balanced_element(a0)
    N0 = A0 - np.eye(3)
    xnorm = np.linalg.norm(X)
    tag = "1c"
    bstar = -float(np.sum(N0 * X)) / float(np.sum(X * X))
    if np.linalg.norm(N0 + bstar * X) <= PENCIL_TOL * scale:
        tag = "1a"
    else:
        C0, C1, C2 = N0 @ N0, N0 @ X + X @ N0, X @ X
        for b in _quadratic_candidates(C0, C1, C2):
            if np.linalg.norm(C0 + b * C1 + b * b * C2) <= PENCIL_TOL * scale ** 2:
                tag = "1b"
                break
    two_layer = np.linalg.norm(X @ X) > tol * xnorm ** 2
    if two_layer:
        return ClassificationVerdict(
            tag, NO, UNKNOWN, UNKNOWN, NO,
            notes=("two nonempty layers (X^2 != 0); conull sets escape to infinity",),
        )
    return ClassificationVerdict(
        tag, NO, YES, YES, NO,
        witnesses={"section": "single-layer section {p_b(v) = 0, |p_b(Xv)| = 1}"},
        notes=("single layer; global noncompact section",),
    )


def _quadratic_candidates(C0, C1, C2):
    cands = {0.0}
    it = np.nditer(C0, flags=["multi_index"])
    for _ in it:
        i, j = it.multi_index
        c2, c1, c0 = C2[i, j], C1[i, j], C0[i, j]
        if abs(c2) > ROUNDING:
            disc = c1 * c1 - 4 * c2 * c0
            if disc >= 0:
                cands.add((-c1 + np.sqrt(disc)) / (2 * c2))
                cands.add((-c1 - np.sqrt(disc)) / (2 * c2))
        elif abs(c1) > ROUNDING:
            cands.add(-c0 / c1)
    return sorted(cands)


def _classify_case3_complex(rd, scale, tol) -> ClassificationVerdict:
    complex_idx = next(k for k in range(rd.p) if not rd.is_real(k))
    real_idx = 1 - complex_idx
    lam1 = rd.balanced_roots[complex_idx]
    lam2 = rd.balanced_roots[real_idx].real
    a = null_space(lam2.reshape(1, -1), tol=ROOT_ROWS_TOL)[:, 0].real
    if a[np.argmax(np.abs(a))] < 0:
        a = -a
    c = complex(np.dot(lam1, a))
    if abs(c.real) > tol * scale:
        alpha = c.imag / c.real
        return ClassificationVerdict(
            "(a)", YES, YES, YES, YES,
            normalized_params=(float(alpha),),
            witnesses={"section": "{v_1^2 + v_2^2 = 1, |v_3| = 1} in an adapted basis"},
        )
    # c purely imaginary: rotation factor; stabilizers are noncompact lattices
    b = np.linalg.lstsq(lam2.reshape(1, -1), np.array([1.0]), rcond=None)[0]
    w = complex(np.dot(lam1, b))
    product_structure = abs(w.real) <= ROOT_PART_TOL * scale
    if product_structure:
        return ClassificationVerdict(
            "3b", NO, NO, NO, NO,
            notes=("c = i: no compact open subset; stabilizers contain a "
                   "noncompact lattice; no integrable projections",),
        )
    return _unclassified(
        ("purely imaginary c with non-product mixing: the paper's factor "
         "argument does not apply",),
        compact=NO,
        section=NO,
        quasi=NO,
    )


def _classify_case4(rd, scale, tol) -> ClassificationVerdict:
    roots = [r.real for r in rd.balanced_roots]
    best, besti = -1.0, None
    for i in range(3):
        for j in range(i + 1, 3):
            det = abs(np.linalg.det(np.stack([roots[i], roots[j]])))
            if det > best:
                best, besti = det, (i, j)
    i, j = besti
    k = 3 - i - j
    ab = np.linalg.solve(np.stack([roots[i], roots[j]]).T, roots[k])
    alpha, beta = float(ab[0]), float(ab[1])
    notes = []
    alternates = []
    snap = tol * scale * 10
    if abs(alpha) <= snap or abs(beta) <= snap:
        if 0 < abs(alpha) <= snap or 0 < abs(beta) <= snap:
            warnings.warn(
                "case-4 parameter within tolerance of zero; emitting adjacent verdicts",
                DegenerateParameter,
            )
            for da, db in ((snap * 10, 0.0), (-snap * 10, 0.0), (0.0, snap * 10), (0.0, -snap * 10)):
                aa = alpha + (da if abs(alpha) <= snap else 0.0)
                bb = beta + (db if abs(beta) <= snap else 0.0)
                if (aa, bb) != (alpha, beta):
                    v = _case4_verdict(aa, bb)
                    alternates.append({"params": (aa, bb), **v.fields()})
        alpha = 0.0 if abs(alpha) <= snap else alpha
        beta = 0.0 if abs(beta) <= snap else beta
        notes.append("near-zero parameter snapped to 0")
    return _case4_verdict(alpha, beta, notes=tuple(notes), alternates=tuple(alternates))


def _case4_verdict(alpha, beta, notes=(), alternates=()) -> ClassificationVerdict:
    compact = alpha > 0 or beta > 0
    if not compact:
        return ClassificationVerdict(
            "4", NO, UNKNOWN, UNKNOWN, NO,
            normalized_params=(alpha, beta),
            notes=tuple(notes) + ("neither normalized parameter positive",),
            alternates=tuple(alternates),
        )
    if alpha * beta == 0:
        return ClassificationVerdict(
            "(b)", YES, YES, YES, YES,
            normalized_params=(alpha, beta),
            witnesses={"section": "{v_i = 1, v_j^2 + v_k^2 = 1} pattern section"},
            notes=tuple(notes),
            alternates=tuple(alternates),
        )
    direction = [1.0, -alpha / beta] if beta > 0 else [0.0, 1.0]
    pair = "((C1, C2))" if beta > 0 else "((C2, C3))"
    return ClassificationVerdict(
        "(b)", YES, NO, NO, OPEN,
        normalized_params=(alpha, beta),
        witnesses={"unbounded_direction": direction, "meeting_pair": pair},
        notes=tuple(notes) + ("compact orbit space without any quasi-section; "
                              "integrability is an open problem",),
        alternates=tuple(alternates),
    )


def classify_diag_nilpotent(A, X, tol: float = DEFAULT_TOL) -> ClassificationVerdict:
    """Diagonalizable + nilpotent commuting pair: integrable only when n = 2."""
    A = as_matrix(A)
    if not A.any():
        raise ValueError("A must be nonzero")
    from .sections import normal_form  # only this procedure needs sections

    fam = normal_form(A, X, tol)  # validates diagonalizability, nilpotency, commuting
    if not any(b.active for b in fam.blocks):
        raise NotNilpotent("X must be a nonzero nilpotent")
    n = A.shape[0]
    if n == 2:
        return ClassificationVerdict(
            "diag_nilp", YES, YES, YES, YES,
            witnesses={"open_orbits": 2, "section": "one point per half-plane orbit"},
            notes=("n = 2: union of two open free orbits",),
        )
    notes = []
    zero_eig = any(b.eigenvalue == 0.0 for b in fam.blocks)
    if zero_eig:
        notes.append("A has eigenvalue 0: projection-to-line argument")
    else:
        notes.append("minimal-layer sections are unbounded hyperplane pairs")
    active = [(b, i) for b in fam.blocks for i in b.active]
    single_layer = len(active) == 1 and not zero_eig
    return ClassificationVerdict(
        "diag_nilp", NO, YES if single_layer else UNKNOWN, YES if single_layer else UNKNOWN, NO,
        witnesses=({"section": "Sigma_a = {p_a(v) = 0, |p_a(Xv)| = 1}"}
                   if single_layer else {}),
        notes=tuple(notes),
    )


def classify_dispatch(alg: DilationAlgebra):
    """The verdict of the procedure that covers the family (d = 1, n = 3, or a
    diagonalizable + nilpotent pair); UnclassifiedFamily when none does."""
    if alg.d == 1:
        return classify_one_param(alg)
    if alg.n == 3 and alg.d in (2, 3):
        return classify3(alg)
    if alg.d == 2:
        from .sections import diag_nilpotent_pair  # only this route needs sections

        pair = diag_nilpotent_pair(alg)
        if pair is not None:
            try:
                return classify_diag_nilpotent(*(alg.element(c) for c in pair), tol=alg.tol)
            except DomainError:
                pass
    raise UnclassifiedFamily(f"no decision procedure covers n = {alg.n}, d = {alg.d}")

