"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated tolerance and budget."""

import time

import numpy as np

from orbitscope import families as F
from orbitscope.classify import classify3, classify_diag_nilpotent
from orbitscope.families import E
from orbitscope.linalg import DilationAlgebra, mat_exp
from orbitscope.orbits import orbit_dim
from orbitscope.quasisection import (
    BoxSet,
    c_i_box,
    diagonal_action,
    is_relatively_compact,
    meeting_system,
    shell_box,
)
from orbitscope.sections import normal_form, section_batch
from orbitscope.wavelet import (
    calderon_check,
    cwt,
    l1_estimate,
    synth_wavelet,
)

from conftest import diag_nilpotent_pair, frequency_lattice, random_diag_nilpotent, series_exp

VERDICT_STORE: list[dict] = []


def _report(num, label, elapsed, budget, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


GOLDEN_TABLE = [
    # (label, builder args, expected (compact, section, quasi, integrable))
    ("a alpha=0.5", lambda: F.family_a(0.5), ("yes", "yes", "yes", "yes")),
    ("a alpha=1", lambda: F.family_a(1.0), ("yes", "yes", "yes", "yes")),
    ("a alpha=2", lambda: F.family_a(2.0), ("yes", "yes", "yes", "yes")),
    ("b (1,1)", lambda: F.family_b(1, 1), ("yes", "no", "no", "open")),
    ("b (1,-1)", lambda: F.family_b(1, -1), ("yes", "no", "no", "open")),
    ("b (2,0.5)", lambda: F.family_b(2, 0.5), ("yes", "no", "no", "open")),
    ("b (1,0)", lambda: F.family_b(1, 0), ("yes", "yes", "yes", "yes")),
    ("b (0,1)", lambda: F.family_b(0, 1), ("yes", "yes", "yes", "yes")),
    ("b (-1,-1)", lambda: F.family_b(-1, -1), ("no", "unknown", "unknown", "no")),
    ("b (-0.5,-2)", lambda: F.family_b(-0.5, -2), ("no", "unknown", "unknown", "no")),
    ("c", F.family_c, ("yes", "yes", "yes", "yes")),
    ("d", F.family_d, ("yes", "yes", "yes", "yes")),
    ("e", F.family_e, ("yes", "yes", "yes", "yes")),
    ("case 0", F.case0, ("no", "unknown", "unknown", "no")),
    ("case 1(a)", F.case1a, ("no", "unknown", "unknown", "no")),
    ("case 1(b)", F.case1b, ("no", "yes", "yes", "no")),
    ("case 1(c)", F.case1c, ("no", "yes", "yes", "no")),
    ("case 2", F.case2, ("no", "yes", "yes", "no")),
    ("case 3(b)", F.case3b, ("no", "no", "no", "no")),
]


def test_criterion_1_golden_classification_table():
    t0 = time.time()
    for label, builder, expected in GOLDEN_TABLE:
        v = classify3(builder())
        got = (v.orbit_space_compact, v.topological_section, v.quasi_section,
               v.integrable)
        assert got == expected, f"{label}: got {got}, expected {expected}"
        if expected[3] == "open":
            a, b = v.normalized_params
            assert a * b != 0
        VERDICT_STORE.append(v.to_json())
    _report(1, "golden classification table (exact categorical match)",
            time.time() - t0, 10)


def test_criterion_2_diag_nilpotent_family():
    t0 = time.time()
    rng = np.random.default_rng(77)
    for i in range(50):
        n = 3 if i % 2 == 0 else 4
        A, X = random_diag_nilpotent(rng, n)
        v = classify_diag_nilpotent(A, X)
        assert v.integrable == "no", f"pair {i} (n={n}) not refused"
        assert v.orbit_space_compact == "no"
        VERDICT_STORE.append(v.to_json())
    A2, X2 = diag_nilpotent_pair(2)
    v2 = classify_diag_nilpotent(A2, X2)
    assert v2.orbit_space_compact == "yes"
    assert v2.witnesses["open_orbits"] == 2
    VERDICT_STORE.append(v2.to_json())
    _report(2, "diag+nilpotent: 50 random pairs refused, n=2 pair compact",
            time.time() - t0, 10)


SECTION_FAMILIES = [
    ("(d)-type", np.diag([1.0, 1.0, 0.0]), E(2, 1)),
    ("case 1(a)", np.eye(3), E(2, 1) + E(3, 2)),
    ("case 1(c)", 1.5 * np.eye(3), E(2, 1) + E(3, 2) + 0.4 * E(3, 1)),
]


def test_criterion_3_section_canonicality():
    t0 = time.time()
    rng = np.random.default_rng(78)
    for label, A, X in SECTION_FAMILIES:
        fam = normal_form(A, X)
        done = 0
        while done < 1000:
            v = rng.standard_normal(3)
            p0 = section_batch(fam, v[None])
            if p0.block[0] < 0:
                continue
            s, t = rng.uniform(-3, 3, 2)
            w = mat_exp(s * A + t * X) @ v
            p1 = section_batch(fam, w[None])
            for p in (p0, p1):
                assert not (p.not_in_layer[0] or p.zero_eigenvalue[0]), label
            err = np.linalg.norm(p1.representative[0] - p0.representative[0])
            bound = 1e-8 * (1.0 + np.linalg.norm(p0.representative[0]))
            assert err <= bound, f"{label}: canonicality error {err:.3g}"
            done += 1
    _report(3, "section canonicality, 1000 draws per family x 3 families",
            time.time() - t0, 30)


def test_criterion_4_orbit_dimension_oracle(golden_families):
    t0 = time.time()
    rng = np.random.default_rng(79)
    algs = list(golden_families.values())
    checked = flagged = 0
    for i in range(500):
        alg = algs[i % len(algs)]
        xi = rng.standard_normal(alg.n) * rng.uniform(0.5, 2.0)
        fd = _fd_rank(alg, xi)
        if fd is None:
            flagged += 1
            continue
        assert orbit_dim(alg, xi) == fd
        checked += 1
    assert checked >= 400, f"too many boundary-flagged draws ({flagged})"
    _report(4, f"orbit-dim = finite-difference rank on {checked}/500 draws",
            time.time() - t0, 30)


def _fd_rank(alg, xi, h=1e-5):
    cols = []
    for j in range(alg.d):
        e = np.zeros(alg.d)
        e[j] = h
        cols.append((mat_exp(-alg.element(e).T) @ xi
                     - mat_exp(-alg.element(-e).T) @ xi) / (2 * h))
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    top = max(s[0], 1.0)
    if any(1e-7 < sv / top < 1e-3 for sv in s):
        return None
    return int(np.sum(s / top >= 1e-3))


def test_criterion_5_quasi_section_dichotomy():
    t0 = time.time()
    act11 = diagonal_action(F.family_b(1.0, 1.0))
    L11, c11 = meeting_system(act11, c_i_box(1, 2.0), c_i_box(2, 2.0))
    bounded, u = is_relatively_compact(L11, c11)
    assert not bounded and u is not None and np.linalg.norm(u) > 0
    assert np.max(L11 @ u) <= 1e-9

    act1m1 = diagonal_action(F.family_b(1.0, -1.0))
    L23, c23 = meeting_system(act1m1, c_i_box(2, 2.0), c_i_box(3, 2.0))
    bounded2, u2 = is_relatively_compact(L23, c23)
    assert not bounded2 and u2 is not None and np.linalg.norm(u2) > 0
    assert np.max(L23 @ u2) <= 1e-9

    act10 = diagonal_action(F.family_b(1.0, 0.0))
    bounded3, _ = is_relatively_compact(
        *meeting_system(act10, shell_box(2.0, act10.k), shell_box(2.0, act10.k)))
    assert bounded3
    _report(5, "meeting-set dichotomy with verified recession witnesses",
            time.time() - t0, 5)


def test_criterion_6_calderon(spec_1d, spec_case_a):
    t0 = time.time()
    rng = np.random.default_rng(80)
    xis1 = (np.exp(rng.uniform(-2, 2, 100)) * rng.uniform(1, 2, 100)
            * np.sign(rng.standard_normal(100))).reshape(-1, 1)
    rep1 = calderon_check(spec_1d, xis1, orders=64)
    assert rep1.n_covered == 100
    assert rep1.max_deviation < 1e-3, f"1-D deviation {rep1.max_deviation:.3g}"

    alg_a = spec_case_a.action.alg
    xi0 = np.array([1.0, 0.7, -1.2])
    samples = np.array([
        mat_exp(-alg_a.element(rng.uniform(-1.2, 1.2, 2)).T)
        @ (xi0 * rng.uniform(0.85, 1.2, 3))
        for _ in range(100)
    ])
    rep2 = calderon_check(spec_case_a, samples, orders=64)
    assert rep2.n_covered == 100
    assert rep2.max_deviation < 1e-3, f"case-(a) deviation {rep2.max_deviation:.3g}"
    _report(6, f"Calderon deviation {max(rep1.max_deviation, rep2.max_deviation):.2e} "
               "< 1e-3 on 100 covered samples (order 64/dim)",
            time.time() - t0, 120)


def test_criterion_7_discrete_isometry(spec_1d):
    t0 = time.time()
    rng = np.random.default_rng(81)
    # n = 1 on a 256-point grid
    N, dx = 256, 0.3
    freqs1 = frequency_lattice((N,), (dx,))
    lo, hi = spec_1d.param_box[0]
    wlo, whi = spec_1d.W.bounds[0]
    band1 = ((np.abs(freqs1[:, 0]) > whi * np.exp(-hi) * 1.1)
             & (np.abs(freqs1[:, 0]) < wlo * np.exp(-lo) / 1.1))
    ratios = []
    for _ in range(20):
        fh = ((rng.standard_normal(N) + 1j * rng.standard_normal(N))
              * band1.reshape(N))
        f = np.fft.ifftn(fh) / dx
        ratios.append(cwt(spec_1d, f, dx, param_counts=64).isometry_ratio())
    assert all(0.95 <= r <= 1.05 for r in ratios), f"1-D ratios {ratios}"

    # n = 2 rotation-scaling sub-block of case (a) on a 64^2 grid
    alg2 = DilationAlgebra([np.array([[1.0, -1.0], [1.0, 1.0]])])
    spec2 = synth_wavelet(diagonal_action(alg2), BoxSet([(1.0, 2.0)]))
    N2, dx2 = 64, np.pi / 10.0
    freqs2 = frequency_lattice((N2, N2), (dx2, dx2))
    rad = np.linalg.norm(freqs2, axis=1)
    lo2, hi2 = spec2.param_box[0]
    wlo2, whi2 = spec2.W.bounds[0]
    band2 = (rad > whi2 * np.exp(-hi2) * 1.1) & (rad < wlo2 * np.exp(-lo2) / 1.1)
    ratios2 = []
    for _ in range(20):
        fh = ((rng.standard_normal(N2 * N2) + 1j * rng.standard_normal(N2 * N2))
              * band2).reshape(N2, N2)
        f = np.fft.ifftn(fh) / dx2 ** 2
        ratios2.append(cwt(spec2, f, dx2, param_counts=96).isometry_ratio())
    assert all(0.95 <= r <= 1.05 for r in ratios2), f"2-D ratios {ratios2}"
    spread = max(abs(r - 1) for r in ratios + ratios2)
    _report(7, f"discrete isometry within {spread:.2%} of 1 for 40 signals",
            time.time() - t0, 300)


def test_criterion_8_l1_finiteness_and_stability(spec_1d):
    t0 = time.time()
    r128 = l1_estimate(spec_1d, 128, 0.6, param_counts=96)
    r256 = l1_estimate(spec_1d, 256, 0.3, param_counts=96)
    assert np.isfinite(r128.value) and r128.value > 0
    rel = abs(r128.value - r256.value) / r256.value
    assert rel <= 0.10, f"grid-doubling drift {rel:.3f}"
    assert r128.containment_max <= 1e-12
    assert r256.containment_max <= 1e-12
    _report(8, f"L1 bound {r256.value:.4f} stable to {rel:.2%}; support confined "
               f"to the meeting-set box ({r256.containment_max:.1e})",
            time.time() - t0, 300)


def test_criterion_9_mat_exp_accuracy():
    t0 = time.time()
    rng = np.random.default_rng(82)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        nrm = np.linalg.norm(M)
        if nrm > 0:
            M *= rng.uniform(0.1, 2.0) / nrm
        worst = max(worst, float(np.max(np.abs(mat_exp(M) - series_exp(M)))))
    assert worst < 1e-10
    _report(9, f"mat_exp vs 60-term series oracle: max error {worst:.2e}",
            time.time() - t0, 5)


def test_criterion_10_consistency_triangle():
    t0 = time.time()
    if not VERDICT_STORE:  # criteria 1-2 not run in this session
        for _, builder, _ in GOLDEN_TABLE:
            VERDICT_STORE.append(classify3(builder()).to_json())
    assert len(VERDICT_STORE) >= 19
    for doc in VERDICT_STORE:
        if doc["section"] == "yes":
            assert doc["quasi_section"] == "yes", doc
        if doc["integrable"] == "yes":
            assert doc["compact"] == "yes", doc
        if doc["integrable"] == "open":
            assert doc["case_tag"] == "(b)", doc
            a, b = doc["normalized_params"]
            assert a * b != 0, doc
    _report(10, f"consistency triangle holds on {len(VERDICT_STORE)} verdicts",
            time.time() - t0, 5)
