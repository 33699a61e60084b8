"""Seeded inputs, job lists and output checks for the benchmark workloads.

Every input is derived from the workload seed; the program only sees the
files written here.  Each job carries its own output check, and a job that
fails its check counts as failed.  The tolerances are the acceptance
criteria's and are never loosened.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# imported from the checkout under test, whose src/ run.py puts on sys.path
from orbitscope import errors as osc_errors
from orbitscope.groupspec import validate_report

# Expected (case tag, compact, section, quasi_section, integrable) of every
# golden and case family; the same rows as tests/test_acceptance.py.
GOLDEN = {
    "a": ("(a)", "yes", "yes", "yes", "yes"),
    "b": ("(b)", "yes", "no", "no", "open"),
    "c": ("(c)", "yes", "yes", "yes", "yes"),
    "d": ("(d)", "yes", "yes", "yes", "yes"),
    "e": ("(e)", "yes", "yes", "yes", "yes"),
    "case0": ("0", "no", "unknown", "unknown", "no"),
    "case1a": ("1a", "no", "unknown", "unknown", "no"),
    "case1b": ("1b", "no", "yes", "yes", "no"),
    "case1c": ("1c", "no", "yes", "yes", "no"),
    "case2": ("2", "no", "yes", "yes", "no"),
    "case3b": ("3b", "no", "no", "no", "no"),
}
VERDICT_KEYS = ("case_tag", "compact", "section", "quasi_section", "integrable")

CALDERON_MAX_DEV = 1e-3  # criterion 6, at quad order 64
L1_CONTAINMENT_MAX = 1e-12  # criterion 8
ISOMETRY_BAND = (0.95, 1.05)  # criterion 7
SECTION_REL_TOL = 1e-8  # criterion 3


@dataclass
class Job:
    """One CLI invocation: `argv` goes to orbitscope.cli; `check` returns the
    list of problems found in its outputs (empty when correct)."""

    kind: str
    argv: list
    check: Callable
    report: str | None = None
    side_outputs: list = field(default_factory=list)
    expect_exit: tuple = (0,)  # exit codes that pass on to the check
    note: dict = field(default_factory=dict)  # values the check records


@dataclass
class Workload:
    round: list  # the jobs of one round, in order
    cold: list  # one cheap job per distinct subcommand, run untimed in set-up


# ---------------------------------------------------------------- families

def _E(i, j, n=3):
    M = np.zeros((n, n))
    M[i - 1, j - 1] = 1.0
    return M


def _family(name):
    """Generators of the golden and case families (as in orbitscope.families)."""
    rot = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    return {
        "a": [rot, np.diag([0.0, 0.0, 1.0])],
        "b": [np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0])],
        "c": [np.eye(3), _E(2, 1), _E(3, 1)],
        "d": [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]), _E(2, 1)],
        "e": [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])],
        "case0": [_E(3, 1), _E(3, 2)],
        "case1a": [np.eye(3), _E(2, 1) + _E(3, 2)],
        "case1b": [np.eye(3) + _E(2, 1), _E(3, 1)],
        "case1c": [np.eye(3) + _E(2, 1) + _E(3, 2), _E(3, 1)],
        "case2": [np.diag([1.0, 1.0, 2.0]), _E(2, 1)],
        "case3b": [np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                   np.diag([0.0, 0.0, 1.0])],
    }[name]


def _well_conditioned(rng, n):
    """Orthogonal times a diagonal in [e^-0.5, e^0.5]: condition number <= e."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(np.exp(rng.uniform(-0.5, 0.5, n)))


def _conjugate(gens, P):
    return [np.linalg.solve(P, G @ P) for G in gens]


def _spec(gens, **extra):
    gens = [np.asarray(G, dtype=float) for G in gens]
    return {"n": gens[0].shape[0], "generators": [G.ravel().tolist() for G in gens], **extra}


def _diag_nilpotent(rng, n):
    """Commuting (A diagonalizable with positive spectrum, X nilpotent) pair in
    a seeded basis, with the rank of X (its number of active layers)."""
    while True:
        sizes, left = [], n
        while left > 0:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        if any(s >= 2 for s in sizes):
            break
    eigs, N, off = [], np.zeros((n, n)), 0
    for s in sizes:
        eigs.extend([float(rng.uniform(0.2, 3.0))] * s)
        for i in range(1, s):
            if rng.random() < 0.6:
                N[off + i, off + i - 1] = 1.0
        off += s
    if not N.any():
        off = next(sum(sizes[:k]) for k, s in enumerate(sizes) if s >= 2)
        N[off + 1, off] = 1.0
    P = _well_conditioned(rng, n)
    A = np.linalg.solve(P, np.diag(eigs) @ P)
    X = np.linalg.solve(P, N @ P)
    return A, X, int(N.sum())


# ------------------------------------------------------------------ checks

def _load_report(job):
    """The job's report, validated against the published schema."""
    with open(job.report, encoding="utf-8") as fh:
        report = json.load(fh)
    validate_report(report)
    return report


def _verdict_problems(got, expected):
    row = tuple(got.get(k) for k in VERDICT_KEYS)
    return [] if row == tuple(expected) else [f"verdict {row} != expected {tuple(expected)}"]


def check_table(job, code, stderr):
    rows = {v["family"]: v for v in _load_report(job)["payload"]["verdicts"]}
    if set(rows) != set("abcde"):
        return [f"table families {sorted(rows)}"]
    return [p for name in "abcde" for p in _verdict_problems(rows[name], GOLDEN[name])]


def check_verdict(expected, known_refusal=None):
    """The verdict must match `expected`; `known_refusal` names a DomainError
    the job may exit 2 with instead (a known gap, recorded in job.note)."""
    def check(job, code, stderr):
        if code == 2 and known_refusal and f"({known_refusal})" in stderr:
            job.note["known_gap"] = known_refusal
            return []
        verdicts = _load_report(job)["payload"]["verdicts"]
        return _verdict_problems(verdicts[0], expected)
    return check


def check_strata(job, code, stderr):
    payload = _load_report(job)["payload"]
    problems = []
    if not payload["top_stratum_conull"]:
        problems.append("top stratum not conull")
    if payload["d_max"] != payload["group_dim"]:
        problems.append(f"d_max {payload['d_max']} != group dim {payload['group_dim']}")
    return problems


def check_section(job, code, stderr):
    records = _load_report(job)["payload"]["records"]
    half = len(records) // 2
    if len(records) != 2 * half or half == 0:
        return [f"{len(records)} section records"]
    problems = []
    for i, (r0, r1) in enumerate(zip(records[:half], records[half:])):
        if r0.get("layer") is None or r1.get("layer") is None:
            problems.append(f"point {i} or its orbit-mate has no layer")
            continue
        p0, p1 = np.array(r0["representative"]), np.array(r1["representative"])
        if np.linalg.norm(p1 - p0) > SECTION_REL_TOL * (1.0 + np.linalg.norm(p0)):
            problems.append(f"point {i}: representatives differ")
    return problems[:5]


def check_quasisection(expected, weights, boxes):
    """`no` answers must carry a witness u != 0 with L u <= 0 for the meeting
    system of some pair of probe boxes (weights: block roots, rows)."""
    def check(job, code, stderr):
        v = _load_report(job)["payload"]["verdict"]
        if v["quasi_section_exists"] != expected:
            return [f"quasi_section_exists {v['quasi_section_exists']!r} != {expected!r}"]
        if expected != "no":
            return []
        u = np.asarray(v.get("witness_direction") or [], dtype=float)
        if u.size != weights.shape[1] or not np.linalg.norm(u) > 0:
            return ["missing witness direction"]
        for lo1 in boxes:
            for lo2 in boxes:
                rows = [weights[k] for k in range(len(lo1)) if lo1[k] > 0]
                rows += [-weights[k] for k in range(len(lo2)) if lo2[k] > 0]
                if np.max(np.array(rows) @ u) <= 1e-9:
                    return []
        return ["witness is not a recession direction of any meeting system"]
    return check


def check_refused(error_name):
    def check(job, code, stderr):
        return [] if f"({error_name})" in stderr else [f"stderr lacks {error_name}"]
    return check


def check_wavelet(job, code, stderr):
    payload = _load_report(job)["payload"]
    cal, l1 = payload["calderon"], payload["l1"]
    problems = []
    if not cal["max_deviation"] < CALDERON_MAX_DEV:
        problems.append(f"Calderon deviation {cal['max_deviation']}")
    if cal["n_uncovered"] != 0:
        problems.append(f"{cal['n_uncovered']} Calderon samples uncovered")
    if not l1["support_containment_max"] <= L1_CONTAINMENT_MAX:
        problems.append(f"L1 support containment {l1['support_containment_max']}")
    return problems


def check_cwt(job, code, stderr):
    payload = _load_report(job)["payload"]
    ratio = payload["isometry_ratio"]
    return [] if ISOMETRY_BAND[0] <= ratio <= ISOMETRY_BAND[1] else [f"isometry ratio {ratio}"]


def _domain_error_names():
    names, todo = set(), [osc_errors.DomainError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def check_out_of_band(job, code, stderr):
    """Known gap: the transform integrates over a fixed parameter box whatever
    the signal's spectrum, so this input loses energy (ratio about 0.78)
    without a warning.  Recorded, not gated: passes with a valid report, or
    with exit 2 naming a DomainError."""
    if code == 0:
        ratio = _load_report(job)["payload"]["isometry_ratio"]
        job.note["out_of_band_isometry"] = ratio
        job.note["known_gap"] = f"out-of-band isometry ratio {ratio:.3f}"
        return []
    if code == 2 and any(f"({name})" in stderr for name in _domain_error_names()):
        return []
    return [f"exit {code} without a named DomainError"]


# --------------------------------------------------------------- workloads

class _Inputs:
    """Writes input files under `workdir` and builds jobs over them."""

    def __init__(self, workdir):
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write_json(self, name, doc):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def job(self, kind, sub, doc, check, flags=(), side=(), expect_exit=(0,)):
        argv = [sub]
        if doc is not None:
            argv += ["--input", self.write_json(kind + ".json", doc)]
        report = None
        if 0 in expect_exit:
            report = self.path(kind + ".out.json")
            argv += ["--out", report]
        argv += list(flags)
        return Job(kind=kind, argv=argv, check=check, report=report,
                   side_outputs=[report + s for s in side] if report else [],
                   expect_exit=expect_exit)


def _case_b_boxes(rho):
    """The case-(b) three-box union C_1 u C_2 u C_3 (one block bounded above only)."""
    boxes = []
    for i in range(3):
        bounds = [[1.0 / rho, rho] for _ in range(3)]
        bounds[i] = [0.0, rho]
        boxes.append(bounds)
    return boxes


def verdicts(seed, workdir, strata_grid=4096, section_points=1000):
    rng = np.random.default_rng([seed, 1])
    io = _Inputs(workdir)
    jobs = [io.job("classify.table", "classify", None, check_table, flags=["--table"])]
    # Known gap: in a generic basis, root clustering often fails
    # (IllConditioned) when the nilpotent part has a Jordan block of size
    # >= 3: for case 1(a) under about 1 P in 5, and for about 2 in 3 of the
    # diag+nilpotent pairs that have such a block.  Those two jobs may exit 2
    # with that error; any other outcome must be the golden verdict.
    for name in GOLDEN:
        gens = _conjugate(_family(name), _well_conditioned(rng, 3))
        refusal = "IllConditioned" if name == "case1a" else None
        jobs.append(io.job(f"classify.{name}", "classify", _spec(gens),
                           check_verdict(GOLDEN[name], refusal),
                           expect_exit=(0, 2) if refusal else (0,)))
    n = int(rng.integers(4, 7))
    A, X, rank = _diag_nilpotent(rng, n)
    single = "yes" if rank == 1 else "unknown"
    jobs.append(io.job("classify.dispatch", "classify", _spec([A + X, A - 2.0 * X]),
                       check_verdict(("diag_nilp", "no", single, single, "no"),
                                     "IllConditioned"), expect_exit=(0, 2)))
    jobs.append(io.job("strata", "strata",
                       _spec(_conjugate(_family("d"), _well_conditioned(rng, 3))),
                       check_strata, flags=["--grid", str(strata_grid)], side=[".csv"]))
    jobs.append(io.job("section", "section", _section_doc(rng, section_points),
                       check_section, side=[".jsonl"]))
    rho = float(rng.uniform(1.5, 3.0))
    union = _case_b_boxes(rho)
    weights_b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # roots of family (b)
    lowers = [[lo for lo, _ in box] for box in union]
    jobs.append(io.job("quasisection.union", "quasisection", _spec(
        _family("b"), boxes=[{"bounds": b} for b in union], orbit_space_compact=True),
        check_quasisection("no", weights_b, lowers)))
    rho_e = float(rng.uniform(1.5, 3.0))
    jobs.append(io.job("quasisection.shell", "quasisection", _spec(
        _family("e"), box={"bounds": [[1.0 / rho_e, rho_e]] * 3}),
        check_quasisection("yes", None, None)))
    jobs.append(io.job("wavelet.refused", "wavelet", _spec(
        _family("b"), box={"bounds": [[0.0, rho], [0.0, rho], [1.0 / rho, rho]]}),
        check_refused("QuasiSectionRefused"), expect_exit=(2,)))
    cold = [
        io.job("cold.classify", "classify", None, check_table, flags=["--table"]),
        io.job("cold.strata", "strata", _spec(_family("d")), check_strata,
               flags=["--grid", "16"], side=[".csv"]),
        io.job("cold.section", "section", _section_doc(rng, 4), check_section,
               side=[".jsonl"]),
        io.job("cold.quasisection", "quasisection",
               _spec(_family("e"), box={"bounds": [[0.5, 2.0]] * 3}),
               check_quasisection("yes", None, None)),
        io.job("cold.wavelet", "wavelet", _spec(
            _family("b"), box={"bounds": [[0.0, 2.0], [0.0, 2.0], [0.5, 2.0]]}),
            check_refused("QuasiSectionRefused"), expect_exit=(2,)),
    ]
    return Workload(jobs, cold)


def _section_doc(rng, count):
    """(d)-type pair A = diag(1, 1, 0), X = e21 with `count` layered points
    followed by one orbit-mate exp(sA + tX) v of each."""
    A, X = np.diag([1.0, 1.0, 0.0]), _E(2, 1)
    v = rng.standard_normal((count, 3))
    v[:, 0] = np.where(np.abs(v[:, 0]) < 0.05, 0.05, v[:, 0])  # p_2(Xv) = v_1 != 0
    s, t = rng.uniform(-3.0, 3.0, (2, count))
    # A and X commute, so exp(sA + tX) = diag(e^s, e^s, 1) (I + tX) exactly
    w = v.copy()
    w[:, 1] += t * v[:, 0]
    w[:, :2] *= np.exp(s)[:, None]
    return _spec([A, X], points=np.concatenate([v, w]).tolist())


def _wavelet_inputs(rng):
    """The three admissible-wavelet inputs of the workloads, each box scaled
    by a seeded factor (the groups contain the scalings, so difficulty and
    tolerances do not change)."""
    s = np.exp(rng.uniform(-0.2, 0.2, 3))
    return {
        "1d": _spec([np.array([[1.0]])], box={"bounds": [[s[0], 2.0 * s[0]]]}),
        "2d": _spec([np.array([[1.0, -1.0], [1.0, 1.0]])],
                    box={"bounds": [[s[1], 2.0 * s[1]]]}),
        "case_a": _spec(_family("a"), box={"bounds": [[0.5 * s[1], 2.0 * s[1]],
                                                      [0.5 * s[2], 2.0 * s[2]]]}),
    }, s


def wavelets(seed, workdir, samples=100, grid=None):
    rng = np.random.default_rng([seed, 2])
    io = _Inputs(workdir)
    docs, _ = _wavelet_inputs(rng)
    flags = ["--quad-order", "64"] + (["--grid", str(grid)] if grid else [])
    jobs = [io.job(f"wavelet.{name}", "wavelet", dict(doc, samples=samples), check_wavelet,
                   flags=flags, side=["_ghat.csv"]) for name, doc in docs.items()]
    cold = [io.job("cold.wavelet", "wavelet", dict(docs["1d"], samples=2), check_wavelet,
                   flags=["--grid", "16"], side=["_ghat.csv"])]
    return Workload(jobs, cold)


def _band_signal(rng, shape, dx, band):
    """Real signal on the lattice whose spectrum lies in band[0] < |xi| < band[1]."""
    axes = [2.0 * np.pi * np.fft.fftfreq(N, dx) for N in shape]
    rad = np.sqrt(sum(g ** 2 for g in np.meshgrid(*axes, indexing="ij")))
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = np.real(np.fft.ifftn(spec * ((rad > band[0]) & (rad < band[1]))))
    return f / np.sqrt(np.mean(f ** 2))


def _in_band(box_lo, box_hi, param_box):
    """Frequencies reached by every parameter of the transform: the
    enlargement W = [lo/1.25, 1.25 hi] scaled by exp(-t) over the box
    (the same margins as criterion 7)."""
    t_lo, t_hi = param_box
    return (1.25 * box_hi * np.exp(-t_hi) * 1.1, box_lo / 1.25 * np.exp(-t_lo) / 1.1)


def transforms(seed, workdir, n1=4096, counts1=256, n2=128, counts2=96):
    rng = np.random.default_rng([seed, 3])
    io = _Inputs(workdir)
    docs, s = _wavelet_inputs(rng)
    jobs = []
    # parameter box of these one-parameter specs: ((W, W)) is |t| <= ln(W_hi/W_lo),
    # padded on each side by 15% of its width (meeting_param_box)
    half = np.log(2.5 / 0.8) * 1.3
    for name, shape, dx, counts in (("1d", (n1,), 0.3, counts1),
                                    ("2d", (n2, n2), np.pi / 10.0, counts2),
                                    ("cold", (256,), 0.3, 32)):
        k = 1 if name == "2d" else 0
        band = _in_band(s[k], 2.0 * s[k], (-half, half))
        sig = io.path(f"signal_{name}.csv")
        np.savetxt(sig, _band_signal(rng, shape, dx, band), delimiter=",")
        doc = dict(docs["2d" if k else "1d"], signal=sig, dx=dx, param_counts=counts)
        jobs.append(io.job(f"cwt.{name}", "cwt", doc, check_cwt, side=["_coeffs.npz"]))
    cold = [jobs.pop()]
    # a Gaussian whose spectrum reaches beyond the 1-D box [1, 2]
    N, dx = 256, 0.05
    x = (np.arange(N) - N // 2 + int(rng.integers(-8, 9))) * dx
    sig = io.path("signal_gauss.csv")
    np.savetxt(sig, np.exp(-x ** 2 / 0.05), delimiter=",")
    doc = _spec([np.array([[1.0]])], box={"bounds": [[1.0, 2.0]]}, signal=sig, dx=dx,
                param_counts=64)
    jobs.append(io.job("cwt.out_of_band", "cwt", doc, check_out_of_band,
                       side=["_coeffs.npz"], expect_exit=(0, 2)))
    return Workload(jobs, cold)


WORKLOADS = {"verdicts": verdicts, "wavelets": wavelets, "transforms": transforms}
