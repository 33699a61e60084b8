"""Batch front end: group-spec files in, JSON reports out.

Subcommands: classify | strata | section | quasisection | wavelet | cwt.
Exit status 0 on success, 2 on named domain errors, 1 on I/O, parse or
input errors: `section` points that are not a finite (m, n) array; a `cwt`
signal that is zero everywhere, has a non-finite sample, or is not an
n-axis lattice with power-of-two sizes; a `cwt` "dx" that is not a finite
number > 0 or "param_counts" that is not an integer >= 1; a `wavelet`
"samples" that is not an integer >= 1.  `section` answers all its points
with one batched call; a point without a section gets a record naming
NotInLayer or ZeroEigenvalue.  Reports are deterministic for fixed inputs
and flags (modulo the timestamp header field) and carry a provenance header
with version, seed, and tolerance overrides.  ORBITSCOPE_THREADS is
accepted and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from dataclasses import dataclass

import numpy as np

from . import families
from .classify import classify3, classify_diag_nilpotent, classify_one_param
from .errors import (
    DomainError,
    InputError,
    NotInLayer,
    UnclassifiedFamily,
    ZeroEigenvalue,
)
from .groupspec import (
    dump_report,
    group_spec_from_dict,
    load_json,
    make_report,
    validate_report,
)
from .linalg import DilationAlgebra, rank_tol, roots_decompose
from .orbits import SampleSpec, stratify
from .quasisection import BoxSet, diagonal_action, quasi_section_verdict
from .sections import normal_form, section_batch
from .wavelet import _mesh, calderon_check, cwt as run_cwt, l1_estimate, synth_wavelet

DEFAULT_SEED = 1729
_CSV_CHUNK_ROWS = 4096
_GHAT_MAX_PER_AXIS = 64
_GHAT_MAX_ROWS = 4096


@dataclass
class RunConfig:
    subcommand: str
    input: str | None
    out: str | None
    tol: float | None
    quad_order: int
    grid: int
    seed: int
    table: bool

    def overrides(self) -> dict:
        keep = {}
        if self.tol is not None:
            keep["tol"] = self.tol
        keep["quad_order"] = self.quad_order
        keep["grid"] = self.grid
        return keep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbitscope", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("classify", "strata", "section", "quasisection", "wavelet", "cwt"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="input JSON file")
        sp.add_argument("--out", help="output report path (stdout when omitted)")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--quad-order", type=int, default=64, dest="quad_order")
        sp.add_argument("--grid", type=int, default=128, help="lattice size per axis")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "classify":
            sp.add_argument("--table", action="store_true",
                            help="emit the five-family golden table")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        subcommand=args.subcommand,
        input=args.input,
        out=args.out,
        tol=args.tol,
        quad_order=args.quad_order,
        grid=args.grid,
        seed=args.seed,
        table=getattr(args, "table", False),
    )
    handler = {
        "classify": _cmd_classify,
        "strata": _cmd_strata,
        "section": _cmd_section,
        "quasisection": _cmd_quasisection,
        "wavelet": _cmd_wavelet,
        "cwt": _cmd_cwt,
    }[cfg.subcommand]
    try:
        for flag, value in (("--grid", cfg.grid), ("--quad-order", cfg.quad_order)):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
        payload = handler(cfg)
    except DomainError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 2
    except (InputError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    report = make_report(cfg.subcommand, payload, seed=cfg.seed,
                         tol=cfg.tol if cfg.tol is not None else 1e-9,
                         overrides=cfg.overrides())
    validate_report(report)
    text = dump_report(report, cfg.out)
    if not cfg.out:
        sys.stdout.write(text)
    return 0


def _load_alg(cfg: RunConfig, doc=None) -> DilationAlgebra:
    if doc is None:
        if not cfg.input:
            raise InputError("--input is required")
        doc = load_json(cfg.input)
    if cfg.tol is not None:
        doc = dict(doc)
        doc["tol"] = cfg.tol
    return group_spec_from_dict(doc)


def classify_dispatch(alg: DilationAlgebra):
    """Route an algebra to the applicable decision procedure."""
    if alg.d == 1:
        return classify_one_param(alg.generators[0])
    if alg.n == 3 and alg.d in (2, 3):
        return classify3(alg)
    if alg.d == 2:
        rd = roots_decompose(alg)
        if len(rd.nilpotent_basis) == 1:
            X = rd.nilpotent_basis[0]
            A = _semisimple_direction(alg, rd, X)
            if A is not None:
                try:
                    return classify_diag_nilpotent(A, X, tol=alg.tol)
                except DomainError:
                    pass
    raise UnclassifiedFamily(
        f"no decision procedure covers n = {alg.n}, d = {alg.d}"
    )


def _semisimple_direction(alg, rd, X):
    """Semisimple part of a non-nilpotent generator, if it stays in the span.

    For span{A diagonalizable, X nilpotent} the Jordan-Chevalley nilpotent
    part of any g = aA + bX is bX, so the semisimple part aA lies in the
    algebra; families where it escapes the span are not of this type.
    """
    if not rd.all_real():
        return None
    P = np.hstack(rd.blocks)
    Pinv = np.linalg.inv(P)
    for j, G in enumerate(alg.generators):
        diag = np.concatenate([
            np.full(V.shape[1], lam[j].real) for lam, V in zip(rd.roots, rd.blocks)
        ])
        S = P @ np.diag(diag) @ Pinv  # oblique spectral combination = g_s
        if np.linalg.norm(S) < 1e-10:
            continue
        stacked = np.stack([g.ravel() for g in alg.generators] + [S.ravel()])
        if rank_tol(stacked, 1e-8) == alg.d:
            return S
    return None


def _cmd_classify(cfg: RunConfig) -> dict:
    if cfg.table:
        rows = [
            ("a", families.family_a(1.0)),
            ("b", families.family_b(1.0, 1.0)),
            ("c", families.family_c()),
            ("d", families.family_d()),
            ("e", families.family_e()),
        ]
        verdicts = [{"family": name, **classify3(alg).to_json()} for name, alg in rows]
        return {"verdicts": verdicts}
    alg = _load_alg(cfg)
    verdict = classify_dispatch(alg)
    return {"verdicts": [verdict.to_json()]}


def _cmd_strata(cfg: RunConfig) -> dict:
    alg = _load_alg(cfg)
    spec = SampleSpec(kind="cloud", count=cfg.grid * 4, seed=cfg.seed)
    rep = stratify(alg, spec, conull_threshold=0.99)
    csv_path = (cfg.out or "strata") + ".csv"
    _write_csv(csv_path, [f"xi_{i + 1}" for i in range(alg.n)] + ["orbit_dim"],
               np.array([xi + (d,) for xi, d in rep.probes]),
               ",".join(["%.12g"] * alg.n + ["%d"]))
    payload = rep.to_json()
    del payload["n_probes"]
    return {**payload, "csv": csv_path}


def _cmd_section(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise InputError("--input is required")
    doc = load_json(cfg.input)
    alg = _load_alg(cfg, doc)
    if alg.d != 2:
        raise InputError("section expects exactly two generators (A, X)")
    V = _parse_points(doc.get("points"), alg.n)
    A, X = alg.generators
    sec = section_batch(normal_form(A, X, tol=alg.tol), V)
    error = np.where(sec.zero_eigenvalue, ZeroEigenvalue.__name__,
                     np.where(sec.not_in_layer, NotInLayer.__name__, ""))
    records = [
        {"point": pt, "layer": None, "error": err} if err else
        {"point": pt, "block": blk, "eigenvalue": lam, "layer": b, "representative": rep,
         "witness_s": s, "witness_t": t, "sign": sign}
        for pt, err, blk, lam, b, rep, s, t, sign in zip(
            V.tolist(), error.tolist(), sec.block.tolist(), sec.eigenvalue.tolist(),
            sec.b.tolist(), sec.representative.tolist(), sec.s.tolist(), sec.t.tolist(),
            sec.sign.tolist())
    ]
    if cfg.out:
        with open(cfg.out + ".jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"records": records, "n_points": len(records)}


def _parse_points(points, n: int) -> np.ndarray:
    """The 'points' input as a finite (m, n) float array with m >= 1."""
    expected = f"'points' must be a non-empty list of points with {n} finite numbers each"
    try:
        V = np.array(points)
    except ValueError as err:  # ragged nesting
        raise InputError(f"{expected}: {err}") from err
    if V.dtype.kind not in "iuf" or V.ndim != 2 or V.shape[0] == 0 or V.shape[1] != n:
        raise InputError(expected)
    V = V.astype(float)
    if not np.all(np.isfinite(V)):
        raise InputError(f"{expected}: non-finite entry")
    return V


def _parse_box(entry, action, name: str) -> BoxSet:
    """A box object from the input, with one (lo, hi) bound per action block."""
    if not isinstance(entry, dict) or "bounds" not in entry:
        raise InputError(f"invalid box: {name} must be an object with 'bounds'")
    try:
        box = BoxSet(entry["bounds"])
    except (TypeError, ValueError) as err:
        raise InputError(f"invalid box: {name}: {err}") from err
    if box.k != action.k:
        raise InputError(f"invalid box: {name} bounds {box.k} blocks, "
                         f"the action has {action.k}")
    return box


def _cmd_quasisection(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise InputError("--input is required")
    doc = load_json(cfg.input)
    alg = _load_alg(cfg, doc)
    action = diagonal_action(alg)
    if "boxes" in doc:
        entries = doc["boxes"]
        if not isinstance(entries, list) or not entries:
            raise InputError("invalid box: 'boxes' must be a non-empty list")
        boxes = [_parse_box(b, action, f"boxes[{i}]") for i, b in enumerate(entries)]
    else:
        boxes = _parse_box(doc.get("box"), action, "'box'")
    compact = doc.get("orbit_space_compact")
    verdict = quasi_section_verdict(action, boxes, orbit_space_compact=compact,
                                    seed=cfg.seed)
    return {"verdict": verdict.to_json()}


def _wavelet_spec(cfg: RunConfig, doc) -> tuple:
    alg = _load_alg(cfg, doc)
    action = diagonal_action(alg)
    C = _parse_box(doc.get("box"), action, "'box'")
    W = _parse_box(doc["W"], action, "'W'") if "W" in doc else None
    spec = synth_wavelet(action, C, W, orders=cfg.quad_order)
    return action, spec


def _calderon_samples(action, spec, count, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n, d = action.alg.n, action.d
    mids = np.array([np.sqrt(max(lo, hi / 16.0) * hi) for lo, hi in spec.C.bounds])
    out = []
    while len(out) < count:
        r = mids * np.exp(rng.uniform(-0.15, 0.15, action.k))
        vecs = [rng.standard_normal(sl.stop - sl.start) for sl in action.slices]
        # h_t^T scales block k by exp(mu_k . t), and only block magnitudes are read
        r = r * np.exp(action.weights @ rng.uniform(-1.0, 1.0, d))
        w = np.zeros(n)
        for sl, rk, vec in zip(action.slices, r, vecs):
            w[sl] = rk * vec / np.linalg.norm(vec)
        out.append(np.linalg.solve(action.basis.T, w))
    return np.array(out)


def _cmd_wavelet(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise InputError("--input is required")
    doc = load_json(cfg.input)
    action, spec = _wavelet_spec(cfg, doc)
    count = doc.get("samples", 100)
    if type(count) is not int or count < 1:
        raise InputError(f"'samples' must be an integer >= 1, got {count!r}")
    samples = _calderon_samples(action, spec, count, cfg.seed)
    cal = calderon_check(spec, samples)
    hi = max(hi for _, hi in spec.W.bounds)
    dx = np.pi / (4.0 * hi)
    # lattice sizes scale down with dimension: the L1 slice count is
    # param_counts^d and each slice is an n-dimensional FFT
    n = action.alg.n
    shape = min(cfg.grid, {1: 256, 2: 64}.get(n, 32))
    counts = min(cfg.quad_order, 64) if action.d == 1 else min(cfg.quad_order, 20)
    l1 = l1_estimate(spec, shape, dx, param_counts=counts)
    ghat_csv = None
    if cfg.out:
        ghat_csv = cfg.out + "_ghat.csv"
        _export_ghat(spec, ghat_csv, per_axis=min(cfg.grid, 64))
    return {
        "spec": spec.to_json(),
        "calderon": cal.to_json(),
        "l1": l1.to_json(),
        "ghat_csv": ghat_csv,
    }


def _export_ghat(spec, path: str, per_axis: int = 64) -> None:
    """ghat on a product grid of block magnitudes r over W's bounds, with
    columns r_1..r_k,ghat.  The grid has m points per axis, the largest
    m <= min(per_axis, 64) with m^k <= 4096 rows; the report's spec carries
    `basis` and `slices`, which map xi to r_k = |(basis^T xi)[slice_k]|."""
    k = spec.action.k
    m = max(m for m in range(1, min(per_axis, _GHAT_MAX_PER_AXIS) + 1)
            if m ** k <= _GHAT_MAX_ROWS)
    r = _mesh([np.linspace(lo, hi, m) for lo, hi in spec.W.bounds])
    _write_csv(path, [f"r_{i + 1}" for i in range(k)] + ["ghat"],
               np.column_stack([r, spec.block_values(r)]), ",".join(["%.12g"] * (k + 1)))


def _write_csv(path: str, header, table: np.ndarray, fmt: str) -> None:
    """Write a header and the rows of a 2-D table, each row formatted by the
    %-template fmt, byte for byte as csv.writer writes the same cells
    (unquoted, CRLF line ends).  Each chunk of rows is formatted by one % on
    a repeated row template; chunking bounds the memory by the chunk, not
    the table."""
    row = fmt + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, table.shape[0], _CSV_CHUNK_ROWS):
            chunk = table[start:start + _CSV_CHUNK_ROWS]
            fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def _cmd_cwt(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise InputError("--input is required")
    doc = load_json(cfg.input)
    _, spec = _wavelet_spec(cfg, doc)
    sig_path = doc.get("signal")
    if not sig_path:
        raise InputError("'signal' (CSV path) is required for cwt")
    try:
        f = np.loadtxt(sig_path, delimiter=",", dtype=float, ndmin=1)
    except (OSError, ValueError) as err:
        raise InputError(f"cannot read signal {sig_path}: {err}") from err
    dx = doc.get("dx", 1.0)
    if type(dx) not in (int, float) or not (np.isfinite(dx) and dx > 0):
        raise InputError(f"'dx' must be a finite number > 0, got {dx!r}")
    counts = doc.get("param_counts", 64)
    if type(counts) is not int or counts < 1:
        raise InputError(f"'param_counts' must be an integer >= 1, got {counts!r}")
    tg = run_cwt(spec, f, float(dx), param_counts=counts)
    slices_path = None
    if cfg.out:
        slices_path = cfg.out + "_coeffs.npz"
        _savez(slices_path, coeffs=tg.coeffs, param_points=tg.param_points,
               param_weights=tg.param_weights, dx=np.asarray(tg.dx))
    return {
        "spec": spec.to_json(),
        "isometry_ratio": tg.isometry_ratio(),
        "slices": slices_path,
        "spatial_shape": list(tg.spatial_shape),
        "n_param_points": int(tg.param_points.shape[0]),
    }


def _savez(path: str, **arrays) -> None:
    """An uncompressed .npz whose members hold the bytes np.savez writes
    (a .npy format 1.0 header, then the data), each written from the
    array's own buffer without the copy np.savez's writer makes of it."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(arr))
                fh.write(memoryview(arr).cast("B"))


if __name__ == "__main__":
    sys.exit(main())
