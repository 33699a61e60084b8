"""Batch front end: group-spec files in, JSON reports out.

Subcommands: classify | strata | section | quasisection | wavelet | cwt.
Each subcommand registers only the flags it reads: all take --input,
--out, --tol and --seed, `strata` also --grid, and `wavelet` also
--quad-order and --grid.
Exit status 0 on success (and on --help), 2 on named domain errors, 1 on
I/O, parse or input errors, each reported as one `input error: ...` line: a
usage error, such as a flag the subcommand does not read (`classify --grid
8`), a --seed that is not an integer or an unknown subcommand; a --tol that
is not a finite number > 0 or a --seed below 0, whatever the subcommand; a
--grid or --quad-order below 1; a
`strata` --grid, `wavelet` --quad-order or "samples" or `cwt`
"param_counts" that asks for more than _MAX_POINTS points or draws, refused
before any work; an --out that is a directory or a path in a missing
directory, refused before the subcommand runs, so no side file is written;
a report that cannot be written to --out; a group spec whose "n" is not an
integer from 1 to 6, whose generators have an entry that is not a real
number, or whose "tol" is not a finite number > 0 (JSON booleans count as
none of these); box bounds or `section` points with an entry that is not
a JSON number, such as true or "2"; `section` points that are not a finite
(m, n) array; a
`cwt` signal that is zero everywhere, has a non-finite sample, or is not an
n-axis lattice with power-of-two sizes; a `cwt` "dx" that is not a finite
number > 0 or "param_counts" that is not an integer >= 1; a `wavelet`
"samples" that is not an integer >= 1; a `quasisection`
"orbit_space_compact" that is not true, false or null; a `cwt` "signal"
that is not a non-empty string.  The group spec must be a JSON object, with
--tol or without.  `section` reads a diagonalizable A and a nilpotent X
from its two generators, however they are written (basis and scale), answers
all its points with one batched call and gives each witness as the
coefficients on the two generators as written; a point without a section
gets a record naming NotInLayer or ZeroEigenvalue.  Its layers and
representatives are those of (sigma A, X / ||X||_2), sigma = +-1 making A's
eigenvalue of largest |lambda| positive (a tie with -lambda goes by the
trace, a zero trace keeps the given sign), and it reports that eigenvalue of
sigma A.  A `cwt` "signal" path ending in .npy is read as a real
array of any number of axes, so n = 3 runs from the CLI; an object, complex
or other non-real array exits 1, and any other path is a CSV.  Side files
(the `strata` probe CSV, the `section` JSONL, the `wavelet` ghat CSV, the
`cwt` .npz) are written next to --out and only with it.  `cwt` streams its
coefficients: each slice is summed into the energy and written to the .npz
as it is made, with the bytes np.savez would write, so the job holds one
slice, not all of them; a failure while the .npz is written removes it.
Reports are deterministic for fixed inputs and flags (modulo the timestamp
header field) and carry a provenance header with version, seed, tolerance
and overrides: the flags the subcommand reads (`strata` --grid, for 4 --grid
probes; `wavelet` --quad-order, the Calderon cells per parameter, and
--grid, the ghat CSV's points per axis; the L1 estimate reads no flag) and
a given --tol.  --tol sets alg.tol, the one entry of linalg's tolerance
table a job can change, and moves only the decisions that read alg.tol:
the commutator, independence, orbit-rank, trace and root-identity checks,
classify's tests (Re(lambda) at d = 1 too) and the `section` route's
eigenvalue snapping, sign ties and layers; every other cut is fixed.
The `strata` probes, the `wavelet` Calderon samples and the `quasisection`
coverage samples are drawn from random.Random(--seed)
(linalg.seeded_draws); the Calderon samples set only the coverage counts.
BLAS runs on one thread: before numpy loads, the CLI sets
OPENBLAS_NUM_THREADS to 1 unless it is already set.  A process run goes
through entry(), which freezes the import-time heap (gc.freeze) so that no
collection, at exit included, walks it again; main() itself does not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# n <= 6, so a second BLAS thread has nothing to share and only spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import DomainError, InputError, NotDiagonalizable
from .groupspec import (
    _all_real,
    dump_report,
    group_spec_from_dict,
    load_json,
    make_report,
    validate_report,
)
from .linalg import DEFAULT_TOL, DilationAlgebra, seeded_draws

# The subcommands' own modules (classify, families, orbits, sections,
# quasisection, wavelet) are imported in the functions that use them, so a
# job loads only what its subcommand runs.

DEFAULT_SEED = 1729
_CSV_CHUNK_ROWS = 4096
_GHAT_MAX_PER_AXIS = 64
_GHAT_MAX_ROWS = 4096
_MAX_POINTS = 2 ** 20  # strata probes, Calderon nodes, wavelet draws, cwt parameter points
# the size flags each subcommand reads, by dest, with their defaults and
# help: only these are registered, each must be at least 1, and they are
# the header's overrides (with a given --tol)
_FLAGS_READ = {
    "strata": {"grid": (128, "the census evaluates 4 GRID probes")},
    "wavelet": {"quad_order": (64, "cells per group parameter of the Calderón rule"),
                "grid": (128, "ĝ CSV points per axis, at most 64")},
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InputError (exit 1), the
    status of every other input error, instead of exiting 2; its subcommand
    parsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="orbitscope", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("classify", "strata", "section", "quasisection", "wavelet", "cwt"):
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="input JSON file")
        sp.add_argument("--out", help="output report path (stdout when omitted)")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        for dest, (default, text) in _FLAGS_READ.get(name, {}).items():
            sp.add_argument(_flag(dest), type=int, default=default, dest=dest, help=text)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "classify":
            sp.add_argument("--table", action="store_true",
                            help="emit the five-family golden table")
    return p


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "classify": _cmd_classify,
            "strata": _cmd_strata,
            "section": _cmd_section,
            "quasisection": _cmd_quasisection,
            "wavelet": _cmd_wavelet,
            "cwt": _cmd_cwt,
        }[args.subcommand]
        overrides = {dest: getattr(args, dest) for dest in _FLAGS_READ.get(args.subcommand, ())}
        for dest, value in overrides.items():
            if value < 1:
                raise InputError(f"{_flag(dest)} must be at least 1, got {value}")
        if args.seed < 0:  # random.Random would give -s the stream of s
            raise InputError(f"--seed must be an integer >= 0, got {args.seed}")
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
            raise InputError(f"--tol must be a finite number > 0, got {args.tol}")
        # refused before the handler runs, so no side file is left behind
        if args.out and os.path.isdir(args.out):
            raise InputError(f"--out {args.out} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise InputError(f"--out {args.out} is in a missing directory")
        doc = alg = None
        if not getattr(args, "table", False):  # the golden table reads no input
            if not args.input:
                raise InputError("--input is required")
            doc = load_json(args.input)
            if args.tol is not None and isinstance(doc, dict):
                doc = {**doc, "tol": args.tol}
            alg = group_spec_from_dict(doc)  # rejects a doc that is not an object
        payload = handler(args, doc, alg)
    except DomainError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return 2
    except (InputError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    if args.tol is not None:
        overrides["tol"] = args.tol
    report = make_report(args.subcommand, payload, seed=args.seed,
                         tol=alg.tol if alg is not None else args.tol or DEFAULT_TOL,
                         overrides=overrides)
    validate_report(report)
    try:
        text = dump_report(report, args.out)
    except OSError as err:  # e.g. --out in a directory without write permission
        print(f"input error: {err}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return 0


def _check_size(name: str, value: int, points: int, noun: str) -> None:
    """Refuse a flag or key that asks for more than _MAX_POINTS points."""
    if points > _MAX_POINTS:
        raise InputError(f"{name} {value} asks for {points} {noun}, "
                         f"more than the limit of {_MAX_POINTS}")


def _cmd_classify(args, doc, alg: DilationAlgebra) -> dict:
    from .classify import classify3, classify_dispatch

    if args.table:  # the golden families, built at the job's tolerance
        from . import families

        rows = [
            ("a", families.family_a(1.0)),
            ("b", families.family_b(1.0, 1.0)),
            ("c", families.family_c()),
            ("d", families.family_d()),
            ("e", families.family_e()),
        ]
        tol = args.tol or DEFAULT_TOL
        verdicts = [{"family": name,
                     **classify3(DilationAlgebra(fam.generators, tol=tol)).to_json()}
                    for name, fam in rows]
        return {"verdicts": verdicts}
    return {"verdicts": [classify_dispatch(alg).to_json()]}


def _cmd_strata(args, doc, alg: DilationAlgebra) -> dict:
    from .orbits import stratify

    _check_size("--grid", args.grid, 4 * args.grid, "strata probes")
    rep = stratify(alg, 4 * args.grid, args.seed)
    csv_path = None
    if args.out:
        csv_path = args.out + ".csv"
        _write_csv(csv_path, [f"xi_{i + 1}" for i in range(alg.n)] + ["orbit_dim"],
                   np.column_stack([rep.probes, rep.dims]),
                   ",".join(["%.12g"] * alg.n + ["%d"]))
    return {**rep.to_json(), "csv": csv_path}


def _cmd_section(args, doc, alg: DilationAlgebra) -> dict:
    from .sections import diag_nilpotent_pair, normal_form, section_batch

    if alg.d != 2:
        raise InputError("section expects exactly two generators")
    V = _parse_points(doc.get("points"), alg.n)
    pair = diag_nilpotent_pair(alg)
    if pair is None:
        raise NotDiagonalizable("the generators span no diagonalizable + nilpotent pair")
    a, x = pair
    sec = section_batch(normal_form(alg.element(a), alg.element(x), tol=alg.tol), V)
    # exp(sA + tX) = exp(c_1 G_1 + c_2 G_2) with c = s a + t x
    c = np.outer(sec.s, a) + np.outer(sec.t, x)
    error = np.where(sec.zero_eigenvalue, "ZeroEigenvalue",
                     np.where(sec.not_in_layer, "NotInLayer", ""))
    records = [
        {"point": pt, "layer": None, "error": err} if err else
        {"point": pt, "block": blk, "eigenvalue": lam, "layer": b, "representative": rep,
         "witness_s": s, "witness_t": t, "sign": sign}
        for pt, err, blk, lam, b, rep, s, t, sign in zip(
            V.tolist(), error.tolist(), sec.block.tolist(), sec.eigenvalue.tolist(),
            sec.b.tolist(), sec.representative.tolist(), c[:, 0].tolist(), c[:, 1].tolist(),
            sec.sign.tolist())
    ]
    if args.out:
        with open(args.out + ".jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"records": records, "n_points": len(records)}


def _parse_points(points, n: int) -> np.ndarray:
    """The 'points' input as a finite (m, n) float array with m >= 1."""
    expected = f"'points' must be a non-empty list of points with {n} finite numbers each"
    if not _all_real(points):  # np.array would read true as 1.0
        raise InputError(expected)
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


def _parse_box(entry, action, name: str):
    """A box object (a quasisection.BoxSet) from the input, with one (lo, hi)
    bound per action block."""
    from .quasisection import BoxSet

    if not isinstance(entry, dict) or "bounds" not in entry:
        raise InputError(f"invalid box: {name} must be an object with 'bounds'")
    if not _all_real(entry["bounds"]):  # BoxSet's float() would read true or "2"
        raise InputError(f"invalid box: {name} bounds must hold only JSON numbers")
    try:
        box = BoxSet(entry["bounds"])
    except (TypeError, ValueError) as err:
        raise InputError(f"invalid box: {name}: {err}") from err
    if box.k != action.k:
        raise InputError(f"invalid box: {name} bounds {box.k} blocks, "
                         f"the action has {action.k}")
    return box


def _cmd_quasisection(args, doc, alg: DilationAlgebra) -> dict:
    from .quasisection import diagonal_action, quasi_section_verdict

    action = diagonal_action(alg)
    if "boxes" in doc:
        entries = doc["boxes"]
        if not isinstance(entries, list) or not entries:
            raise InputError("invalid box: 'boxes' must be a non-empty list")
        boxes = [_parse_box(b, action, f"boxes[{i}]") for i, b in enumerate(entries)]
    else:
        boxes = _parse_box(doc.get("box"), action, "'box'")
    compact = doc.get("orbit_space_compact")
    if compact is not None and not isinstance(compact, bool):
        raise InputError(f"'orbit_space_compact' must be true, false or null, got {compact!r}")
    verdict = quasi_section_verdict(action, boxes, orbit_space_compact=compact,
                                    seed=args.seed)
    return {"verdict": verdict.to_json()}


def _wavelet_spec(doc, action):
    from .wavelet import synth_wavelet

    C = _parse_box(doc.get("box"), action, "'box'")
    W = _parse_box(doc["W"], action, "'W'") if "W" in doc else None
    return synth_wavelet(action, C, W)


def _calderon_samples(action, spec, count, seed) -> np.ndarray:
    k, d = action.k, action.d
    u, z = seeded_draws(seed, count, k + d, action.alg.n)
    mids = np.array([np.sqrt(max(lo, hi / 16.0) * hi) for lo, hi in spec.C.bounds])
    r = mids * np.exp(-0.15 + 0.3 * u[:, :k])
    # h_t^T scales block k by exp(mu_k . t), t in [-1, 1] / max|mu|; only magnitudes are read
    r = r * np.exp((-1.0 + 2.0 * u[:, k:]) / np.max(np.abs(action.weights)) @ action.weights.T)
    w = np.empty_like(z)
    for i, sl in enumerate(action.slices):
        w[:, sl] = r[:, i:i + 1] * z[:, sl] / np.linalg.norm(z[:, sl], axis=1, keepdims=True)
    return np.linalg.solve(action.basis.T, w.T).T


def _cmd_wavelet(args, doc, alg: DilationAlgebra) -> dict:
    from .quasisection import diagonal_action
    from .wavelet import calderon_check, l1_estimate

    _check_size("--quad-order", args.quad_order, args.quad_order ** alg.d, "Calderon nodes")
    count = doc.get("samples", 100)
    if type(count) is not int or count < 1:
        raise InputError(f"'samples' must be an integer >= 1, got {count!r}")
    action = diagonal_action(alg)
    _check_size("'samples'", count, count * (action.k + alg.d + alg.n), "seeded draws")
    spec = _wavelet_spec(doc, action)
    samples = _calderon_samples(action, spec, count, args.seed)
    cal = calderon_check(spec, samples, args.quad_order)
    l1 = l1_estimate(spec)
    ghat_csv = None
    if args.out:
        ghat_csv = args.out + "_ghat.csv"
        _export_ghat(spec, ghat_csv, per_axis=args.grid)
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
    from .wavelet import _mesh

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


def _cmd_cwt(args, doc, alg: DilationAlgebra) -> dict:
    from .quasisection import diagonal_action
    from .wavelet import cwt_slices, slice_energy

    dx = doc.get("dx", 1.0)
    if type(dx) not in (int, float) or not (np.isfinite(dx) and dx > 0):
        raise InputError(f"'dx' must be a finite number > 0, got {dx!r}")
    counts = doc.get("param_counts", 64)
    if type(counts) is not int or counts < 1:
        raise InputError(f"'param_counts' must be an integer >= 1, got {counts!r}")
    _check_size("'param_counts'", counts, counts ** alg.d, "parameter points")
    spec = _wavelet_spec(doc, diagonal_action(alg))
    f = _load_signal(doc.get("signal"))
    lattice, slices = cwt_slices(spec, f, float(dx), counts)
    energies = []

    def summed():  # the energy is summed as the slices go by
        for c in slices:
            energies.append(slice_energy(c))
            yield c

    slices_path = None
    if args.out:
        slices_path = args.out + "_coeffs.npz"
        shape = lattice.param_points.shape[:1] + lattice.spatial_shape
        _savez(slices_path, coeffs=(shape, lattice.dtype, summed()),
               param_points=lattice.param_points, param_weights=lattice.param_weights,
               dx=np.asarray(lattice.dx))
    else:
        for _ in summed():
            pass
    return {
        "spec": spec.to_json(),
        "isometry_ratio": lattice.haar_energy(energies) / lattice.signal_energy(),
        "slices": slices_path,
        "spatial_shape": list(lattice.spatial_shape),
        "n_param_points": int(lattice.param_points.shape[0]),
    }


def _load_signal(path) -> np.ndarray:
    """The 'signal' input: a real array from a .npy file (no pickles), or
    from a CSV file of comma-separated reals (1-D or 2-D)."""
    if not isinstance(path, str) or not path:
        raise InputError("'signal' must be a non-empty string (a CSV or .npy path), "
                         f"got {path!r}")
    try:
        if path.endswith(".npy"):
            f = np.load(path, allow_pickle=False)
        else:
            f = np.loadtxt(path, delimiter=",", dtype=float, ndmin=1)
    except (OSError, ValueError, EOFError) as err:  # EOFError: an empty .npy
        raise InputError(f"cannot read signal {path}: {err}") from err
    if not isinstance(f, np.ndarray):  # an .npz archive behind the .npy name
        f.close()
        raise InputError(f"cannot read signal {path}: not a .npy array")
    if f.dtype.kind not in "iuf":
        raise InputError(f"signal {path} must hold real numbers, got dtype {f.dtype}")
    return np.asarray(f, dtype=float)


def _savez(path: str, **members) -> None:
    """An uncompressed .npz whose members hold the bytes np.savez writes
    (a .npy format 1.0 header, then the data in C order).

    A member is an array, written from its own buffer without the copy
    np.savez's writer makes of it, or a (shape, dtype, blocks) triple whose
    blocks, in order, are the array's C-order pieces, so the whole array is
    never in memory.  A failure after the file is opened removes it before
    the error propagates: no half-written file is left."""
    import zipfile

    zf = zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True)
    try:
        with zf:
            for name, member in members.items():
                if isinstance(member, tuple):
                    _write_npy(zf, name, *member)
                else:
                    arr = np.ascontiguousarray(member)
                    _write_npy(zf, name, arr.shape, arr.dtype, [arr])
    except BaseException:
        os.remove(path)
        raise


def _write_npy(zf, name: str, shape, dtype, blocks) -> None:
    """One .npz member: the .npy 1.0 header of a C-order array of this shape
    and dtype, then the blocks' bytes, one write per block."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
              "fortran_order": False, "shape": tuple(shape)}
    with zf.open(name + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for block in blocks:
            fh.write(memoryview(np.ascontiguousarray(block, dtype)).cast("B"))


def entry() -> None:
    """Process entry of `python -m orbitscope.cli` and the `orbitscope` script:
    gc.freeze() keeps the imports' ~21 500 objects out of every collection,
    the ones at exit included, then main() runs.  main() itself does not
    freeze: it is called in-process and leaves its caller's collector alone."""
    import gc  # the entry's own import: `import orbitscope.cli` does not load gc

    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
