"""Batch front end: group-spec files in, JSON reports out.

Subcommands: classify | strata | section | quasisection | wavelet | cwt.
Each subcommand registers only the flags it reads: all take --input, --out,
--tol and --seed, `strata` also --grid, and `wavelet` also --quad-order and
--grid; any other flag is a usage error.  Every input value is checked by
one table, groupspec.INPUTS, with one row per key of the input document
("n", "generators", "tol", "points", "box", "boxes", "W",
"orbit_space_compact", "signal", "dx", "param_counts") and per checked flag
(--grid, --quad-order, --tol, --seed): its JSON type, the rule its value
must meet, the subcommands that read it, its default and, for
"param_counts", --grid and --quad-order, the work it asks for, which may
not exceed _MAX_POINTS.  One reader, groupspec.read, refuses a value that
breaks its row with `<name> must be <rule>, got <value>`, and one that asks
for more work with `<name> <value> asks for <count> <what>, more than the
limit of <limit>`, before any work.
Exit status 0 on success (and on --help), 2 on named domain errors, 1 on
usage, I/O, parse or input errors, each reported as one `input error: ...`
line; an --out that is a directory or in a missing directory is refused
before the subcommand runs.  Side files (the `strata` probe CSV, the
`section` JSONL, the `wavelet` ghat CSV, the `cwt` .npz, streamed slice by
slice and removed on a failure) are written next to --out and only with it;
the README's "Command line" section gives each subcommand's input and output.
Reports are deterministic for fixed inputs and flags (modulo the timestamp
header field) and carry a provenance header with version, seed, tolerance
and overrides: the flags only some subcommands read and a given --tol.
--tol sets alg.tol, the one entry of linalg's tolerance table a job can
change, and moves only the decisions that read alg.tol: the commutator,
independence, orbit-rank, trace and root-identity checks, classify's tests
(Re(lambda) at d = 1 too) and the `section` route's eigenvalue snapping,
sign ties and layers; every other cut is fixed.  Only the `strata` probes
and the `quasisection` coverage samples are drawn, from random.Random(--seed)
(linalg.seeded_draws); `wavelet`'s orbits are open, so it draws none and
checks Calderon coverage on the one orbit it integrates, through C's centre.
BLAS runs on one thread: before numpy loads, the CLI sets OPENBLAS_NUM_THREADS
to 1 unless it is already set.  A process run goes through entry(), which
freezes the import-time heap (gc.freeze) so that no collection, at exit
included, walks it again; main() itself does not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

# n <= 6, so a second BLAS thread has nothing to share and only spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .errors import DomainError, InputError, NotDiagonalizable
from .groupspec import (
    _MAX_POINTS,
    INPUTS,
    SUBCOMMANDS,
    dump_report,
    group_spec_from_dict,
    load_json,
    make_report,
    read,
    validate_report,
)
from .linalg import DEFAULT_TOL, DilationAlgebra

# The subcommands' own modules (classify, families, orbits, sections,
# quasisection, wavelet) are imported in the functions that use them, so a
# job loads only what its subcommand runs.

_CSV_CHUNK_ROWS = 4096
_GHAT_MAX_PER_AXIS = 64
_GHAT_MAX_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InputError (exit 1), the
    status of every other input error, instead of exiting 2; its subcommand
    parsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="orbitscope", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="input JSON file")
        sp.add_argument("--out", help="output report path (stdout when omitted)")
        for flag, row in INPUTS.items():
            if flag[0] == "-" and name in row.reads:
                work = f", at most {_MAX_POINTS} {row.work[name][0]}" if name in row.work else ""
                sp.add_argument(flag, type=float if row.kind == "number" else int,
                                default=row.default, help=row.rule + work)
        if name == "classify":
            sp.add_argument("--table", action="store_true",
                            help="emit the five-family golden table")
    return p


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
        flags = {dest: value for dest, value in vars(args).items() if value is not None}
        read(flags, "--seed")
        read(flags, "--tol")
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
            alg = group_spec_from_dict(doc, args.tol)  # rejects a doc that is not an object
        # the flags only some subcommands read, whose work is checked here: the overrides
        overrides = {flag[2:].replace("-", "_"): read(flags, flag, args.subcommand, d=alg.d)
                     for flag, row in INPUTS.items() if flag[0] == "-"
                     and args.subcommand in row.reads and row.reads != SUBCOMMANDS}
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
    V = read(doc, "points", n=alg.n)
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


def _cmd_quasisection(args, doc, alg: DilationAlgebra) -> dict:
    from .quasisection import diagonal_action, quasi_section_verdict

    action = diagonal_action(alg)
    boxes = read(doc, "boxes", action=action) or read(doc, "box", action=action)
    verdict = quasi_section_verdict(action, boxes, seed=args.seed,
                                    orbit_space_compact=read(doc, "orbit_space_compact"))
    return {"verdict": verdict.to_json()}


def _wavelet_spec(doc, action, sub):
    from .wavelet import synth_wavelet

    return synth_wavelet(action, read(doc, "box", sub, action=action),
                         read(doc, "W", sub, action=action))


def _cmd_wavelet(args, doc, alg: DilationAlgebra) -> dict:
    from .quasisection import diagonal_action
    from .wavelet import calderon_check, l1_estimate

    action = diagonal_action(alg)
    spec = _wavelet_spec(doc, action, "wavelet")
    # open orbits cover every xi with all blocks nonzero: check the one through C's centre
    w = np.zeros(alg.n)
    w[[sl.start for sl in action.slices]] = np.sqrt(np.prod(spec.C.bounds, axis=1))
    cal = calderon_check(spec, np.linalg.solve(action.basis.T, w)[None], args.quad_order)
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

    dx = read(doc, "dx")
    counts = read(doc, "param_counts", "cwt", d=alg.d)
    spec = _wavelet_spec(doc, diagonal_action(alg), "cwt")
    f = _load_signal(read(doc, "signal"))
    lattice, slices = cwt_slices(spec, f, dx, counts)
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
        "isometry_ratio": lattice.energy_ratio(energies),
        "slices": slices_path,
        "spatial_shape": list(lattice.spatial_shape),
        "n_param_points": int(lattice.param_points.shape[0]),
    }


def _load_signal(path: str) -> np.ndarray:
    """The 'signal' input: a real array of at least one sample from a .npy
    file (no pickles), or from a CSV file of comma-separated reals (1-D or 2-D)."""
    try:
        if path.endswith(".npy"):
            f = np.load(path, allow_pickle=False)
        else:
            with warnings.catch_warnings():  # a CSV without rows is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                f = np.loadtxt(path, delimiter=",", dtype=float, ndmin=1)
    except (OSError, ValueError, EOFError) as err:  # EOFError: an empty .npy
        raise InputError(f"cannot read signal {path}: {err}") from err
    if not isinstance(f, np.ndarray):  # an .npz archive behind the .npy name
        f.close()
        raise InputError(f"cannot read signal {path}: not a .npy array")
    if f.dtype.kind not in "iuf":
        raise InputError(f"signal {path} must hold real numbers, got dtype {f.dtype}")
    if not f.size:
        raise InputError(f"cannot read signal {path}: no data")
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
