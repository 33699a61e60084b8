"""The input table INPUTS, its one reader read(), and the versioned report
schema.  The cli docstring and the README's "Command line" section describe
the table and the forms of read()'s refusals."""

from __future__ import annotations

import json
import math
import reprlib
import time
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from . import __version__
from .errors import InputError, SpecParseError
from .linalg import BOX_POWER_RANGE, DEFAULT_TOL, MAX_DIM, DilationAlgebra, as_matrix

SCHEMA_VERSION = "6"
_MAX_POINTS = 2 ** 20  # strata probes, Calderon nodes, cwt parameter points
SUBCOMMANDS = ("classify", "strata", "section", "quasisection", "wavelet", "cwt")
_MISSING = object()  # an absent value, and the default of a key that must be given


class Input(NamedTuple):
    kind: str  # the JSON type; a JSON boolean is never a number
    rule: str  # of the value, or of each item of a list; formatted with n and action
    reads: tuple  # the subcommands that read the value
    default: Any = _MISSING
    ok: Any = None  # the range of a scalar
    work: dict = {}  # subcommand: (what the value asks for, its count from j.v and the sizes)


# wavelet and cwt square block norms and build radial profiles ~ b^m
_BOX = ('an object with "bounds", one [lo, hi] of JSON numbers, 0 <= lo < hi < inf, per '
        "block of the action's {action.k}, some lo > 0, and for wavelet and cwt each bound "
        f"b > 0 of a block of dimension m with b^max(2, m) in [{BOX_POWER_RANGE:g}, "
        f"{1 / BOX_POWER_RANGE:g}]")
_POSITIVE = "a finite number > 0"
INPUTS = {
    "n": Input("integer", f"an integer from 1 to {MAX_DIM}", SUBCOMMANDS,
               ok=lambda v: 1 <= v <= MAX_DIM),
    "generators": Input("list of n x n lists", "{n} x {n} finite numbers, flat or nested",
                        SUBCOMMANDS),
    "tol": Input("number", _POSITIVE, SUBCOMMANDS, DEFAULT_TOL, lambda v: 0 < v < math.inf),
    "points": Input("(m, n) list", "a non-empty list of points with {n} finite numbers each",
                    ("section",)),
    "box": Input("box", _BOX, ("quasisection", "wavelet", "cwt")),
    "boxes": Input("list of boxes", _BOX, ("quasisection",), None),
    "W": Input("box", _BOX, ("wavelet", "cwt"), None),
    "orbit_space_compact": Input("boolean or null", "true, false or null", ("quasisection",),
                                 None),
    "signal": Input("string", "a non-empty string (a CSV or .npy path) of a file with at "
                    "least one real sample", ("cwt",), ok=lambda v: v != ""),
    "dx": Input("number", _POSITIVE, ("cwt",), 1.0, lambda v: 0 < v < math.inf),
    "param_counts": Input("integer", "an integer >= 1", ("cwt",), 64, lambda v: v >= 1,
                          {"cwt": ("parameter points", lambda j: j.v ** j.d)}),
    "--grid": Input("integer", "at least 1", ("strata", "wavelet"), 128, lambda v: v >= 1,
                    {"strata": ("strata probes", lambda j: 4 * j.v)}),
    "--quad-order": Input("integer", "at least 1", ("wavelet",), 64, lambda v: v >= 1,
                          {"wavelet": ("Calderon nodes", lambda j: j.v ** j.d)}),
    "--tol": Input("number", _POSITIVE, SUBCOMMANDS, None, lambda v: 0 < v < math.inf),
    # random.Random would give -s the stream of s
    "--seed": Input("integer", "an integer >= 0", SUBCOMMANDS, 1729, lambda v: v >= 0),
}
_TYPES = {"integer": (int,), "number": (int, float), "boolean or null": (bool, type(None)),
          "string": (str,)}
_ITEMS = {"generators": "generator", "boxes": "box"}  # what the items of a list key are


def _numbers(value) -> bool:
    """Whether value is a JSON number or a nested list of only JSON numbers."""
    return all(map(_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


def _parse(row: Input, raw, sub, sizes):
    """raw as a value of the row's kind (an item's, for a list) that keeps its
    rule; TypeError, ValueError or OverflowError when it does not."""
    kind = row.kind
    if kind in _TYPES:
        if type(raw) not in _TYPES[kind] or not (row.ok is None or row.ok(raw)):
            raise TypeError(kind)
        return float(raw) if kind == "number" else raw  # OverflowError beyond the float range
    if "box" in kind:
        from .quasisection import BoxSet

        raw = raw.get("bounds") if isinstance(raw, dict) else None
    if not (isinstance(raw, list) and _numbers(raw)):
        raise TypeError(kind)
    if "box" in kind:
        box, blocks = BoxSet(raw), sizes["action"].slices
        if box.k != len(blocks) or sub in ("wavelet", "cwt") and any(
                abs(math.log(b)) * max(2, sl.stop - sl.start) > -math.log(BOX_POWER_RANGE)
                for pair, sl in zip(box.bounds, blocks) for b in pair if b):
            raise ValueError(kind)
        return box
    if kind.startswith("list"):  # a generator, flat or n x n
        return as_matrix(raw, sizes["n"])
    points = np.array(raw, dtype=float)
    if points.ndim != 2 or points.shape[1] != sizes["n"] or not np.isfinite(points).all():
        raise ValueError(kind)
    return points


def read(source: dict, key: str, sub: str | None = None, **sizes):
    """The value of input key or flag `key` in `source` (a spec, or the
    flags given, by dest), checked by its row, or the row's default when it
    is absent.  `sizes` holds what the rule reads, n and d or the action of
    a box; the work the value asks for is checked for subcommand `sub`."""
    row = INPUTS[key]
    raw = source.get(key.lstrip("-").replace("-", "_"), _MISSING)
    if raw is _MISSING and row.default is not _MISSING:
        return row.default
    name = key if key[0] == "-" else repr(key)
    if key == "n" and type(raw) is int and not row.ok(raw):  # linalg.as_matrix's words
        raise InputError(f"invalid group spec: dimension {reprlib.repr(raw)} outside "
                         f"supported range 1..{MAX_DIM}")
    item, got, rule = name, raw, row.rule.format(**sizes)
    try:  # ragged lists, integers beyond the float range, bounds not 0 <= lo < hi < inf
        if key not in _ITEMS:
            value = _parse(row, raw, sub, sizes)
        elif not (isinstance(raw, list) and raw):
            rule = "a non-empty list"
            raise TypeError(key)
        else:
            value = []
            for i, got in enumerate(raw):
                item = f"{_ITEMS[key]} {i} of {name}"
                value.append(_parse(row, got, sub, sizes))
    except (TypeError, ValueError, OverflowError):
        prefix = ("invalid box: " if "box" in row.kind else
                  "invalid group spec: " if key in ("n", "generators", "tol") else "")
        shown = "nothing" if got is _MISSING else reprlib.repr(got)
        raise InputError(f"{prefix}{item} must be {rule}, got {shown}") from None
    if sub in row.work:
        what, count = row.work[sub]
        count = count(SimpleNamespace(v=value, **sizes))
        if count > _MAX_POINTS:
            raise InputError(f"{name} {reprlib.repr(value)} asks for {count} {what}, more "
                             f"than the limit of {_MAX_POINTS}")
    return value


def group_spec_from_dict(doc: dict, tol: float | None = None) -> DilationAlgebra:
    """The algebra of a group spec; a given `tol` takes the place of its "tol"."""
    if not isinstance(doc, dict):
        raise InputError("group spec must be a JSON object")
    n = read(doc, "n")
    try:
        return DilationAlgebra(read(doc, "generators", n=n), n=n,
                               tol=read(doc, "tol") if tol is None else tol)
    except ValueError as err:
        raise InputError(f"invalid group spec: {err}") from err


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SpecParseError(f"invalid JSON in {path}: {err.msg}", byte_offset=err.pos) from err


def make_report(subcommand: str, payload: dict, *, seed: int, tol: float,
                overrides: dict | None = None) -> dict:
    return {
        "header": {
            "tool": "orbitscope",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "subcommand": subcommand,
            "seed": seed,
            "tol": tol,
            "overrides": overrides or {},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "payload": payload,
    }


def dump_report(report: dict, path: str | None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True, default=_default) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


_PAYLOAD_KEYS = {
    "classify": ("verdicts",),
    "strata": ("census", "d_max", "top_stratum_conull", "csv"),
    "section": ("records", "n_points"),
    "quasisection": ("verdict",),
    "wavelet": ("calderon", "l1", "spec"),
    "cwt": ("isometry_ratio", "slices", "spec"),
}


def validate_report(report: dict) -> None:
    """Check a report against the published schema; raises InputError."""
    if not isinstance(report, dict):
        raise InputError("report must be an object")
    header = report.get("header")
    if not isinstance(header, dict):
        raise InputError("report missing header")
    for key in ("tool", "version", "schema_version", "subcommand", "seed",
                "tol", "overrides", "timestamp"):
        if key not in header:
            raise InputError(f"report header missing {key!r}")
    if header["schema_version"] != SCHEMA_VERSION:
        raise InputError(f"unknown schema version {header['schema_version']!r}")
    sub = header["subcommand"]
    payload = report.get("payload")
    if not isinstance(payload, dict):
        raise InputError("report missing payload")
    for key in _PAYLOAD_KEYS.get(sub, ()):
        if key not in payload:
            raise InputError(f"{sub} payload missing {key!r}")
    if sub in ("wavelet", "cwt"):
        spec = payload["spec"]
        for key in ("basis", "slices"):
            if not isinstance(spec, dict) or key not in spec:
                raise InputError(f"{sub} payload spec missing {key!r}")
