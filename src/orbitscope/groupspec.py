"""Group-spec JSON parsing and the versioned report schema.

Group-spec documents look like

    {"n": 3, "generators": [[...n*n row-major reals...], ...], "tol": 1e-9}

Generators may be flat row-major lists (canonical) or nested n x n arrays.
Parse errors carry byte offsets; validation failures name the offending
field.
"""

from __future__ import annotations

import json
import numbers
import time
from typing import Any

import numpy as np

from . import __version__
from .errors import InputError, SpecParseError
from .linalg import DEFAULT_TOL, MAX_DIM, DilationAlgebra

SCHEMA_VERSION = "6"


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _all_real(g) -> bool:
    return all(_all_real(x) for x in g) if isinstance(g, list) else _is_real(g)


def group_spec_from_dict(doc: dict) -> DilationAlgebra:
    if not isinstance(doc, dict):
        raise InputError("group spec must be a JSON object")
    try:
        n = doc["n"]
        gens_raw = doc["generators"]
    except KeyError as err:
        raise InputError(f"group spec missing field {err.args[0]!r}") from err
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise InputError(f"invalid group spec: 'n' must be an integer, got {n!r}")
    if not 1 <= n <= MAX_DIM:
        raise InputError(f"invalid group spec: dimension {n} outside supported range "
                         f"1..{MAX_DIM}")
    tol = doc.get("tol", DEFAULT_TOL)
    if not (_is_real(tol) and np.isfinite(tol) and tol > 0):
        raise InputError(f"invalid group spec: 'tol' must be a finite number > 0, got {tol!r}")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise InputError("'generators' must be a non-empty list")
    try:
        gens = []
        for i, g in enumerate(gens_raw):
            if not _all_real(g):
                raise InputError(f"invalid group spec: generator {i} has an entry "
                                 "that is not a real number")
            arr = np.asarray(g, dtype=float)
            if arr.ndim == 1:
                if arr.size != n * n:
                    raise InputError(
                        f"generator {i}: flat length {arr.size} != n*n = {n * n}"
                    )
                arr = arr.reshape(n, n)
            elif arr.shape != (n, n):
                raise InputError(f"generator {i}: shape {arr.shape} != ({n}, {n})")
            gens.append(arr)
        return DilationAlgebra(gens, n=n, tol=float(tol))
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
