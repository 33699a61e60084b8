"""Traced launcher: runs one orbitscope CLI job in this fresh interpreter with
spans around the calls into each layer.

    python3 perfbench/launcher.py SPANS_JSON -- CLI_ARGS...

Times `import orbitscope.cli`, wraps the layer functions where the modules
look them up, calls `orbitscope.cli.main(CLI_ARGS)` and, when the process
exits, writes the spans it kept in memory to SPANS_JSON.  Exit status is the
CLI's.  PYTHONPATH must name the checkout's src/ directory.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time

_now = time.perf_counter


class Tracer:
    """In-memory span store.  A span is (id, parent id, layer, start, end,
    counts); the parent is whichever span was open in the calling context,
    which worker threads inherit through TracedExecutor."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self.current = contextvars.ContextVar("perfbench_span", default=0)

    def wrap(self, layer, fn, counts=None):
        """`counts(args, kwargs, result)` returns a dict of per-call counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(self._ids), self.current.get()
            token = self.current.set(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((sid, parent, layer, start, _now(), None))
                raise
            finally:
                self.current.reset(token)
            end = _now()
            extra = None
            if counts:
                try:
                    extra = counts(args, kwargs, result)
                except Exception:  # a changed result type loses its counts, not the job
                    extra = None
            self.spans.append((sid, parent, layer, start, end, extra))
            return result

        return traced


def install(tracer):
    """Wrap the layer functions.  A module function is patched in every
    orbitscope module that binds it, so `from .linalg import rank_tol` call
    sites see the wrapper too.  A name the checkout lacks is skipped: its
    layer then reports no calls."""
    import numpy as np

    import orbitscope
    from orbitscope import cli, quasisection, wavelet

    modules = [m for name, m in sys.modules.items()
               if name == "orbitscope" or name.startswith("orbitscope.")]

    def wrap_attr(owner, name, layer, counts=None):
        fn = getattr(owner, name, None)
        if callable(fn):
            setattr(owner, name, tracer.wrap(layer, fn, counts))

    def patch_everywhere(module, name, layer, counts=None):
        fn = getattr(sys.modules.get(f"orbitscope.{module}"), name, None)
        if not callable(fn):
            return
        wrapped = tracer.wrap(layer, fn, counts)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)

    def points(args, kwargs, result):
        return {"points": int(np.atleast_2d(np.asarray(args[1])).shape[0])}

    def file_bytes(index):
        return lambda args, kwargs, result: {"bytes": os.path.getsize(args[index])}

    def coverage(args, kwargs, result):
        bound = inspect.signature(quasisection.quasi_section_verdict).bind(*args, **kwargs)
        bound.apply_defaults()
        return {"drawn": int(bound.arguments["n_samples"]),
                "checked": int(result.coverage_samples)}

    for name in ("roots_decompose", "rank_tol", "mat_exp"):
        patch_everywhere("linalg", name, f"linalg.{name}")
    patch_everywhere("orbits", "orbit_dim", "orbits.orbit_dim")
    for name in ("classify3", "classify_diag_nilpotent", "classify_one_param"):
        patch_everywhere("classify", name, "classify")
    for name in ("normal_form", "section_point"):
        patch_everywhere("sections", name, f"sections.{name}")
    for name in ("diagonal_action", "normalize_into", "is_relatively_compact"):
        patch_everywhere("quasisection", name, f"quasisection.{name}")
    patch_everywhere("quasisection", "quasi_section_verdict",
                     "quasisection.quasi_section_verdict", coverage)
    action = getattr(quasisection, "DiagonalizedAction", None)
    wrap_attr(action, "group_transforms", "quasisection.group_transforms",
              lambda a, k, r: {"matrices": int(r.shape[0])})
    wrap_attr(action, "block_abs", "quasisection.block_abs", points)
    wrap_attr(quasisection, "linprog", "lp.quasisection")
    wrap_attr(wavelet, "linprog", "lp.wavelet")

    patch_everywhere("quad", "tensor_rule", "quad.tensor_rule",
                     lambda a, k, r: {"nodes": int(r.nodes.shape[0])})
    patch_everywhere("quad", "gauss_legendre", "quad.gauss_legendre",
                     lambda a, k, r: {"order": int(a[0] if a else k["order"])})
    for name in ("synth_wavelet", "parameter_grid", "point_support_box", "l1_estimate"):
        patch_everywhere("wavelet", name, f"wavelet.{name}")
    patch_everywhere("wavelet", "calderon_check", "wavelet.calderon_check",
                     lambda a, k, r: {"samples": r.n_covered + r.n_uncovered,
                                      "covered": r.n_covered})
    patch_everywhere("wavelet", "cwt", "wavelet.cwt",
                     lambda a, k, r: {"coeff_bytes": int(r.coeffs.nbytes)})
    spec = getattr(wavelet, "WaveletSpec", None)
    wrap_attr(spec, "ghat", "wavelet.ghat", points)
    wrap_attr(spec, "sigma_at", "wavelet.sigma_at", points)

    wrap_attr(np.fft, "ifftn", "fft", lambda a, k, r: {"points": int(np.asarray(a[0]).size)})
    wrap_attr(cli, "load_json", "io.load_json")
    wrap_attr(cli, "dump_report", "io.dump_report",
              lambda a, k, r: {"bytes": len(r.encode("utf-8"))})
    wrap_attr(cli, "_export_ghat", "io.export_ghat", file_bytes(1))
    wrap_attr(np, "savez_compressed", "io.savez", file_bytes(0))
    wrap_attr(np, "loadtxt", "io.signal_load", file_bytes(0))
    for name in ("classify", "strata", "section", "quasisection", "wavelet", "cwt"):
        wrap_attr(cli, f"_cmd_{name}", "cli.handler")
    if hasattr(cli, "ThreadPoolExecutor"):
        cli.ThreadPoolExecutor = _traced_executor()
    return orbitscope.__file__


def _traced_executor():
    from concurrent.futures import ThreadPoolExecutor

    class TracedExecutor(ThreadPoolExecutor):
        """Runs each task in a copy of the submitter's context, so spans opened
        in worker threads keep the submitting span as their parent."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

    return TracedExecutor


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    before = len(sys.modules)
    t0 = _now()
    import orbitscope.cli
    import_s = _now() - t0
    modules = len(sys.modules) - before
    tracer = Tracer()
    package_file = install(tracer)
    code = 1
    try:
        code = orbitscope.cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "import_modules": modules,
                       "package_file": package_file, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
