import ast
import contextlib
import csv
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

import orbitscope
from orbitscope.cli import _MAX_POINTS, _export_ghat, _savez, _write_csv, main
from orbitscope.groupspec import INPUTS, group_spec_from_dict, validate_report
from orbitscope.linalg import mat_exp
from orbitscope.errors import InputError
from orbitscope.quasisection import BoxSet, diagonal_action
from orbitscope.wavelet import cwt, synth_wavelet

from conftest import frequency_lattice, near_scalar_jordan3, random_diag_nilpotent


def run_cli(*args, check=False):
    return subprocess.run(
        [sys.executable, "-m", "orbitscope.cli", *args],
        capture_output=True, text=True, check=check,
    )


def _calderon_warns(expected: bool):
    """pytest.warns for the Calderon check's shortfall warning, or no check."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="Calderon integral deviates from 1")


def _isometry_warns(expected: bool):
    """pytest.warns for the cwt isometry ratio's warning, or no check."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="isometry ratio .* is off 1 by more than 0.05")


@pytest.fixture()
def case_d_spec(tmp_path):
    path = tmp_path / "case_d.json"
    path.write_text(json.dumps({
        "n": 3,
        "generators": [
            [1, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
        ],
    }))
    return path


class TestClassifyCommand:
    def test_verdict_report(self, case_d_spec, tmp_path):
        out = tmp_path / "verdict.json"
        res = run_cli("classify", "--input", str(case_d_spec), "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        validate_report(report)
        verdict = report["payload"]["verdicts"][0]
        assert verdict["case_tag"] == "(d)" and verdict["integrable"] == "yes"

    def test_tol_reaches_the_one_parameter_verdict(self, tmp_path):
        # a real part within alg.tol * scale of 0 counts as 0: diag(1, 5e-8)
        # balances to diag(0.5, 2.5e-8), one-signed at the default tol and
        # on the zero-real-part path at --tol 1e-7
        spec, out = tmp_path / "one_param.json", tmp_path / "verdict.json"
        spec.write_text(json.dumps({"n": 2, "generators": [[1, 0, 0, 5e-8]]}))
        got = []
        for flags in ([], ["--tol", "1e-7"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["classify", "--input", str(spec), "--out", str(out), *flags]) == 0
            verdict = json.loads(out.read_text())["payload"]["verdicts"][0]
            got.append((verdict["integrable"], verdict["compact"],
                        [w.category.__name__ for w in caught]))
        assert got == [("yes", "yes", []), ("no", "unknown", ["DegenerateParameter"])]

    def test_golden_table(self, tmp_path):
        out = tmp_path / "table.json"
        res = run_cli("classify", "--table", "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        rows = {v["family"]: v for v in report["payload"]["verdicts"]}
        assert set(rows) == {"a", "b", "c", "d", "e"}
        assert rows["b"]["integrable"] == "open"
        for fam in ("a", "c", "d", "e"):
            assert rows[fam]["integrable"] == "yes"

    def test_noncommuting_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 3,
            "generators": [
                [0, 0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 1, 0],
            ],
        }))
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 2
        assert "NonCommuting" in res.stderr

    def test_malformed_json_exit_1_with_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3, "generators": [[1,2')
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 1
        assert "byte offset" in res.stderr

    @staticmethod
    def one_param_verdicts(tmp_path, capsys, generator, scale):
        """The verdicts of `generator` and of scale * `generator`, each from a
        run that exits 0 with no warning and nothing on stderr."""
        verdicts = []
        for factor in (1.0, scale):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"n": len(generator), "generators": [
                (factor * np.array(generator)).tolist()]}))
            out = tmp_path / "out.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["classify", "--input", str(path), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            verdicts.append(json.loads(out.read_text())["payload"]["verdicts"][0])
        return verdicts

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("generator", [[[2.0]], [[1.0, 0.0], [0.0, -3.0]],
                                           [[1.0, 1.0], [0.0, 2.0]]],
                             ids=["2", "diag-1-neg3", "jordan-1-2"])
    def test_one_param_large_entries(self, tmp_path, capsys, generator, scale):
        # ||A||_F overflows above about 1e154; the verdict is the unscaled one
        verdicts = self.one_param_verdicts(tmp_path, capsys, generator, scale)
        assert verdicts[1]["case_tag"] == "one_param"
        assert verdicts[1] == verdicts[0]

    @pytest.mark.parametrize("scale", [1e-11, 1e-13, 1e-200])
    @pytest.mark.parametrize("generator", [[[1.0]], [[1.0, 0.0], [0.0, -3.0]],
                                           [[1.0, 1.0], [0.0, 2.0]]],
                             ids=["1", "diag-1-neg3", "jordan-1-2"])
    def test_one_param_tiny_entries(self, tmp_path, capsys, generator, scale):
        # exp(t * 1e-13) is the group exp(t): no absolute threshold may see
        # the scale (at 1e-13 and 1e-200 a raw ValueError, at 1e-11 a
        # DegenerateParameter warning and integrable "no")
        verdicts = self.one_param_verdicts(tmp_path, capsys, generator, scale)
        assert verdicts[1]["case_tag"] == "one_param"
        assert verdicts[1] == verdicts[0]

    def test_determinism_modulo_timestamp(self, case_d_spec, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("classify", "--input", str(case_d_spec), "--out", str(out), check=True)
            # the whole report, with only the timestamp's value blanked
            text, count = re.subn(r'"timestamp": "[^"]*"', '"timestamp": ""', out.read_text())
            assert count == 1
            outs.append(text)
        assert outs[0] == outs[1]


class TestClassifyDispatch:
    def test_n4_mixed_generators(self, tmp_path):
        # diag+nilpotent family presented as (A+X, A-2X); the dispatcher must
        # recover the diagonalizable direction via the semisimple part
        import numpy as np

        rng = np.random.default_rng(3)
        P = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        D = np.diag([1.0, 1.0, 2.0, 2.0])
        N = np.zeros((4, 4))
        N[1, 0] = N[3, 2] = 1.0
        A = np.linalg.solve(P, D @ P)
        X = np.linalg.solve(P, N @ P)
        path = tmp_path / "n4.json"
        path.write_text(json.dumps({
            "n": 4,
            "generators": [(A + X).ravel().tolist(), (A - 2 * X).ravel().tolist()],
        }))
        out = tmp_path / "n4_out.json"
        res = run_cli("classify", "--input", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        verdict = json.loads(out.read_text())["payload"]["verdicts"][0]
        assert verdict["case_tag"] == "diag_nilp"
        assert verdict["integrable"] == "no"

    def test_nilpotent_part_zero_on_an_eigenspace(self, tmp_path):
        # seed 1210: X vanishes on an eigenspace of A up to |N_W| = 2.3e-9
        # while |X| is about 1.9e3; the zero test is relative to |X|
        from conftest import random_diag_nilpotent

        rng = np.random.default_rng(1210)
        A, X = random_diag_nilpotent(rng, int(rng.integers(4, 7)))
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "n": A.shape[0],
            "generators": [(A + X).ravel().tolist(), (A - 2 * X).ravel().tolist()],
        }))
        out = tmp_path / "pair_out.json"
        res = run_cli("classify", "--input", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert json.loads(out.read_text())["payload"]["verdicts"][0]["case_tag"] == "diag_nilp"

    def test_d2_large_entries(self, tmp_path):
        # 1e200 diag(1, 1, 0), 1e200 diag(0, 0, 1) generates the group of
        # diag(1, 1, 0), diag(0, 0, 1): case 3a, computed without overflow
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 3, "generators": [
            (1e200 * np.diag([1.0, 1.0, 0.0])).ravel().tolist(),
            (1e200 * np.diag([0.0, 0.0, 1.0])).ravel().tolist()]}))
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 0, res.stderr
        verdict = json.loads(res.stdout)["payload"]["verdicts"][0]
        assert verdict["case_tag"] == "3a" and verdict["integrable"] == "yes"

    def test_uncovered_family_exit_2(self, tmp_path):
        path = tmp_path / "n5.json"
        path.write_text(json.dumps({
            "n": 5,
            "generators": [
                np.diag([1.0, 2, 3, 4, 5]).ravel().tolist(),
                np.diag([5.0, 4, 3, 2, 1]).ravel().tolist(),
                np.diag([1.0, 1, 1, 1, 2]).ravel().tolist(),
            ],
        }))
        res = run_cli("classify", "--input", str(path))
        assert res.returncode == 2
        assert "UnclassifiedFamily" in res.stderr


class TestStrataCommand:
    def test_census_and_csv(self, case_d_spec, tmp_path):
        out = tmp_path / "strata.json"
        res = run_cli("strata", "--input", str(case_d_spec), "--out", str(out),
                      "--grid", "64")
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        validate_report(report)
        payload = report["payload"]
        assert payload["d_max"] == 3 and payload["top_stratum_conull"]
        csv_lines = open(payload["csv"]).read().splitlines()
        assert csv_lines[0] == "xi_1,xi_2,xi_3,orbit_dim"
        assert len(csv_lines) == 64 * 4 + 1

    def test_no_csv_without_out(self, case_d_spec, tmp_path):
        # without --out the report goes to stdout and no file is written
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        src = os.path.dirname(os.path.dirname(orbitscope.__file__))
        res = subprocess.run(
            [sys.executable, "-m", "orbitscope.cli", "strata",
             "--input", str(case_d_spec), "--grid", "16"],
            capture_output=True, text=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        validate_report(report)
        assert report["payload"]["csv"] is None
        assert list(cwd.iterdir()) == []


class TestSectionCommand:
    def test_records_jsonl(self, tmp_path):
        path = tmp_path / "sec.json"
        path.write_text(json.dumps({
            "n": 3,
            "generators": [
                [1, 0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0, 0],
            ],
            "points": [[1, 5, 7], [0, 5, 7]],
        }))
        out = tmp_path / "sec_out.json"
        res = run_cli("section", "--input", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        validate_report(report)
        recs = report["payload"]["records"]
        assert recs[0]["representative"] == [1.0, 0.0, 7.0]
        assert recs[1]["layer"] is None
        jsonl = (tmp_path / "sec_out.json.jsonl").read_text().splitlines()
        assert len(jsonl) == 2 and json.loads(jsonl[0])["layer"] == 2

    @pytest.mark.parametrize("form", ["A, X", "A + X, A - 2X", "X, A"])
    def test_any_pair_of_generators(self, tmp_path, capsys, form):
        # the case-2 group of A = diag(1, 1, 2), X = e21, however written: the
        # same layers and representatives, and witnesses on the written
        # generators, exp(witness_s G_1 + witness_t G_2) v = v*
        A, X = np.diag([1.0, 1.0, 2.0]), np.zeros((3, 3))
        X[1, 0] = 1.0
        gens = {"A, X": [A, X], "A + X, A - 2X": [A + X, A - 2 * X], "X, A": [X, A]}[form]
        points = [[1.0, 5.0, 7.0], [-0.5, 2.0, 1.0], [0.0, 5.0, 7.0]]
        path = tmp_path / "sec.json"
        path.write_text(json.dumps({"n": 3, "generators": [G.ravel().tolist() for G in gens],
                                    "points": points}))
        assert main(["section", "--input", str(path)]) == 0
        recs = json.loads(capsys.readouterr().out)["payload"]["records"]
        assert [(r.get("block"), r["layer"], r.get("sign")) for r in recs] == [
            (1, 2, 1), (1, 2, -1), (None, None, None)]
        for rec in recs[:2]:
            np.testing.assert_allclose(rec["representative"][:2], [np.sign(rec["point"][0]), 0.0],
                                       atol=1e-12)
            g = mat_exp(rec["witness_s"] * gens[0] + rec["witness_t"] * gens[1])
            np.testing.assert_allclose(g @ rec["point"], rec["representative"],
                                       atol=1e-12 * np.linalg.norm(rec["representative"]))

    def test_small_nilpotent_generator(self, tmp_path, capsys):
        # X scaled by 1e-3: Jordan chains built from X itself outnumber the
        # eigenspace's dimensions here, and np.linalg.inv would raise out of
        # main; normal_form builds them from X / ||X||_2
        A, X = random_diag_nilpotent(np.random.default_rng([19, 23]), 6)
        points = np.random.default_rng(7).standard_normal((8, 6))
        path = tmp_path / "sec.json"
        path.write_text(json.dumps({"n": 6, "generators": [A.ravel().tolist(),
                                                           (1e-3 * X).ravel().tolist()],
                                    "points": points.tolist()}))
        assert main(["section", "--input", str(path)]) == 0
        recs = json.loads(capsys.readouterr().out)["payload"]["records"]
        assert len(recs) == 8 and all(r["layer"] is not None for r in recs)

    def test_no_diagonalizable_nilpotent_pair_exit_2(self, tmp_path):
        path = tmp_path / "sec.json"
        path.write_text(json.dumps({"n": 3, "generators": CASE_B11, "points": [[1, 2, 3]]}))
        res = run_cli("section", "--input", str(path))
        assert res.returncode == 2
        assert "NotDiagonalizable" in res.stderr


    @pytest.mark.parametrize("points", [
        "[[1, 5]]",
        "[[1, 5, 7], [1, 5]]",
        '[[1, "a", 7]]',
        "[[1, [5], 7]]",
        "[[[1, 5, 7]]]",
        "[[1e400, 5, 7]]",
        "[[NaN, 5, 7]]",
        "[]",
        '{"x": [1, 5, 7]}',
        "[[true, 1.0, 2.0]]",  # np.array would promote the boolean to 1.0
        "[[1, 2, false]]",
    ], ids=["short-point", "ragged", "string-entry", "nested-entry", "nested-list",
            "overflow", "nan", "empty", "not-a-list", "boolean-entry", "boolean-last"])
    def test_invalid_points_exit_1(self, tmp_path, points):
        path = tmp_path / "sec.json"
        path.write_text('{"n": 3, "generators": [[1, 0, 0, 0, 1, 0, 0, 0, 0], '
                        '[0, 0, 0, 1, 0, 0, 0, 0, 0]], "points": %s}' % points)
        out = tmp_path / "sec_out.json"
        res = run_cli("section", "--input", str(path), "--out", str(out))
        assert res.returncode == 1, res.stderr
        assert "input error: 'points'" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


# the case-(b) union C_1(2) u C_2(2) u C_3(2) of family (b) with alpha = beta = 1
CASE_B_UNION = {
    "n": 3,
    "generators": [
        [1, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0, 1],
    ],
    "boxes": [
        {"bounds": [[0, 2], [0.5, 2], [0.5, 2]]},
        {"bounds": [[0.5, 2], [0, 2], [0.5, 2]]},
        {"bounds": [[0.5, 2], [0.5, 2], [0, 2]]},
    ],
}


class TestQuasisectionCommand:
    def test_union_verdict(self, tmp_path):
        path = tmp_path / "qs.json"
        path.write_text(json.dumps({**CASE_B_UNION, "orbit_space_compact": True}))
        out = tmp_path / "qs_out.json"
        res = run_cli("quasisection", "--input", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        validate_report(report)
        v = report["payload"]["verdict"]
        assert v["quasi_section_exists"] == "no"
        assert v["witness_direction"] is not None

    def test_small_jordan_block_answers(self, tmp_path):
        # at eps = 2e-9 the root shift is a few 1e-9 of the generator: the
        # job answers as at 5e-10, not IllConditioned with exit 2
        verdicts = []
        for eps in (5e-10, 2e-9):
            path = tmp_path / f"qs_{eps}.json"
            path.write_text(json.dumps({"n": 3, "generators": [near_scalar_jordan3(eps).ravel().tolist()],
                                        "box": {"bounds": [[0.5, 2.0]]}}))
            out = tmp_path / f"qs_{eps}_out.json"
            res = run_cli("quasisection", "--input", str(path), "--out", str(out))
            assert res.returncode == 0, res.stderr
            verdicts.append(json.loads(out.read_text())["payload"]["verdict"])
        assert verdicts[1] == verdicts[0]
        assert verdicts[0]["quasi_section_exists"] == "yes"

    @pytest.mark.parametrize("compact, exists", [
        (True, "no"), (False, "unknown"), (None, "unknown"),
        ("false", None), ("true", None), (1, None), (0, None),
    ], ids=["true", "false", "null", "string-false", "string-true", "one", "zero"])
    def test_orbit_space_compact_is_a_json_boolean(self, tmp_path, capsys, compact, exists):
        # only a JSON true may turn the union's 'unknown' into 'no'
        path = tmp_path / "qs.json"
        path.write_text(json.dumps({**CASE_B_UNION, "orbit_space_compact": compact}))
        out = tmp_path / "qs_out.json"
        code = main(["quasisection", "--input", str(path), "--out", str(out)])
        if exists is None:
            assert code == 1
            assert ("input error: 'orbit_space_compact' must be true, false or null"
                    in capsys.readouterr().err)
            assert not out.exists()
        else:
            assert code == 0
            verdict = json.loads(out.read_text())["payload"]["verdict"]
            assert verdict["quasi_section_exists"] == exists

    @pytest.mark.parametrize("edge, inside", [
        ([0.5, 1.5e308], [0.5, 1.5e300]), ([1e-300, 1e300], [1e-150, 1e150]),
    ], ids=["hi-over-lo-overflows", "lo-over-hi-underflows"])
    def test_bound_ratio_beyond_the_float_range(self, tmp_path, capsys, edge, inside):
        # hi / lo overflows and lo / hi underflows to 0: their logs are taken
        # as differences of logs, so the meeting set's rows stay finite and
        # the verdict is the one of a box inside the range, with no warning
        verdicts = []
        for bounds in (inside, edge):
            path = tmp_path / "qs.json"
            path.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                        "box": {"bounds": [bounds]}}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["quasisection", "--input", str(path)]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["payload"]["verdict"])
        assert verdicts[1] == verdicts[0]
        assert verdicts[0]["quasi_section_exists"] == "yes"


CASE_B11 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1],
]
DILATION_1D = [[1.0]]
WAVELET_1D = {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1.5, 2.0]]},
              "W": {"bounds": [[0.8, 2.5]]}}


class TestBoxInput:
    @pytest.mark.parametrize("subcommand, doc", [
        pytest.param("quasisection", {
            "n": 3, "generators": CASE_B11,
            "boxes": [{"bounds": [[0, 2], [0.5, 2], [0.5, 2]]}, {"lo": [0.5, 0.5, 0]}],
        }, id="boxes-entry-without-bounds"),
        pytest.param("quasisection", {
            "n": 3, "generators": CASE_B11,
            "boxes": {"bounds": [[0, 2], [0.5, 2], [0.5, 2]]},
        }, id="boxes-not-a-list"),
        pytest.param("quasisection", {
            "n": 3, "generators": CASE_B11,
            "boxes": [{"bounds": [[2, 0.5], [0, 2], [0.5, 2]]}],
        }, id="boxes-inverted-bounds"),
        pytest.param("quasisection", {
            "n": 3, "generators": CASE_B11,
            "box": {"bounds": [[0.5, 2], [0.5, 2]]},
        }, id="box-block-count"),
        pytest.param("wavelet", {
            "n": 1, "generators": DILATION_1D,
            "box": {"bounds": [[1.0, 2.0], [1.0, 2.0]]},
        }, id="wavelet-box-block-count"),
        pytest.param("wavelet", {
            "n": 1, "generators": DILATION_1D,
            "box": {"bounds": [[1.0, 2.0]]}, "W": [[0.8, 2.5]],
        }, id="wavelet-W-without-bounds"),
        # a JSON boolean or string in place of a bound with which the job exits
        # 0: BoxSet's float() would read it as that number
        *[pytest.param("wavelet", {**WAVELET_1D, key: {"bounds": bounds}},
                       id=f"wavelet-{key}-{kind}")
          for key, kind, bounds in [
              ("box", "boolean", [[True, 2]]), ("box", "string-lo", [["1", 2]]),
              ("box", "string-hi", [[1, "2e0"]]), ("W", "boolean", [[True, 2.5]]),
              ("W", "string-lo", [["0.8", 2.5]]), ("W", "string-hi", [[0.8, "2.5"]])]],
        *[pytest.param("quasisection", {**CASE_B_UNION, "boxes": [
            {"bounds": [first, [0.5, 2], [0.5, 2]]}, *CASE_B_UNION["boxes"][1:]]},
                       id=f"boxes-{kind}")
          for kind, first in [("boolean", [False, 2]), ("string-lo", ["0", 2]),
                              ("string-hi", [0, "2e0"])]],
    ])
    def test_malformed_box_exit_1(self, tmp_path, subcommand, doc):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(doc))
        res = run_cli(subcommand, "--input", str(path))
        assert res.returncode == 1, res.stderr
        assert "input error: invalid box" in res.stderr
        assert "Traceback" not in res.stderr


class TestFlagInput:
    @pytest.mark.parametrize("subcommand, flags", [
        ("strata", ["--grid", "-1"]),
        ("strata", ["--grid", "0"]),
        ("wavelet", ["--quad-order", "0"]),
        ("wavelet", ["--quad-order", "-2"]),
        ("wavelet", ["--grid", "0"]),
    ], ids=["strata-grid-negative", "strata-grid-zero", "wavelet-quad-order-zero",
            "wavelet-quad-order-negative", "wavelet-grid-zero"])
    def test_flag_below_one_exit_1(self, case_d_spec, tmp_path, capsys, subcommand, flags):
        path = case_d_spec
        if subcommand == "wavelet":
            path = tmp_path / "w.json"
            path.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                        "box": {"bounds": [[1.0, 2.0]]}}))
        out = tmp_path / "out"
        assert main([subcommand, "--input", str(path), "--out", str(out), *flags]) == 1
        assert f"input error: {flags[0]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, flag", [
        ("classify", "--grid"), ("cwt", "--grid"), ("section", "--quad-order"),
        ("strata", "--quad-order"),
    ])
    def test_unread_flag_refused(self, case_d_spec, tmp_path, capsys, subcommand, flag):
        # a subcommand registers only the flags it reads, so an unread one is
        # a usage error, whatever its value: one input error line, exit 1
        out = tmp_path / "out"
        assert main([subcommand, "--input", str(case_d_spec), "--out", str(out), flag, "8"]) == 1
        err = capsys.readouterr().err
        assert err == f"input error: orbitscope: unrecognized arguments: {flag} 8\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--table", "--seed", "abc"], ["nosuch"], [],
    ], ids=["seed-not-an-integer", "unknown-subcommand", "no-subcommand"])
    def test_usage_error_exit_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: orbitscope") and err.count("\n") == 1

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--help"])
        assert exc.value.code == 0
        assert "--grid" in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand, flags", [
        ("classify", ["--table"]),
        ("classify", []),
        ("strata", []),
        ("section", []),
        ("quasisection", []),
        ("wavelet", []),
        ("cwt", []),
    ], ids=["classify-table", "classify", "strata", "section", "quasisection", "wavelet",
            "cwt"])
    def test_negative_seed_exit_1(self, case_d_spec, tmp_path, capsys, subcommand, flags):
        # random.Random(-s) draws the stream of s, so a negative seed is refused
        # whether or not the subcommand samples
        out = tmp_path / "out"
        argv = [subcommand, *(flags or ["--input", str(case_d_spec)])]
        assert main([*argv, "--out", str(out), "--seed", "-1"]) == 1
        assert ("input error: --seed must be an integer >= 0, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, flag, value", [
        ("wavelet", "--quad-order", "100000"), ("strata", "--grid", "1000000000"),
    ], ids=["wavelet-quad-order", "strata-grid"])
    def test_size_flag_above_limit_exit_1(self, tmp_path, capsys, subcommand, flag, value):
        # refused before anything is allocated: the 1e10 Calderon nodes of a
        # d = 2 spec (149 GiB) and the 4e9 strata probes (89 GiB) used to end
        # in a MemoryError traceback
        path = tmp_path / "case_a.json"
        path.write_text(json.dumps(CASE_A))
        out = tmp_path / "out.json"
        assert main([subcommand, "--input", str(path), "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {flag} {value} asks for ")
        assert f"more than the limit of {_MAX_POINTS}" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, key, noun", [
        ("cwt", "param_counts", "parameter points"),
    ], ids=["cwt-param-counts"])
    def test_size_key_above_limit_exit_1(self, tmp_path, capsys, subcommand, key, noun):
        # refused before any work: the cwt job names no signal, so a check
        # that ran after the signal load would fail on the signal instead
        path = tmp_path / "case_a.json"
        path.write_text(json.dumps({**CASE_A, key: 10 ** 10}))
        out = tmp_path / "out.json"
        assert main([subcommand, "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: '{key}' {10 ** 10} asks for ")
        assert f"{noun}, more than the limit of {_MAX_POINTS}" in err
        assert not out.exists()

    def test_seed_zero_accepted(self, case_d_spec, tmp_path):
        out = tmp_path / "out.json"
        assert main(["strata", "--input", str(case_d_spec), "--grid", "4", "--seed", "0",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["header"]["seed"] == 0

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_report_exit_1(self, tmp_path, capsys, target):
        # refused before the subcommand runs: no side file (strata CSV,
        # section JSONL, wavelet ghat CSV, cwt .npz) is left next to --out
        signal = tmp_path / "signal.csv"
        np.savetxt(signal, np.cos(2.0 * np.pi * 8.0 * np.arange(64) / 64.0))
        inputs = {sub: _OVERRIDE_INPUTS[sub][0] for sub in ("strata", "section", "wavelet")}
        inputs["cwt"] = {**_OVERRIDE_INPUTS["cwt"][0], "signal": str(signal)}
        for sub, doc in inputs.items():
            (tmp_path / f"{sub}.json").write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        if target == "directory":
            out = tmp_path / "report"
            out.mkdir()
        else:
            out = tmp_path / "missing" / "report"
        res = run_cli("classify", "--table", "--out", str(out))
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("input error: ") and str(out) in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        for sub in inputs:
            argv = [sub, "--input", str(tmp_path / f"{sub}.json"), "--out", str(out),
                    *_read_flags(_OVERRIDE_INPUTS[sub][1], "8", "8")]
            assert main(argv) == 1, sub
            captured = capsys.readouterr()
            assert captured.err.startswith("input error: ") and str(out) in captured.err, sub
            assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == sorted(before + [out] * out.exists())


DIAG_2D = {"n": 2, "generators": [[1, 0, 0, 2]]}


class TestGroupSpecInput:
    @pytest.mark.parametrize("doc, flags, message", [
        ({**DIAG_2D, "n": "abc"}, [], "invalid group spec: 'n'"),
        ({**DIAG_2D, "n": None}, [], "invalid group spec: 'n'"),
        ({**DIAG_2D, "n": 2.7}, [], "invalid group spec: 'n'"),
        ({"n": True, "generators": DILATION_1D}, [], "invalid group spec: 'n'"),
        ({**DIAG_2D, "generators": [[1, 0, 0, "x"]]}, [], "invalid group spec: generator 0"),
        ({**DIAG_2D, "generators": [[1, 0, 0, "2"]]}, [], "invalid group spec: generator 0"),
        ({**DIAG_2D, "tol": "x"}, [], "invalid group spec: 'tol'"),
        ({**DIAG_2D, "tol": None}, [], "invalid group spec: 'tol'"),
        (DIAG_2D, ["--tol", "-1"], "--tol must be a finite number > 0"),
        (DIAG_2D, ["--tol", "nan"], "--tol must be a finite number > 0"),
        (DIAG_2D, ["--tol", "inf"], "--tol must be a finite number > 0"),
        ([1, 2], ["--tol", "1e-9"], "group spec must be a JSON object"),
        ([["n", 2], ["generators", [[1, 0, 0, 2]]]], ["--tol", "1e-9"],
         "group spec must be a JSON object"),
        ({**DIAG_2D, "n": -2}, [],
         "invalid group spec: dimension -2 outside supported range 1..6"),
        ({"n": -2, "generators": [[[1, 0], [0, 2]]]}, [],
         "invalid group spec: dimension -2 outside supported range 1..6"),
        ({"n": 0, "generators": [[]]}, [],
         "invalid group spec: dimension 0 outside supported range 1..6"),
        ({"n": 7, "generators": [[0] * 49]}, [],
         "invalid group spec: dimension 7 outside supported range 1..6"),
        ({"n": 2, "generators": [[1, 0, 0, 1], [1, 0, 1e-12, 1]]}, [],
         "invalid group spec: generators as written are nearly linearly dependent"),
    ], ids=["n-string", "n-null", "n-fraction", "n-bool", "entry-string",
            "entry-numeric-string", "tol-string", "tol-null", "flag-tol-negative",
            "flag-tol-nan", "flag-tol-inf", "array-flag-tol", "pairs-flag-tol",
            "n-negative-flat", "n-negative-nested", "n-zero", "n-seven", "nearly-dependent"])
    def test_invalid_spec_exit_1(self, tmp_path, capsys, doc, flags, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["classify", "--input", str(path), "--out", str(out), *flags]) == 1
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_tol_on_table_exit_1(self, tmp_path, capsys, value):
        # the golden table loads no group spec, so main checks the flag itself
        out = tmp_path / "out.json"
        assert main(["classify", "--table", "--tol", value, "--out", str(out)]) == 1
        assert "input error: --tol must be a finite number > 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["classify", "--table", "--tol", "1e-8", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["header"]["tol"] == 1e-8

    @pytest.mark.parametrize("flags, tol", [([], 1e-6), (["--tol", "1e-8"], 1e-8)],
                             ids=["spec-tol", "flag-tol"])
    def test_header_tol_is_the_job_tol(self, tmp_path, flags, tol):
        # the header names the tolerance the job computed at: the spec's
        # "tol", unless --tol overrides it
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**DIAG_2D, "tol": 1e-6}))
        out = tmp_path / "out.json"
        assert main(["classify", "--input", str(path), "--out", str(out), *flags]) == 0
        assert json.loads(out.read_text())["header"]["tol"] == tol

    def test_table_families_built_at_flag_tol(self, tmp_path, monkeypatch):
        import orbitscope.classify as classify

        seen = []
        real = classify.classify3
        monkeypatch.setattr(classify, "classify3", lambda alg: seen.append(alg.tol) or real(alg))
        out = tmp_path / "out.json"
        assert main(["classify", "--table", "--tol", "1e-8", "--out", str(out)]) == 0
        assert seen == [1e-8] * 5


_BOX_1D = {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1.0, 2.0]]}}
# the flags each subcommand reads, as the header's overrides name them
_OVERRIDE_INPUTS = {
    "classify": (DIAG_2D, set()),
    "strata": (DIAG_2D, {"grid"}),
    "section": ({"n": 3, "generators": [[1, 0, 0, 0, 1, 0, 0, 0, 0],
                                        [0, 0, 0, 1, 0, 0, 0, 0, 0]],
                 "points": [[1.0, 5.0, 7.0]]}, set()),
    "quasisection": (_BOX_1D, set()),
    "wavelet": (_BOX_1D, {"quad_order", "grid"}),
    "cwt": ({**_BOX_1D, "param_counts": 4}, set()),
}


def _read_flags(keys, grid, quad_order):
    """The command-line flags that set the overrides `keys`."""
    values = {"grid": ("--grid", grid), "quad_order": ("--quad-order", quad_order)}
    return [part for key in sorted(keys) for part in values[key]]


# a value of none of the input table's kinds (a JSON boolean is never a
# number), which every row of that kind refuses
_NOT_OF_KIND = {"integer": True, "number": True, "boolean or null": "true", "string": 5,
                "box": {"bounds": [[True, 2.0]]}, "list of boxes": [],
                "(m, n) list": [[True, 5.0, 7.0]], "list of n x n lists": [[True]]}
# valid values of the keys whose default is an absence
_PRESENT = {"boxes": [{"bounds": [[0.5, 2.0]]}], "W": {"bounds": [[0.8, 2.5]]}}


def _table_job(tmp_path, key):
    """argv of a job of the first subcommand that reads `key`, on an input
    where every key it reads is valid, and the argv's valid value of key."""
    row = INPUTS[key]
    sub = row.reads[0]
    signal = tmp_path / "signal.csv"
    np.savetxt(signal, np.cos(2.0 * np.pi * 8.0 * np.arange(64) / 64.0))
    doc = {**_OVERRIDE_INPUTS[sub][0], "signal": str(signal)}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = [sub, "--input", str(path), "--out", str(tmp_path / "out.json")]
    if key.startswith("--"):
        return argv, str(row.default if row.default is not None else INPUTS["tol"].default)
    return argv, doc.get(key, _PRESENT.get(key, row.default))


class TestInputTable:
    @pytest.mark.parametrize("key", list(INPUTS))
    def test_valid_and_invalid_value(self, tmp_path, capsys, key):
        # one valid and one invalid value of every key and flag of the table,
        # in process: the invalid one exits 1 with one input error line that
        # names the key
        argv, valid = _table_job(tmp_path, key)
        if key.startswith("--"):
            invalid = "-1"
            assert not INPUTS[key].ok(-1)
            runs = [(argv + [key, value], value) for value in (valid, invalid)]
        else:
            doc = json.loads(open(argv[2]).read())
            runs = []
            for value in (valid, _NOT_OF_KIND[INPUTS[key].kind]):
                path = tmp_path / f"in_{len(runs)}.json"
                path.write_text(json.dumps({**doc, key: value}))
                runs.append(([argv[0], "--input", str(path), *argv[3:]], value))
        (valid_argv, _), (invalid_argv, _) = runs
        # the cwt job's 4 parameter points keep 0.849 of the signal's energy
        with _isometry_warns(argv[0] == "cwt"):
            assert main(valid_argv) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert main(invalid_argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert (key if key.startswith("--") else repr(key)) in err


class TestHeaderOverrides:
    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-8"]], ids=["no-tol", "tol"])
    @pytest.mark.parametrize("subcommand", list(_OVERRIDE_INPUTS))
    def test_overrides_are_the_flags_read(self, tmp_path, subcommand, flags):
        doc, keys = _OVERRIDE_INPUTS[subcommand]
        if subcommand == "cwt":
            signal = tmp_path / "signal.csv"
            np.savetxt(signal, np.cos(2.0 * np.pi * 8.0 * np.arange(64) / 64.0))
            doc = {**doc, "signal": str(signal)}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        # the wavelet job's Calderon rule of order 16 falls short and warns, and
        # so does the cwt job's lattice of 4 parameter points (ratio 0.849)
        with _calderon_warns(subcommand == "wavelet"), _isometry_warns(subcommand == "cwt"):
            assert main([subcommand, "--input", str(path), "--out", str(out),
                         *_read_flags(keys, "8", "16"), *flags]) == 0
        overrides = json.loads(out.read_text())["header"]["overrides"]
        assert set(overrides) == keys | ({"tol"} if flags else set())
        assert overrides == {key: {"grid": 8, "quad_order": 16, "tol": 1e-8}[key]
                             for key in overrides}


class TestNearScalarGenerator:
    def test_rounding_size_off_diagonal(self, tmp_path, capsys):
        # 2I written with off-diagonal rounding noise, as a change of basis
        # leaves it, is the isotropic group of the exact 2I
        payloads = []
        for gen in ([2.0, 0.0, 0.0, 2.0], [2.0, 5.16e-17, 5.16e-17, 2.0]):
            path = tmp_path / "g.json"
            path.write_text(json.dumps({"n": 2, "generators": [gen],
                                        "box": {"bounds": [[1, 2]]}}))
            got = {}
            for sub in ("classify", "quasisection", "wavelet"):
                assert main([sub, "--input", str(path)]) == 0, sub
                got[sub] = json.loads(capsys.readouterr().out)["payload"]
            payloads.append(got)
        exact, noisy = payloads
        assert noisy["classify"] == exact["classify"]
        assert noisy["quasisection"] == exact["quasisection"]
        sigma = exact["wavelet"]["spec"]["sigma"]
        assert abs(noisy["wavelet"]["spec"]["sigma"] - sigma) <= 1e-12 * sigma


CASE_A = {"n": 3, "generators": [[1, -1, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1]],
          "box": {"bounds": [[0.5, 2.0], [0.5, 2.0]]}}


class TestGhatExport:
    def test_csv_matches_ghat_through_basis_and_slices(self, tmp_path):
        path = tmp_path / "wav_a.json"
        path.write_text(json.dumps(CASE_A))
        out = tmp_path / "wav_a_out.json"
        assert main(["wavelet", "--input", str(path), "--out", str(out),
                     "--quad-order", "32"]) == 0
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["header"]["schema_version"] == "6"
        payload = report["payload"]
        basis = np.array(payload["spec"]["basis"])
        slices = [slice(a, b) for a, b in payload["spec"]["slices"]]
        lines = open(payload["ghat_csv"]).read().splitlines()
        assert lines[0] == "r_1,r_2,ghat"
        table = np.loadtxt(lines[1:], delimiter=",")
        assert table.shape == (64 * 64, 3)
        # the r grid: 64 points per axis over W's bounds, C order
        axes = [np.linspace(lo, hi, 64) for lo, hi in payload["spec"]["W"]["bounds"]]
        r = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        np.testing.assert_allclose(table[:, :2], r, rtol=5e-12)  # %.12g
        # xi with (basis^T xi)[slice_k] = r_k e_1, and back to r through the spec
        w = np.zeros((r.shape[0], 3))
        for k, sl in enumerate(slices):
            w[:, sl.start] = r[:, k]
        xi = np.linalg.solve(basis.T, w.T).T
        back = np.stack([np.linalg.norm((xi @ basis)[:, sl], axis=1) for sl in slices], axis=1)
        np.testing.assert_allclose(back, r, rtol=1e-12)
        action = diagonal_action(group_spec_from_dict(CASE_A))
        spec = synth_wavelet(action, BoxSet(CASE_A["box"]["bounds"]))
        assert spec.sigma == payload["spec"]["sigma"]
        ghat = spec.block_values(action.block_abs(xi))
        assert np.count_nonzero(ghat) > 0
        np.testing.assert_allclose(table[:, 2], ghat, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, cases", [
        (1, [(128, 64), (10, 10)]), (2, [(128, 64), (10, 10)]), (3, [(128, 16), (12, 12)]),
    ])
    def test_row_cap(self, tmp_path, k, cases):
        # m per axis = min(per_axis, 64, the largest m with m^k <= 4096)
        action = diagonal_action(group_spec_from_dict(
            {"n": k, "generators": [np.diag(np.eye(k)[i]).tolist() for i in range(k)]}))
        spec = synth_wavelet(action, BoxSet([(1.0, 2.0)] * k))
        path = tmp_path / "ghat.csv"
        for per_axis, m in cases:
            _export_ghat(spec, str(path), per_axis=per_axis)
            lines = path.read_text().splitlines()
            assert lines[0] == ",".join([f"r_{i + 1}" for i in range(k)] + ["ghat"])
            assert len(lines) - 1 == m ** k


class TestWaveletPipeline:
    def test_l1_block_does_not_depend_on_flags(self, capsys, tmp_path):
        # the L1 lattice comes from the spec: --grid sets only the ghat CSV
        # and --quad-order only the Calderon rule
        path = tmp_path / "w.json"
        path.write_text(json.dumps(CASE_A))
        blocks = []
        for flags in (["--grid", "8"], ["--grid", "128"],
                      ["--quad-order", "16"], ["--quad-order", "64"]):
            with _calderon_warns(flags == ["--quad-order", "16"]):
                assert main(["wavelet", "--input", str(path), *flags]) == 0
            blocks.append(json.dumps(json.loads(capsys.readouterr().out)["payload"]["l1"],
                                     sort_keys=True))
        assert len(set(blocks)) == 1

    def test_each_question_answered_once(self, capsys, tmp_path, monkeypatch):
        # the case (a) job solves ((W, W)) once: synth_wavelet keeps its box
        # for l1_estimate.  And phi_k is evaluated on the even block's Abel
        # grid once per row chunk, not once per node: the grid's least point,
        # (xi, u) = (0, du / 2), which every node's corner holds, reaches phi_k
        # once as rho and once as 1 * rho at each of the three nodes at s = 0
        # (the first s-node and the two containment points off the block's
        # axis), 4 times where one evaluation per node takes 37 + 3
        import orbitscope.wavelet as wavelet

        systems, least = [], []
        meeting_system, factor = wavelet.meeting_system, wavelet.WaveletSpec.factor

        def counted_system(action, C1, C2):
            systems.append((C1.bounds, C2.bounds))
            return meeting_system(action, C1, C2)

        def counted_factor(spec, k, x):
            if np.ndim(x) == 2 and np.size(x):
                least.append((k, float(np.min(x))))
            return factor(spec, k, x)

        monkeypatch.setattr(wavelet, "meeting_system", counted_system)
        monkeypatch.setattr(wavelet.WaveletSpec, "factor", counted_factor)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(CASE_A))
        assert main(["wavelet", "--input", str(path), "--grid", "8"]) == 0
        spec = json.loads(capsys.readouterr().out)["payload"]["spec"]
        C, W = (tuple(map(tuple, spec[key]["bounds"])) for key in ("C", "W"))
        assert systems.count((C, C)) == 1 and systems.count((W, W)) == 1
        even = [k for k, (start, stop) in enumerate(spec["slices"]) if (stop - start) % 2 == 0]
        assert len(even) == 1  # the rotation-scaling block
        mins = [value for k, value in least if k == even[0]]
        assert mins.count(min(mins)) == 4

    @pytest.mark.parametrize("doc", [
        {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1.0, 2.0]]}}, CASE_A,
    ], ids=["1d", "case-a"])
    def test_calderon_block_does_not_depend_on_seed(self, capsys, tmp_path, doc):
        # nothing is drawn: coverage and the integral are read on the one
        # orbit through C's centre
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        blocks = []
        for seed in ("0", "1", "1729"):
            assert main(["wavelet", "--input", str(path), "--grid", "8", "--seed", seed]) == 0
            blocks.append(json.loads(capsys.readouterr().out)["payload"]["calderon"])
        assert blocks[0]["n_covered"] == 1 and blocks[0]["n_uncovered"] == 0
        assert blocks[0] == blocks[1] == blocks[2]

    @pytest.mark.parametrize("samples", [5, 0, "abc"])
    def test_samples_key_is_ignored(self, capsys, tmp_path, samples):
        # no wavelet draws remain, so a "samples" key is read by no
        # subcommand: accepted and ignored, like any key a job does not read
        reports = []
        for doc in (CASE_A, {**CASE_A, "samples": samples}):
            path = tmp_path / "w.json"
            path.write_text(json.dumps(doc))
            assert main(["wavelet", "--input", str(path), "--grid", "8"]) == 0
            report = json.loads(capsys.readouterr().out)
            reports.append({**report, "header": {**report["header"], "timestamp": None}})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("doc", [
        {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1.0, 2.0]]}}, CASE_A,
    ], ids=["1d", "case-a"])
    def test_generators_times_1000(self, capsys, tmp_path, doc):
        # the support pad and the containment points are in t-units, which
        # scale as 1/1000, so every number that does not depend on the
        # parametrization keeps its x1 value
        payloads = []
        for scale in (1.0, 1000.0):
            path = tmp_path / "w.json"
            gens = (np.array(doc["generators"], dtype=float) * scale).tolist()
            path.write_text(json.dumps({**doc, "generators": gens}))
            assert main(["wavelet", "--input", str(path), "--grid", "8"]) == 0
            payloads.append(json.loads(capsys.readouterr().out)["payload"])
        ref, got = payloads
        d = len(doc["generators"])
        assert got["calderon"]["n_uncovered"] == 0
        assert got["calderon"]["max_deviation"] == pytest.approx(
            ref["calderon"]["max_deviation"], abs=1e-13)
        assert got["spec"]["sigma"] * 1000.0 ** d == pytest.approx(ref["spec"]["sigma"], rel=1e-12)
        assert got["l1"]["l1_estimate"] == pytest.approx(ref["l1"]["l1_estimate"], rel=1e-12)
        assert got["l1"]["support_containment_max"] == 0.0

    def test_wavelet_then_cwt(self, tmp_path):
        doc = {"n": 1, "generators": [[1.0]], "box": {"bounds": [[1.0, 2.0]]}}
        wpath = tmp_path / "wav.json"
        wpath.write_text(json.dumps(doc))
        wout = tmp_path / "wav_out.json"
        res = run_cli("wavelet", "--input", str(wpath), "--out", str(wout),
                      "--quad-order", "64", "--grid", "128")
        assert res.returncode == 0, res.stderr
        report = json.loads(wout.read_text())
        validate_report(report)
        payload = report["payload"]
        assert payload["calderon"]["max_deviation"] < 1e-3
        assert payload["l1"]["l1_estimate"] > 0
        ghat_lines = open(payload["ghat_csv"]).read().splitlines()
        assert ghat_lines[0] == "r_1,ghat"

        # pipeline: feed a band-limited signal through cwt
        N, dx = 256, 0.3
        freqs = 2 * np.pi * np.fft.fftfreq(N, dx)
        band = (np.abs(freqs) > 0.9) & (np.abs(freqs) < 2.2)
        rng = np.random.default_rng(0)
        f = np.real(np.fft.ifft(rng.standard_normal(N) * band)) / dx
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, f, delimiter=",")
        cdoc = dict(doc)
        cdoc.update({"signal": str(sig), "dx": dx, "param_counts": 64})
        cpath = tmp_path / "cwt.json"
        cpath.write_text(json.dumps(cdoc))
        cout = tmp_path / "cwt_out.json"
        res2 = run_cli("cwt", "--input", str(cpath), "--out", str(cout))
        assert res2.returncode == 0, res2.stderr
        report2 = json.loads(cout.read_text())
        validate_report(report2)
        ratio = report2["payload"]["isometry_ratio"]
        assert 0.95 < ratio < 1.05
        assert report2["payload"]["slices"] == str(tmp_path / "cwt_out.json_coeffs.npz")
        with np.load(report2["payload"]["slices"], allow_pickle=False) as npz:
            assert sorted(npz.files) == ["coeffs", "dx", "param_points", "param_weights"]
            coeffs, pts, w = npz["coeffs"], npz["param_points"], npz["param_weights"]
            assert coeffs.dtype == np.float64 and coeffs.shape == (64, N)
            assert pts.shape == (64, 1) and w.shape == (64,)
            assert npz["dx"].tolist() == [dx]
        # left Haar |det h|^-1 dx dh with det h_t = exp(t) for the generator [[1]]
        energy = np.sum(w * np.exp(-pts[:, 0]) * np.sum(coeffs ** 2, axis=1)) * dx
        signal = np.loadtxt(sig, delimiter=",")
        assert energy / (np.sum(signal ** 2) * dx) == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("signal", [np.zeros(64), np.r_[np.inf, np.ones(63)],
                                        np.r_[np.nan, np.ones(63)]],
                             ids=["all-zero", "inf-sample", "nan-sample"])
    def test_invalid_signal_exit_1(self, tmp_path, signal):
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, signal, delimiter=",")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                    "box": {"bounds": [[1.0, 2.0]]},
                                    "signal": str(sig), "dx": 0.3, "param_counts": 8}))
        out = tmp_path / "c_out.json"
        res = run_cli("cwt", "--input", str(path), "--out", str(out))
        assert res.returncode == 1, res.stderr
        assert "input error: signal" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("generators, signal, fields", [
        (DILATION_1D, np.ones(100), {}),
        (DILATION_1D, None, {"dx": "abc"}),
        (DILATION_1D, None, {"dx": 0}),
        (DILATION_1D, None, {"dx": float("nan")}),
        (DILATION_1D, None, {"param_counts": 0}),
        (DILATION_1D, None, {"param_counts": -3}),
        (DILATION_1D, None, {"param_counts": "x"}),
        (DILATION_1D, None, {"param_counts": 2.7}),
        (DILATION_1D, np.ones((16, 16)), {}),
        ([[[1.0, -1.0], [1.0, 1.0]]], None, {}),
    ], ids=["length-100", "dx-string", "dx-zero", "dx-nan", "param-counts-zero",
            "param-counts-negative", "param-counts-string", "param-counts-fraction",
            "2d-signal-for-n1", "1d-signal-for-n2"])
    def test_invalid_cwt_input_exit_1(self, tmp_path, capsys, generators, signal, fields):
        n = len(generators[0])
        if signal is None:  # a tone at |xi| = 1.64, a valid signal for the 1-D spec
            signal = np.cos(2 * np.pi * 5 * np.arange(64) / 64)
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, signal, delimiter=",")
        doc = {"n": n, "generators": generators, "box": {"bounds": [[1.0, 2.0]]},
               "signal": str(sig), "dx": 0.3, "param_counts": 8}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, **fields}))
        out = tmp_path / "c_out.json"
        assert main(["cwt", "--input", str(path), "--out", str(out)]) == 1
        assert "input error: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "c_out.json_coeffs.npz").exists()

    @pytest.mark.parametrize("signal", [
        5, "", None,
        # a valid tone's samples given inline instead of a CSV path
        [str(v) for v in np.cos(2 * np.pi * 5 * np.arange(64) / 64)],
    ], ids=["number", "empty", "null", "inline-rows"])
    def test_signal_must_be_a_path_string(self, tmp_path, capsys, signal):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                    "box": {"bounds": [[1.0, 2.0]]},
                                    "signal": signal, "dx": 0.3, "param_counts": 8}))
        out = tmp_path / "c_out.json"
        assert main(["cwt", "--input", str(path), "--out", str(out)]) == 1
        assert ("input error: 'signal' must be a non-empty string (a CSV or .npy path)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e160, 1e200])
    @pytest.mark.parametrize("spec, k", [
        ({"n": 1, "generators": DILATION_1D}, 1), ({"n": 2, "generators": [[1, -1, 1, 1]]}, 1),
        (CASE_A, 2),
    ], ids=["dilation-1d", "spiral-2d", "case-a"])
    def test_box_beyond_the_float_range_refused(self, tmp_path, capsys, spec, k, scale):
        # squared block norms leave the float range beyond about 1e+-154:
        # the box C = [s, 2 s] is refused, not answered with a traceback or NaN
        path, out = tmp_path / "w.json", tmp_path / "w_out.json"
        path.write_text(json.dumps({**spec, "box": {"bounds": [[scale, 2 * scale]] * k}}))
        assert main(["wavelet", "--input", str(path), "--out", str(out),
                     "--quad-order", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: invalid box: 'box' must be ") and err.count("\n") == 1
        assert "b^max(2, m) in [1e-304, 1e+304]" in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("spec, k", [
        ({"n": 1, "generators": DILATION_1D}, 1), ({"n": 2, "generators": [[1, -1, 1, 1]]}, 1),
        (CASE_A, 2),
    ], ids=["dilation-1d", "spiral-2d", "case-a"])
    def test_box_inside_the_range_answers_as_at_scale_1(self, tmp_path, capsys, spec, k, scale):
        got = []
        for s in (1.0, scale):
            path = tmp_path / "w.json"
            path.write_text(json.dumps({**spec, "box": {"bounds": [[s, 2 * s]] * k}}))
            with _calderon_warns(True):
                assert main(["wavelet", "--input", str(path), "--quad-order", "16"]) == 0
            payload = json.loads(capsys.readouterr().out)["payload"]
            got.append([payload["calderon"]["max_deviation"], payload["l1"]["l1_estimate"]])
        np.testing.assert_allclose(got[1], got[0], rtol=1e-10)

    @pytest.mark.parametrize("spec, w", [
        (_BOX_1D, [[1e-152, 1e152]]),
        ({"n": 2, "generators": [[1, -1, 1, 1]], "box": {"bounds": [[1.0, 2.0]]}},
         [[1e-100, 1e100]]),
        (CASE_A, [[1e-152, 1e152]] * 2),
    ], ids=["dilation-1d", "spiral-2d", "case-a"])
    def test_wide_w_answers(self, tmp_path, capsys, spec, w):
        # a containment node of the L1 estimate sits at |s| ~ 767 (1167 for
        # case (a)), where c = e^|s| leaves the float range: its profile
        # phi_k(rho) phi_k(c rho) is 0, not a ZeroDivisionError on the empty
        # Abel grid (even blocks) or NaN from inf * 0 (odd blocks)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({**spec, "W": {"bounds": w}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["wavelet", "--input", str(path), "--quad-order", "16"]) == 0
        l1 = json.loads(capsys.readouterr().out)["payload"]["l1"]
        assert 0.0 < l1["l1_estimate"] < np.inf and l1["support_containment_max"] == 0.0
        assert {warning.category for warning in caught} == {UserWarning}
        assert any("lattice capped" in str(warning.message) for warning in caught)

    def test_calderon_shortfall_warns(self, tmp_path):
        # the Calderon deviation is 4.5e-3 at order 16 and 2.0e-7 at 64:
        # above 1e-3 the job warns and still exits 0
        path = tmp_path / "w.json"
        path.write_text(json.dumps(_BOX_1D))
        res = run_cli("wavelet", "--input", str(path), "--quad-order", "16")
        assert res.returncode == 0 and json.loads(res.stdout)["payload"]["calderon"]
        assert "UserWarning: the Calderon integral deviates from 1 by 0.0045 on the 16 " \
               "cell rule" in res.stderr
        res = run_cli("wavelet", "--input", str(path), "--quad-order", "64")
        assert res.returncode == 0 and res.stderr == ""

    @pytest.mark.parametrize("subcommand, error", [
        ("quasisection", r"error \(UnclassifiedFamily\): \(\(C,C\)\) is bounded in every "
                         r"scaling direction, but the parameter directions \[\[0\.0, -?1\.0\]\] "
                         r"only rotate"),
        ("wavelet", r"error \(ZeroSigma\): the parameter directions \[\[0\.0, -?1\.0\]\] "
                    r"scale no block"),
    ], ids=["quasisection", "wavelet"])
    def test_similitude_group_is_not_refuted(self, tmp_path, capsys, subcommand, error):
        # C* on R^2, [I, R] with R = E21 - E12: exp(t R) only rotates, so
        # neither a "no" verdict nor "C is not a quasi-section" holds; R is
        # named up to sign
        path = tmp_path / "c_star.json"
        path.write_text(json.dumps({"n": 2, "generators": [[1, 0, 0, 1], [0, -1, 1, 0]],
                                    "box": {"bounds": [[1, 2]]}, "orbit_space_compact": True}))
        assert main([subcommand, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.match(error, err) and err.count("\n") == 1, err

    def test_far_box_is_a_wavelet_and_cwt_rule(self, tmp_path, capsys):
        # cwt refuses the box before it reads the signal; quasisection
        # answers at any finite scale
        far = {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1e200, 2e200]]}}
        path = tmp_path / "far.json"
        path.write_text(json.dumps({**far, "signal": str(tmp_path / "missing.csv")}))
        assert main(["cwt", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: invalid box: 'box'")
        path.write_text(json.dumps({**_BOX_1D, "W": {"bounds": [[1e-200, 2.5]]}}))
        assert main(["wavelet", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: invalid box: 'W'")
        path.write_text(json.dumps(far))
        assert main(["quasisection", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["verdict"]["quasi_section_exists"]

    def test_case_a_wavelet(self, tmp_path):
        doc = {
            "n": 3,
            "generators": [
                [1, -1, 0, 1, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0, 1],
            ],
            "box": {"bounds": [[0.5, 2.0], [0.5, 2.0]]},
        }
        path = tmp_path / "wav_a.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "wav_a_out.json"
        res = run_cli("wavelet", "--input", str(path), "--out", str(out),
                      "--quad-order", "32")
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())["payload"]
        assert payload["calderon"]["n_covered"] == 1
        assert payload["calderon"]["max_deviation"] < 5e-3
        assert payload["l1"]["support_containment_max"] <= 1e-12

    def test_refused_construction_exit_2(self, tmp_path):
        doc = {
            "n": 3,
            "generators": [
                [1, 0, 0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 1, 0, 0, 0, 1],
            ],
            "box": {"bounds": [[0, 2], [0, 2], [0.5, 2]]},
        }
        path = tmp_path / "wav_b11.json"
        path.write_text(json.dumps(doc))
        res = run_cli("wavelet", "--input", str(path))
        assert res.returncode == 2
        assert "QuasiSectionRefused" in res.stderr


class TestReportSchema:
    def test_validate_rejects_missing_header(self):
        with pytest.raises(InputError):
            validate_report({"payload": {}})

    def test_env_thread_cap(self, case_d_spec, tmp_path, monkeypatch):
        # ORBITSCOPE_THREADS is accepted and has no effect on the results
        out = tmp_path / "strata_t1.json"
        plain_env = {k: v for k, v in os.environ.items() if k != "ORBITSCOPE_THREADS"}
        results = []
        for env in (plain_env, {**plain_env, "ORBITSCOPE_THREADS": "1"}):
            env_run = subprocess.run(
                [sys.executable, "-m", "orbitscope.cli", "strata",
                 "--input", str(case_d_spec), "--out", str(out), "--grid", "32"],
                capture_output=True, text=True, env=env,
            )
            assert env_run.returncode == 0, env_run.stderr
            report = json.loads(out.read_text())
            validate_report(report)
            del report["header"]["timestamp"]
            results.append((report, open(report["payload"]["csv"]).read()))
        assert results[0] == results[1]


IMPORT_PROBE = (
    "import json, os, sys\n"
    "from orbitscope.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
    "tasks = '/proc/self/task'\n"
    "print(json.dumps({'code': code, 'scipy': loaded('scipy'),\n"
    "                  'orbitscope': loaded('orbitscope'),\n"
    "                  'numpy.random': 'numpy.random' in sys.modules,\n"
    "                  'numpy.ma': 'numpy.ma' in sys.modules,\n"
    "                  'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}),\n"
    "      file=sys.stderr)\n"
)

# the orbitscope modules each subcommand must not load (its import footprint)
NOT_LOADED = {
    "section": {"orbits", "quasisection", "wavelet", "classify"},
    "strata": {"quasisection", "wavelet", "classify", "sections"},
    "quasisection": {"wavelet", "classify", "sections", "orbits"},
    "wavelet": {"classify", "sections", "orbits"},
    "cwt": {"classify", "sections", "orbits"},
}
# every sampled check (the strata census, the quasisection and wavelet
# samples) draws from the standard library's random: no subcommand loads
# numpy.random
RANDOM_LOADERS = set()
# the exact module sets of the classify jobs; only the golden table reads
# the family constructors
CLASSIFY_MODULES = ["orbitscope", "orbitscope.classify", "orbitscope.cli", "orbitscope.errors",
                    "orbitscope.groupspec", "orbitscope.linalg"]
TABLE_MODULES = sorted([*CLASSIFY_MODULES, "orbitscope.families"])


def probe_env(**extra):
    """This process's environment without OPENBLAS_NUM_THREADS, which importing
    orbitscope.cli here has set, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, **extra}


def run_import_probe(*args, env=None):
    """Run the CLI in a fresh interpreter; return its exit code, the scipy and
    orbitscope modules loaded by the time it returned, whether numpy.random
    and numpy.ma were, and its native thread count (None without /proc)."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                         capture_output=True, text=True, env=env or probe_env())
    assert res.returncode == 0, res.stderr
    return json.loads(res.stderr.strip().splitlines()[-1])


def assert_footprint(sub, probe, table=False):
    """The probe's run exited 0 without scipy, loaded only what `sub` runs, and
    ended on one thread: no BLAS worker."""
    assert probe["code"] == 0 and probe["scipy"] == [], sub
    assert probe["threads"] in (None, 1), (sub, probe["threads"])
    assert probe["numpy.random"] == (sub in RANDOM_LOADERS), sub
    if sub == "classify":
        assert probe["orbitscope"] == (TABLE_MODULES if table else CLASSIFY_MODULES)
    else:
        loaded = {m.removeprefix("orbitscope.") for m in probe["orbitscope"]}
        assert not loaded & NOT_LOADED[sub], (sub, loaded)


class TestImports:
    def test_verdict_subcommands_load_no_scipy(self, case_d_spec, tmp_path):
        sec = tmp_path / "sec.json"
        sec.write_text(json.dumps({
            "n": 3,
            "generators": [
                [1, 0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0, 0],
            ],
            "points": [[1, 5, 7], [0, 5, 7]],
        }))
        # the same pair written as [A + X, A - 2X]: section reads the pair
        # without the classify module
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({
            "n": 3,
            "generators": [
                [1, 0, 0, 1, 1, 0, 0, 0, 0],
                [1, 0, 0, -2, 1, 0, 0, 0, 0],
            ],
            "points": [[1, 5, 7], [0, 5, 7]],
        }))
        for args in (
            ["classify", "--table"],
            ["classify", "--input", str(case_d_spec)],
            ["strata", "--input", str(case_d_spec), "--grid", "16"],
            ["section", "--input", str(sec)],
            ["section", "--input", str(mixed)],
        ):
            out = tmp_path / f"{args[0]}.json"
            probe = run_import_probe(*args, "--out", str(out))
            assert_footprint(args[0], probe, table="--table" in args)
            assert not probe["numpy.ma"], args  # np.unique on floats imports it
            validate_report(json.loads(out.read_text()))

    def test_solver_jobs_load_no_optimizer(self, tmp_path):
        # the meeting-set kernel and the quadrature rule are numpy only
        path = tmp_path / "qs.json"
        path.write_text(json.dumps({
            "n": 3,
            "generators": CASE_B11,
            "boxes": [
                {"bounds": [[0, 2], [0.5, 2], [0.5, 2]]},
                {"bounds": [[0.5, 2], [0, 2], [0.5, 2]]},
                {"bounds": [[0.5, 2], [0.5, 2], [0, 2]]},
            ],
            "orbit_space_compact": True,
        }))
        out = tmp_path / "qs_out.json"
        probe = run_import_probe("quasisection", "--input", str(path), "--out", str(out))
        assert_footprint("quasisection", probe)
        verdict = json.loads(out.read_text())["payload"]["verdict"]
        assert verdict["quasi_section_exists"] == "no"
        wav = tmp_path / "w.json"
        wav.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                   "box": {"bounds": [[1.0, 2.0]]}}))
        probe = run_import_probe("wavelet", "--input", str(wav), "--out",
                                 str(tmp_path / "w_out"), "--grid", "16")
        assert_footprint("wavelet", probe)
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, np.cos(2 * np.pi * 5 * np.arange(64) / 64), delimiter=",")
        cwt_doc = tmp_path / "c.json"
        cwt_doc.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                       "box": {"bounds": [[1.0, 2.0]]},
                                       "signal": str(sig), "dx": 0.3,
                                       "param_counts": 8}))
        probe = run_import_probe("cwt", "--input", str(cwt_doc), "--out",
                                 str(tmp_path / "c_out"))
        assert_footprint("cwt", probe)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc/self/task and two CPUs")
    def test_user_blas_threads_kept(self, tmp_path):
        # the CLI only supplies a default: a value the user set is kept
        out = tmp_path / "table.json"
        probe = run_import_probe("classify", "--table", "--out", str(out),
                                 env=probe_env(OPENBLAS_NUM_THREADS="2"))
        assert probe["code"] == 0 and probe["threads"] == 2

    def test_library_import_leaves_environment(self):
        res = subprocess.run(
            [sys.executable, "-c", "import orbitscope, orbitscope.wavelet, numpy, os; "
             "print('OPENBLAS_NUM_THREADS' in os.environ)"],
            capture_output=True, text=True, env=probe_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


def csv_writer_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


class TestSavez:
    ARRAYS = {
        "coeffs": np.random.default_rng(3).standard_normal((5, 8, 4)),
        "complex": np.arange(6) * (1 + 2j),
        "param_points": np.random.default_rng(4).standard_normal((5, 2)),
        "dx": np.asarray((0.3,)),
    }

    def test_members_equal_savez(self, tmp_path):
        ref, got = tmp_path / "ref.npz", tmp_path / "got.npz"
        np.savez(ref, **self.ARRAYS)
        _savez(str(got), **self.ARRAYS)
        with zipfile.ZipFile(ref) as zr, zipfile.ZipFile(got) as zg:
            assert zg.namelist() == zr.namelist()
            for info in zg.infolist():
                assert info.compress_type == zipfile.ZIP_STORED
                assert zg.read(info.filename) == zr.read(info.filename)
        with np.load(got, allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(self.ARRAYS)
            for name, arr in self.ARRAYS.items():
                assert npz[name].dtype == arr.dtype
                assert np.array_equal(npz[name], arr)

    def test_cwt_peak_memory(self, tmp_path):
        # 128 x 128 signal, 96 parameter points: the job holds the coefficients
        # once, with no coefficient-sized temporary for the energy or the .npz
        N, dx, counts = 128, np.pi / 10.0, 96
        axes = [2.0 * np.pi * np.fft.fftfreq(N, dx)] * 2
        rad = np.hypot(*np.meshgrid(*axes, indexing="ij"))
        rng = np.random.default_rng(5)
        spec_ = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        f = np.real(np.fft.ifftn(spec_ * ((rad > 0.9) & (rad < 2.0))))
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, f, delimiter=",")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2, "generators": [[[1.0, -1.0], [1.0, 1.0]]],
                                    "box": {"bounds": [[1.0, 2.0]]}, "signal": str(sig),
                                    "dx": dx, "param_counts": counts}))
        out = tmp_path / "c_out.json"
        tracemalloc.start()
        try:
            assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with np.load(str(out) + "_coeffs.npz", allow_pickle=False) as npz:
            nbytes = npz["coeffs"].nbytes
        assert nbytes == counts * N * N * 8
        assert peak < 1.6 * nbytes


def _band_signal(spec, shape, dx, seed):
    """A real signal whose every frequency keeps its orbit's whole window over
    W inside the transform's parameter box, built as criterion 7 builds its
    signals: block magnitudes in (W_hi e^-hi 1.1, W_lo e^-lo / 1.1)."""
    r = spec.action.block_abs(frequency_lattice(shape, (dx,) * len(shape)))
    band = np.ones(r.shape[0], dtype=bool)
    for k, ((lo, hi), (wlo, whi)) in enumerate(zip(spec.param_box, spec.W.bounds)):
        band &= (r[:, k] > whi * np.exp(-hi) * 1.1) & (r[:, k] < wlo * np.exp(-lo) / 1.1)
    rng = np.random.default_rng(seed)
    fh = (rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)) * band
    return np.fft.ifftn(fh.reshape(shape)).real


def _cwt_job(tmp_path, doc, f, suffix=".csv"):
    """Write f and a cwt input naming it; returns the input path and the
    signal as the CLI reads it."""
    sig = tmp_path / ("sig" + suffix)
    if suffix == ".npy":
        np.save(sig, f)
    else:
        np.savetxt(sig, f, delimiter=",")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**doc, "signal": str(sig)}))
    return path, (np.load(sig) if suffix == ".npy" else np.loadtxt(sig, delimiter=","))


def _library_cwt(doc, f):
    action = diagonal_action(group_spec_from_dict(doc))
    spec = synth_wavelet(action, BoxSet(doc["box"]["bounds"]))
    return cwt(spec, f, doc["dx"], param_counts=doc["param_counts"])


_CWT_1D = {"n": 1, "generators": [[1.0]], "box": {"bounds": [[1.0, 2.0]]},
           "dx": 0.3, "param_counts": 64}
_CWT_2D = {"n": 2, "generators": [[[1.0, -1.0], [1.0, 1.0]]],
           "box": {"bounds": [[1.0, 2.0]]}, "dx": np.pi / 10.0, "param_counts": 24}


class TestCwtStream:
    @pytest.mark.parametrize("doc, shape, suffix", [
        (_CWT_1D, (256,), ".csv"), (_CWT_2D, (64, 64), ".csv"), (_CWT_2D, (64, 64), ".npy"),
    ], ids=["1d-csv", "2d-csv", "2d-npy"])
    def test_streamed_npz_equals_savez(self, tmp_path, capsys, doc, shape, suffix):
        spec = synth_wavelet(diagonal_action(group_spec_from_dict(doc)),
                             BoxSet(doc["box"]["bounds"]))
        path, f = _cwt_job(tmp_path, doc, _band_signal(spec, shape, doc["dx"], 3), suffix)
        tg = _library_cwt(doc, f)
        ref = tmp_path / "ref.npz"
        np.savez(ref, coeffs=tg.coeffs, param_points=tg.param_points,
                 param_weights=tg.param_weights, dx=np.asarray(tg.dx))
        out = tmp_path / "c_out.json"
        assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
        with zipfile.ZipFile(ref) as zr, zipfile.ZipFile(str(out) + "_coeffs.npz") as zg:
            assert zg.namelist() == zr.namelist() == [
                "coeffs.npy", "param_points.npy", "param_weights.npy", "dx.npy"]
            for name in zr.namelist():
                assert zg.read(name) == zr.read(name)
        # without --out the slices are only summed, to the same energy
        assert main(["cwt", "--input", str(path)]) == 0
        streamed = json.loads(out.read_text())["payload"]["isometry_ratio"]
        summed = json.loads(capsys.readouterr().out)["payload"]["isometry_ratio"]
        assert streamed == summed == tg.isometry_ratio()
        assert 0.95 <= summed <= 1.05

    def test_peak_memory(self, tmp_path):
        # test_cwt_peak_memory's job: the coefficients are never whole in
        # memory, only one slice is (parent: 1.24x)
        doc = {**_CWT_2D, "param_counts": 96}
        spec = synth_wavelet(diagonal_action(group_spec_from_dict(doc)),
                             BoxSet(doc["box"]["bounds"]))
        path, _ = _cwt_job(tmp_path, doc, _band_signal(spec, (128, 128), doc["dx"], 5))
        out = tmp_path / "c_out.json"
        tracemalloc.start()
        try:
            assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = 96 * 128 * 128 * 8
        assert os.path.getsize(str(out) + "_coeffs.npz") > nbytes
        assert peak < 0.5 * nbytes

    def test_n3_case_a_npy(self, tmp_path):
        # case (a) on a 32^3 lattice from a .npy signal; 12^2 parameter points
        # keep the isometry within criterion 7's band
        doc = {**CASE_A, "dx": np.pi / 8.0, "param_counts": 12}
        spec = synth_wavelet(diagonal_action(group_spec_from_dict(doc)),
                             BoxSet(doc["box"]["bounds"]))
        path, f = _cwt_job(tmp_path, doc, _band_signal(spec, (32, 32, 32), doc["dx"], 81),
                           ".npy")
        out = tmp_path / "c_out.json"
        tracemalloc.start()
        try:
            assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(out.read_text())["payload"]
        assert payload["spatial_shape"] == [32, 32, 32] and payload["n_param_points"] == 144
        assert 0.95 <= payload["isometry_ratio"] <= 1.05
        tg = _library_cwt(doc, f)
        with np.load(payload["slices"], allow_pickle=False) as npz:
            coeffs = npz["coeffs"]
        assert coeffs.shape == (144, 32, 32, 32)
        assert np.array_equal(coeffs, tg.coeffs)
        # one slice is 1/144 of the coefficients; the bound leaves room for
        # the lattice tables
        assert peak < 0.2 * coeffs.nbytes

    @pytest.mark.parametrize("error, code", [(OSError, 1), (RuntimeError, None)],
                             ids=["oserror-exit-1", "unexpected-raises"])
    def test_failure_mid_write_removes_file(self, tmp_path, monkeypatch, capsys,
                                            error, code):
        import orbitscope.wavelet as wavelet

        real = wavelet.cwt_slices

        def failing(*args):
            lattice, slices = real(*args)

            def gen():
                for i, c in enumerate(slices):
                    if i == 3:
                        raise error("disk full")
                    yield c
            return lattice, gen()

        monkeypatch.setattr(wavelet, "cwt_slices", failing)
        spec = synth_wavelet(diagonal_action(group_spec_from_dict(_CWT_1D)),
                             BoxSet(_CWT_1D["box"]["bounds"]))
        path, _ = _cwt_job(tmp_path, _CWT_1D, _band_signal(spec, (256,), 0.3, 3))
        out = tmp_path / "c_out.json"
        argv = ["cwt", "--input", str(path), "--out", str(out)]
        if code is None:
            with pytest.raises(error):
                main(argv)
        else:
            assert main(argv) == code
            assert "input error: disk full" in capsys.readouterr().err
        assert not (tmp_path / "c_out.json_coeffs.npz").exists()
        assert not out.exists()

    @pytest.mark.parametrize("array", [
        np.array([1.0, "a"], dtype=object), np.ones(64, dtype=complex), np.array(["1", "2"]),
        np.zeros(4, dtype=[("a", float)]), np.ones(64, dtype=bool),
    ], ids=["object", "complex", "string", "structured", "bool"])
    def test_npy_signal_must_be_real(self, tmp_path, capsys, array):
        sig = tmp_path / "sig.npy"
        np.save(sig, array, allow_pickle=True)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**_CWT_1D, "signal": str(sig)}))
        out = tmp_path / "c_out.json"
        assert main(["cwt", "--input", str(path), "--out", str(out)]) == 1
        assert "input error: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "c_out.json_coeffs.npz").exists()

    def test_empty_npy_signal(self, tmp_path, capsys):
        sig = tmp_path / "sig.npy"
        sig.write_bytes(b"")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**_CWT_1D, "signal": str(sig)}))
        out = tmp_path / "c_out.json"
        assert main(["cwt", "--input", str(path), "--out", str(out)]) == 1
        assert "input error: " in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "c_out.json_coeffs.npz").exists()

    @pytest.mark.parametrize("suffix", [".csv", ".npy"])
    def test_signal_without_samples(self, tmp_path, capsys, suffix):
        # a zero-byte CSV made numpy warn "input contained no data" on stderr
        # (an exception under -W error) before a lattice-size error
        sig = tmp_path / f"sig{suffix}"
        if suffix == ".csv":
            sig.write_bytes(b"")
        else:
            np.save(sig, np.zeros(0))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**_CWT_1D, "signal": str(sig)}))
        line = f"input error: cannot read signal {sig}: no data\n"
        res = run_cli("cwt", "--input", str(path))
        assert (res.returncode, res.stderr, res.stdout) == (1, line, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cwt", "--input", str(path)]) == 1
        assert capsys.readouterr().err == line

    def test_npz_behind_npy_name(self, tmp_path, capsys):
        sig = tmp_path / "sig.npy"
        with open(sig, "wb") as fh:
            np.savez(fh, f=np.ones(64))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**_CWT_1D, "signal": str(sig)}))
        assert main(["cwt", "--input", str(path)]) == 1
        assert "not a .npy array" in capsys.readouterr().err


class TestIsometryWarning:
    """A cwt job whose isometry ratio is off 1 by more than 0.05 (criterion 7)
    says so on stderr; an in-band job stays silent."""

    @pytest.mark.parametrize("name, ratio", [("gaussian", 0.7797), ("constant", 0.0)])
    def test_energy_shortfall_warns(self, tmp_path, name, ratio):
        # the Gaussian's spectrum reaches beyond the box [1, 2]; a constant
        # has only the frequency 0, where ghat vanishes
        x = (np.arange(256) - 128) * 0.05
        f, dx = (np.exp(-x ** 2 / 0.05), 0.05) if name == "gaussian" else (np.ones(256), 0.3)
        path, _ = _cwt_job(tmp_path, {**_CWT_1D, "dx": dx}, f)
        out = tmp_path / "c_out.json"
        with _isometry_warns(True):
            assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
        got = json.loads(out.read_text())["payload"]["isometry_ratio"]
        assert got == pytest.approx(ratio, abs=1e-4)

    @pytest.mark.parametrize("doc, shape", [(_CWT_1D, (256,)), (_CWT_2D, (64, 64))],
                             ids=["1d", "2d"])
    def test_in_band_is_silent(self, tmp_path, doc, shape):
        spec = synth_wavelet(diagonal_action(group_spec_from_dict(doc)),
                             BoxSet(doc["box"]["bounds"]))
        path, _ = _cwt_job(tmp_path, doc, _band_signal(spec, shape, doc["dx"], 7))
        out = tmp_path / "c_out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cwt", "--input", str(path), "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["payload"]["isometry_ratio"] - 1.0) <= 0.05


class TestWriteCsv:
    EDGE = [-0.0, 1e-300, 0.1, 1e16, -2.5e-7, 123456789.123456789]

    @pytest.mark.parametrize("n, m", [(1, 70), (3, 4913)])
    def test_ghat_table_matches_csv_writer(self, tmp_path, n, m):
        # 4913 rows span two 4096-row chunks
        rng = np.random.default_rng(n)
        table = rng.standard_normal((m, n + 1)) * 10.0 ** rng.integers(-20, 20, (m, n + 1))
        table[:len(self.EDGE), :] = np.array(self.EDGE)[:, None]
        header = [f"xi_{i + 1}" for i in range(n)] + ["ghat"]
        ref = tmp_path / "ref.csv"
        csv_writer_reference(ref, header, ([f"{v:.12g}" for v in row] for row in table))
        got = tmp_path / "got.csv"
        _write_csv(str(got), header, table, ",".join(["%.12g"] * (n + 1)))
        assert got.read_bytes() == ref.read_bytes()

    def test_strata_table_with_int_column(self, tmp_path):
        rng = np.random.default_rng(7)
        xis = rng.standard_normal((300, 3))
        xis[:len(self.EDGE), 0] = self.EDGE
        dims = rng.integers(0, 4, 300)
        header = ["xi_1", "xi_2", "xi_3", "orbit_dim"]
        ref = tmp_path / "ref.csv"
        csv_writer_reference(ref, header, ([f"{v:.12g}" for v in xi] + [int(d)]
                                           for xi, d in zip(xis.tolist(), dims)))
        got = tmp_path / "got.csv"
        _write_csv(str(got), header, np.column_stack([xis, dims]),
                   "%.12g,%.12g,%.12g,%d")
        assert got.read_bytes() == ref.read_bytes()


ENTRY_PROBE = (
    "import gc, sys\n"
    "from orbitscope import cli\n"
    "try:\n"
    "    cli.entry()\n"
    "except SystemExit as exc:\n"
    "    print(exc.code, gc.get_freeze_count(), file=sys.stderr)\n"
)


class TestEntry:
    def test_main_leaves_collector_alone(self, case_d_spec, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["classify", "--input", str(case_d_spec),
                     "--out", str(tmp_path / "out.json")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_entry_freezes_and_exits_with_main_status(self, case_d_spec, tmp_path):
        res = subprocess.run([sys.executable, "-c", ENTRY_PROBE, "classify",
                              "--input", str(case_d_spec), "--out", str(tmp_path / "out.json")],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        code, frozen = res.stderr.split()
        assert code == "0" and int(frozen) > 0

    def test_script_and_module_share_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["orbitscope"]
        module, func = script.split(":")
        assert module == "orbitscope.cli"
        tree = ast.parse(open(orbitscope.cli.__file__, encoding="utf-8").read())
        [block] = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert ast.unparse(block).splitlines()[1:] == [f"    {func}()"]


def _process_and_library_runs(tmp_path, capsys, argv, out):
    """(exit code, stdout, stderr, report modulo timestamp, side files) of argv
    as a `python -m orbitscope.cli` process and as an in-process main() call,
    both writing to the same --out path (or to stdout when out is None)."""
    argv = list(argv) + (["--out", str(out)] if out else [])
    runs = []
    for process in (True, False):
        if process:
            res = run_cli(*argv)
            code, stdout, stderr = res.returncode, res.stdout, res.stderr
        else:
            capsys.readouterr()
            code = main(argv)
            stdout, stderr = capsys.readouterr()
        report, side = None, {}
        if out and out.exists():
            report = json.loads(out.read_text())
            del report["header"]["timestamp"]
            for f in sorted(tmp_path.glob(out.name + "?*")):
                side[f.name] = f.read_bytes()
                f.unlink()
            out.unlink()
        runs.append((code, stdout, stderr, report, side))
    return runs


class TestProcessEqualsInProcess:
    """A `python -m orbitscope.cli` job and main() give the same code, output
    and side files: the entry adds only the frozen heap."""

    @pytest.fixture()
    def inputs(self, tmp_path, case_d_spec):
        docs = {
            "section": {"n": 3, "generators": [[1, 0, 0, 0, 1, 0, 0, 0, 0],
                                               [0, 0, 0, 1, 0, 0, 0, 0, 0]],
                        "points": [[1, 5, 7], [0, 5, 7]]},
            "quasisection": {**CASE_B_UNION, "orbit_space_compact": True},
            "wavelet": {"n": 1, "generators": DILATION_1D, "box": {"bounds": [[1.0, 2.0]]}},
        }
        freqs = 2 * np.pi * np.fft.fftfreq(64, 0.3)
        band = (np.abs(freqs) > 0.9) & (np.abs(freqs) < 2.2)
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, np.fft.ifft(np.random.default_rng(0).standard_normal(64) * band).real,
                   delimiter=",")
        docs["cwt"] = {**docs["wavelet"], "signal": str(sig), "dx": 0.3, "param_counts": 8}
        paths = {"classify": case_d_spec, "strata": case_d_spec}
        for name, doc in docs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        return paths

    @pytest.mark.parametrize("subcommand, flags", [
        ("classify", []), ("strata", ["--grid", "8"]), ("section", []),
        ("quasisection", []), ("wavelet", ["--quad-order", "8", "--grid", "8"]), ("cwt", []),
    ])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_same_outputs(self, tmp_path, capsys, inputs, subcommand, flags, to_file):
        argv = [subcommand, "--input", str(inputs[subcommand]), *flags]
        # the wavelet job's Calderon rule of order 8 and the cwt job's 8
        # parameter points fall short: the process prints the warning, which in
        # process goes to the warnings filter
        warning = {"wavelet": "UserWarning: the Calderon integral deviates from 1 by 0.057",
                   "cwt": "UserWarning: the isometry ratio 0.886 is off 1"}.get(subcommand)
        with _calderon_warns(subcommand == "wavelet"), _isometry_warns(subcommand == "cwt"):
            process, library = _process_and_library_runs(
                tmp_path, capsys, argv, tmp_path / "job.json" if to_file else None)
        assert process[0] == 0 and (warning in process[2] if warning else process[2] == ""), \
            process[2]
        if warning:  # in process the warning went to pytest.warns, not to stderr
            process = (*process[:2], "", *process[3:])
        if to_file:
            assert process[1] == "" and process[3] is not None
            assert bool(process[4]) == (subcommand not in ("classify", "quasisection"))
        else:
            report = json.loads(process[1])
            del report["header"]["timestamp"]
            library_report = json.loads(library[1])
            del library_report["header"]["timestamp"]
            assert report == library_report
            process, library = process[::2], library[::2]  # code, stderr, side files
        assert process == library

    @pytest.mark.parametrize("doc, code", [
        ({"n": 3, "generators": [[1, 0, 0, 0, 1, 0, 0, 0, True]]}, 1),
        ({"n": 2, "generators": [[0, 1, 0, 0], [0, 0, 1, 0]]}, 2),
    ], ids=["input-error", "domain-error"])
    def test_same_refusal(self, tmp_path, capsys, doc, code):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "job.json"
        process, library = _process_and_library_runs(
            tmp_path, capsys, ["classify", "--input", str(path)], out)
        assert process[0] == code and len(process[2].splitlines()) == 1, process[2]
        assert process == library
        assert not out.exists()
