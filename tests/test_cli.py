import csv
import json
import os
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

from orbitscope.cli import _export_ghat, _savez, _write_csv, main
from orbitscope.groupspec import group_spec_from_dict, validate_report
from orbitscope.errors import InputError
from orbitscope.quasisection import BoxSet, diagonal_action
from orbitscope.wavelet import synth_wavelet


def run_cli(*args, check=False):
    return subprocess.run(
        [sys.executable, "-m", "orbitscope.cli", *args],
        capture_output=True, text=True, check=check,
    )


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

    def test_determinism_modulo_timestamp(self, case_d_spec, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli("classify", "--input", str(case_d_spec), "--out", str(out), check=True)
            lines = [ln for ln in out.read_text().splitlines() if "timestamp" not in ln]
            outs.append("\n".join(lines))
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
    ], ids=["short-point", "ragged", "string-entry", "nested-entry", "nested-list",
            "overflow", "nan", "empty", "not-a-list"])
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


class TestQuasisectionCommand:
    def test_union_verdict(self, tmp_path):
        path = tmp_path / "qs.json"
        path.write_text(json.dumps({
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
            "orbit_space_compact": True,
        }))
        out = tmp_path / "qs_out.json"
        res = run_cli("quasisection", "--input", str(path), "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        validate_report(report)
        v = report["payload"]["verdict"]
        assert v["quasi_section_exists"] == "no"
        assert v["witness_direction"] is not None


CASE_B11 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1],
]
DILATION_1D = [[1.0]]


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
                                        "box": {"bounds": [[1.0, 2.0]]}, "samples": 2}))
        out = tmp_path / "out"
        assert main([subcommand, "--input", str(path), "--out", str(out), *flags]) == 1
        assert f"input error: {flags[0]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestWaveletSamples:
    @pytest.mark.parametrize("samples", [0, -3, "abc", 2.5],
                             ids=["zero", "negative", "string", "fraction"])
    def test_invalid_samples_exit_1(self, tmp_path, capsys, samples):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                    "box": {"bounds": [[1.0, 2.0]]}, "samples": samples}))
        out = tmp_path / "out.json"
        assert main(["wavelet", "--input", str(path), "--out", str(out)]) == 1
        assert "input error: 'samples' must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()


CASE_A = {"n": 3, "generators": [[1, -1, 0, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1]],
          "box": {"bounds": [[0.5, 2.0], [0.5, 2.0]]}}


class TestGhatExport:
    def test_csv_matches_ghat_through_basis_and_slices(self, tmp_path):
        path = tmp_path / "wav_a.json"
        path.write_text(json.dumps({**CASE_A, "samples": 5}))
        out = tmp_path / "wav_a_out.json"
        assert main(["wavelet", "--input", str(path), "--out", str(out),
                     "--quad-order", "32"]) == 0
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["header"]["schema_version"] == "3"
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
        spec = synth_wavelet(action, BoxSet(CASE_A["box"]["bounds"]), orders=32)
        assert spec.sigma == payload["spec"]["sigma"]
        ghat = spec.ghat(xi)
        assert np.count_nonzero(ghat) > 0
        np.testing.assert_allclose(table[:, 2], ghat, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, cases", [
        (1, [(128, 64), (10, 10)]), (2, [(128, 64), (10, 10)]), (3, [(128, 16), (12, 12)]),
    ])
    def test_row_cap(self, tmp_path, k, cases):
        # m per axis = min(per_axis, 64, the largest m with m^k <= 4096)
        action = diagonal_action(group_spec_from_dict(
            {"n": k, "generators": [np.diag(np.eye(k)[i]).tolist() for i in range(k)]}))
        spec = synth_wavelet(action, BoxSet([(1.0, 2.0)] * k), orders=24)
        path = tmp_path / "ghat.csv"
        for per_axis, m in cases:
            _export_ghat(spec, str(path), per_axis=per_axis)
            lines = path.read_text().splitlines()
            assert lines[0] == ",".join([f"r_{i + 1}" for i in range(k)] + ["ghat"])
            assert len(lines) - 1 == m ** k


class TestWaveletPipeline:
    def test_wavelet_then_cwt(self, tmp_path):
        doc = {"n": 1, "generators": [[1.0]], "box": {"bounds": [[1.0, 2.0]]},
               "samples": 25}
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

    def test_case_a_wavelet(self, tmp_path):
        doc = {
            "n": 3,
            "generators": [
                [1, -1, 0, 1, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0, 1],
            ],
            "box": {"bounds": [[0.5, 2.0], [0.5, 2.0]]},
            "samples": 10,
        }
        path = tmp_path / "wav_a.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "wav_a_out.json"
        res = run_cli("wavelet", "--input", str(path), "--out", str(out),
                      "--quad-order", "32")
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())["payload"]
        assert payload["calderon"]["n_covered"] == 10
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
    "import json, sys\n"
    "from orbitscope.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print(json.dumps({'code': code, 'scipy': scipy}), file=sys.stderr)\n"
)


def run_import_probe(*args):
    """Run the CLI in a fresh interpreter; return its exit code and the scipy
    modules loaded by the time it returned."""
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stderr.strip().splitlines()[-1])


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
        for args in (
            ["classify", "--table"],
            ["strata", "--input", str(case_d_spec), "--grid", "16"],
            ["section", "--input", str(sec)],
        ):
            out = tmp_path / f"{args[0]}.json"
            probe = run_import_probe(*args, "--out", str(out))
            assert probe == {"code": 0, "scipy": []}, args
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
        assert probe == {"code": 0, "scipy": []}
        verdict = json.loads(out.read_text())["payload"]["verdict"]
        assert verdict["quasi_section_exists"] == "no"
        wav = tmp_path / "w.json"
        wav.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                   "box": {"bounds": [[1.0, 2.0]]}, "samples": 5}))
        probe = run_import_probe("wavelet", "--input", str(wav), "--out",
                                 str(tmp_path / "w_out"), "--grid", "16")
        assert probe == {"code": 0, "scipy": []}
        sig = tmp_path / "sig.csv"
        np.savetxt(sig, np.cos(2 * np.pi * 5 * np.arange(64) / 64), delimiter=",")
        cwt_doc = tmp_path / "c.json"
        cwt_doc.write_text(json.dumps({"n": 1, "generators": DILATION_1D,
                                       "box": {"bounds": [[1.0, 2.0]]},
                                       "signal": str(sig), "dx": 0.3,
                                       "param_counts": 8}))
        probe = run_import_probe("cwt", "--input", str(cwt_doc), "--out",
                                 str(tmp_path / "c_out"))
        assert probe == {"code": 0, "scipy": []}


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
