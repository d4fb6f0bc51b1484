import json
import math

import numpy as np
import pytest

from takagi.cli import EXIT_CERTIFICATE, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from takagi.io import dump_json

DISK_PROBLEM = {
    "schema": 1,
    "kind": "disk",
    "nodes": [[0.2, 0.1], [-0.4, 0.0], [0.0, 0.3]],
    "values": [[1.8, 0.0], [0.4, -0.2], [0.0, -0.9]],
}

DEGENERATE_PROBLEM = {
    "schema": 1,
    "kind": "disk",
    "nodes": [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]],
    "values": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
}

BIDISK_PROBLEM = {
    "schema": 1,
    "kind": "bidisk",
    "nodes": [[[0.1, 0.0], [0.2, 0.0]], [[0.0, 0.3], [-0.1, 0.0]]],
    "values": [[1.5, 0.0], [0.4, 0.2]],
}


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    dump_json(DISK_PROBLEM, str(path))
    return str(path)


@pytest.fixture
def bidisk_file(tmp_path):
    path = tmp_path / "bidisk.json"
    dump_json(BIDISK_PROBLEM, str(path))
    return str(path)


class TestInertia:
    def test_disk(self, disk_file, capsys):
        assert main(["inertia", disk_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "inertia (pos,neg,zero):" in out

    def test_degenerate_reports_zeta(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        dump_json(DEGENERATE_PROBLEM, str(path))
        assert main(["inertia", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(1,1,2)" in out.replace(" ", "")

    def test_bidisk_without_pair_is_input_error(self, bidisk_file, capsys):
        assert main(["inertia", bidisk_file]) == EXIT_INPUT

    def test_shipped_pair_file(self, capsys):
        assert main(["inertia", "problems/bidisk_pair.json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma1" in out and "gamma2" in out


class TestNonFiniteInput:
    # json reads NaN and Infinity; the problem constructors must reject them.
    @pytest.mark.parametrize("command", ["solve", "inertia"])
    @pytest.mark.parametrize(
        "problem",
        [
            {**DISK_PROBLEM, "values": [[1.8, 0.0], [math.inf, -0.2], [0.0, -0.9]]},
            {
                **BIDISK_PROBLEM,
                "nodes": [[[0.1, 0.0], [math.nan, 0.0]], [[0.0, 0.3], [-0.1, 0.0]]],
                "gamma1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "gamma2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            },
        ],
        ids=["disk-infinite-value", "bidisk-nan-node"],
    )
    def test_is_input_error(self, command, problem, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main([command, str(path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


class TestSolve:
    def test_disk_solve_writes_result(self, disk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main(["solve", disk_file, "--out", str(out_path), "--seed", "0"]) == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["kind"] == "disk"
        assert data["certificate"]["pass"] is True
        assert "PASS" in capsys.readouterr().out

    def test_bidisk_solve(self, bidisk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main(["solve", bidisk_file, "--out", str(out_path), "--seed", "0"]) == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["kind"] == "bidisk"
        assert data["certificate"]["pass"] is True

    def test_deterministic_output(self, disk_file, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["solve", disk_file, "--out", str(p1), "--seed", "5"]) == EXIT_OK
        assert main(["solve", disk_file, "--out", str(p2), "--seed", "5"]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "disk", "nodes": [[0.0, 0.0]], "values": 3}\n')
        assert main(["solve", str(path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == EXIT_INPUT


class TestVerify:
    def test_roundtrip(self, disk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["solve", disk_file, "--out", str(out_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_tampered_result_fails_certificate(self, disk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["solve", disk_file, "--out", str(out_path), "--seed", "0"])
        data = json.loads(out_path.read_text())
        data["numerator"][0][0] += 0.5  # break the interpolation conditions
        dump_json(data, str(out_path))
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_CERTIFICATE

    def test_bidisk_roundtrip(self, bidisk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["solve", bidisk_file, "--out", str(out_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "problem, failing",
        [("problems/disk_basic.json", ["unimodular"]),
         ("problems/bidisk_pair.json", ["unimodular", "toral"])],
    )
    def test_perturbed_numerator_coefficient_fails(self, problem, failing, tmp_path, capsys):
        # One numerator coefficient moved by 1% of the largest: the pair is no
        # longer num = c reflect(den, d), which the coefficient bound sees.
        out_path = tmp_path / "result.json"
        assert main(["solve", problem, "--out", str(out_path), "--seed", "0"]) == EXIT_OK
        data = json.loads(out_path.read_text())
        num = np.array(data["numerator"])
        num[(0,) * (num.ndim - 1)] += 0.01 * np.max(np.hypot(num[..., 0], num[..., 1]))
        data["numerator"] = num.tolist()
        dump_json(data, str(out_path))
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_CERTIFICATE
        out = capsys.readouterr().out
        for name in failing:
            assert f"{name}: FAIL" in out

    @pytest.mark.parametrize("inertia", [[0, 0, 3], [3, 0, 0]])
    def test_disk_inertia_is_recomputed(self, inertia, tmp_path, capsys):
        # The stored inertia is informational; the degree window and the
        # kernel bound use the inertia of the problem's Pick matrix.
        out_path = tmp_path / "result.json"
        assert main(["solve", "problems/disk_basic.json", "--out", str(out_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_OK
        expected = capsys.readouterr().out
        data = json.loads(out_path.read_text())
        data["inertia"] = inertia
        dump_json(data, str(out_path))
        assert main(["verify", str(out_path)]) == EXIT_OK
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("problem", ["problems/disk_basic.json", "problems/bidisk_pair.json"])
    def test_node_status_is_recomputed(self, problem, tmp_path, capsys):
        # The stored statuses are the solver's report; the verdict must come
        # from the function alone.
        out_path = tmp_path / "result.json"
        assert main(["solve", problem, "--out", str(out_path), "--seed", "0"]) == EXIT_OK
        data = json.loads(out_path.read_text())
        data["node_status"] = ["fail"] * len(data["node_status"])
        dump_json(data, str(out_path))
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == EXIT_OK
        assert "strict_all_nodes: pass" in capsys.readouterr().out


class TestBoundarySamples:
    def test_disk_csv(self, disk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["solve", disk_file, "--out", str(out_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["boundary-samples", str(out_path), "--n", "16"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("theta")
        assert len(lines) == 17
        row = lines[1].split(",")
        assert abs(float(row[1]) - 1.0) < 1e-6  # |phi| on the circle

    def test_bidisk_csv(self, bidisk_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["solve", bidisk_file, "--out", str(out_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["boundary-samples", str(out_path), "--n", "8"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("theta1")
        assert len(lines) == 65

    def test_flag_is_denominator_size(self, disk_file, tmp_path, capsys):
        # A double pole 1e-5 off the first sample point: the point keeps clear
        # of the pole, but |den| there is 2.5e-11 of its largest sample.
        out_path = tmp_path / "result.json"
        main(["solve", disk_file, "--out", str(out_path), "--seed", "0"])
        data = json.loads(out_path.read_text())
        pole = (1.0 + 1e-5) * np.exp(0.25j * np.pi)
        data["numerator"] = [[1.0, 0.0]]
        data["denominator"] = [[z.real, z.imag] for z in np.convolve([-pole, 1.0], [-pole, 1.0])]
        dump_json(data, str(out_path))
        capsys.readouterr()
        assert main(["boundary-samples", str(out_path), "--n", "4"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["1", "0", "0", "0"]
        assert rows[0].split(",")[1:3] == ["nan", "nan"]

    @pytest.mark.parametrize(("problem", "n"), [(BIDISK_PROBLEM, "0"), (DISK_PROBLEM, "-3")])
    def test_nonpositive_n_is_input_error(self, problem, n, tmp_path, capsys):
        problem_path, out_path = tmp_path / "problem.json", tmp_path / "result.json"
        dump_json(problem, str(problem_path))
        main(["solve", str(problem_path), "--out", str(out_path), "--seed", "0"])
        capsys.readouterr()
        assert main(["boundary-samples", str(out_path), "--n", n]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "n must be >= 1" in captured.err


class TestMalformedResult:
    # Each case corrupts one field of a solved result file.
    CASES = {
        "bidisk-no-inertias": ("problems/bidisk_pair.json", "inertias", []),
        # The honest inertias are (2, 1, 0) and (1, 2, 0); the certificate's
        # bounds read this field, so a forged one is an input error.
        "bidisk-forged-inertias": ("problems/bidisk_pair.json", "inertias",
                                   [[5, 5, 0], [5, 5, 0]]),
        "disk-short-inertia": ("problems/disk_basic.json", "inertia", [1, 2]),
        "disk-text-inertia": ("problems/disk_basic.json", "inertia", ["x", 0, 0]),
        "disk-zero-outside": ("problems/disk_basic.json", "blaschke", {
            "constant": [1.0, 0.0], "f_zeros": [[2.0, 0.0]], "g_zeros": []}),
        "disk-nan-numerator": ("problems/disk_basic.json", "numerator", [[1.0, 0.0], ["nan", 0.0]]),
        "bidisk-inf-numerator": ("problems/bidisk_pair.json", "numerator", [[["inf", 0.0]]]),
        "disk-zero-denominator": ("problems/disk_basic.json", "denominator",
                                  [[0.0, 0.0], [0.0, 0.0]]),
        "bidisk-zero-denominator": ("problems/bidisk_pair.json", "denominator",
                                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
    }

    @pytest.mark.parametrize("command", ["verify", "boundary-samples"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_input_error(self, case, command, tmp_path, capsys):
        problem, key, value = self.CASES[case]
        out_path = tmp_path / "result.json"
        main(["solve", problem, "--out", str(out_path), "--seed", "0"])
        data = json.loads(out_path.read_text())
        data[key] = value
        dump_json(data, str(out_path))
        capsys.readouterr()
        assert main([command, str(out_path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err


def test_malformed_seed_variable_is_input_error(disk_file, monkeypatch, capsys):
    monkeypatch.setenv("TAKAGI_SEED", "abc")
    assert main(["solve", disk_file]) == EXIT_INPUT
    assert "TAKAGI_SEED" in capsys.readouterr().err


class TestLemmaCheck:
    def test_passes(self, capsys):
        assert main(["lemma-check", "--m", "2", "--n", "1", "--trials", "5", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 failures" in out or "failures: 0" in out
