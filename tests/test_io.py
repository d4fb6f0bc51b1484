import json
import re

import numpy as np
import pytest

from takagi.bidisk import AglerPair, BidiskProblem, solve_bidisk
from takagi.disk import solve
from takagi.io import (
    ProblemFileError,
    bidisk_result_to_dict,
    decode_complex,
    decode_matrix,
    decode_vector,
    disk_result_to_dict,
    dump_json,
    encode_complex,
    encode_matrix,
    encode_vector,
    load_json,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    result_to_solution,
)
from takagi.pick import DiskProblem


class TestComplexCodec:
    def test_roundtrip_scalar(self):
        z = 1.5 - 2.25j
        assert decode_complex(encode_complex(z), "x") == z

    def test_roundtrip_vector(self):
        v = np.array([1.0 + 2.0j, -0.5])
        assert np.allclose(decode_vector(encode_vector(v), "x"), v)

    def test_roundtrip_matrix(self):
        M = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
        assert np.allclose(decode_matrix(encode_matrix(M), "x"), M)

    def test_malformed_complex_rejected(self):
        with pytest.raises(ProblemFileError):
            decode_complex([1.0], "x")
        with pytest.raises(ProblemFileError):
            decode_complex("1+2j", "x")


class TestProblemRoundtrip:
    def test_disk(self):
        p = DiskProblem(
            nodes=np.array([0.1, -0.2j]), values=np.array([2.0, 0.3 + 0.4j])
        )
        q, pair = problem_from_dict(problem_to_dict(p))
        assert pair is None
        assert np.allclose(q.nodes, p.nodes)
        assert np.allclose(q.values, p.values)

    def test_bidisk_with_pair(self):
        p = BidiskProblem(
            nodes=np.array([[0.1, 0.2], [0.3j, -0.1]]), values=np.array([1.0, 2.0])
        )
        pair = AglerPair(gamma1=np.eye(2), gamma2=np.diag([2.0, 3.0]))
        q, pair2 = problem_from_dict(problem_to_dict(p, pair))
        assert np.allclose(q.nodes, p.nodes)
        assert np.allclose(pair2.gamma1, pair.gamma1)
        assert np.allclose(pair2.gamma2, pair.gamma2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProblemFileError):
            problem_from_dict({"kind": "torus", "values": [[0.0, 0.0]]})

    def test_missing_field_rejected(self):
        with pytest.raises(ProblemFileError):
            problem_from_dict({"kind": "disk", "nodes": [[0.0, 0.0]]})

    def test_invalid_problem_data_rejected(self):
        with pytest.raises(ProblemFileError):
            problem_from_dict(
                {"kind": "disk", "nodes": [[2.0, 0.0]], "values": [[0.0, 0.0]]}
            )

    def test_wrong_schema_rejected(self):
        with pytest.raises(ProblemFileError):
            problem_from_dict({"schema": 99, "kind": "disk", "nodes": [], "values": []})


class TestFiles:
    def test_shipped_examples_load(self):
        for name in ("disk_basic", "disk_degenerate", "bidisk_pair"):
            problem, pair, raw = load_problem(f"problems/{name}.json")
            assert raw["kind"] in ("disk", "bidisk")

    def test_dump_is_deterministic(self, tmp_path):
        data = {"b": 1, "a": [1.5, {"z": True}]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(data, str(p1))
        dump_json(data, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert load_json(str(p1)) == data

    def test_missing_file(self):
        with pytest.raises(ProblemFileError):
            load_problem("/nonexistent/path.json")


class TestResultRoundtrip:
    def test_disk_result(self, tmp_path):
        p = DiskProblem(
            nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]),
            values=np.array([1.8, 0.4 - 0.2j, -0.9j]),
        )
        sol = solve(p, seed=0)
        data = disk_result_to_dict(sol, p)
        path = tmp_path / "result.json"
        dump_json(data, str(path))
        sol2, p2, pair2 = result_to_solution(load_json(str(path)))
        assert np.allclose(p2.nodes, p.nodes)
        assert np.allclose(
            sol2.interpolant.numerator.coeffs, sol.interpolant.numerator.coeffs
        )
        assert np.allclose(
            sol2.interpolant.denominator.coeffs, sol.interpolant.denominator.coeffs
        )

    def test_bidisk_result(self, tmp_path):
        p = BidiskProblem(
            nodes=np.array([[0.1, 0.2], [0.3j, -0.1]]),
            values=np.array([1.5, 0.4 + 0.2j]),
        )
        sol = solve_bidisk(p, seed=0)
        data = bidisk_result_to_dict(sol, p, None)
        path = tmp_path / "result.json"
        dump_json(data, str(path))
        sol2, p2, pair2 = result_to_solution(load_json(str(path)))
        assert np.allclose(sol2.numerator.coeffs, sol.numerator.coeffs)
        assert np.allclose(sol2.denominator.coeffs, sol.denominator.coeffs)
        assert sol2.inertias == sol.inertias


class TestDecodeFastPath:
    """Numeric [re, im] lists decode in one array call; anything else keeps its entry-wise message."""

    @pytest.fixture(scope="class")
    def disk_result(self):
        p = DiskProblem(nodes=np.array([0.2 + 0.1j, -0.4, 0.3j]), values=np.array([1.8, 0.4 - 0.2j, -0.9j]))
        return json.loads(json.dumps(disk_result_to_dict(solve(p, seed=0), p)))

    BIDISK_PROBLEM = {
        "kind": "bidisk",
        "nodes": [[[0.1, 0.0], [0.2, 0.0]], [[0.0, 0.3], [-0.1, 0.0]]],
        "values": [[1.5, 0.0], [0.4, 0.2]],
        "gamma1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "gamma2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }

    @pytest.mark.parametrize("numerator, message", [
        ([[1.0, 0.0], None], "numerator[1]: complex numbers must be [re, im] pairs, got None"),
        ([[None, 0.0], [1.0, 0.0]], "numerator[0]: non-numeric entry [None, 0.0]"),
        ([[1.0, 0.0], True], "numerator[1]: complex numbers must be [re, im] pairs, got True"),
        ([[1.0, 0.0, 0.0], [1.0, 0.0]],
         "numerator[0]: complex numbers must be [re, im] pairs, got [1.0, 0.0, 0.0]"),
    ], ids=["null-entry", "null-part", "boolean-entry", "three-element-pair"])
    def test_malformed_coefficient_keeps_message(self, disk_result, numerator, message):
        data = dict(disk_result, numerator=numerator)
        with pytest.raises(ProblemFileError, match=f"^{re.escape(message)}$"):
            result_to_solution(data)

    def test_ragged_gamma1_row_keeps_message(self):
        data = dict(self.BIDISK_PROBLEM, gamma1=[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]])
        with pytest.raises(ProblemFileError, match="^gamma1: ragged rows$"):
            problem_from_dict(data)

    def test_wrong_pair_length_in_a_row_keeps_message(self):
        data = dict(self.BIDISK_PROBLEM, gamma2=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0]]])
        message = "gamma2[1][1]: complex numbers must be [re, im] pairs, got [1.0]"
        with pytest.raises(ProblemFileError, match=f"^{re.escape(message)}$"):
            problem_from_dict(data)

    @pytest.mark.parametrize("nodes", [
        [[[0.1, 0.0], [0.2, 0.0]], 5],
        [[[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], [[0.0, 0.3], [-0.1, 0.0]]],
        [[[0.1, 0.0], [0.2]], [[0.0, 0.3], [-0.1, 0.0]]],
    ], ids=["non-list-row", "three-entry-row", "one-element-pair"])
    def test_malformed_bidisk_node_row_names_nodes(self, nodes):
        with pytest.raises(ProblemFileError, match="^nodes"):
            problem_from_dict(dict(self.BIDISK_PROBLEM, nodes=nodes))

    def test_numeric_pairs_match_entrywise_decoding_bit_for_bit(self):
        rng = np.random.default_rng(7)
        pairs = (rng.normal(size=(6, 2)) * 10.0 ** rng.integers(-300, 300, size=(6, 2))).tolist()
        pairs += [[-0.0, 0.0], [0.0, -0.0], [3, -4], [2**53 + 1, 0.5], [float("nan"), float("inf")]]
        expected = np.array([decode_complex(z, "x") for z in pairs], dtype=complex)
        assert decode_vector(pairs, "x").tobytes() == expected.tobytes()
        rows = [pairs[:5], pairs[5:10]]
        expected = np.array([[decode_complex(z, "x") for z in row] for row in rows], dtype=complex)
        decoded = decode_matrix(rows, "x")
        assert decoded.shape == expected.shape and decoded.tobytes() == expected.tobytes()
