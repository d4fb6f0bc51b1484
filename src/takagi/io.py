"""JSON problem/result files.

Complex numbers are two-element arrays [re, im] everywhere.  Matrices are
row-major nested lists of complex entries.  Problem files carry a schema
version, a kind tag (disk | bidisk), nodes, values, and for the bidisk an
optional decomposition pair; result files embed the problem together with the
solution polynomials and the recomputed certificate, so they round-trip.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .bidisk import AglerPair, BidiskProblem, BidiskSolution, one_variable_pair
from .disk import TakagiSolution
from .linalg import Inertia, inertia_of
from .pick import DiskProblem
from .polynomials import BlaschkeProduct, NonFiniteCoefficientError, Poly, Rational

SCHEMA_VERSION = 1


class ProblemFileError(ValueError):
    pass


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(v: Any, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ProblemFileError(f"{where}: complex numbers must be [re, im] pairs, got {v!r}")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{where}: non-numeric entry {v!r}") from exc


def encode_vector(v) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v, dtype=complex)]


def _complex_view(v: list, ndim: int) -> np.ndarray | None:
    """``v`` decoded in one ``np.array`` call, when it is a numeric array of ``ndim`` axes of [re, im] pairs.

    The complex view of the float pairs is bit-equal to ``decode_complex`` entry
    by entry.  Anything else (ragged or non-numeric entries, wrong pair lengths)
    gives None, and the caller decodes entry by entry, with its messages.
    """
    try:
        a = np.array(v)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or a.dtype.kind not in "iuf":
        return None
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def decode_vector(v: Any, where: str) -> np.ndarray:
    if not isinstance(v, list):
        raise ProblemFileError(f"{where}: expected a list")
    fast = _complex_view(v, 1)
    if fast is not None:
        return fast
    return np.array([decode_complex(z, f"{where}[{k}]") for k, z in enumerate(v)], dtype=complex)


def encode_matrix(M) -> list[list[list[float]]]:
    M = np.asarray(M, dtype=complex)
    return [[encode_complex(z) for z in row] for row in M]


def decode_matrix(v: Any, where: str) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ProblemFileError(f"{where}: expected a non-empty list of rows")
    fast = _complex_view(v, 2) if all(isinstance(row, list) for row in v) else None
    if fast is not None:
        return fast
    rows = [decode_vector(row, f"{where}[{k}]") for k, row in enumerate(v)]
    width = {r.size for r in rows}
    if len(width) != 1:
        raise ProblemFileError(f"{where}: ragged rows")
    return np.vstack(rows)


def _require(data: dict, key: str) -> Any:
    if key not in data:
        raise ProblemFileError(f"missing required field '{key}'")
    return data[key]


def problem_to_dict(problem, pair: AglerPair | None = None) -> dict:
    if isinstance(problem, DiskProblem):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "disk",
            "nodes": encode_vector(problem.nodes),
            "values": encode_vector(problem.values),
        }
    if isinstance(problem, BidiskProblem):
        out = {
            "schema": SCHEMA_VERSION,
            "kind": "bidisk",
            "nodes": encode_matrix(problem.nodes),
            "values": encode_vector(problem.values),
        }
        if pair is not None:
            out["gamma1"] = encode_matrix(pair.gamma1)
            out["gamma2"] = encode_matrix(pair.gamma2)
        return out
    raise TypeError(f"unsupported problem type {type(problem)!r}")


def problem_from_dict(data: dict) -> tuple[Any, AglerPair | None]:
    """Parse a problem dictionary; returns (problem, optional bidisk pair)."""
    if not isinstance(data, dict):
        raise ProblemFileError("top level must be an object")
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ProblemFileError(f"unsupported schema version {schema}")
    kind = _require(data, "kind")
    values = decode_vector(_require(data, "values"), "values")
    if kind == "disk":
        nodes = decode_vector(_require(data, "nodes"), "nodes")
        try:
            return DiskProblem(nodes=nodes, values=values), None
        except ValueError as exc:
            raise ProblemFileError(str(exc)) from exc
    if kind == "bidisk":
        nodes = decode_matrix(_require(data, "nodes"), "nodes")
        try:
            problem = BidiskProblem(nodes=nodes, values=values)
        except ValueError as exc:
            raise ProblemFileError(str(exc)) from exc
        pair = None
        if "gamma1" in data or "gamma2" in data:
            g1 = decode_matrix(_require(data, "gamma1"), "gamma1")
            g2 = decode_matrix(_require(data, "gamma2"), "gamma2")
            try:
                pair = AglerPair(gamma1=g1, gamma2=g2)
            except ValueError as exc:
                raise ProblemFileError(str(exc)) from exc
        return problem, pair
    raise ProblemFileError(f"unknown problem kind {kind!r} (expected disk or bidisk)")


def _decode_ints(v: Any, count: int, where: str) -> list[int]:
    """A list of exactly ``count`` integers."""
    if not (
        isinstance(v, list) and len(v) == count
        and all(isinstance(k, int) and not isinstance(k, bool) for k in v)
    ):
        raise ProblemFileError(f"{where}: expected {count} integers, got {v!r}")
    return v


def load_problem(path: str) -> tuple[Any, AglerPair | None, dict]:
    """Load a problem file; returns (problem, optional pair, raw dictionary)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    problem, pair = problem_from_dict(data)
    return problem, pair, data


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for JSON output."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return encode_complex(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def disk_result_to_dict(solution: TakagiSolution, problem: DiskProblem) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "disk",
        "problem": problem_to_dict(problem),
        "numerator": encode_vector(solution.interpolant.numerator.coeffs),
        "denominator": encode_vector(solution.interpolant.denominator.coeffs),
        "blaschke": {
            "constant": encode_complex(solution.constant),
            "f_zeros": encode_vector(np.array(solution.f.zeros, dtype=complex)),
            "g_zeros": encode_vector(np.array(solution.g.zeros, dtype=complex)),
        },
        "inertia": list(solution.inertia.as_tuple()),
        "node_status": list(solution.node_status),
        "certificate": _jsonable(solution.certificates),
    }


def bidisk_result_to_dict(
    solution: BidiskSolution, problem: BidiskProblem, pair: AglerPair | None = None
) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bidisk",
        "problem": problem_to_dict(problem, pair),
        "numerator": encode_matrix(solution.numerator.coeffs),
        "denominator": encode_matrix(solution.denominator.coeffs),
        "bidegree": list(solution.bidegree),
        "inertias": [list(i.as_tuple()) for i in solution.inertias],
        "node_status": list(solution.node_status),
        "certificate": _jsonable(solution.certificates),
    }


def _decode_poly(data: dict, key: str, decode) -> Poly:
    """The polynomial stored under ``key``; a non-finite coefficient is an input error."""
    try:
        return Poly(decode(_require(data, key), key))
    except NonFiniteCoefficientError as exc:
        raise ProblemFileError(f"{key}: {exc}") from exc


def _decode_quotient(data: dict, decode) -> tuple[Poly, Poly]:
    """The stored numerator and denominator; a zero denominator is an input error."""
    num = _decode_poly(data, "numerator", decode)
    den = _decode_poly(data, "denominator", decode)
    if den.is_zero:
        raise ProblemFileError("denominator: the zero polynomial")
    return num, den


def result_to_solution(data: dict):
    """Rebuild (solution, problem) from a result dictionary for re-certification.

    Keys it does not read, such as the ``deltas`` and the weak pair of older
    bidisk files, are ignored.  A bidisk file's ``inertias`` must be those of
    its pair's terms, recomputed with the zero rule (of
    ``bidisk.one_variable_pair`` when the file has no pair, as
    ``bidisk.solve_bidisk`` takes it): the certificate's bounds read them.
    """
    if not isinstance(data, dict):
        raise ProblemFileError("top level must be an object")
    kind = _require(data, "kind")
    problem, pair = problem_from_dict(_require(data, "problem"))
    if kind == "disk":
        num, den = _decode_quotient(data, decode_vector)
        bl = _require(data, "blaschke")
        constant = decode_complex(_require(bl, "constant"), "blaschke.constant")
        f_zeros = tuple(decode_vector(bl.get("f_zeros", []), "blaschke.f_zeros"))
        g_zeros = tuple(decode_vector(bl.get("g_zeros", []), "blaschke.g_zeros"))
        try:
            f, g = BlaschkeProduct(zeros=f_zeros), BlaschkeProduct(zeros=g_zeros)
        except ValueError as exc:
            raise ProblemFileError(f"blaschke: {exc}") from exc
        inertia = Inertia(*_decode_ints(_require(data, "inertia"), 3, "inertia"))
        solution = TakagiSolution(
            interpolant=Rational(numerator=num, denominator=den), f=f, g=g,
            constant=constant, inertia=inertia, node_status=list(data.get("node_status", [])),
        )
        return solution, problem, pair
    if kind == "bidisk":
        num, den = _decode_quotient(data, decode_matrix)
        rows = _require(data, "inertias")
        if not (isinstance(rows, list) and len(rows) == 2):
            raise ProblemFileError(f"inertias: expected two inertias, got {rows!r}")
        inertias = [Inertia(*_decode_ints(v, 3, f"inertias[{r}]")) for r, v in enumerate(rows)]
        terms = (pair or one_variable_pair(problem, 0)).gammas()
        recomputed = [inertia_of(np.linalg.eigvalsh(G)) for G in terms]
        if inertias != recomputed:
            raise ProblemFileError(f"inertias: {rows!r}, but the pair's terms have "
                                   f"{[list(i.as_tuple()) for i in recomputed]}")
        solution = BidiskSolution(
            numerator=num,
            denominator=den,
            bidegree=den.degrees,
            inertias=tuple(inertias),
            node_status=list(data.get("node_status", [])),
        )
        return solution, problem, pair
    raise ProblemFileError(f"unknown result kind {kind!r}")


def dump_json(data: dict, path: str) -> None:
    """Deterministic JSON output: sorted keys, fixed indentation, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(data), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
