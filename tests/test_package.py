import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import goodsign
from goodsign.conference import ConferenceMatrix
from goodsign.fileio import RunManifest
from goodsign.graphs import DecompositionReport, Graph, SignedGraph, _Frozen, complete_graph
from goodsign.partition import EquitabilityWitness, Partition, QuotientMatrix
from goodsign.reproduce import ReproCheck, ReproReport
from goodsign.search import SearchResult
from goodsign.spectra import JacobiResult, SpectralReport

MODULES = [importlib.import_module(f"goodsign.{m.name}") for m in pkgutil.iter_modules(goodsign.__path__)]


PUBLIC_NAMES = [
    "ConferenceMatrix", "DecompositionReport", "EquitabilityWitness", "Graph", "JacobiConvergenceError",
    "JacobiResult", "NotEquitableError", "Partition", "QuotientMatrix", "SearchResult", "SearchSpaceError",
    "SignedGraph", "SpectralReport", "case_cells", "case_quotient_eigenvalues", "case_quotient_matrix",
    "characteristic_matrix", "check_good_signing", "complete_graph", "core_matrix", "cycle_graph",
    "eigenvalues_symmetric", "find_good_signing", "good_signing_bound", "is_bipartite", "is_equitable",
    "jacobi_diagonalize", "lex_k2_signing", "lex_k4_signing", "min_rho", "multisets_close", "normalize",
    "pair_cell_partition", "paley_conference", "path_graph", "petersen_graph", "quotient_eigenvalues",
    "quotient_matrix", "sign_complete_from_conference", "signed_adjacency", "signing_equivalence", "spectral_radius",
    "switching_witness_cycle", "two_lift", "two_lift_signed", "verify_conference", "verify_decomposition",
    "verify_quotient_identity",
]


def test_all_matches_the_package():
    assert goodsign.__all__ == PUBLIC_NAMES


def test_star_import_binds_the_public_names_alone():
    names = {}
    exec("from goodsign import *", names)
    assert sorted(name for name in names if name != "__builtins__") == PUBLIC_NAMES


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md quick start", "exec"), names)
    assert names["result"].classes_examined == 64  # as the block's comment says
    assert names["report"].is_good


def test_every_public_class_is_an_exception_a_named_tuple_or_a_frozen_value():
    # One value model: the records are named tuples and the validated values
    # sit on _Frozen. A dataclass generates its methods with exec at import time.
    classes = [obj for obj in map(goodsign.__dict__.get, goodsign.__all__) if isinstance(obj, type)]
    records = [cls for cls in classes if issubclass(cls, tuple) and hasattr(cls, "_make")]
    assert [cls.__name__ for cls in classes if not issubclass(cls, (Exception, _Frozen)) and cls not in records] == []
    assert sorted(cls.__name__ for cls in classes if issubclass(cls, _Frozen)) == [
        "ConferenceMatrix",
        "Graph",
        "Partition",
        "QuotientMatrix",
        "SignedGraph",
    ]
    assert [name for module in MODULES for name, obj in vars(module).items() if dataclasses.is_dataclass(obj)] == []


def _k3_with_a_tail(sign):
    return SignedGraph.from_edge_triples(4, np.array([[0, 1, sign], [0, 2, 1], [1, 2, 1], [2, 3, 1]]))


_STAR = Partition([np.array([0]), np.array([1, 2])])
# A maker of equal copies on new arrays, and a value one entry (of a symmetric matrix, one pair) away.
_EQUAL_AND_ONE_ENTRY_OFF = [
    (lambda: Graph(4, np.array([[0, 1], [1, 2]])), Graph(4, [[0, 1], [1, 3]])),
    (lambda: _k3_with_a_tail(1), _k3_with_a_tail(-1)),
    (lambda: ConferenceMatrix(np.array([[0, 1], [1, 0]])), ConferenceMatrix([[0, -1], [-1, 0]])),
    (lambda: Partition([np.array([0]), np.array([2, 1])]), Partition([[0, 1], [2]])),
    (lambda: QuotientMatrix(np.array([[0, 2], [1, 0]]), Partition([[0], [1, 2]])),
     QuotientMatrix([[1, 2], [1, 0]], _STAR)),
]


def test_values_compare_by_content_and_hash_to_match():
    for make, off in _EQUAL_AND_ONE_ENTRY_OFF:
        a, b = make(), make()
        assert a == b and not a != b and a in [b]
        assert a != off and off not in [a, b]
        if isinstance(a, SignedGraph):
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            assert hash(a) == hash(b) and len({a, b, off}) == 2


_K2 = SignedGraph.all_plus(complete_graph(2))
_RECORDS = {
    "DecompositionReport(shared_edges=((0, 1),), missing_edges=(), foreign_edges=())": DecompositionReport(
        ((0, 1),), (), ()
    ),
    "JacobiResult(eigenvalues=(-1.0, 1.0), sweeps=1, off_diagonal_norm=0.0, initial_norm=1.5)": JacobiResult(
        (-1.0, 1.0), 1, 0.0, 1.5
    ),
    "SpectralReport(eigenvalues=(-1.0, 1.0), rho=1.0, degree=1, bound=0.0, mode='maxdeg')": SpectralReport(
        (-1.0, 1.0), 1.0, 1, 0.0, "maxdeg"
    ),
    "EquitabilityWitness(cell=1, target_cell=2, vertex_a=1, vertex_b=2, degree_a=1, degree_b=0)": EquitabilityWitness(
        1, 2, 1, 2, 1, 0
    ),
    "SearchResult(best_rho=1.0, best_signing=SignedGraph.from_edge_triples(2, [[0, 1, 1]]), classes_examined=1,"
    " bound_used=0.0, evaluated=1, eigensolved=1)": SearchResult(1.0, _K2, 1, 0.0, 1, 1),
    "RunManifest(command='verify', inputs=('g.json',), parameters={'mode': 'regular'}, output='-', version='0.1.0')":
        RunManifest("verify", ("g.json",), {"mode": "regular"}, "-", "0.1.0"),
    "ReproCheck(name='x', passed=True, detail='')": ReproCheck("x", True),
    "ReproReport(example_id='c6', checks=(ReproCheck(name='x', passed=True, detail=''),), notes=())": ReproReport(
        "c6", (ReproCheck("x", True),)
    ),
    "Graph(2, [[0, 1]])": _K2.graph,
    "ConferenceMatrix(matrix=array([[0]]))": ConferenceMatrix([[0]]),
    "Partition(cells=((0,), (1, 2)))": _STAR,
    "QuotientMatrix(matrix=array([[1]]), partition=Partition(cells=((0, 1),)))":
        QuotientMatrix([[1]], Partition([[1, 0]])),
    "SignedGraph.from_edge_triples(2, [[0, 1, 1]])": _K2,
}


@pytest.mark.parametrize("text", _RECORDS)
def test_records_and_graphs_refuse_assignment_and_keep_their_repr(text):
    obj = _RECORDS[text]
    assert repr(obj) == text
    for name in (obj._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


def _run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports goodsign from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(goodsign.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_imports_only_the_standard_library_beyond_numpy():
    loaded = _run_fresh("import sys, numpy; before = set(sys.modules); import goodsign.cli; print(*set(sys.modules) - before)")
    roots = {name.partition(".")[0] for name in loaded.split()}
    assert "goodsign" in roots and "dataclasses" not in roots
    assert sorted(roots - sys.stdlib_module_names - {"goodsign"}) == []


HEAVY = ["hashlib", "_hashlib", "concurrent.futures", "logging"]
IMPORT_EVERYTHING = f"""
import importlib, sys
for name in ["goodsign", *{[m.__name__ for m in MODULES]!r}]:
    importlib.import_module(name)
print([m for m in {HEAVY!r} if m in sys.modules])
print([m for m in sys.modules if m.partition(".")[0] not in {["goodsign", *(m.partition(".")[0] for m in HEAVY)]!r}])
from goodsign import complete_graph, min_rho
from goodsign.refdata import reference_matrix
from goodsign import search
from goodsign.search import _free_edges
reference_matrix("c6")
print("hashlib" in sys.modules, "concurrent.futures" in sys.modules)
search._SPLIT_CHUNKS = 1  # so that K7's 6 chunks split
k7 = complete_graph(7)
signs = min_rho(k7, jobs=2).best_signing.signs
print("concurrent.futures" in sys.modules, sum(1 << i for i, e in enumerate(_free_edges(k7)[0]) if signs[e] == -1))
"""


def test_hashing_and_the_thread_pool_load_only_where_they_run():
    # hashlib loads OpenSSL and concurrent.futures loads logging: importing
    # goodsign loads neither, the first reference check loads hashlib, and
    # the first search split over threads loads concurrent.futures.
    imported, others, *after = _run_fresh(IMPORT_EVERYTHING).splitlines()
    # what the same modules, less goodsign's, load by themselves: nothing on CPython 3.10-3.12
    alone = _run_fresh(
        f"import contextlib, importlib, sys\nfor name in {others}:\n"
        f"    with contextlib.suppress(ImportError):\n        importlib.import_module(name)\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    )
    assert imported == alone.strip()
    assert after == ["True False", "True 1749"]
