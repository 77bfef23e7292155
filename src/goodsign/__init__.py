"""Edge signings of graphs: constructions, spectra, and good-signing checks.

A signing assigns -1 or +1 to every edge; a signing of a d-regular graph is
good when the spectral radius of its signed adjacency matrix is at most
``2*sqrt(d-1)`` (``2*sqrt(max_degree-1)`` in the irregular variant). This
package builds signings of complete graphs from conference-matrix cores,
signs lexicographic products and 2-lifts, verifies the bound with LAPACK's
symmetric eigensolver (a plain-Python Jacobi solver is kept as a reference),
validates equitable partitions exactly in integers, and searches all
switching classes of small graphs exhaustively.
"""

from types import ModuleType as _ModuleType

from .conference import ConferenceMatrix, core_matrix, normalize, paley_conference, verify_conference
from .constructions import (
    case_cells,
    case_quotient_eigenvalues,
    case_quotient_matrix,
    lex_k2_signing,
    lex_k4_signing,
    pair_cell_partition,
    sign_complete_from_conference,
    signing_equivalence,
    switching_witness_cycle,
    two_lift,
    two_lift_signed,
)
from .graphs import (
    DecompositionReport,
    Graph,
    SignedGraph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    path_graph,
    petersen_graph,
    signed_adjacency,
    verify_decomposition,
)
from .partition import (
    EquitabilityWitness,
    NotEquitableError,
    Partition,
    QuotientMatrix,
    characteristic_matrix,
    is_equitable,
    quotient_eigenvalues,
    quotient_matrix,
    verify_quotient_identity,
)
from .search import SearchResult, SearchSpaceError, find_good_signing, min_rho
from .spectra import (
    JacobiConvergenceError,
    JacobiResult,
    SpectralReport,
    check_good_signing,
    eigenvalues_symmetric,
    good_signing_bound,
    jacobi_diagonalize,
    multisets_close,
    spectral_radius,
)

__version__ = "0.1.0"

__all__ = sorted(n for n, v in vars().items() if not n.startswith("_") and not isinstance(v, _ModuleType))
