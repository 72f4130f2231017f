"""Top-k simple shortest paths from a single source.

Library surface: a graph model with file I/O and generators, a path algebra
with prefix sharing, single-pair machinery (shortest path trees and Yen's
algorithm), three single-source solvers with a brute-force oracle, and a CLI.
"""
from .graph import (DetourLadder, DoublingLadder, Graph, GraphFormatError,
                    IdMap, dump_graph, extract_largest_component,
                    gen_barabasi_albert, gen_erdos_renyi, gen_exh_adversarial,
                    gen_pruned_adversarial, induced_subgraph, load_graph,
                    load_graph_file)
from .paths import Path, Profile, is_simple, profile
from .pksp import ShortestPathTree, shortest_path_tree, yen_pksp
from .ssksp import (DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded,
                    QueueInvariantError, RankedPathQueue, RunStats, SolverState,
                    SsKsspSolution, bounded_ssksp, collection_violations,
                    count_simple_paths, enumerate_all_simple_paths, exh_ssksp,
                    predecessor_closure, pruned_ssksp, pruning_test,
                    solution_violations, ss_yen, super_saturate)

__version__ = "0.1.0"

__all__ = [
    "DetourLadder", "DoublingLadder", "Graph", "GraphFormatError", "IdMap",
    "dump_graph", "extract_largest_component", "gen_barabasi_albert",
    "gen_erdos_renyi", "gen_exh_adversarial", "gen_pruned_adversarial",
    "induced_subgraph", "load_graph", "load_graph_file",
    "Path", "Profile", "is_simple", "profile",
    "ShortestPathTree", "shortest_path_tree", "yen_pksp",
    "DEFAULT_ENUMERATION_CAP", "EnumerationCapExceeded", "QueueInvariantError",
    "RankedPathQueue", "RunStats", "SolverState", "SsKsspSolution",
    "bounded_ssksp", "collection_violations", "count_simple_paths",
    "enumerate_all_simple_paths", "exh_ssksp", "predecessor_closure",
    "pruned_ssksp", "pruning_test", "solution_violations", "ss_yen",
    "super_saturate",
    "__version__",
]
