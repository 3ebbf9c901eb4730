"""Call-graph extraction from Java archives and network-topology analysis."""

from .names import (
    CallRecord,
    ExtractStats,
    QualifiedName,
    RelationTable,
    UnitKind,
    read_relation_table,
    write_relation_table,
)
from .classfile import ClassUnit, MethodInfo, parse_class
from .extractor import classify_callee, extract_archive, extract_calls, open_archive
from .graph import DirectedGraph, UndirectedGraph, build_graph, undirected_projection
from .gexf import export_gexf, import_gexf
from .metrics import (
    ComponentReport,
    DegreeReport,
    PathStats,
    avg_clustering,
    components,
    degrees,
    giant_component_paths,
    shortest_path_stats,
)
from .centrality import CentralityVector, betweenness, pagerank, top_k
from .community import (
    CommunitySizeReport,
    Partition,
    community_size_distribution,
    louvain,
    modularity,
)
from .topology import (
    DegreeHistogram,
    PowerLawFit,
    SmallWorldReport,
    degree_histogram,
    erdos_renyi,
    fit_power_law,
    link_probability,
    ring_lattice,
    small_world_test,
)

__version__ = "0.1.0"

__all__ = [
    "CallRecord",
    "CentralityVector",
    "ClassUnit",
    "CommunitySizeReport",
    "ComponentReport",
    "DegreeHistogram",
    "DegreeReport",
    "DirectedGraph",
    "ExtractStats",
    "MethodInfo",
    "Partition",
    "PathStats",
    "PowerLawFit",
    "QualifiedName",
    "RelationTable",
    "SmallWorldReport",
    "UndirectedGraph",
    "UnitKind",
    "avg_clustering",
    "betweenness",
    "build_graph",
    "classify_callee",
    "community_size_distribution",
    "components",
    "degree_histogram",
    "degrees",
    "erdos_renyi",
    "export_gexf",
    "extract_archive",
    "extract_calls",
    "fit_power_law",
    "giant_component_paths",
    "import_gexf",
    "link_probability",
    "louvain",
    "modularity",
    "open_archive",
    "pagerank",
    "parse_class",
    "read_relation_table",
    "ring_lattice",
    "shortest_path_stats",
    "small_world_test",
    "top_k",
    "undirected_projection",
    "write_relation_table",
    "__version__",
]
