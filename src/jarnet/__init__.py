"""Call-graph extraction from Java archives and network-topology analysis."""

from .names import *
from .classfile import *
from .extractor import *
from .graph import *
from .gexf import *
from .metrics import *
from .centrality import *
from .community import *
from .topology import *

__version__ = "0.1.0"

# Importing a submodule binds its name here, so each module is in scope.
__all__ = sorted(name for module in (names, classfile, extractor, graph, gexf, metrics,
                                     centrality, community, topology)
                 for name in module.__all__) + ["__version__"]
