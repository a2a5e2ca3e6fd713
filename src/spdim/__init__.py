"""spdim: order dimension toolkit for posets with treewidth-2 cover graphs."""

from .errors import (
    BadParameter,
    CycleError,
    Exceeded,
    InvalidSPTree,
    MalformedInstance,
    NotReversible,
    NotTreewidth2,
    PairNotIncomparable,
    ParseError,
    PreconditionViolated,
    ReversibilityViolation,
    SpdimError,
    TooLarge,
    UnknownElement,
    VertexNotInDecomposition,
)
from .exactdim import DimensionResult, dimension_exact
from .generators import antichain, chain, forest_poset, generate, kelly, random_tw2_poset, standard_example
from .graphs import Graph, dumps_dot
from .poset import Poset
from .poset import dumps as dumps_poset, loads as loads_poset
from .realizer import (
    ALL_CLASSES,
    PairClass,
    Realizer,
    SignatureRows,
    decompose_poset,
    dumps_realizer,
    loads_realizer,
    metamorphic_check,
    realize_tw2,
)
from .spembed import (
    Embedding,
    SPNode,
    augment_with_fresh_terminals,
    edge_node,
    embed_into_sp,
    parallel,
    series,
    sp_tree_violations,
)
from .stdecomp import (
    DecompNode,
    STDecomposition,
    build_st_decomposition,
    dumps_decomposition,
)

__version__ = "0.1.0"
