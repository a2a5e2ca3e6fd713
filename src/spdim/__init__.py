"""spdim: order dimension toolkit for posets with treewidth-2 cover graphs."""

from .errors import (
    BadParameter,
    CycleError,
    Exceeded,
    InvalidSPTree,
    MalformedInstance,
    NotComparable,
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
from .exactdim import DimensionResult, contains_standard_example, dimension_exact
from .generators import antichain, chain, forest_poset, generate, kelly, random_tw2_poset, standard_example
from .graphs import Graph
from .graphs import dumps as dumps_graph, dumps_dot, loads as loads_graph
from .poset import Poset
from .poset import dumps as dumps_poset, loads as loads_poset
from .realizer import (
    ALL_CLASSES,
    ClassifiedInstance,
    PairClass,
    Realizer,
    SignatureRows,
    build_instance,
    classify_pair,
    classify_pairs,
    dumps_realizer,
    loads_realizer,
    metamorphic_check,
    partition_inc_pairs,
    realize_tw2,
    signature_census,
)
from .spembed import (
    Embedding,
    SPNode,
    augment_with_fresh_terminals,
    edge_node,
    embed_into_sp,
    has_treewidth_at_most_2,
    parallel,
    series,
    sp_tree_violations,
    validate_sp_tree,
)
from .stdecomp import (
    DecompNode,
    STDecomposition,
    build_st_decomposition,
    decomposition_to_json,
    dumps_decomposition,
)

__version__ = "0.1.0"
