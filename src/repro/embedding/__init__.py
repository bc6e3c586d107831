"""Graph-embedding substrate: DeepWalk, node2vec and LINE in numpy, used to
initialise the road-segment matrix Ws and the time-slot matrix Wt
(Algorithm 1, lines 1-4).

Walk generation and SGNS run on the alias-sampled lockstep engine; the
scalar originals are retained as ``*_reference`` oracles that the
equivalence tests and the speedup bench call directly."""

from .alias import AliasTable, NodeAliasSampler
from .api import EmbeddingConfig, embed_graph
from .line import LineConfig, train_line
from .skipgram import (
    SkipGramConfig, build_pairs, build_pairs_reference, train_skipgram,
    train_skipgram_reference, unigram_distribution,
)
from .walks import (
    generate_node2vec_walks, generate_node2vec_walks_reference,
    generate_walks, generate_walks_reference, weighted_choice,
)

__all__ = [
    "AliasTable", "NodeAliasSampler",
    "EmbeddingConfig", "embed_graph",
    "LineConfig", "train_line",
    "SkipGramConfig", "build_pairs", "build_pairs_reference",
    "train_skipgram", "train_skipgram_reference",
    "unigram_distribution",
    "generate_node2vec_walks", "generate_node2vec_walks_reference",
    "generate_walks", "generate_walks_reference", "weighted_choice",
]
