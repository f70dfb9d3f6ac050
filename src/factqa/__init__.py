"""Template-based factoid question answering over an RDF-style triple store.

Offline, the package learns a probabilistic mapping from question
templates to knowledge-base predicate paths out of a QA corpus; online it
answers single-entity factoid questions by probabilistic inference and
handles complex questions by decomposing them into answerable chains.
"""

from .concepts import ConceptGraph, Template, derive_templates
from .corpus import (
    CorpusStats,
    EntityValueExtractor,
    Observation,
    QaPair,
    corpus_stats,
    load_corpus,
    tokenize,
)
from .decompose import Decomposer, Decomposition, PatternIndex
from .engine import AnswerDistribution, AnswerEngine
from .hasharray import StaticHashArray, find_mentions
from .kb import KnowledgeBase, SpoPath, Triple, expand_predicates, load_kb
from .learn import (
    LearnResult,
    PredicateModel,
    TrainingSet,
    e_step,
    init_theta,
    learn,
    log_likelihood,
    m_step,
)
from .pipeline import OnlineSession, PipelineConfig, load_config, run_offline

__version__ = "0.1.0"

__all__ = [
    "AnswerDistribution",
    "AnswerEngine",
    "ConceptGraph",
    "CorpusStats",
    "Decomposer",
    "Decomposition",
    "EntityValueExtractor",
    "KnowledgeBase",
    "LearnResult",
    "Observation",
    "OnlineSession",
    "PatternIndex",
    "PipelineConfig",
    "PredicateModel",
    "QaPair",
    "SpoPath",
    "StaticHashArray",
    "Template",
    "TrainingSet",
    "Triple",
    "corpus_stats",
    "derive_templates",
    "e_step",
    "expand_predicates",
    "find_mentions",
    "init_theta",
    "learn",
    "load_config",
    "load_corpus",
    "load_kb",
    "log_likelihood",
    "m_step",
    "run_offline",
    "tokenize",
]
