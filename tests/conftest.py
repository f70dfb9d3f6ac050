"""Shared fixtures: the toy graph, its artifacts, and heavy shared builds."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from factqa import corpus
from factqa.concepts import ConceptGraph
from factqa.corpus import (
    EntityValueExtractor,
    Tokens,
    load_corpus,
    load_predicate_categories,
    probe_corpus,
)
from factqa.decompose import Decomposer, PatternIndex
from factqa.engine import AnswerDistribution, AnswerEngine, SequenceResult
from factqa.hasharray import StaticHashArray
from factqa.kb import expand_predicates, expansion_map, load_kb
from factqa.learn import PredicateModel, TrainingSet
from factqa.pipeline import build_entity_index, load_config, load_entity_dictionary, run_offline
from oracles import pairs_of, training_items

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def toy_kb():
    return load_kb(DATA / "toy_kb.tsv")


@pytest.fixture(scope="session")
def toy_dictionary():
    return load_entity_dictionary(DATA / "entities.tsv")


@pytest.fixture(scope="session")
def toy_index(toy_kb, toy_dictionary):
    return build_entity_index(toy_kb, toy_dictionary)


@pytest.fixture(scope="session")
def toy_concepts():
    return ConceptGraph.load(
        DATA / "isa.tsv", DATA / "context_weights.tsv", DATA / "fixture_overrides.tsv"
    )


@pytest.fixture(scope="session")
def toy_stats():
    return load_corpus(DATA / "corpus.jsonl")


@pytest.fixture(scope="session")
def toy_corpus(toy_stats):
    """The toy corpus's distinct pairs, each with its summed count."""
    return pairs_of(toy_stats)


@pytest.fixture(scope="session")
def toy_extractor(toy_kb, toy_dictionary):
    return EntityValueExtractor(
        toy_kb,
        toy_dictionary,
        expansion_map(expand_predicates(toy_kb, toy_kb.entities, 3)),
        predicate_categories=load_predicate_categories(DATA / "predicate_categories.tsv"),
    )


@pytest.fixture(scope="session")
def toy_probe(toy_kb, toy_index, toy_stats):
    return probe_corpus(toy_kb, toy_index[0], toy_stats.question_counts)


@pytest.fixture(scope="session")
def toy_training(toy_probe, toy_extractor, toy_stats, toy_concepts):
    return TrainingSet.build(
        toy_stats, toy_probe.mentions, toy_extractor, toy_concepts, refine=True
    )


@pytest.fixture(scope="session")
def toy_items(toy_probe, toy_extractor, toy_stats, toy_concepts):
    """The observations of ``toy_training`` item by item (``oracles``)."""
    return training_items(
        toy_stats, toy_probe.mentions, toy_extractor, toy_concepts, refine=True
    )


@pytest.fixture(scope="session")
def fixture_model():
    return PredicateModel.load(DATA / "model_fixture.tsv")


@pytest.fixture(scope="session")
def toy_engine(toy_kb, toy_index, toy_concepts, fixture_model):
    index, surfaces = toy_index
    return AnswerEngine(toy_kb, index, toy_concepts, fixture_model, surfaces)


@pytest.fixture(scope="session")
def toy_decomposer(toy_engine, toy_stats, toy_probe):
    patterns = PatternIndex.build(toy_stats.question_counts, toy_probe.f_v)
    return Decomposer(toy_engine, patterns)


def answer(engine: AnswerEngine, tokens: Tokens) -> AnswerDistribution:
    """``engine.answer_distribution`` of a question, its mentions probed first."""
    return engine.answer_distribution(tokens, engine.probe(tokens).mentions())


def answer_chain(engine: AnswerEngine, sequence: list[Tokens]) -> SequenceResult:
    """``engine.answer_sequence`` of a chain, its head's mentions probed first."""
    head = engine.probe(sequence[0]).mentions() if sequence else []
    return engine.answer_sequence(sequence, head)


def random_keys(rng: random.Random, count: int, prefix: str = "") -> list[str]:
    """Distinct random hex keys of 8..40 characters (plus the prefix)."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        n = rng.randrange(8, 41)
        key = prefix + format(rng.getrandbits(n * 4), f"0{n}x")
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


@pytest.fixture(scope="session")
def million_key_index():
    """One shared million-entry index build; reused by the unit suite and
    the acceptance suite since it is by far the most expensive fixture."""
    rng = random.Random(0xA11CE)
    keys = random_keys(rng, 1_000_000, prefix="in:")
    index = StaticHashArray.build((key, i) for i, key in enumerate(keys))
    return keys, index


@pytest.fixture(scope="session")
def ci_world(tmp_path_factory):
    """The generated world the CI workflow checks: 60 people from the
    benchmark's generator (``bench/world.py``, imported read-only). Its
    config, its simple and its complex questions, trained, and the key
    runs ``probe_corpus`` read a ``MentionTable`` of in the offline run."""
    runs = []

    class CountedTable(corpus.MentionTable):
        def __init__(self, kb, index, keys, **passed):
            runs.append(keys)
            super().__init__(kb, index, keys, **passed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(BENCH))
        import world

        generated = world.generate(1, 0.06)
        simple = world.simple_questions(generated, 1, 4)
        complex_ = world.complex_questions(generated, 1, 4)
        config_file = generated.write(tmp_path_factory.mktemp("ci") / "world")
        config = load_config(config_file)
        patch.setattr(corpus, "MentionTable", CountedTable)
        run_offline(config, config_file)
    return config, simple, complex_, runs
