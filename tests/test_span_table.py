"""The per-question span table against the plain loops it replaced."""

from __future__ import annotations

import random

import pytest

import oracles
from factqa.concepts import ConceptGraph
from factqa.corpus import MentionTable, tokenize
from factqa.decompose import Decomposer, PatternIndex
from factqa.engine import AnswerEngine
from factqa.hasharray import SpanTable, StaticHashArray, find_mentions
from factqa.pipeline import load_entity_dictionary

VOCAB = [
    "when", "was", "born", "who", "is", "the", "wife", "of", "how", "many",
    "people", "in", "barack", "obama", "obama's", "michelle", "honolulu",
    "born'",
]


@pytest.fixture(scope="module")
def ambiguous_index(toy_kb, data_dir):
    """The toy dictionary, plus "obama" shared by two entities and a
    surface overlapping it that names a value node, not an entity (as a
    fingerprint false positive would): it still takes its span in the
    greedy walk."""
    entries = [
        (" ".join(tokenize(surface)), toy_kb.node_id(node))
        for node, surface in load_entity_dictionary(data_dir / "entities.tsv")
    ]
    entries += [
        ("obama", toy_kb.node_id("BarackObama")),
        ("obama", toy_kb.node_id("MichelleObama")),
        ("obama born", toy_kb.node_id("1961")),
    ]
    return StaticHashArray.build(entries)


def _sequences(seed: int, count: int, max_len: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(VOCAB) for _ in range(rng.randrange(0, max_len + 1)))


@pytest.mark.parametrize("max_span", [1, 2, 5])
def test_greedy_and_all_span_mentions_match_the_plain_loops(toy_kb, ambiguous_index, max_span):
    for tokens in _sequences(31 + max_span, 150, 10):
        table = MentionTable(toy_kb, ambiguous_index, tokens, max_span)
        for start in range(len(tokens) + 1):
            for end in range(start, len(tokens) + 1):
                sub = tokens[start:end]
                assert table.mentions(start, end) == oracles.kb_mentions(
                    toy_kb, ambiguous_index, sub, max_span
                ), (tokens, start, end)
                assert table.entity_spans(start, end) == oracles.mention_spans(
                    toy_kb, ambiguous_index, sub, max_span
                ), (tokens, start, end)


def test_raw_greedy_walk_matches_the_plain_loop(ambiguous_index):
    for tokens in _sequences(7, 200, 10):
        assert find_mentions(ambiguous_index, tokens) == oracles.find_mentions(
            ambiguous_index, tokens
        ), tokens
        table = SpanTable(ambiguous_index, tokens, 3)
        assert [(span, table.payloads[span]) for span in table.greedy()] == (
            oracles.find_mentions(ambiguous_index, tokens, 3)
        )


def test_table_primitivity_matches_is_primitive_on_every_substring(
    toy_kb, ambiguous_index, toy_concepts, fixture_model
):
    decomposer = Decomposer(
        AnswerEngine(toy_kb, ambiguous_index, toy_concepts, fixture_model), PatternIndex({})
    )
    rng = random.Random(12)
    questions = [
        tokenize("so when was barack obama's wife born and who is obama's wife"),
        *(tuple(rng.choice(VOCAB) for _ in range(12)) for _ in range(20)),
    ]
    assert {len(q) for q in questions} == {12}
    primitive_seen = 0
    for question in questions:
        table = MentionTable(toy_kb, ambiguous_index, question)
        for start in range(len(question)):
            for end in range(start + 1, len(question) + 1):
                sub = question[start:end]
                from_table = bool(decomposer._walk(sub, table.mentions(start, end)))
                assert from_table == decomposer.is_primitive(sub), sub
                primitive_seen += from_table
    assert primitive_seen > 0


def test_spans_longer_than_every_key_are_not_probed(toy_kb, toy_index, monkeypatch):
    index, _ = toy_index
    assert index.max_words == 2
    tokens = tokenize("when was barack obama's wife michelle obama born")
    assert len(tokens) == 8
    probed: list[str] = []
    lookup = StaticHashArray.lookup

    def counting_lookup(self, key):
        probed.append(key)
        return lookup(self, key)

    monkeypatch.setattr(StaticHashArray, "lookup", counting_lookup)
    table = MentionTable(toy_kb, index, tokens, max_span=5)
    # only spans of one or two tokens that hold no token outside every key:
    # barack obama, barack, obama, michelle obama, michelle, obama
    assert len(probed) == 6
    assert all(len(key.split(" ")) <= 2 for key in probed)
    monkeypatch.undo()
    assert table.mentions() == oracles.kb_mentions(toy_kb, index, tokens, 5)
    assert table.entity_spans() == oracles.mention_spans(toy_kb, index, tokens, 5)
    assert table.entity_spans() == {(2, 4), (5, 7)}


# Keys with multi-word, non-ASCII and empty pieces (the double space in
# "x  y"), and a vocabulary mixing their tokens with tokens no key holds,
# an empty token, and tokens with inner or trailing spaces.
FILTER_KEYS = ["barack obama", "obama", "new york city", "zürich", "東京 tower", "x  y", "a b", "é"]
FILTER_VOCAB = [
    "barack", "obama", "new", "york", "city", "zürich", "東京", "tower", "x", "y", "a", "b",
    "é", "", "a b", "obama ", "x  y", "when", "was", "zurich", "東", "e", "bar",
]


@pytest.mark.parametrize("max_span", [1, 2, 3, 5])
def test_filtered_probes_equal_probing_every_span(max_span, monkeypatch):
    index = StaticHashArray.build((key, i) for i, key in enumerate(FILTER_KEYS))
    rng = random.Random(4000 + max_span)
    probed = hits = spans = 0
    lookup = StaticHashArray.lookup

    def counting_lookup(self, key):
        nonlocal probed
        probed += 1
        return lookup(self, key)

    for _ in range(400):
        tokens = tuple(rng.choice(FILTER_VOCAB) for _ in range(rng.randrange(0, 11)))
        monkeypatch.setattr(StaticHashArray, "lookup", counting_lookup)
        table = SpanTable(index, tokens, max_span)
        monkeypatch.undo()
        want = oracles.probe_every_span(index, tokens, max_span)
        assert table.payloads == want, tokens
        assert [(span, table.payloads[span]) for span in table.greedy()] == (
            oracles.find_mentions(index, tokens, max_span)
        ), tokens
        hits += len(want)
        spans += sum(min(max_span, len(tokens) - i) for i in range(len(tokens)))
    assert hits > 100
    # the filter and the longest key do skip spans
    assert 0 < probed < spans * 0.8


def test_one_span_naming_two_entities_derives_concepts_once_per_mention(
    toy_kb, ambiguous_index, toy_concepts, fixture_model, monkeypatch
):
    engine = AnswerEngine(toy_kb, ambiguous_index, toy_concepts, fixture_model)
    decomposer = Decomposer(engine, PatternIndex({}))
    tokens = tokenize("obama's wife")
    calls = []
    question_concepts = ConceptGraph.question_concepts

    def counting(self, *args, **kwargs):
        calls.append(args)
        return question_concepts(self, *args, **kwargs)

    monkeypatch.setattr(ConceptGraph, "question_concepts", counting)
    spans = engine.probe(tokens)
    mentions = spans.mentions()
    assert mentions == [((0, 1), "BarackObama"), ((0, 1), "MichelleObama")]
    decomposition = decomposer.decompose(tokens, spans)
    assert (decomposition.sequence, decomposition.score) == ([tokens], 1.0)
    dist = engine.answer_distribution(tokens, mentions, decomposition.walk)
    assert len(calls) == len(mentions)
    monkeypatch.undo()
    assert dist.entries == engine.answer_distribution(tokens).entries
    assert dist.entries
