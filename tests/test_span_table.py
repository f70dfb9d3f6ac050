"""The per-question span table against the plain loops it replaced."""

from __future__ import annotations

import random
from array import array
from collections import Counter

import pytest

import oracles
from conftest import answer
from factqa import hasharray
from factqa.concepts import ConceptGraph
from factqa.corpus import MentionTable, lookup_tokens, probe_corpus, tokenize
from factqa.decompose import Decomposer, PatternIndex
from factqa.engine import AnswerEngine
from factqa.hasharray import SpanTable, StaticHashArray, find_mentions
from factqa.pipeline import load_entity_dictionary

VOCAB = [
    "when", "was", "born", "who", "is", "the", "wife", "of", "how", "many",
    "people", "in", "barack", "obama", "obama's", "michelle", "honolulu",
    "born'", "obama's's",
]


def _window_spans(table: MentionTable, start: int, end: int) -> set[tuple[int, int]]:
    """The table's spans naming a KB entity inside ``[start, end)``,
    relative to it."""
    return {(i - start, j - start) for i, j in table.entities if start <= i and j <= end}


def _ambiguous_entries(toy_kb, data_dir) -> list[tuple[str, int]]:
    """The toy dictionary, plus "obama" shared by two entities and a
    surface overlapping it that names a value node, not an entity (as a
    fingerprint false positive would): it still takes its span in the
    greedy walk."""
    entries = [
        (" ".join(tokenize(surface)), toy_kb.node_id(node))
        for node, surface in load_entity_dictionary(data_dir / "entities.tsv")
    ]
    return entries + [
        ("obama", toy_kb.node_id("BarackObama")),
        ("obama", toy_kb.node_id("MichelleObama")),
        ("obama born", toy_kb.node_id("1961")),
    ]


@pytest.fixture(scope="module")
def ambiguous_index(toy_kb, data_dir):
    return StaticHashArray.build(_ambiguous_entries(toy_kb, data_dir))


# keys of up to five words, nested in and overlapping the ambiguous ones
LONG_KEYS = [
    ("wife of barack obama", "MichelleObama"),
    ("the wife of barack obama", "MichelleObama"),
    ("michelle obama born in honolulu", "1964"),
]


def _sequences(seed: int, count: int, max_len: int, keys=()):
    """Random token sequences; with ``keys``, a quarter of the picks are a
    whole key, so long keys do occur."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randrange(0, max_len + 1)
        tokens: list[str] = []
        while len(tokens) < size:
            if keys and rng.random() < 0.25:
                tokens += rng.choice(keys).split(" ")
            else:
                tokens.append(rng.choice(VOCAB))
        yield tuple(tokens)


@pytest.mark.parametrize("longest", [1, 2, 5])
def test_greedy_and_all_span_mentions_match_the_plain_loops(toy_kb, data_dir, longest):
    entries = _ambiguous_entries(toy_kb, data_dir)
    entries += [(key, toy_kb.node_id(node)) for key, node in LONG_KEYS]
    entries = [(key, node) for key, node in entries if key.count(" ") < longest]
    index = StaticHashArray.build(entries)
    assert index.max_words == longest
    keys = [key for key, _ in entries]
    for tokens in _sequences(31 + longest, 150, 12, keys):
        table = MentionTable(toy_kb, index, lookup_tokens(tokens))
        n = len(tokens)
        for start in range(n + 1):
            for end in range(start, n + 1):
                sub = tokens[start:end]
                assert table.mentions(start, end) == oracles.kb_mentions(
                    toy_kb, index, sub, n
                ), (tokens, start, end)
                assert _window_spans(table, start, end) == oracles.mention_spans(
                    toy_kb, index, sub, n
                ), (tokens, start, end)


def test_raw_greedy_walk_matches_the_plain_loop(ambiguous_index):
    for tokens in _sequences(7, 200, 10):
        assert find_mentions(ambiguous_index, tokens) == oracles.find_mentions(
            ambiguous_index, tokens
        ), tokens
        table = SpanTable(ambiguous_index, tokens)
        assert [(span, table.payloads[span]) for span in table.greedy()] == (
            oracles.find_mentions(ambiguous_index, tokens, len(tokens))
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
        table = MentionTable(toy_kb, ambiguous_index, lookup_tokens(question))
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
    table = MentionTable(toy_kb, index, lookup_tokens(tokens))
    table.mentions()
    table.fill()
    # only spans of one or two tokens that hold no token outside every key:
    # barack obama, barack, obama, michelle obama, michelle, obama
    assert len(probed) == 6
    assert all(len(key.split(" ")) <= 2 for key in probed)
    monkeypatch.undo()
    assert table.mentions() == oracles.kb_mentions(toy_kb, index, tokens, len(tokens))
    assert set(table.entities) == oracles.mention_spans(toy_kb, index, tokens, len(tokens))
    assert set(table.entities) == {(2, 4), (5, 7)}


def test_an_index_with_no_key_probes_nothing_even_when_its_filter_passes_all(toy_kb):
    """A loaded index may carry filter bits with no key; no span is probed
    and no walk loops on an empty mark, also in the corpus pass."""
    index = StaticHashArray(1, array("Q", [0, 0]), array("Q"), 0, b"\xff")
    tokens = ("when", "was", "barack", "obama", "born")
    assert all(map(index.has_token, tokens))
    table = SpanTable(index, tokens)
    assert (table.greedy(), table.greedy(1, 4), table.payloads) == ([], [], {})
    probed = probe_corpus(toy_kb, index, {tokens: 1})
    assert probed == ({tokens: []}, {})


# Keys with multi-word, non-ASCII and empty pieces (the double space in
# "x  y"), and a vocabulary mixing their tokens with tokens no key holds,
# an empty token, and tokens with inner or trailing spaces.
FILTER_KEYS = [
    "barack obama", "obama", "new york city", "zürich", "東京 tower", "x  y", "a b", "é",
    "new york city a b", "a b a b a",
]
FILTER_VOCAB = [
    "barack", "obama", "new", "york", "city", "zürich", "東京", "tower", "x", "y", "a", "b",
    "é", "", "a b", "obama ", "x  y", "when", "was", "zurich", "東", "e", "bar",
]


@pytest.mark.parametrize("longest", [1, 2, 3, 5])
def test_filtered_probes_equal_probing_every_span(longest, monkeypatch):
    """Against an index cut to the keys of at most ``longest`` words."""
    keys = [key for key in FILTER_KEYS if key.count(" ") < longest]
    index = StaticHashArray.build((key, i) for i, key in enumerate(keys))
    assert index.max_words == longest
    rng = random.Random(4000 + longest)
    probed = hits = spans = 0
    lookup = StaticHashArray.lookup

    def counting_lookup(self, key):
        nonlocal probed
        probed += 1
        return lookup(self, key)

    for _ in range(400):
        tokens = tuple(rng.choice(FILTER_VOCAB) for _ in range(rng.randrange(0, 11)))
        monkeypatch.setattr(StaticHashArray, "lookup", counting_lookup)
        table = SpanTable(index, tokens)
        table.fill()
        monkeypatch.undo()
        n = len(tokens)
        want = oracles.probe_every_span(index, tokens, n)
        assert table.payloads == want, tokens
        assert [(span, table.payloads[span]) for span in table.greedy()] == (
            oracles.find_mentions(index, tokens, n)
        ), tokens
        hits += len(want)
        spans += n * (n + 1) // 2
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
    mentions = engine.probe(tokens).mentions()
    assert mentions == [((0, 1), "BarackObama"), ((0, 1), "MichelleObama")]
    decomposition = decomposer.decompose(tokens)
    assert (decomposition.sequence, decomposition.score) == ([tokens], 1.0)
    dist = engine.answer_distribution(tokens, mentions, decomposition.walk)
    assert len(calls) == len(mentions)
    monkeypatch.undo()
    assert dist.entries == answer(engine, tokens).entries
    assert dist.entries


@pytest.mark.parametrize("collide", [False, True])
def test_a_fingerprint_false_positive_takes_its_span(toy_kb, data_dir, collide, monkeypatch):
    """With ``collide``, the absent key "obama barack" shares both hash
    halves with "obama born", so its lookup returns that key's payload, a
    node that is no entity: the false positive still takes its span."""
    entries = _ambiguous_entries(toy_kb, data_dir)
    entries += [(key, toy_kb.node_id(node)) for key, node in LONG_KEYS]
    if collide:
        key_hash = hasharray.key_hash
        monkeypatch.setattr(
            hasharray, "key_hash",
            lambda key: key_hash("obama born" if key == "obama barack" else key),
        )
    index = StaticHashArray.build(entries)
    table = MentionTable(toy_kb, index, ("when", "was", "obama", "barack", "born"))
    if collide:
        assert index.lookup("obama barack") == [toy_kb.node_id("1961")]
        assert (table.greedy(), table.mentions()) == ([(2, 4)], [])
    else:
        assert table.greedy() == [(2, 3)]


@pytest.mark.parametrize("collide", [False, True])
def test_read_order_does_not_change_what_a_table_gives(toy_kb, data_dir, collide, monkeypatch):
    """Each table read three ways: the walk of the whole question first,
    then every window; every window first, shortest first, so the whole
    question comes last; and the whole table first. With ``collide``, the
    absent key "obama barack" hits as "obama born" does, a value node."""
    entries = _ambiguous_entries(toy_kb, data_dir)
    entries += [(key, toy_kb.node_id(node)) for key, node in LONG_KEYS]
    if collide:
        key_hash = hasharray.key_hash
        monkeypatch.setattr(
            hasharray, "key_hash",
            lambda key: key_hash("obama born" if key == "obama barack" else key),
        )
    index = StaticHashArray.build(entries)
    keys = [key for key, _ in entries] + ["obama barack"]

    def everything(table, windows):
        return (table.payloads, table.entities, set(table.entities),
                {window: table.mentions(*window) for window in windows})

    def walk_first(table, windows):
        table.mentions()
        return everything(table, windows)

    def windows_first(table, windows):
        found = {window: table.mentions(*window)
                 for window in sorted(windows, key=lambda w: (w[1] - w[0], w))}
        return everything(table, ())[:3] + (found,)

    def table_first(table, windows):
        table.fill()
        return everything(table, windows)

    hits = 0
    for tokens in _sequences(91, 150, 12, keys):
        n = len(tokens)
        windows = [(start, end) for start in range(n + 1) for end in range(start, n + 1)]
        payloads = oracles.probe_every_span(index, lookup_tokens(tokens), n)
        entities = {}
        for span, found in payloads.items():
            named = [toy_kb.node_name(p) for p in found if toy_kb.has_node_id(p)]
            named = [node for node in named if toy_kb.is_entity(node)]
            if named:
                entities[span] = named
        want = (payloads, entities, oracles.mention_spans(toy_kb, index, tokens, n),
                {(start, end): oracles.kb_mentions(toy_kb, index, tokens[start:end], n)
                 for start, end in windows})
        for read in (walk_first, windows_first, table_first):
            table = MentionTable(toy_kb, index, lookup_tokens(tokens))
            assert read(table, windows) == want, (read, tokens)
        hits += len(payloads)
    assert hits > 150


class _CountingIndex:
    """An index that records every key its ``lookup`` is asked."""

    def __init__(self, index: StaticHashArray):
        self.max_words, self.has_token = index.max_words, index.has_token
        self._index = index
        self.asked: list[str] = []

    def lookup(self, key: str) -> list[int]:
        self.asked.append(key)
        return self._index.lookup(key)


def test_a_table_probes_each_span_at_most_once_whatever_the_read_order(toy_kb, data_dir):
    """Read the walk first, every window first, ``fill`` first, or ``fill``
    twice, then ``fill``: each span that can equal a key (inside a run of
    tokens the filter passes, no longer than the longest key) is probed
    exactly once, and no other span is."""
    entries = _ambiguous_entries(toy_kb, data_dir)
    entries += [(key, toy_kb.node_id(node)) for key, node in LONG_KEYS]
    index = StaticHashArray.build(entries)
    keys = [key for key, _ in entries]

    def walk_first(table, n):
        table.greedy()

    def windows_first(table, n):
        for start in range(n + 1):
            for end in range(start, n + 1):
                table.greedy(start, end)

    def fill_first(table, n):
        table.fill()

    def fill_twice(table, n):
        table.fill()
        asked = list(counting.asked)
        table.fill()
        assert counting.asked == asked

    probed = 0
    for tokens in _sequences(92, 150, 12, keys):
        n = len(tokens)
        passes = list(map(index.has_token, tokens)) + [False]
        want = Counter(
            " ".join(tokens[i:j]) for i in range(n)
            for j in range(i + 1, min(passes.index(False, i), i + index.max_words) + 1)
        )
        for read in (walk_first, windows_first, fill_first, fill_twice):
            counting = _CountingIndex(index)
            table = SpanTable(counting, tokens)
            read(table, n)
            assert Counter(counting.asked) <= want, (read, tokens)
            table.fill()
            assert Counter(counting.asked) == want, (read, tokens)
        probed += sum(want.values())
    assert probed > 300


# Questions over the ambiguous index and LONG_KEYS whose runs of lookup keys
# the token filter passes ("when", "was", "who" and "is" it stops) repeat
# and interact.
RUN_QUESTIONS = [
    # one run at different offsets in different questions
    ("barack", "obama"),
    ("when", "was", "barack", "obama"),
    ("who", "is", "when", "barack", "obama", "was"),
    # one entity named in two runs of the same question
    ("barack", "obama", "was", "obama"),
    ("michelle", "obama", "is", "who", "michelle", "obama", "was", "obama"),
    # a hit naming no entity stops the walk inside a run: "obama born"
    # names a value node, and so does the whole five-word run
    ("when", "was", "obama", "born", "in", "honolulu"),
    ("who", "is", "michelle", "obama", "born", "in", "honolulu"),
    # a possessive token inside a run
    ("when", "was", "barack", "obama's", "wife", "born"),
    ("who", "is", "the", "wife", "of", "barack", "obama's"),
]


def _runs_index(toy_kb, data_dir) -> StaticHashArray:
    entries = _ambiguous_entries(toy_kb, data_dir)
    entries += [(key, toy_kb.node_id(node)) for key, node in LONG_KEYS]
    index = StaticHashArray.build(entries)
    assert not any(map(index.has_token, ("when", "was", "who", "is")))
    return index


def test_probe_corpus_equals_the_plain_loops_question_by_question(toy_kb, data_dir):
    """One pass over many questions, each distinct run of lookup keys probed,
    filtered and walked once, gives each question what the plain loops give
    it alone; "obama born" names a value node, no entity."""
    index = _runs_index(toy_kb, data_dir)
    keys = [key for key, _ in _ambiguous_entries(toy_kb, data_dir)] + [k for k, _ in LONG_KEYS]
    questions = RUN_QUESTIONS + list(_sequences(77, 300, 12, keys))
    frequency = dict(Counter(questions))
    probed = probe_corpus(toy_kb, index, frequency)
    assert list(probed.mentions) == list(dict.fromkeys(questions))
    for question in questions:
        n = len(question)
        assert probed.mentions[question] == oracles.kb_mentions(toy_kb, index, question, n)
    spans = oracles.entity_spans(toy_kb, index, frequency)
    assert probed.f_v == {pattern: f_v for pattern, (f_v, _)
                          in oracles.pattern_counts(frequency, spans).items()}
    assert sum(map(len, probed.mentions.values())) > 300
    # the entity of two runs at its first span; a non-entity hit hides one
    assert probed.mentions[RUN_QUESTIONS[3]] == [
        ((0, 2), "BarackObama"), ((3, 4), "MichelleObama")
    ]
    assert probed.mentions[RUN_QUESTIONS[5]] == [((5, 6), "Honolulu")]
    assert spans[RUN_QUESTIONS[5]] == {(2, 3), (5, 6)}
    assert probed.mentions[RUN_QUESTIONS[6]] == []


def test_probe_corpus_probes_each_span_of_each_distinct_run_once(toy_kb, data_dir, monkeypatch):
    index = _runs_index(toy_kb, data_dir)
    questions = RUN_QUESTIONS + list(_sequences(78, 200, 12))
    probed: list[str] = []
    lookup = StaticHashArray.lookup

    def counting(self, key):
        probed.append(key)
        return lookup(self, key)

    monkeypatch.setattr(StaticHashArray, "lookup", counting)
    probe_corpus(toy_kb, index, dict(Counter(questions)))
    monkeypatch.undo()
    runs: dict[tuple[str, ...], int] = {}  # each maximal run, and how often it occurs
    for question in dict.fromkeys(questions):
        passes = [index.has_token(key) for key in lookup_tokens(question)] + [False]
        start = 0
        for stop, ok in enumerate(passes):
            if not ok:
                if start < stop:
                    run = lookup_tokens(question[start:stop])
                    runs[run] = runs.get(run, 0) + 1
                start = stop + 1
    spans = {run: [" ".join(run[i:j]) for i in range(len(run))
                   for j in range(i + 1, min(len(run), i + index.max_words) + 1)]
             for run in runs}
    assert sorted(probed) == sorted(key for run in runs for key in spans[run])
    # runs do repeat, and probing each question alone would ask more
    assert sum(len(spans[run]) * count for run, count in runs.items()) > len(probed)
