"""The answer records and probe work of a generated world, pinned across
commits.

The world is the one the CI workflow checks for hash-seed independence: 60
people from the benchmark's generator (``bench/world.py``, imported
read-only), with its 36 simple and 40 complex benchmark questions. The
digest covers the records as ``factqa repl`` prints them, so a change that
alters any answer, probability, trace, step or reason fails here. The probe
counts are deterministic too, so a change that lets the index's token
filter pass more tokens fails here, although no answer moves.
"""

from __future__ import annotations

import hashlib
import json

from factqa.hasharray import StaticHashArray
from factqa.pipeline import OnlineSession
from test_corpus import assert_corpus_tokenized
from test_pipeline import assert_duplicate_lines_merge, assert_probe_counts_every_entity_span

RECORDS_SHA256 = "a16fbb335e83766e6fd3ecb1446295d0872e5a37eeb5341b4c4f52a6aa1b5b49"


def test_answer_records_of_the_ci_world_are_pinned(ci_world):
    config, simple, complex_, _ = ci_world
    questions = simple + complex_
    assert len(questions) == 76
    session = OnlineSession(config)
    records = "".join(json.dumps(session.answer_record(q.text), sort_keys=True) + "\n"
                      for q in questions)
    assert hashlib.sha256(records.encode("utf-8")).hexdigest() == RECORDS_SHA256


def test_probe_work_of_the_ci_world_is_pinned(ci_world, monkeypatch):
    """The distinct runs the offline pass reads, each once, and the index
    keys that answering the questions asks (a span is probed only where
    every token passes the token filter)."""
    config, simple, complex_, runs = ci_world
    assert len(set(runs)) == len(runs) == 70
    session = OnlineSession(config)
    keys: list[str] = []
    lookup = StaticHashArray.lookup

    def counted_lookup(self, key):
        keys.append(key)
        return lookup(self, key)

    monkeypatch.setattr(StaticHashArray, "lookup", counted_lookup)
    counts = []
    for questions in (simple, complex_):
        keys.clear()
        for question in questions:
            session.answer_record(question.text)
        counts.append(len(keys))
    assert counts == [40, 52]


def test_the_probe_of_the_ci_world_counts_the_patterns_of_every_entity_span(ci_world):
    assert_probe_counts_every_entity_span(ci_world[0])


def test_duplicate_lines_of_the_ci_world_merge_into_the_same_artifacts(ci_world, tmp_path):
    assert_duplicate_lines_merge(ci_world[0], tmp_path)


def test_the_corpus_of_the_ci_world_is_tokenized_as_tokenize_does_with_shared_tokens(ci_world):
    assert_corpus_tokenized(ci_world[0].corpus)
