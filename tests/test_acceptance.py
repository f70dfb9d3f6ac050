"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure). Run just this file via::

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import functools
import random
import shutil
import time
from pathlib import Path

import pytest

from conftest import answer, random_keys
from factqa.corpus import QaPair, corpus_stats, kb_mentions, tokenize
from factqa.hasharray import StaticHashArray
from factqa.kb import KnowledgeBase, SpoPath, expand_predicates
from factqa.learn import e_step, init_theta, learn, m_step
from factqa.pipeline import OnlineSession, run_offline
from oracles import decompose_bruteforce, fold, item_responsibilities, posterior_oracle
from test_kb import enumerate_paths_oracle, random_graph
from test_learn import make_item, random_items, random_training_set
from test_pipeline import make_config

DATA = Path(__file__).parent / "data"


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {label}")
                raise
            print(f"criterion {number} PASS: {label}")
            return result

        return wrapper

    return decorate


@criterion(1, "answer-table reproduction within 0.01, under 1 s")
def test_criterion_1_answer_table(toy_engine):
    start = time.perf_counter()
    dist = answer(toy_engine, tokenize("When was Barack Obama born?"))
    elapsed = time.perf_counter() - start
    expected = {"1961": 0.79, "person": 0.11, "politician": 0.11}
    assert set(dist.entries) == set(expected)
    for value, prob in expected.items():
        assert dist.entries[value] == pytest.approx(prob, abs=0.01), value
    assert elapsed < 1.0


@criterion(2, "corpus statistics exact as rationals")
def test_criterion_2_corpus_statistics(toy_corpus):
    stats = corpus_stats(toy_corpus)
    q1 = tokenize("When was Barack Obama born?")
    a1 = tokenize("The politician was born in 1961.")
    assert stats.p_q(q1) == 2 / 3
    assert stats.p_a(q1, a1) == 1 / 2


@criterion(3, "entity-value extraction, unrefined and refined")
def test_criterion_3_extraction(toy_extractor, toy_index):
    pair = QaPair(
        tokenize("When was Barack Obama born?"),
        tokenize("The politician was born in 1961."),
    )
    mentions = kb_mentions(toy_extractor.kb, toy_index[0], pair.question)
    values = toy_extractor.candidate_values(pair.answer)
    assert toy_extractor.extract(pair, mentions, values, refine=False) == {
        ("BarackObama", "1961"),
        ("BarackObama", "politician"),
    }
    assert toy_extractor.extract(pair, mentions, values, refine=True) == {
        ("BarackObama", "1961")
    }


@criterion(4, "EM: monotone likelihood, exact E-step, noise tolerance, < 60 s")
def test_criterion_4_em_correctness():
    start = time.perf_counter()

    # (a) log-likelihood non-decreasing over 20 random instances x 100 iters
    rng = random.Random(0xEB)
    for _ in range(20):
        training = random_training_set(
            rng, n_obs=rng.randrange(5, 30), n_templates=4, n_paths=4
        )
        history = learn(training, max_iters=100).ll_history
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9

    # (b) E-step equals brute-force posterior enumeration to 1e-12
    for _ in range(30):
        items = random_items(
            rng,
            n_obs=rng.randrange(1, 6),
            n_templates=rng.randrange(1, 4),
            n_paths=rng.randrange(1, 4),
        )
        training = fold(items)
        model = init_theta(training)
        got = item_responsibilities(training, e_step(training, model))
        want = posterior_oracle(items, model)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is None:
                continue
            assert set(g) == set(w)
            for z in g:
                assert abs(g[z] - w[z]) <= 1e-12

    # (c) noise tolerance: 90% of a template's observations share one predicate
    items = [make_item({"t": 1.0}, {("dob",): 1.0}) for _ in range(18)]
    items += [make_item({"t": 1.0}, {("category",): 1.0}) for _ in range(2)]
    model = learn(fold(items)).model
    assert model.top_path("t")[0] == ("dob",)

    assert time.perf_counter() - start < 60.0


@criterion(5, "decomposition: DP equals oracle, example sequence, validities")
def test_criterion_5_decomposition(toy_decomposer):
    result = toy_decomposer.decompose(tokenize("when was barack obama's wife born"))
    assert result.texts == ["barack obama's wife", "when was $e born"]

    assert toy_decomposer.patterns.validity(("when", "was", "$e", "born"))[2] == 1.0
    assert toy_decomposer.patterns.validity(("when", "$e"))[2] == 0.0

    vocab = [
        "when", "was", "barack", "obama", "obama's", "born", "wife", "who",
        "is", "the", "of", "how", "many", "people", "honolulu", "michelle",
    ]
    rng = random.Random(5005)
    for _ in range(200):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 9)))
        dp = toy_decomposer.decompose(tokens)
        brute = decompose_bruteforce(toy_decomposer, tokens)
        assert dp.score == brute.score, tokens
        assert dp.sequence == brute.sequence, tokens


@criterion(6, "expansion: streaming scan equals BFS oracle; name restriction")
def test_criterion_6_expansion(toy_kb):
    rng = random.Random(66)
    for _ in range(50):
        triples = random_graph(rng, nodes=100, edges=rng.randrange(120, 260))
        kb = KnowledgeBase(triples)
        entities = sorted(kb.entities)
        seeds = set(rng.sample(entities, min(10, len(entities))))
        k = rng.randrange(1, 4)
        restricted = rng.random() < 0.5
        got = expand_predicates(kb, seeds, k, name_restriction=restricted)
        want = enumerate_paths_oracle(triples, seeds, k, name_restriction=restricted)
        assert got == want

    spouse = SpoPath("BarackObama", ("marriage", "person", "name"), "MichelleObama")
    meaningless = SpoPath("BarackObama", ("marriage", "person", "dob"), "1964")
    restricted = expand_predicates(toy_kb, {"BarackObama"}, 3, name_restriction=True)
    unrestricted = expand_predicates(toy_kb, {"BarackObama"}, 3, name_restriction=False)
    assert spouse in restricted
    assert meaningless in unrestricted
    assert meaningless not in restricted


@criterion(7, "static hash array: negatives, round-trip, size, false positives")
def test_criterion_7_static_hash_array(million_key_index, tmp_path):
    # zero false negatives over 1e5 random keys
    rng = random.Random(0x57A7)
    keys = random_keys(rng, 100_000)
    index = StaticHashArray.build((k, i) for i, k in enumerate(keys))
    misses = sum(1 for i, k in enumerate(keys) if i not in index.lookup(k))
    assert misses == 0

    # serialize -> load -> serialize is byte-identical
    blob = index.to_bytes()
    target = tmp_path / "probe.index"
    target.write_bytes(blob)
    assert StaticHashArray.load(target).to_bytes() == blob

    # million-entry index: at most 32 bytes per entry on disk
    million_keys, million = million_key_index
    size = len(million.to_bytes())
    assert size <= 32 * len(million)
    assert len(million) == 1_000_000

    # at most 2 false positives over 1e6 uniformly random absent keys
    absent = random_keys(random.Random(0xFA15E), 1_000_000, prefix="out:")
    false_positives = sum(1 for key in absent if million.lookup(key))
    assert false_positives <= 2


@criterion(8, "desk-scale stand-ins: EM linear scaling and online latency")
def test_criterion_8_desk_scale(tmp_path):
    # the corpus-scale numbers are not reproducible here; their declared
    # replacements are the EM wall-clock linearity and the latency bound

    def em_time_per_obs(n_obs: int) -> float:
        rng = random.Random(1234)  # same structure at both sizes
        training = random_training_set(rng, n_obs=n_obs, n_templates=4, n_paths=4)
        best = float("inf")
        for _ in range(2):
            model = init_theta(training)
            start = time.perf_counter()
            for _ in range(3):
                model = m_step(training, e_step(training, model))
            best = min(best, time.perf_counter() - start)
        return best / n_obs

    ratio = em_time_per_obs(10_000) / em_time_per_obs(1_000)
    assert 1 / 3 <= ratio <= 3, ratio

    config = make_config(tmp_path)
    run_offline(config)
    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    session = OnlineSession(config)
    session.answer_record("When was Barack Obama born?")
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        record = session.answer_record("When was Barack Obama born?")
        best = min(best, time.perf_counter() - start)
    assert record["answer"] == "1961"
    assert best < 0.05
