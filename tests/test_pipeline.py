"""Offline/online orchestration and the command-line interface."""

from __future__ import annotations

import json
import math
import os
import shutil
import stat
import struct
import subprocess
import sys
import time
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import pytest

from conftest import answer
from factqa.cli import build_parser, main
from factqa.concepts import ConceptGraph
from factqa import pipeline
from factqa import corpus as corpus_mod
from factqa import learn as learn_mod
from factqa.corpus import (
    CorpusMentions, EntityValueExtractor, MentionTable, QaPair, corpus_stats, lookup_token,
    lookup_tokens, probe_corpus, question_category, tokenize,
)
from factqa.decompose import SLOT, PatternIndex, QuestionTooLongError
from factqa.engine import AnswerEngine
from factqa.hasharray import StaticHashArray
from factqa.learn import PredicateModel, TrainingSet
from factqa.pipeline import (
    ConfigError,
    OnlineSession,
    SETTINGS,
    PipelineConfig,
    StageError,
    _Staged,
    load_config,
    concepts_path,
    patterns_path,
    run_offline,
    store_path,
)
from oracles import counting_baseline, entity_spans, item_candidates, pattern_counts

DATA = Path(__file__).parent / "data"
Q1 = tokenize("When was Barack Obama born?")
Q3 = tokenize("How many people are there in Honolulu?")
A1 = tokenize("The politician was born in 1961.")
A2 = tokenize("He was born in 1961.")
# the KB values each answer of the toy corpus names
TOY_VALUES = {A1: {"politician", "1961"}, A2: {"1961"}, tokenize("It's 390K."): {"390K"}}


def make_config(tmp_path: Path, **overrides) -> PipelineConfig:
    out = tmp_path / "artifacts"
    values = dict(
        kb=DATA / "toy_kb.tsv",
        entities=DATA / "entities.tsv",
        isa=DATA / "isa.tsv",
        corpus=DATA / "corpus.jsonl",
        predicate_categories=DATA / "predicate_categories.tsv",
        fixture_overrides=DATA / "fixture_overrides.tsv",
        index=out / "toy.index",
        expansion=out / "toy.expansion.tsv",
        model=out / "toy.model.tsv",
        report=out / "toy.report.json",
    )
    values.update(overrides)
    return PipelineConfig(**values)


def corpus_written_three_ways(corpus: Path, out: Path) -> list[Path]:
    """The corpus as it is; every line written twice, the whole file over
    again; and one line's count split over two lines, in that corpus of
    doubled counts: every other line once with its count doubled, and the
    first line written again as the last."""
    text = corpus.read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    twice, split = out / "twice.jsonl", out / "split.jsonl"
    twice.write_text(text + text, encoding="utf-8")
    doubled = [dict(record, count=2 * record.get("count", 1)) for record in records[1:]]
    split.write_text("".join(json.dumps(record) + "\n"
                             for record in [records[0], *doubled, records[0]]), encoding="utf-8")
    return [corpus, twice, split]


def artifact_bytes(config: PipelineConfig) -> dict[str, bytes]:
    """Every file an offline run with an observations dump writes."""
    files = [getattr(config, name) for name in ("index", "expansion", "model", "report",
                                                 "observations")]
    files += [store_path(config.index), patterns_path(config.model), concepts_path(config.model)]
    return {file.name: file.read_bytes() for file in files}


def assert_duplicate_lines_merge(config: PipelineConfig, tmp_path: Path) -> None:
    """A corpus written three ways gives byte-identical artifacts and
    report, but for the pattern file: its f_v and f_o count corpus lines,
    so the corpus written twice doubles each, and no validity moves."""
    written = []
    for k, corpus in enumerate(corpus_written_three_ways(Path(config.corpus), tmp_path)):
        out = tmp_path / f"run{k}"
        run = replace(config, corpus=corpus, index=out / "w.index",
                      expansion=out / "w.expansion.tsv", model=out / "w.model.tsv",
                      report=out / "w.report.json", observations=out / "w.observations.tsv")
        run_offline(run)
        written.append(artifact_bytes(run))
    first, twice, split = written
    assert first["w.observations.tsv"] and split == twice
    rows = [line.split("\t") for line in first.pop("w.model.patterns.tsv").decode().splitlines()]
    assert rows and twice.pop("w.model.patterns.tsv") == "".join(
        f"{text}\t{2 * int(f_v)}\t{2 * int(f_o)}\n" for text, f_v, f_o in rows).encode()
    assert twice == first


def assert_probe_counts_every_entity_span(config: PipelineConfig) -> None:
    """The probe's f_v counts equal the pattern oracle's over every entity
    span of every question of the corpus."""
    inputs = pipeline.load_inputs(config, learn=False)
    index, _ = pipeline.build_entity_index(inputs.kb, inputs.dictionary)
    frequency = inputs.corpus.question_counts
    f_v = probe_corpus(inputs.kb, index, frequency).f_v
    counts = pattern_counts(frequency, entity_spans(inputs.kb, index, frequency))
    assert f_v and f_v == {pattern: n for pattern, (n, _) in counts.items()}


# ---------------------------------------------------------------------------
# offline flow


def test_run_offline_produces_expected_model(tmp_path, toy_items):
    config = make_config(tmp_path)
    report = run_offline(config)
    assert report["observations"] == 3
    assert report["dropped_observations"] == 0
    model = PredicateModel.load(config.model)
    top = model.top_path("when was $person born")
    assert top is not None and top[0] == ("dob",)
    # independent counting oracle agrees on the argmax
    oracle = counting_baseline(toy_items)
    assert oracle.top_path("when was $person born")[0] == ("dob",)
    # all artifacts exist and the report is valid JSON
    assert config.index.is_file() and config.expansion.is_file()
    assert json.loads(config.report.read_text())["observations"] == 3


def test_run_offline_expansion_contents(tmp_path):
    config = make_config(tmp_path)
    run_offline(config)
    rows = config.expansion.read_text().splitlines()
    assert "BarackObama\tmarriage|person|name\tMichelleObama" in rows
    assert not any("marriage|person|dob" in row for row in rows)


def test_run_offline_empty_corpus_fails_cleanly(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"question": "nothing known", "answer": "nope"}\n')
    config = make_config(tmp_path, corpus=empty)
    with pytest.raises(StageError, match="no observations extracted"):
        run_offline(config)
    # a failed run leaves no partial artifacts behind
    assert not config.index.exists()
    assert not config.expansion.exists()
    assert not config.model.exists()
    assert not list(config.index.parent.glob("*.tmp"))


def test_run_offline_does_each_piece_of_work_once(tmp_path, monkeypatch):
    """One offline run reads the corpus grouped as it is read and builds no
    ``QaPair``; the probe gets each distinct question once and keeps no
    span of it; each question with a mention has its category found once,
    and each (entity, value) pair its link read once."""
    corpus = tmp_path / "corpus.jsonl"
    lines = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    unmentioned = '{"question": "when was nobody born?", "answer": "1961"}'
    corpus.write_text("\n".join(lines + [unmentioned, lines[0]]) + "\n", encoding="utf-8")
    grouped, probes, read, categories, links = [], [], {}, [], []

    def counting_stats(pairs):
        grouped.append(corpus_stats(pairs))
        return grouped[-1]

    def recording_probe(kb, index, frequency):
        probes.append((frequency, probe_corpus(kb, index, frequency)))
        return probes[-1][1]

    build, count = TrainingSet.build.__func__, PatternIndex.build.__func__

    def keeping_build(cls, corpus, *args):
        read["training"] = corpus
        return build(cls, corpus, *args)

    def keeping_count(cls, frequency, f_v):
        read["patterns"] = frequency, f_v
        return count(cls, frequency, f_v)

    def counting_category(tokens):
        categories.append(tokens)
        return question_category(tokens)

    link = EntityValueExtractor.link

    def counting_link(self, pair):
        links.append(pair)
        return link(self, pair)

    def no_pair(cls, *args, **kwargs):
        raise AssertionError("a QaPair was built")

    monkeypatch.setattr(corpus_mod, "corpus_stats", counting_stats)
    monkeypatch.setattr(pipeline, "probe_corpus", recording_probe)
    monkeypatch.setattr(TrainingSet, "build", classmethod(keeping_build))
    monkeypatch.setattr(PatternIndex, "build", classmethod(keeping_count))
    monkeypatch.setattr(learn_mod, "question_category", counting_category)
    monkeypatch.setattr(corpus_mod, "question_category", counting_category)
    monkeypatch.setattr(EntityValueExtractor, "link", counting_link)
    monkeypatch.setattr(QaPair, "__new__", no_pair)
    run_offline(make_config(tmp_path, corpus=corpus))
    monkeypatch.undo()
    (stats,) = grouped
    assert list(stats.answer_counts) == [Q1, Q3, tokenize("when was nobody born?")]
    assert stats.answer_counts[Q1] == {A1: 2, A2: 1}
    ((frequency, probed),) = probes
    assert frequency is stats.question_counts
    assert read["training"] is stats and read["patterns"] == (frequency, probed.f_v)
    # the probe keeps each question's mentions and the pattern counts alone
    assert CorpusMentions._fields == ("mentions", "f_v")
    assert all(SLOT in pattern and type(n) is int for pattern, n in probed.f_v.items())
    assert categories == [q for q, found in probed.mentions.items() if found] == [Q1, Q3]
    assert links and len(links) == len(set(links))
    assert set(links) == {(entity, value) for question, found in probed.mentions.items()
                          for _, entity in found for answer in stats.answer_counts[question]
                          for value in TOY_VALUES[answer]}


def test_duplicate_lines_merge_into_the_same_artifacts(tmp_path):
    assert_duplicate_lines_merge(make_config(tmp_path), tmp_path)


def test_the_probe_counts_the_patterns_of_every_entity_span(tmp_path):
    assert_probe_counts_every_entity_span(make_config(tmp_path))


def test_concurrent_staged_runs_keep_their_own_temp_files(tmp_path):
    final = tmp_path / "out" / "toy.model.tsv"
    with _Staged() as kept:
        kept_tmp = kept.path_for(final)
        kept_tmp.write_text("kept\n")
        with pytest.raises(StageError, match="stage 'learn' failed: boom"):
            with _Staged() as failed:
                failed.stage = "learn"
                failed_tmp = failed.path_for(final)
                assert failed_tmp != kept_tmp
                assert failed_tmp.parent == final.parent
                failed_tmp.write_text("failed\n")
                raise RuntimeError("boom")
        assert not failed_tmp.exists()
        assert kept_tmp.read_text() == "kept\n"
    assert final.read_text() == "kept\n"
    assert not list(final.parent.glob("*.tmp"))
    # the artifact gets the mode of a file made by open(), not a private one
    plain = tmp_path / "plain"
    plain.write_text("")
    assert stat.S_IMODE(final.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_failed_rename_is_a_stage_error_and_leaves_no_temp_file(tmp_path, monkeypatch):
    config = make_config(tmp_path)
    renamed = []
    replace = os.replace

    def failing_second(src, dst):
        if len(renamed) == 1:
            raise IsADirectoryError(21, "Is a directory", str(dst))
        replace(src, dst)
        renamed.append(Path(dst))

    monkeypatch.setattr(os, "replace", failing_second)
    with pytest.raises(StageError, match="stage 'write' failed: cannot write .*toy.index.kb"):
        run_offline(config)
    # the artifact renamed before the failure stays; no later one arrives
    assert renamed == [config.index]
    assert sorted(p.name for p in config.index.parent.iterdir()) == ["toy.index"]


def test_run_offline_is_deterministic(tmp_path):
    config_a = make_config(tmp_path / "a")
    config_b = make_config(tmp_path / "b")
    run_offline(config_a)
    run_offline(config_b)
    for name in ("index", "expansion", "model", "report"):
        a = getattr(config_a, name).read_bytes()
        b = getattr(config_b, name).read_bytes()
        assert a == b, name
    assert patterns_path(config_a.model).read_bytes() == patterns_path(config_b.model).read_bytes()


def test_run_offline_pattern_file_matches_every_span_oracle(tmp_path, toy_kb, toy_index,
                                                            toy_stats):
    config = make_config(tmp_path)
    run_offline(config)
    oracle = tmp_path / "oracle.patterns.tsv"
    frequency = toy_stats.question_counts
    spans = entity_spans(toy_kb, toy_index[0], frequency)
    PatternIndex(pattern_counts(frequency, spans)).save(oracle)
    written = patterns_path(config.model).read_bytes()
    assert written == oracle.read_bytes()
    assert written == b"how many people are there in $e\t1\t1\nwhen was $e born\t2\t2\n"


def test_run_offline_missing_inputs_is_config_error(tmp_path):
    config = make_config(tmp_path, kb=tmp_path / "missing.tsv")
    with pytest.raises(ConfigError):
        run_offline(config)


def test_observations_dump(tmp_path):
    config = make_config(tmp_path, observations=tmp_path / "artifacts" / "obs.tsv")
    run_offline(config)
    lines = config.observations.read_text().splitlines()
    assert len(lines) == 3


def test_run_offline_asks_each_key_and_template_once(tmp_path, monkeypatch, toy_items,
                                                      toy_stats):
    calls: dict[str, list] = {}
    for owner, name in ((StaticHashArray, "lookup"), (StaticHashArray, "has_token"),
                        (ConceptGraph, "question_concepts")):
        original = getattr(owner, name)

        def counting(self, *args, _original=original, _calls=calls.setdefault(name, [])):
            _calls.append(args[:2])
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counting)
    built: list[TrainingSet] = []
    build = TrainingSet.build.__func__

    def keeping(cls, *args):
        built.append(build(cls, *args))
        return built[-1]

    monkeypatch.setattr(TrainingSet, "build", classmethod(keeping))
    config = make_config(tmp_path, observations=tmp_path / "artifacts" / "obs.tsv")
    run_offline(config)
    monkeypatch.undo()
    # each distinct question token's lookup key is filtered once, and no
    # table of a run of passing keys filters it again
    assert sorted(calls["has_token"]) == sorted(
        (lookup_token(token),) for token in set(chain.from_iterable(toy_stats.question_counts)))
    for name, args in calls.items():
        assert args and len(args) == len(set(args)), name
    (training,) = built
    assert set(calls["question_concepts"]) == {(q, e) for q, e, _, _ in training.observations}
    # each observation's candidates are those of its own templates, derived
    # afresh item by item
    assert item_candidates(training) == [item.candidates for item in toy_items]
    assert config.observations.read_text() == (
        "when was barack obama born\tBarackObama\t1961\t0.3333333333333333\n" * 2
        + "how many people are there in honolulu\tHonolulu\t390K\t0.3333333333333333\n"
    )


# ---------------------------------------------------------------------------
# online flow


@pytest.fixture()
def online(tmp_path) -> OnlineSession:
    config = make_config(tmp_path)
    run_offline(config)
    # swap in the richer handcrafted model so complex questions resolve
    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    return OnlineSession(config)


def test_online_answers_simple_question(online):
    record = online.answer_record("When was Barack Obama born?")
    assert record["answer"] == "1961"
    assert record["probability"] == pytest.approx(0.79, abs=0.01)
    assert record["trace"]["entity"] == "BarackObama"
    assert record["trace"]["predicate_path"] == ["dob"]


def test_online_answers_complex_question(online):
    record = online.answer_record("When was Barack Obama's wife born?")
    assert record["decomposition"]["sequence"] == ["barack obama's wife", "when was $e born"]
    assert record["answer"] == "1964"


def test_chain_substitutes_the_surface_the_index_keys(tmp_path, caplog):
    """A first dictionary row that normalizes to no key is skipped online
    as it is in the index, so the chain substitutes the indexed surface."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    entities = data / "entities.tsv"
    entities.write_text("MichelleObama\t...\n" + entities.read_text())
    config = make_config(tmp_path, entities=entities)
    run_offline(config)
    assert "skipped 1 rows whose surface has no word" in caplog.text
    assert "unknown nodes" not in caplog.text
    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    record = OnlineSession(config).answer_record("When was Barack Obama's wife born?")
    assert record["steps"][1]["question"] == "when was michelle obama born"
    assert record["answer"] == "1964"


def _spouse_chain_on(tmp_path, kb: str = "", isa: str = "", entities=lambda text: text) -> dict:
    """The record of "When was Barack Obama's wife born?" on a copy of the
    test data with ``kb`` and ``isa`` rows added and the dictionary's text
    passed through ``entities``, after the offline run, with the fixture model."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    for name, rows in (("toy_kb.tsv", kb), ("isa.tsv", isa)):
        (data / name).write_text((data / name).read_text() + rows)
    (data / "entities.tsv").write_text(entities((data / "entities.tsv").read_text()))
    config = make_config(
        tmp_path, kb=data / "toy_kb.tsv", isa=data / "isa.tsv", entities=data / "entities.tsv"
    )
    run_offline(config)
    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    return OnlineSession(config).answer_record("When was Barack Obama's wife born?")


def test_chain_step_answers_the_entity_not_others_sharing_its_surface(tmp_path):
    """A second entity indexed under the answer's surface takes no share of
    the next step, which is asked about the answer itself."""
    record = _spouse_chain_on(
        tmp_path,
        kb="OtherMichelle\tdob\t1950\n",
        isa="OtherMichelle\tperson\t1\n",
        entities=lambda text: text + "OtherMichelle\tMichelle Obama\n",
    )
    assert record["steps"][1]["question"] == "when was michelle obama born"
    assert (record["answer"], record["probability"]) == ("1964", pytest.approx(1.0))


def test_chain_step_answers_an_entity_with_no_dictionary_surface(tmp_path):
    """With no indexed surface the step's text spells the node id, which
    indexes nothing, and the step is still asked about the entity."""
    record = _spouse_chain_on(
        tmp_path, entities=lambda text: text.replace("MichelleObama\tMichelle Obama\n", "")
    )
    assert record["steps"][1]["question"] == "when was michelleobama born"
    assert record["answer"] == "1964"


def test_chain_step_on_an_entity_with_no_worded_surface_has_no_entity(tmp_path):
    """An answer whose surface tokenizes to nothing leaves the step no span
    to mention it at: the step fails with no entity and nothing raises."""
    record = _spouse_chain_on(tmp_path, kb="MichellePerson\tname\t?\n?\tdob\t1964\n")
    assert record["steps"][0]["answer"] == "?"
    assert record["steps"][1] == {"question": "when was born", "reason": "no entity"}
    assert (record["answer"], record["reason"]) == (None, "unanswerable at step 1")


def test_answer_record_probes_each_question_once(online, monkeypatch):
    built = []
    init = MentionTable.__init__

    def counting(self, kb, index, tokens, *args):
        built.append(tokens)
        init(self, kb, index, tokens, *args)

    monkeypatch.setattr(MentionTable, "__init__", counting)
    assert online.answer_record("When was Barack Obama born?")["answer"] == "1961"
    assert built == [lookup_tokens(tokenize("When was Barack Obama born?"))]
    built.clear()
    record = online.answer_record("When was Barack Obama's wife born?")
    assert record["answer"] == "1964"
    assert len(record["steps"]) == 2
    # the head is answered from the question's own table, and the second
    # step from the entity the head answered, with no table of its own
    assert built == [lookup_tokens(tokenize("When was Barack Obama's wife born?"))]


def _record_lookups(monkeypatch) -> list[str]:
    """The keys the index is asked, from now on."""
    keys = []
    lookup = StaticHashArray.lookup

    def counting(self, key):
        keys.append(key)
        return lookup(self, key)

    monkeypatch.setattr(StaticHashArray, "lookup", counting)
    return keys


def test_a_primitive_question_probes_only_the_spans_its_walk_reads(online, monkeypatch):
    keys = _record_lookups(monkeypatch)
    assert online.answer_record("When was Barack Obama born?")["answer"] == "1961"
    # the walk stops at the longest hit at "barack"; a full table would also
    # probe "barack" and "obama"
    assert keys == ["barack obama"]


def test_a_complex_question_probes_each_key_once_across_walk(online, monkeypatch):
    keys = _record_lookups(monkeypatch)
    record = online.answer_record("When was Barack Obama's wife born?")
    assert record["answer"] == "1964"
    assert len(record["steps"]) == 2
    # the walk of the whole question probes its one key; the walk of the
    # window "when was $e born" frames reads the same hit, and the second
    # step probes nothing
    assert keys == ["barack obama"]


def test_the_pattern_frames_are_built_once_on_the_first_search(online):
    # neither set-up nor a primitive question pays for them
    patterns = online.decomposer.patterns
    online.answer_record("When was Barack Obama born?")
    assert "frames" not in vars(patterns)
    online.answer_record("When was Barack Obama's wife born?")
    frames = vars(patterns)["frames"]
    online.answer_record("When was Barack Obama's wife born?")
    assert vars(patterns)["frames"] is frames


def test_answer_record_walks_each_window_once(online, monkeypatch):
    windows = []
    mentions = MentionTable.mentions

    def counting(self, *args):
        windows.append(args)
        return mentions(self, *args)

    monkeypatch.setattr(MentionTable, "mentions", counting)
    assert online.answer_record("When was Barack Obama born?")["answer"] == "1961"
    # the root cell's walk, which the direct answer reuses
    assert windows == [(0, 5)]
    windows.clear()
    record = online.answer_record("When was Barack Obama's wife born?")
    assert record["answer"] == "1964"
    # every cell once, the head's among them, and no walk of the second
    # step, whose mention is the head's answer
    assert (2, 5) in windows and all(len(window) == 2 for window in windows)
    assert len(set(windows)) == len(windows)


def _record_calls(monkeypatch, owner, name: str) -> list:
    """The token tuples ``owner.name`` is called with, from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(self, tokens, *args, **kwargs):
        calls.append(tuple(tokens))
        return original(self, tokens, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_primitive_question_derives_concepts_once_per_mention(online, monkeypatch):
    calls = _record_calls(monkeypatch, ConceptGraph, "question_concepts")
    assert online.answer_record("When was Barack Obama born?")["answer"] == "1961"
    assert calls == [tokenize("When was Barack Obama born?")]


def test_chain_head_is_walked_once(online, monkeypatch):
    calls = _record_calls(monkeypatch, AnswerEngine, "supported_templates")
    record = online.answer_record("When was Barack Obama's wife born?")
    assert record["answer"] == "1964"
    assert calls.count(tokenize("barack obama's wife")) == 1
    assert calls.count(tokenize("when was michelle obama born")) == 1


def test_question_with_two_mention_spans_carries_no_walk(online, monkeypatch):
    tokens = tokenize("Who is Barack Obama and Michelle Obama?")
    model = PredicateModel({
        "who is $person and michelle obama": {("dob",): 1.0},
        "who is barack obama and $person": {("dob",): 1.0},
    })
    monkeypatch.setattr(online.engine, "model", model)
    decomposition = online.decomposer.decompose(tokens)
    assert (decomposition.sequence, decomposition.score) == ([tokens], 0.0)
    assert decomposition.walk is None
    record = online.answer_record("Who is Barack Obama and Michelle Obama?")
    # as answered with no walk handed in: walked in place
    dist = answer(online.engine, tokens)
    assert dist.entries == pytest.approx({"1961": 1 / 3, "1964": 2 / 3})
    assert (record["answer"], record["probability"]) == dist.top()
    assert record["trace"]["entity"] == dist.traces[record["answer"]].entity


def test_online_unparseable_question(online):
    record = online.answer_record("when was the moon made")
    assert record["answer"] is None
    assert record["reason"] == "no entity"


def test_online_latency_under_50ms(online):
    online.answer_record("When was Barack Obama born?")  # warm caches
    best = min(
        _timed(online.answer_record, "When was Barack Obama born?") for _ in range(5)
    )
    assert best < 0.05


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_online_missing_artifacts_listed(tmp_path):
    config = make_config(tmp_path)
    with pytest.raises(ConfigError, match="toy.index") as excinfo:
        OnlineSession(config)
    assert "toy.index.kb" in str(excinfo.value)
    assert "toy.model.patterns.tsv" in str(excinfo.value)
    assert "toy.model.concepts" in str(excinfo.value)
    run_offline(config)
    patterns_path(config.model).unlink()
    with pytest.raises(ConfigError, match=r"first\): \S*toy\.model\.patterns\.tsv$"):
        OnlineSession(config)


def test_decompose_record(online):
    record = online.decompose_record("When was Barack Obama's wife born?")
    assert record["sequence"] == ["barack obama's wife", "when was $e born"]
    assert record["score"] == 1.0
    assert record["primitive_flags"] == [True, False]


def test_decompose_record_over_length(online):
    record = online.decompose_record(" ".join(f"w{i}" for i in range(30)))
    assert record["sequence"] == []
    assert "23" in record["reason"]


def test_answer_record_over_length(online):
    record = online.answer_record(" ".join(f"w{i}" for i in range(30)))
    assert record["answer"] is None
    assert "23" in record["reason"]


def test_length_limit_applies_only_to_non_primitive_questions(tmp_path):
    config = make_config(tmp_path, max_question_len=3)
    run_offline(config)
    session = OnlineSession(config)
    assert session.answer_record("When was Barack Obama born?")["answer"] == "1961"
    assert session.decompose_record("When was Barack Obama born?") == {
        "question": "When was Barack Obama born?",
        "sequence": ["when was barack obama born"],
        "score": 1.0,
        "primitive_flags": [True],
    }
    too_long = "question has 6 tokens, limit is 3"
    assert session.answer_record("When was Barack Obama's wife born?")["reason"] == too_long
    assert session.decompose_record("When was Barack Obama's wife born?")["reason"] == too_long


def test_too_long_questions_are_probed_no_further_than_their_walk(tmp_path, monkeypatch):
    config = make_config(tmp_path, max_question_len=3)
    run_offline(config)
    session = OnlineSession(config)
    keys = _record_lookups(monkeypatch)
    # primitive: answered from the walk of the whole question
    assert session.answer_record("When was Barack Obama born?")["answer"] == "1961"
    assert keys == ["barack obama"]
    keys.clear()
    # not primitive: refused before the spans the walk left are probed
    with pytest.raises(QuestionTooLongError, match="6 tokens, limit is 3"):
        session.decomposer.decompose(tokenize("When was Barack Obama's wife born?"))
    assert keys == ["barack obama"]


# ---------------------------------------------------------------------------
# config file


def test_load_config_resolves_relative_paths(tmp_path):
    for name in ("toy_kb.tsv", "entities.tsv", "isa.tsv", "corpus.jsonl",
                 "predicate_categories.tsv", "fixture_overrides.tsv", "pipeline.cfg"):
        shutil.copyfile(DATA / name, tmp_path / name)
    config = load_config(tmp_path / "pipeline.cfg")
    assert config.kb == tmp_path / "toy_kb.tsv"
    assert config.index == tmp_path / "out" / "toy.index"
    assert config.k == 3
    assert config.name_restriction is True
    assert config.em_epsilon == 1e-6


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    with pytest.raises(ConfigError, match="unknown setting"):
        load_config(bad)


def test_load_config_rejects_malformed_values(tmp_path):
    bad = tmp_path / "bad.cfg"
    for line in ("k = abc", "em-epsilon = small", "name-restriction = maybe",
                 "name-restriction = auto"):
        bad.write_text(f"# settings\n{line}\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: bad value for"):
            load_config(bad)


def test_load_config_overrides_win(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 3\n")
    assert load_config(cfg, {"k": 2}).k == 2


# per annotation, a config-file value and what it parses to; on the command
# line a bool is given as --no-x and any other type as --x <value>
SETTING_SAMPLES = {
    "Path | None": (str(DATA.resolve() / "x.tsv"), DATA.resolve() / "x.tsv"),
    "int": ("7", 7),
    "float": ("0.5", 0.5),
    "str": ("label", "label"),
    "bool": ("off", False),
}


@pytest.mark.parametrize("setting", fields(PipelineConfig), ids=lambda f: f.name)
def test_config_key_and_cli_flag_parse_alike(tmp_path, setting):
    key = setting.name.replace("_", "-")
    text, expected = SETTING_SAMPLES[setting.type]
    assert getattr(PipelineConfig(), setting.name) != expected
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert getattr(load_config(cfg), setting.name) == expected
    flags = [f"--no-{key}"] if expected is False else [f"--{key}", text]
    args = build_parser().parse_args(["answer", *flags, "q"])
    assert getattr(args, setting.name) == expected


@pytest.mark.parametrize("setting", ["refine", "max-mention-span", "max-value-span"])
def test_settings_the_inputs_decide_are_refused(tmp_path, capsys, caplog, setting):
    """Refinement follows from the predicate categories, and the span
    bounds from the index's longest key and the KB's longest node text."""
    assert setting.replace("-", "_") not in SETTINGS
    flags = [f"--{setting}", f"--{setting}=1", f"--no-{setting}"]
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["pipeline", flag])
        assert exc.value.code == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{setting} = 1\n")
    code, _ = run_cli(["pipeline", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"c.cfg:1: unknown setting {setting.replace('-', '_')!r}" in caplog.text


# ---------------------------------------------------------------------------
# CLI


def run_cli(args: list[str], capsys) -> tuple[int, list[dict]]:
    code = main(args)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, records


def cli_flags(config: PipelineConfig) -> list[str]:
    return [
        "--kb", str(config.kb),
        "--entities", str(config.entities),
        "--isa", str(config.isa),
        "--corpus", str(config.corpus),
        "--predicate-categories", str(config.predicate_categories),
        "--fixture-overrides", str(config.fixture_overrides),
        "--index", str(config.index),
        "--expansion", str(config.expansion),
        "--model", str(config.model),
        "--report", str(config.report),
    ]


def test_cli_pipeline_then_answer(tmp_path, capsys):
    config = make_config(tmp_path)
    code, records = run_cli(["pipeline", *cli_flags(config)], capsys)
    assert code == 0
    assert records[0]["observations"] == 3

    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    code, records = run_cli(
        ["answer", *cli_flags(config), "When was Barack Obama born?",
         "When was Barack Obama's wife born?"],
        capsys,
    )
    assert code == 0
    assert records[0]["answer"] == "1961"
    assert records[1]["answer"] == "1964"


def test_cli_answer_unanswerable_exit_code(tmp_path, capsys):
    config = make_config(tmp_path)
    run_offline(config)
    code, records = run_cli(["answer", *cli_flags(config), "when was the moon made"], capsys)
    assert code == 4
    assert records[0]["answer"] is None


def test_cli_context_weight_cancelling_every_concept_answers_without_a_traceback(tmp_path):
    """``person<TAB>died<TAB>-1`` zeroes the only concept of Michelle Obama
    in a question holding "died": the question falls back to the universal
    concept and gets an answer or a reason, never a crash."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    (data / "cancel.tsv").write_text("person\tdied\t-1\n", encoding="utf-8")
    with open(data / "pipeline.cfg", "a", encoding="utf-8") as fp:
        fp.write("context-weights = cancel.tsv\n")
    proc = _module_cli("pipeline", "--config", str(data / "pipeline.cfg"))
    assert proc.returncode == 0, proc.stderr
    proc = _module_cli("answer", "--config", str(data / "pipeline.cfg"),
                       "When did Michelle Obama died?")
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 4), proc.stderr
    record = json.loads(proc.stdout)
    assert record["answer"] is not None or record["reason"]


def test_cli_config_error_exit_code(capsys):
    code, _ = run_cli(["pipeline", "--kb", "/nonexistent/kb.tsv"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--k=0", "k must be >= 1, got 0"),
        ("--em-max-iters=0", "em_max_iters must be >= 1, got 0"),
        ("--em-epsilon=-1", "em_epsilon must be >= 0, got -1.0"),
        ("--em-epsilon=nan", "em_epsilon must be >= 0, got nan"),
        ("--max-question-len=0", "max_question_len must be >= 1, got 0"),
        ("--name-symbol=", "name_symbol must be non-empty"),
    ],
)
def test_cli_knob_out_of_range_exits_2_before_any_stage(tmp_path, flag, message):
    """Given as a flag or as the same key in the config file."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    bad = data / "bad.cfg"
    key, _, value = flag[2:].partition("=")
    bad.write_text((data / "pipeline.cfg").read_text() + f"\n{key} = {value}\n")
    for command in ("pipeline", "answer"):
        for args in (("--config", str(data / "pipeline.cfg"), flag), ("--config", str(bad))):
            proc = _cli_with_input(command, *args)
            assert proc.returncode == 2, (command, args, proc.stderr)
            assert "Traceback" not in proc.stderr, (command, args)
            assert message in proc.stderr, (command, args, proc.stderr)
    assert not (data / "out").exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("pipeline", ["--expansion", "out/X", "--report", "out/X"],
         "expansion and report resolve to one file"),
        ("pipeline", ["--index", "out/m.tsv", "--model", "out/m.tsv"],
         "index and model resolve to one file"),
        ("pipeline", ["--report", "corpus.jsonl"], "corpus and report resolve to one file"),
        ("pipeline", ["--index", "out/toy.model.concepts"],
         "index and the concept file of model resolve to one file"),
        ("build-index", ["--index", "toy_kb.tsv"], "kb and index resolve to one file"),
        ("answer", ["--index", "out/toy.model.tsv"], "index and model resolve to one file"),
        ("pipeline", ["--report", "pipeline.cfg"], "the config file and report resolve to one file"),
        ("pipeline", ["--model", "pipeline.cfg"], "the config file and model resolve to one file"),
        ("expand", ["--expansion", "pipeline.cfg"],
         "the config file and expansion resolve to one file"),
        ("build-index", ["--index", "pipeline.cfg"], "the config file and index resolve to one file"),
        ("pipeline", ["--report", "pipeline.cfg/x"],
         "report lies under a file that is not a directory"),
        ("build-index", ["--index", "toy_kb.tsv/idx"],
         "index lies under a file that is not a directory"),
        ("expand", ["--expansion", "pipeline.cfg/a/b.tsv"],
         "expansion lies under a file that is not a directory"),
    ],
    ids=["expansion-is-report", "index-is-model", "report-is-corpus", "index-is-concepts",
         "index-is-kb", "online-index-is-model", "report-is-config", "model-is-config",
         "expansion-is-config", "index-is-config", "report-under-config", "index-under-kb",
         "expansion-two-below-config"],
)
def test_cli_shared_artifact_path_exits_2_before_any_stage(built_data, command, flags,
                                                           message):
    _assert_refused_before_any_stage(built_data, command, flags, message)


@pytest.mark.parametrize(
    "command, flags, directory, message",
    [
        ("pipeline", ["--report", "out"], "out", "report names a directory"),
        ("build-index", ["--index", "out"], "out", "index names a directory"),
        ("expand", ["--expansion", "out"], "out", "expansion names a directory"),
        ("pipeline", ["--observations", "out/obs"], "out/obs",
         "observations names a directory"),
        ("build-index", ["--index", "out/i"], "out/i.kb",
         "the KB store of index names a directory"),
        ("pipeline", ["--model", "out/m.tsv"], "out/m.patterns.tsv",
         "the pattern file of model names a directory"),
        ("pipeline", ["--model", "out/m.tsv"], "out/m.concepts",
         "the concept file of model names a directory"),
    ],
    ids=["report", "index", "expansion", "observations", "kb-store", "pattern-file",
         "concept-file"],
)
def test_cli_artifact_path_naming_a_directory_exits_2_before_any_stage(
    built_data, command, flags, directory, message
):
    (built_data / directory).mkdir(exist_ok=True)
    _assert_refused_before_any_stage(built_data, command, flags, message)


def _assert_refused_before_any_stage(data: Path, command: str, flags: list[str],
                                     message: str) -> None:
    """The command exits 2 with ``message`` and changes no file under ``data``."""
    before = {path: path.read_bytes() for path in data.rglob("*") if path.is_file()}
    flags = [flag if flag.startswith("--") else str(data / flag) for flag in flags]
    proc = _cli_with_input(command, "--config", str(data / "pipeline.cfg"), *flags)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    after = {path: path.read_bytes() for path in data.rglob("*") if path.is_file()}
    assert after == before


def test_cli_stage_failure_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"question": "nothing known", "answer": "nope"}\n')
    config = make_config(tmp_path, corpus=empty)
    code, _ = run_cli(["pipeline", *cli_flags(config)], capsys)
    assert code == 3


def test_cli_empty_corpus_expands_nothing_and_fails_the_pipeline(tmp_path, capsys, caplog):
    """A corpus of no line: ``expand`` probes no question and writes an
    empty expansion, while the whole pipeline, which needs the corpus
    counts, fails in its expand stage and leaves no file behind."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    config = make_config(tmp_path, corpus=empty)
    code, records = run_cli(["expand", *cli_flags(config)], capsys)
    assert (code, records[0]["seeds"], records[0]["paths"]) == (0, 0, 0)
    assert config.expansion.read_text() == ""
    shutil.rmtree(config.index.parent)
    code, records = run_cli(["pipeline", *cli_flags(config)], capsys)
    assert (code, records) == (3, [])
    assert "stage 'expand' failed: empty corpus" in caplog.text
    assert not list(config.index.parent.iterdir())


def test_cli_decompose(tmp_path, capsys):
    config = make_config(tmp_path)
    run_offline(config)
    shutil.copyfile(DATA / "model_fixture.tsv", config.model)
    code, records = run_cli(
        ["decompose", *cli_flags(config), "When was Barack Obama's wife born?"], capsys
    )
    assert code == 0
    assert records[0]["sequence"] == ["barack obama's wife", "when was $e born"]


def test_cli_build_index_and_expand(tmp_path, capsys):
    config = make_config(tmp_path)
    code, records = run_cli(["build-index", *cli_flags(config)], capsys)
    assert code == 0
    assert config.index.is_file()
    assert store_path(config.index) == config.index.with_name("toy.index.kb")
    assert store_path(config.index).is_file()
    code, records = run_cli(["expand", *cli_flags(config)], capsys)
    assert code == 0
    assert records[0]["paths"] > 0


def test_cli_repl(tmp_path, capsys, monkeypatch):
    import io

    config = make_config(tmp_path)
    run_offline(config)
    monkeypatch.setattr(sys, "stdin", io.StringIO("When was Barack Obama born?\n\n"))
    code, records = run_cli(["repl", *cli_flags(config)], capsys)
    assert code == 0
    assert len(records) == 1
    assert records[0]["answer"] == "1961"


@pytest.mark.parametrize("command, code", [("repl", 0), ("answer", 4), ("decompose", 0)])
def test_cli_question_with_a_byte_that_is_not_utf8_gets_its_record(tmp_path, capsys,
                                                                    monkeypatch, command, code):
    """The interpreter decodes argv and stdin with ``surrogateescape``, so
    such a byte reaches the question as a lone surrogate: it is probed like
    any other token and names no entity."""
    import io

    config = make_config(tmp_path)
    run_offline(config)
    questions = ["When was Barack Obama born?", "\udcff bad", "when was barack\udcff obama born"]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(q + "\n" for q in questions)))
    args = [] if command == "repl" else questions
    exit_code, records = run_cli([command, *cli_flags(config), *args], capsys)
    assert exit_code == code
    assert [record["question"] for record in records] == questions
    if command != "decompose":
        assert [record["answer"] for record in records] == ["1961", None, None]
        assert [record["reason"] for record in records[1:]] == ["no entity", "no entity"]


def test_cli_repl_reads_a_byte_that_is_not_utf8_whatever_the_locale(built_data):
    """Where the locale would decode stdin strictly, as a UTF-8 locale other
    than C.UTF-8 does, the repl still reads such a byte as a surrogate."""
    proc = subprocess.run(
        [sys.executable, "-m", "factqa", "repl", "--config", str(built_data / "pipeline.cfg")],
        input=b"When was Barack Obama born?\n\xff bad\nwho is obama\n", capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [record["question"] for record in records] == [
        "When was Barack Obama born?", "\udcff bad", "who is obama"
    ]


def test_cli_config_that_is_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"index = x\xff\n")
    proc = _module_cli("answer", "--config", str(bad), "When was Barack Obama born?")
    assert proc.returncode == 2
    assert f"cannot read config {bad}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["repl", "answer"])
def test_cli_closed_stdout_ends_quietly_with_0(built_data, tmp_path, command):
    """The reader takes one record and closes the pipe; records far beyond
    a pipe buffer are still to come."""
    question = "When was Barack Obama born?"
    stdin = tmp_path / "questions.txt"
    stdin.write_text(f"{question}\n" * 3000)
    args = [question] * 3000 if command == "answer" else []
    with open(stdin) as fp:
        proc = subprocess.Popen(
            [sys.executable, "-m", "factqa", command, "--config",
             str(built_data / "pipeline.cfg"), *args],
            stdin=fp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert json.loads(first)["answer"] == "1961"
    assert code == 0, stderr
    assert "Traceback" not in stderr and "Broken pipe" not in stderr


def test_cli_module_entrypoint(tmp_path):
    config = make_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "factqa", "pipeline", *cli_flags(config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["observations"] == 3


@pytest.fixture()
def built_data(tmp_path) -> Path:
    """A copy of the toy data with the offline flow run on it."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    proc = _module_cli("pipeline", "--config", str(data / "pipeline.cfg"))
    assert proc.returncode == 0, proc.stderr
    return data


def _module_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "factqa", *args], capture_output=True, text=True
    )


# the head of a binary artifact, magic, version and seal, and the message
# of one whose seal does not match
_HEAD = 7 + 4 + 32
_SEAL = "sha256 seal mismatch: the {} was changed or cut after it was written"


def test_cli_truncated_index_exits_2_naming_the_file(built_data):
    index = built_data / "out" / "toy.index"
    index.write_bytes(index.read_bytes()[:50])
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{index}: {_SEAL.format('index')}: rerun the offline flow" in proc.stderr


def test_cli_version_1_index_exits_2_naming_the_version(built_data):
    index = built_data / "out" / "toy.index"
    body = index.read_bytes()[_HEAD + 8 * 4:]
    # header of the layout written before the single key hash: two seed
    # fields between the version and the counts
    header = struct.pack("<7sIQQ", b"SHA1DX\x00", 1, 0x5851F42D4C957F2D, 0x14057B7EF767814F)
    index.write_bytes(header + body)
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(index) in proc.stderr
    assert "index format version 1, expected 7: rerun the offline flow" in proc.stderr


def test_kb_edit_after_training_keeps_the_trained_answer(built_data):
    """Online answers come from the KB store the offline run wrote, whose
    node ids are the index payloads, so a KB edit cannot shift them."""
    with open(built_data / "toy_kb.tsv", "a", encoding="utf-8") as fp:
        fp.write("AAA\tdob\t1900\n")
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["answer"] == "1961"


def test_isa_edit_after_training_keeps_the_trained_answer(built_data):
    """Online answers use the concept graph the model was trained with,
    from the concept file the offline run wrote beside the model."""
    config = str(built_data / "pipeline.cfg")
    before = _module_cli("answer", "--config", config, "When was Michelle Obama born?")
    assert before.returncode == 0, before.stderr
    assert json.loads(before.stdout)["answer"] == "1964"
    isa = built_data / "isa.tsv"
    rows = isa.read_text(encoding="utf-8")
    assert "MichelleObama\tperson\t1\n" in rows
    # read online, this would leave no template with a model row
    isa.write_text(rows.replace("MichelleObama\tperson\t1\n", "MichelleObama\tcity\t1\n"),
                   encoding="utf-8")
    after = _module_cli("answer", "--config", config, "When was Michelle Obama born?")
    assert after.returncode == 0, after.stderr
    assert after.stdout == before.stdout


def test_online_commands_read_no_kb_or_dictionary(built_data):
    shutil.copyfile(DATA / "model_fixture.tsv", built_data / "out" / "toy.model.tsv")
    config = str(built_data / "pipeline.cfg")
    questions = ["When was Barack Obama born?", "When was Barack Obama's wife born?"]
    before = [_module_cli(command, "--config", config, *questions)
              for command in ("answer", "decompose")]
    for name in ("toy_kb.tsv", "entities.tsv", "isa.tsv", "context_weights.tsv",
                 "fixture_overrides.tsv"):
        (built_data / name).unlink()
    after = [_module_cli(command, "--config", config, *questions)
             for command in ("answer", "decompose")]
    for old, new in zip(before, after):
        assert new.returncode == old.returncode == 0, new.stderr
        assert new.stdout == old.stdout
    # the chain substitutes the canonical surface the store carries
    assert json.loads(after[0].stdout.splitlines()[1])["steps"][1]["question"] == (
        "when was michelle obama born"
    )


# magic, version, seal, then the store's own header fields
_STORE_HEADER = struct.Struct("<7sI32sQQQQQQQ")
_STORE_SECTIONS = ("node table", "predicate table", "offsets", "edge predicates",
                   "edge objects", "surface ids", "surface table")


def _store_sections(blob: bytes) -> dict[str, tuple[int, int]]:
    """(start, end) of each section of a KB store."""
    _, _, _, nodes, _, edges, surfaces, node_bytes, predicate_bytes, surface_bytes = (
        _STORE_HEADER.unpack_from(blob))
    sizes = (node_bytes, predicate_bytes, (nodes + 1) * 4, edges * 4, edges * 4, surfaces * 4,
             surface_bytes)
    out, pos = {}, _STORE_HEADER.size
    for name, size in zip(_STORE_SECTIONS, sizes):
        out[name] = (pos, pos + size)
        pos += size
    assert pos == len(blob)
    return out


def _truncated_in(section: str, sections=_store_sections):
    def rewrite(blob: bytes) -> bytes:
        start, end = sections(blob)[section]
        assert end - start >= 2
        return blob[: (start + end) // 2]
    return rewrite


def _packed_at(section: str, index: int, value, fmt: str = "<I", sections=_store_sections):
    """The file with item ``index`` of ``section`` packed anew as ``value``."""
    def rewrite(blob: bytes) -> bytes:
        pos = sections(blob)[section][0] + struct.calcsize(fmt) * index
        return blob[:pos] + struct.pack(fmt, value) + blob[pos + struct.calcsize(fmt):]
    return rewrite


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda blob: b"NOTAKB\x00" + blob[7:], "bad magic"),
        (lambda blob: blob[:7] + struct.pack("<I", 1) + blob[11:],
         "KB store format version 1, expected 2"),
        (lambda blob: blob[:40], "truncated header"),
        *[(_truncated_in(name), _SEAL.format("KB store")) for name in _STORE_SECTIONS],
        (lambda blob: blob + b"\x00", _SEAL.format("KB store")),
        # the toy KB has 10 nodes, 6 predicates and 9 edges: ids out of range
        (_packed_at("edge objects", 0, 10), _SEAL.format("KB store")),
        (_packed_at("edge predicates", 3, 6), _SEAL.format("KB store")),
        (_packed_at("offsets", 1, 9), _SEAL.format("KB store")),
        (_packed_at("surface ids", 0, 17), _SEAL.format("KB store")),
        (None, "missing artifacts (run the offline flow first)"),
    ],
    ids=["bad-magic", "version-1", "truncated-header",
         *[f"truncated-{name.replace(' ', '-')}" for name in _STORE_SECTIONS],
         "trailing-byte", "object-id-out-of-range", "predicate-id-out-of-range",
         "offsets-not-monotone", "surface-id-out-of-range", "missing"],
)
def test_cli_refused_kb_store_exits_2(built_data, rewrite, message):
    store = built_data / "out" / "toy.index.kb"
    if rewrite is None:
        store.unlink()
    else:
        store.write_bytes(rewrite(store.read_bytes()))
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(store) in proc.stderr
    assert message in proc.stderr
    if rewrite is not None:
        assert f"{message}: rerun the offline flow" in proc.stderr


# magic, version, seal, then the concept file's own header fields
_CONCEPTS_HEADER = struct.Struct("<7sI32s11Q")
_CONCEPT_SECTIONS = ("entity table", "concept table", "offsets", "concept ids", "isA weights",
                     "context concepts", "context tokens", "context weights",
                     "override questions", "override concepts", "override probabilities")
# the name tables, each with its byte length's position among the header fields
_CONCEPT_TABLES = {"entity table": 5, "concept table": 6, "context concepts": 7,
                   "context tokens": 8, "override questions": 9, "override concepts": 10}


def _concept_sections(blob: bytes) -> dict[str, tuple[int, int]]:
    """(start, end) of each section of a concept file."""
    fields = _CONCEPTS_HEADER.unpack_from(blob)[3:]
    entities, _, edges, context, overrides = fields[:5]
    tables = iter(fields[5:])
    sizes = (next(tables), next(tables), (entities + 1) * 4, edges * 4, edges * 8,
             next(tables), next(tables), context * 8, next(tables), next(tables), overrides * 8)
    out, pos = {}, _CONCEPTS_HEADER.size
    for name, size in zip(_CONCEPT_SECTIONS, sizes):
        out[name] = (pos, pos + size)
        pos += size
    assert pos == len(blob)
    return out


def _concepts_table(section: str, table: bytes):
    """The file with the name table ``section`` replaced by ``table``, its
    byte length in the header to match."""
    def rewrite(blob: bytes) -> bytes:
        start, end = _concept_sections(blob)[section]
        fields = list(_CONCEPTS_HEADER.unpack_from(blob))
        fields[3 + _CONCEPT_TABLES[section]] = len(table)
        return _CONCEPTS_HEADER.pack(*fields) + blob[_CONCEPTS_HEADER.size:start] + table + (
            blob[end:])
    return rewrite


@pytest.fixture(scope="module")
def built_with_context_weights(tmp_path_factory) -> Path:
    """The toy data trained with context weights too, so that every section
    of its concept file holds something."""
    data = tmp_path_factory.mktemp("context") / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    with open(data / "pipeline.cfg", "a", encoding="utf-8") as fp:
        fp.write("context-weights = context_weights.tsv\n")
    proc = _module_cli("pipeline", "--config", str(data / "pipeline.cfg"))
    assert proc.returncode == 0, proc.stderr
    return data


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (lambda blob: b"NOTCON\x00" + blob[7:], "bad magic"),
        (lambda blob: blob[:7] + struct.pack("<I", 1) + blob[11:],
         "concept file format version 1, expected 2"),
        (lambda blob: blob[:40], "truncated header"),
        *[(_truncated_in(name, _concept_sections), _SEAL.format("concept file"))
          for name in _CONCEPT_SECTIONS],
        (lambda blob: blob + b"\x00", _SEAL.format("concept file")),
        # the toy isA has 3 entities, 3 concepts and 4 edges: an id and an
        # offset out of range
        (_packed_at("concept ids", 0, 3, sections=_concept_sections),
         _SEAL.format("concept file")),
        (_packed_at("offsets", 1, 4, sections=_concept_sections), _SEAL.format("concept file")),
        *[(_packed_at("isA weights", 1, weight, "<d", _concept_sections),
           _SEAL.format("concept file"))
          for weight in (0.0, -5.0, math.nan, math.inf)],
        # BarackObama's two weights, each finite, sum past the float range
        (lambda blob: _packed_at("isA weights", 0, 1e308, "<d", _concept_sections)(
            _packed_at("isA weights", 1, 1e308, "<d", _concept_sections)(blob)),
         _SEAL.format("concept file")),
        (_concepts_table("entity table", b"Honolulu\nBarackObama\nMichelleObama\n"),
         _SEAL.format("concept file")),
        (_concepts_table("concept table", b"city\ncity\npolitician\n"),
         _SEAL.format("concept file")),
        (_concepts_table("concept table", b"city\npers\xffn\npolitician\n"),
         _SEAL.format("concept file")),
        (_concepts_table("override concepts", b"person\nperson\n"),
         _SEAL.format("concept file")),
        (None, "missing artifacts (run the offline flow first)"),
    ],
    ids=["bad-magic", "version-1", "truncated-header",
         *[f"truncated-{name.replace(' ', '-')}" for name in _CONCEPT_SECTIONS],
         "trailing-byte", "concept-id-out-of-range", "offsets-not-monotone", "weight-zero",
         "weight-negative", "weight-nan", "weight-inf", "weights-overflow-an-entity",
         "entities-unsorted",
         "concepts-repeated", "concepts-utf8", "override-concepts-repeated", "missing"],
)
def test_cli_refused_concept_file_exits_2(built_with_context_weights, tmp_path, rewrite,
                                          message):
    data = tmp_path / "data"
    shutil.copytree(built_with_context_weights, data)
    concepts = data / "out" / "toy.model.concepts"
    if rewrite is None:
        concepts.unlink()
    else:
        concepts.write_bytes(rewrite(concepts.read_bytes()))
    proc = _module_cli("answer", "--config", str(data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(concepts) in proc.stderr
    assert message in proc.stderr
    if rewrite is not None:
        assert f"{message}: rerun the offline flow" in proc.stderr


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, 1.5, 1e308])
@pytest.mark.parametrize("section", ["context weights", "override probabilities"])
def test_cli_concept_file_value_no_reader_gives_exits_2(built_with_context_weights, tmp_path,
                                                         section, value):
    """A context weight or an override probability rewritten in the concept
    file, whether or not the readers would take it, breaks the seal."""
    data = tmp_path / "data"
    shutil.copytree(built_with_context_weights, data)
    concepts = data / "out" / "toy.model.concepts"
    rewrite = _packed_at(section, 0, value, "<d", _concept_sections)
    concepts.write_bytes(rewrite(concepts.read_bytes()))
    proc = _module_cli("answer", "--config", str(data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert f"{concepts}: {_SEAL.format('concept file')}: rerun the offline flow" in proc.stderr


def _zero_max_words(blob: bytes) -> bytes:
    return blob[: _HEAD + 8 * 2] + struct.pack("<Q", 0) + blob[_HEAD + 8 * 3:]


def _filter_bytes(count: int):
    def rewrite(blob: bytes) -> bytes:
        return blob[: _HEAD + 8 * 3] + struct.pack("<Q", count) + blob[_HEAD + 8 * 4:]
    return rewrite


def _u64_at(offset: int, value: int):
    def rewrite(blob: bytes) -> bytes:
        return blob[:offset] + struct.pack("<Q", value) + blob[offset + 8:]
    return rewrite


# the header fields after the head: bucket count, item count, longest key,
# filter bytes; then the offsets, one per bucket plus one
_BUCKETS, _ITEMS, _OFFSETS = _HEAD, _HEAD + 8, _HEAD + 8 * 4


def _last_offset_past_the_items(blob: bytes) -> bytes:
    buckets, items = struct.unpack_from("<QQ", blob, _BUCKETS)
    return _u64_at(_OFFSETS + 8 * buckets, items + 1)(blob)


def _v2_layout(blob: bytes) -> bytes:
    # the header written before the longest-key field, and no token filter
    filter_bytes = struct.unpack_from("<Q", blob, _HEAD + 8 * 3)[0]
    return struct.pack("<7sIQQ", b"SHA1DX\x00", 2, *struct.unpack_from("<QQ", blob, _HEAD)) + (
        blob[_HEAD + 8 * 4 : -filter_bytes]
    )


def _v3_layout(blob: bytes) -> bytes:
    # the header written before the token filter, and no token filter
    filter_bytes = struct.unpack_from("<Q", blob, _HEAD + 8 * 3)[0]
    return struct.pack("<7sIQQQ", b"SHA1DX\x00", 3, *struct.unpack_from("<QQQ", blob, _HEAD)) + (
        blob[_HEAD + 8 * 4 : -filter_bytes]
    )


def _same_sections_as(version: int):
    # the layouts written before each bucket's pairs were sorted (version
    # 4) and before the two-bit token filter (version 5): the same sections
    def rewrite(blob: bytes) -> bytes:
        return blob[:7] + struct.pack("<I", version) + blob[7 + 4:]
    return rewrite


@pytest.mark.parametrize(
    "rewrite, message",
    [
        (_zero_max_words, _SEAL.format("index")),
        (lambda blob: blob + b"garbage!", _SEAL.format("index")),
        (_v2_layout, "index format version 2, expected 7"),
        (_v3_layout, "index format version 3, expected 7"),
        (_same_sections_as(4), "index format version 4, expected 7"),
        (_same_sections_as(5), "index format version 5, expected 7"),
        (_filter_bytes(0), _SEAL.format("index")),
        (_filter_bytes(3), _SEAL.format("index")),
        (lambda blob: blob[:-1], _SEAL.format("index")),
        (_u64_at(_BUCKETS, 1 << 60), _SEAL.format("index")),
        (_u64_at(_ITEMS, 1 << 59), _SEAL.format("index")),
        (_filter_bytes(1 << 60), _SEAL.format("index")),
        (_u64_at(_BUCKETS, 3), _SEAL.format("index")),
        (_u64_at(_OFFSETS + 8, 1 << 40), _SEAL.format("index")),
        (_last_offset_past_the_items, _SEAL.format("index")),
    ],
    ids=["zero-max-words", "trailing-bytes", "version-2", "version-3", "version-4", "version-5",
         "zero-filter-bytes", "filter-bytes-not-a-power-of-two", "truncated-filter",
         "huge-bucket-count", "huge-item-count", "huge-filter-bytes",
         "bucket-count-not-a-power-of-two", "offsets-fall", "offsets-end-past-the-items"],
)
def test_cli_refused_index_exits_2(built_data, rewrite, message):
    index = built_data / "out" / "toy.index"
    index.write_bytes(rewrite(index.read_bytes()))
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(index) in proc.stderr
    assert f"{message}: rerun the offline flow" in proc.stderr


@pytest.mark.parametrize("prob", ["nan", "-3", "inf", "1.5"])
def test_cli_model_probability_outside_0_1_exits_2(built_data, prob):
    model = built_data / "out" / "toy.model.tsv"
    rows = model.read_text().splitlines(keepends=True)
    assert rows[0].startswith("how many people are there in $city\tpopulation\t")
    rows[0] = f"how many people are there in $city\tpopulation\t{prob}\n"
    model.write_text("".join(rows))
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "How many people are there in Honolulu?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{model}: line 1: probability must be a finite number in [0, 1]" in proc.stderr
    assert "NaN" not in proc.stdout


@pytest.mark.parametrize("name, repeat", [
    ("toy.model.tsv", lambda fields: fields[:2] + ["0.25"]),
    ("toy.model.patterns.tsv", lambda fields: fields[:1] + ["1", "1"]),
], ids=["model", "patterns"])
def test_cli_repeated_tsv_artifact_key_exits_2(built_data, name, repeat):
    """A row with the key of an earlier one, the model's template and path or
    the pattern file's pattern, is refused even with other numbers."""
    artifact = built_data / "out" / name
    rows = artifact.read_text().splitlines(keepends=True)
    rows.append("\t".join(repeat(rows[0].rstrip("\n").split("\t"))) + "\n")
    artifact.write_text("".join(rows))
    proc = _module_cli("answer", "--config", str(built_data / "pipeline.cfg"),
                       "When was Barack Obama born?")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{artifact}: line {len(rows)}: same key as line 1" in proc.stderr
    assert "rerun the offline flow" in proc.stderr


def test_online_unparseable_model_is_a_config_error(tmp_path):
    config = make_config(tmp_path)
    run_offline(config)
    config.model.write_text("just one field\n")
    with pytest.raises(ConfigError, match="toy.model.tsv"):
        OnlineSession(config)


def _cli_with_input(*args: str) -> subprocess.CompletedProcess:
    question = ["When was Barack Obama born?"] if args[0] in ("answer", "decompose") else []
    return subprocess.run(
        [sys.executable, "-m", "factqa", *args, *question],
        input="When was Barack Obama born?\n", capture_output=True, text=True,
    )


def test_cli_malformed_kb_line_exits_3_offline_and_online_reads_the_store(built_data):
    kb = built_data / "toy_kb.tsv"
    with open(kb, "a", encoding="utf-8") as fp:
        fp.write("BarackObama\tdob\n")
    config = str(built_data / "pipeline.cfg")
    for command in ("build-index", "expand", "pipeline"):
        proc = _cli_with_input(command, "--config", config)
        assert proc.returncode == 3, (command, proc.stderr)
        assert "Traceback" not in proc.stderr, command
        assert f"{kb}: line 11: expected 3 tab-separated fields, got 2" in proc.stderr, command
    for command in ("answer", "decompose", "repl"):
        proc = _cli_with_input(command, "--config", config)
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stderr == "", command


def test_cli_two_field_isa_row_exits_3_offline_and_online_answers_as_trained(built_data):
    isa = built_data / "isa.tsv"
    config = str(built_data / "pipeline.cfg")
    before = _cli_with_input("answer", "--config", config)
    assert before.returncode == 0, before.stderr
    with open(isa, "a", encoding="utf-8") as fp:
        fp.write("BarackObama\tpolitician\n")
    proc = _cli_with_input("pipeline", "--config", config)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{isa}: line 5: expected 3 tab-separated fields, got 2" in proc.stderr
    # the online commands read the concept file, not the isA file
    proc = _cli_with_input("answer", "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == (before.stdout, "")


@pytest.mark.parametrize(
    "name, row, message, commands",
    [
        ("isa.tsv", "BarackObama\tperson\tabc",
         "could not convert string to float: 'abc'", [("answer", 0), ("pipeline", 3)]),
        ("context_weights.tsv", "person\tborn\tabc",
         "could not convert string to float: 'abc'", [("answer", 0), ("pipeline", 3)]),
        ("fixture_overrides.tsv", "when was barack obama born\tperson\tabc",
         "could not convert string to float: 'abc'", [("answer", 0), ("pipeline", 3)]),
        ("predicate_categories.tsv", "dob\tcolour",
         "unknown category 'colour'", [("pipeline", 3)]),
        ("out/toy.model.tsv", "when was $person born\tdob\tabc",
         "could not convert string to float: 'abc'", [("answer", 2)]),
        ("isa.tsv", "Honolulu\tplace\t-1",
         "isA edge weight must be positive, got -1", [("answer", 0), ("pipeline", 3)]),
        ("out/toy.model.patterns.tsv", "who is $e\t3\t2",
         "pattern counts must satisfy 1 <= f_v <= f_o, got f_v=3, f_o=2", [("answer", 2)]),
        ("corpus.jsonl", '{"question": 5, "answer": "x"}',
         "bad record (question and answer must be strings)", [("pipeline", 3)]),
        ("corpus.jsonl", '{"question": "q", "answer": "x", "count": 2.7}',
         "bad record (count must be an integer)", [("pipeline", 3)]),
    ],
    ids=["isa", "context-weights", "overrides", "categories", "model", "isa-weight", "patterns",
         "corpus", "corpus-count"],
)
def test_cli_malformed_field_names_file_and_line(built_data, name, row, message, commands):
    """A malformed input exits 3 offline, naming its file and line; the
    online commands, which read only artifacts, answer as before the edit
    (exit 0), and a malformed artifact exits 2."""
    path = built_data / name
    line = len(path.read_text(encoding="utf-8").splitlines()) + 1
    config = built_data / "pipeline.cfg"
    with open(config, "a", encoding="utf-8") as fp:
        fp.write("context-weights = context_weights.tsv\n")
    before = _cli_with_input("answer", "--config", str(config))
    assert before.returncode == 0, before.stderr
    with open(path, "a", encoding="utf-8") as fp:
        fp.write(row + "\n")
    for command, code in commands:
        proc = _cli_with_input(command, "--config", str(config))
        assert proc.returncode == code, (command, proc.stderr)
        assert "Traceback" not in proc.stderr, command
        if code:
            assert f"{path}: line {line}: {message}" in proc.stderr, (command, proc.stderr)
        else:
            assert (proc.stdout, proc.stderr) == (before.stdout, ""), command


def _strict_json(line: str) -> dict:
    """The record of one JSON line; ``NaN`` and ``Infinity`` are not JSON."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(line, parse_constant=refuse)


def test_cli_isa_weights_that_overflow_an_entity_exit_3_naming_the_line(tmp_path):
    """Two isA weights of 1e308 overflow the sum Michelle Obama's prior
    divides by, and she is in no corpus question, so training would never
    reach her: the pipeline refuses the line that overflows her total."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    isa = data / "isa.tsv"
    line = len(isa.read_text(encoding="utf-8").splitlines()) + 2
    with open(isa, "a", encoding="utf-8") as fp:
        fp.write("MichelleObama\tperson\t1e308\nMichelleObama\tpolitician\t1e308\n")
    proc = _module_cli("pipeline", "--config", str(data / "pipeline.cfg"))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert (f"stage 'load' failed: cannot load {isa}: line {line}: "
            "the isA weights of MichelleObama must sum to a finite number") in proc.stderr
    assert not (data / "out").exists()


@pytest.mark.parametrize("name, row, key", [
    ("context_weights.tsv", "person\tborn\t-2\n", "('person', 'born')"),
    # another spelling of the first row's question tokenizes to the same key
    ("fixture_overrides.tsv", "When was Barack Obama born?\tperson\t0.5\n",
     "('when was barack obama born', 'person')"),
])
def test_cli_repeated_concept_input_row_exits_3_naming_both_lines(tmp_path, name, row, key):
    """A context-weight row that repeats a (concept, token), or an override
    row that repeats a (tokenized question, concept), says one thing twice:
    the pipeline refuses it by file and both lines, and writes nothing."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    path = data / name
    line = len(path.read_text(encoding="utf-8").splitlines()) + 1
    with open(path, "a", encoding="utf-8") as fp:
        fp.write(row)
    config = data / "pipeline.cfg"
    with open(config, "a", encoding="utf-8") as fp:
        fp.write("context-weights = context_weights.tsv\n")
    proc = _module_cli("pipeline", "--config", str(config))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert (f"stage 'load' failed: cannot load {path}: line {line}: "
            f"same key as line 1: {key}") in proc.stderr
    assert not (data / "out").exists()
    assert not list(data.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["expand", "pipeline"])
@pytest.mark.parametrize("bad, message", [
    ("not json", "invalid JSON"),
    ('{"question": "q", "answer": "a", "count": 0}', "count must be >= 1"),
])
def test_cli_bad_corpus_line_fails_the_load_naming_its_line(tmp_path, command, bad, message):
    """The corpus is grouped as it is read, and a bad line still fails the
    load stage before anything is written, naming its file and line."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    corpus = data / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    corpus.write_text("\n".join(lines[:2] + [bad] + lines[2:]) + "\n", encoding="utf-8")
    proc = _module_cli(command, "--config", str(data / "pipeline.cfg"))
    assert proc.returncode == 3, proc.stderr
    assert f"stage 'load' failed: cannot load {corpus}: line 3: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (data / "out").exists()


@pytest.mark.parametrize("text", ["nan", "inf", "-0.5", "1.5", "1e308"])
@pytest.mark.parametrize("name", ["context_weights.tsv", "fixture_overrides.tsv"])
def test_cli_concept_inputs_never_make_a_probability_nan_or_a_traceback(tmp_path, name, text):
    """A context weight that is not finite, or an override probability
    outside [0, 1], exits 3 naming its file and line. Whatever the readers
    take, every answer is strict JSON: two context weights of 1e308
    overflow their sum, and the question falls back to the universal
    concept."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    with open(data / "corpus.jsonl", "a", encoding="utf-8") as fp:
        fp.write('{"question": "When was Michelle Obama born?", "answer": "In 1964."}\n')
    rows = {
        "context_weights.tsv": f"person\tborn\t{text}\nperson\twas\t{text}\n",
        "fixture_overrides.tsv": f"when was barack obama born\tperson\t{text}\n",
    }
    path = data / name
    # the context weights restate the file's one (concept, token) row, and a
    # repeated one is refused, so they replace the file
    kept = "" if name == "context_weights.tsv" else path.read_text(encoding="utf-8")
    path.write_text(kept + rows[name], encoding="utf-8")
    line = len(kept.splitlines()) + 1
    config = data / "pipeline.cfg"
    with open(config, "a", encoding="utf-8") as fp:
        fp.write("context-weights = context_weights.tsv\n")
    proc = _module_cli("pipeline", "--config", str(config))
    assert "Traceback" not in proc.stderr
    value = float(text)
    if not (math.isfinite(value) if name == "context_weights.tsv" else 0 <= value <= 1):
        assert proc.returncode == 3, proc.stderr
        assert f"stage 'load' failed: cannot load {path}: line {line}: " in proc.stderr
        assert not (data / "out").exists()
        return
    assert proc.returncode == 0, proc.stderr
    questions = ["When was Barack Obama born?", "When was Michelle Obama born?"]
    answered = _module_cli("answer", "--config", str(config), *questions)
    repl = subprocess.run([sys.executable, "-m", "factqa", "repl", "--config", str(config)],
                          input="".join(q + "\n" for q in questions), capture_output=True,
                          text=True)
    for proc in (answered, repl):
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        records = list(map(_strict_json, proc.stdout.splitlines()))
        assert [r["answer"] for r in records] == ["1961", "1964"]
        assert all(0 < r["probability"] <= 1 for r in records)


@pytest.mark.parametrize("flag", ["--predicate-categories", "--context-weights",
                                  "--fixture-overrides"])
def test_cli_missing_optional_input_exits_2_before_any_stage(tmp_path, flag):
    """As a missing required input does: no stage runs, no file is written."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data, ignore=shutil.ignore_patterns("out"))
    missing = tmp_path / "missing.tsv"
    proc = _module_cli("pipeline", "--config", str(data / "pipeline.cfg"), flag, str(missing))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"unreadable input files: {missing}" in proc.stderr
    assert "stage" not in proc.stderr
    assert not (data / "out").exists()


def test_online_commands_do_not_read_the_corpus(built_data):
    shutil.copyfile(DATA / "model_fixture.tsv", built_data / "out" / "toy.model.tsv")
    config = str(built_data / "pipeline.cfg")
    questions = ["When was Barack Obama born?", "When was Barack Obama's wife born?",
                 "when was the moon made"]
    before = [_module_cli(command, "--config", config, *questions)
              for command in ("answer", "decompose")]
    (built_data / "corpus.jsonl").unlink()
    after = [_module_cli(command, "--config", config, *questions)
             for command in ("answer", "decompose")]
    for old, new in zip(before, after):
        assert new.returncode == old.returncode, new.stderr
        assert new.stdout == old.stdout
        assert len(new.stdout.splitlines()) == len(questions)
