"""Corpus statistics, entity-value extraction, observation construction."""

from __future__ import annotations

import io
import json
import operator
import random
import string
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factqa.corpus import (
    CorpusStats,
    EntityValueExtractor,
    QaPair,
    corpus_stats,
    kb_mentions,
    load_corpus,
    lookup_tokens,
    probe_corpus,
    question_category,
    tokenize,
)
from factqa import hasharray
from factqa.hasharray import StaticHashArray
from factqa.kb import KnowledgeBase
from factqa.learn import TrainingSet, write_observations
from factqa.pipeline import build_entity_index
from oracles import candidate_values, predicates_between, training_items

Q1 = tokenize("When was Barack Obama born?")
Q3 = tokenize("How many people are there in Honolulu?")
A1 = tokenize("The politician was born in 1961.")
A2 = tokenize("He was born in 1961.")
A3 = tokenize("It's 390K.")


def extract(extractor: EntityValueExtractor, index: StaticHashArray, pair: QaPair,
            refine: bool = True) -> set:
    """``extractor.extract`` given the question's ``kb_mentions`` in
    ``index`` and the answer's ``candidate_values``, as the offline flow
    gives them."""
    mentions = kb_mentions(extractor.kb, index, pair.question)
    return extractor.extract(pair, mentions, extractor.candidate_values(pair.answer), refine)


# ---------------------------------------------------------------------------
# tokenization


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("When was Barack Obama born?") == ("when", "was", "barack", "obama", "born")


def test_tokenize_keeps_digits_and_inner_apostrophes():
    assert tokenize("It's 390K.") == ("it's", "390k")


def test_tokenize_drops_pure_punctuation_tokens():
    assert tokenize("hello -- world !!") == ("hello", "world")


def test_lookup_tokens_strip_possessives():
    assert lookup_tokens(("barack", "obama's", "wife")) == ("barack", "obama", "wife")
    assert lookup_tokens(("obamas'",)) == ("obamas",)


# ---------------------------------------------------------------------------
# question categories


@pytest.mark.parametrize(
    "text,category",
    [
        ("when was barack obama born", "date"),
        ("what year did it happen", "date"),
        ("how many people are there in honolulu", "number"),
        ("how much does it cost", "number"),
        ("who is the wife of barack obama", "person"),
        ("where is honolulu", "location"),
        ("name the capital of france", "description"),
    ],
)
def test_question_category_rules(text, category):
    assert question_category(tokenize(text)) == category


# ---------------------------------------------------------------------------
# corpus loading and statistics


def load_corpus_text(tmp_path, text: str):
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    return load_corpus(path)


def test_load_corpus_merges_duplicates(tmp_path):
    corpus = load_corpus_text(
        tmp_path,
        '{"question": "q one", "answer": "a one"}\n'
        '{"question": "q one", "answer": "a one"}\n'
        '{"question": "q two", "answer": "a two", "count": 3}\n',
    )
    assert corpus.answer_counts == {("q", "one"): {("a", "one"): 2},
                                    ("q", "two"): {("a", "two"): 3}}


def test_load_corpus_rejects_bad_records(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_corpus_text(tmp_path, "not json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus_text(tmp_path, '{"question": "q", "answer": "a"}\n{"question": "q"}\n')
    with pytest.raises(ValueError, match="count"):
        load_corpus_text(tmp_path, '{"question": "q", "answer": "a", "count": 0}\n')
    for count in ("2.7", "true", '"3"'):
        line = f'{{"question": "q", "answer": "a", "count": {count}}}\n'
        with pytest.raises(ValueError, match=r"line 1: bad record \(count must be an integer\)"):
            load_corpus_text(tmp_path, line)


GOOD_LINE = '{"question": "q", "answer": "a"}'


@pytest.mark.parametrize("lines", [
    [GOOD_LINE, GOOD_LINE + GOOD_LINE],
    [GOOD_LINE, GOOD_LINE + ","],
    [GOOD_LINE, GOOD_LINE + " x"],
    ["\ufeff" + GOOD_LINE],
])
def test_load_corpus_refuses_a_line_that_is_not_one_json_value(tmp_path, lines):
    """Trailing data after a whole value, and a first line that starts with
    a byte order mark, are refused with the error text of json.loads."""
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(lines[-1])
    with pytest.raises(ValueError) as got:
        load_corpus_text(tmp_path, "".join(line + "\n" for line in lines))
    assert str(got.value) == f"line {len(lines)}: invalid JSON ({want.value})"


def test_load_predicate_categories_refuses_a_second_row_for_a_predicate(tmp_path):
    from factqa.corpus import load_predicate_categories

    path = tmp_path / "cats.tsv"
    path.write_text("dob\tdate\npopulation\tnumber\ndob\tnumber\n")
    with pytest.raises(ValueError, match="line 3: same key as line 1: \\('dob',\\)"):
        load_predicate_categories(path)


def test_load_predicate_categories_rejects_unknown_category(tmp_path):
    from factqa.corpus import load_predicate_categories

    bad = tmp_path / "cats.tsv"
    bad.write_text("dob\tbirthday\n")
    with pytest.raises(ValueError, match="unknown category"):
        load_predicate_categories(bad)


def test_corpus_stats_toy_fixture(toy_corpus):
    stats = corpus_stats(toy_corpus)
    assert stats.p_q(Q1) == 2 / 3
    assert stats.p_q(Q3) == 1 / 3
    assert stats.p_a(Q1, A1) == 0.5
    assert stats.p_a(Q1, A2) == 0.5
    assert stats.p_a(Q3, A3) == 1.0
    # exact as rationals: the floats come from the same integer divisions
    assert Fraction(2, 3) == Fraction(2) / Fraction(3)


def test_corpus_stats_single_pair():
    stats = corpus_stats([QaPair(("q",), ("a",))])
    assert stats.p_q(("q",)) == 1.0
    assert stats.p_a(("q",), ("a",)) == 1.0


def test_corpus_stats_frequency_equals_repetition():
    merged = corpus_stats([QaPair(("q",), ("a",), 5), QaPair(("r",), ("b",), 1)])
    repeated = corpus_stats([QaPair(("q",), ("a",))] * 5 + [QaPair(("r",), ("b",))])
    assert merged == repeated


def test_corpus_stats_of_an_empty_corpus_are_empty(tmp_path):
    # the offline run refuses an empty corpus at its expand stage
    # (test_pipeline), where the expand command reads one
    assert corpus_stats([]) == load_corpus_text(tmp_path, "\n \n") == CorpusStats({}, {}, 0)


def test_corpus_stats_normalized(toy_stats):
    questions = toy_stats.answer_counts
    assert abs(sum(map(toy_stats.p_q, questions)) - 1.0) < 1e-12
    for q, answers in questions.items():
        assert abs(sum(toy_stats.p_a(q, a) for a in answers) - 1.0) < 1e-12


# texts that repeat, that tokenize alike though they differ, and that are not ASCII
CORPUS_TEXTS = ["When was Ada born?", "when was ada born", "Où est Zoë ?", "日本 の 首都",
                "It's 1815.", "1815", "ÆØÅ!", "?"]
RECORDS = st.lists(st.tuples(st.sampled_from(CORPUS_TEXTS), st.sampled_from(CORPUS_TEXTS),
                             st.one_of(st.none(), st.integers(1, 6))), min_size=1, max_size=25)


def corpus_line(question: str, answer: str, count: int | None, ascii_only: bool) -> str:
    record = {"question": question, "answer": answer}
    if count is not None:
        record["count"] = count
    return json.dumps(record, ensure_ascii=ascii_only)


def stats_of_lines(lines: list[str]):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load_corpus(path)


def probabilities(stats) -> tuple[dict, dict]:
    return ({q: stats.p_q(q) for q in stats.answer_counts},
            {(q, a): stats.p_a(q, a) for q, answers in stats.answer_counts.items()
             for a in answers})


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(records=RECORDS, data=st.data())
def test_corpus_stats_of_a_written_corpus_are_exact_ratios(records, data):
    lines = [corpus_line(*record, data.draw(st.booleans())) for record in records]
    for _ in range(data.draw(st.integers(0, 4))):  # blank and white lines anywhere
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(
            ["", "   ", "\t"])))
    stats = stats_of_lines(lines)
    # the oracle: every line read by json.loads, counts summed as integers
    per_question: dict = {}
    per_pair: dict = {}
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        q, a = tokenize(record["question"]), tokenize(record["answer"])
        n = record.get("count", 1)
        per_question[q] = per_question.get(q, 0) + n
        per_pair.setdefault(q, {})[a] = per_pair.get(q, {}).get(a, 0) + n
    total = sum(per_question.values())
    assert list(stats.answer_counts) == list(per_question)
    assert {q: list(answers) for q, answers in stats.answer_counts.items()} == {
        q: list(answers) for q, answers in per_pair.items()}
    p_q, p_a = probabilities(stats)
    assert p_q == {q: float(Fraction(n, total)) for q, n in per_question.items()}
    assert p_a == {(q, a): float(Fraction(n, per_question[q]))
                   for q, answers in per_pair.items() for a, n in answers.items()}
    # neither the line order nor a count split over two lines changes them
    shuffled = data.draw(st.permutations(lines))
    assert probabilities(stats_of_lines(shuffled)) == (p_q, p_a)
    i = data.draw(st.integers(0, len(records) - 1))
    question, answer, count = records[i]
    if (count or 1) > 1:
        k = data.draw(st.integers(1, count - 1))
        split = [corpus_line(question, answer, k, True), corpus_line(question, answer,
                                                                     count - k, False)]
        rest = [corpus_line(*record, True) for record in records[:i] + records[i + 1:]]
        assert probabilities(stats_of_lines(split + rest)) == (p_q, p_a)


def assert_corpus_tokenized(path: Path) -> None:
    """``load_corpus`` of ``path`` groups each line's question and answer
    as ``tokenize`` gives them, and holds each distinct token as one str
    object."""
    stats = load_corpus(path)
    expected: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            answers = expected.setdefault(tokenize(record["question"]), set())
            answers.add(tokenize(record["answer"]))
    assert {q: set(answers) for q, answers in stats.answer_counts.items()} == expected
    tokens = [token for question, answers in stats.answer_counts.items()
              for tokens in (question, *answers) for token in tokens]
    assert len({id(token) for token in tokens}) == len(set(tokens))


PUNCTUATION = st.text(string.punctuation, max_size=3)
WORDS = st.one_of(
    st.sampled_from(["ada", "Ada", "ADA", "born", "BORN", "où", "Où", "zoë", "ZOË", "æøå", "ÆØÅ",
                     "日本", "1815", "it's", "It's", "obama's", "OBAMA'S", "x"]),
    st.text("aAzZéÉß日'-1", min_size=1, max_size=4),
    st.text(string.punctuation, min_size=1, max_size=3),  # a word of punctuation only
)
TEXTS = st.lists(st.tuples(PUNCTUATION, WORDS, PUNCTUATION).map("".join), max_size=6).flatmap(
    lambda words: st.lists(st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000"]),
                           min_size=len(words), max_size=len(words)).map(
        lambda gaps: "".join(word + gap for word, gap in zip(words, gaps))))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(texts=st.lists(TEXTS, min_size=1, max_size=8), data=st.data())
def test_load_corpus_tokenizes_every_string_as_tokenize_does_and_shares_its_tokens(texts, data):
    """Mixed case, words of punctuation only, punctuation at a word's ends,
    non-ASCII text and lines repeated: the loaded tuples are ``tokenize``
    of each string, and equal tokens, of any string, are one object."""
    pick = st.sampled_from(texts)
    records = data.draw(st.lists(st.tuples(pick, pick, st.one_of(st.none(), st.integers(1, 3))),
                                 min_size=1, max_size=12))
    lines = [corpus_line(*record, data.draw(st.booleans())) for record in records]
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=4))  # repeated lines
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert_corpus_tokenized(path)


def test_tokenize_with_a_word_table_gives_the_table_s_one_object_per_token():
    words: dict[str, str] = {}
    first = tokenize("Ada, born in 1815?", words)
    second = tokenize("ADA (born) IN '1815'", words)
    assert first == second == tokenize("ada born in 1815") == ("ada", "born", "in", "1815")
    assert all(map(operator.is_, first, second))
    assert tokenize("?! ...", words) == ()
    assert words["?!"] == words["..."] == ""


# ---------------------------------------------------------------------------
# extraction


def test_extract_unrefined_obama_pair(toy_extractor, toy_index):
    pair = QaPair(Q1, A1)
    assert extract(toy_extractor, toy_index[0], pair, refine=False) == {
        ("BarackObama", "1961"),
        ("BarackObama", "politician"),
    }


def test_extract_refined_obama_pair(toy_extractor, toy_index):
    found = extract(toy_extractor, toy_index[0], QaPair(Q1, A1), refine=True)
    assert found == {("BarackObama", "1961")}


def test_extract_honolulu_pair(toy_extractor, toy_index):
    found = extract(toy_extractor, toy_index[0], QaPair(Q3, A3), refine=True)
    assert found == {("Honolulu", "390K")}


def test_extract_disconnected_answer_is_empty(toy_extractor, toy_index):
    pair = QaPair(Q1, tokenize("No idea, sorry."))
    assert extract(toy_extractor, toy_index[0], pair) == set()


def test_extract_refined_subset_of_unrefined(toy_extractor, toy_index, toy_corpus):
    for pair in toy_corpus:
        refined = extract(toy_extractor, toy_index[0], pair, refine=True)
        unrefined = extract(toy_extractor, toy_index[0], pair, refine=False)
        assert refined <= unrefined


def test_extract_invariant_under_answer_permutation(toy_extractor, toy_index):
    # value matching is content-based on spans, so shuffling the other
    # answer tokens around the value must not change the result
    rng = random.Random(2)
    base = extract(toy_extractor, toy_index[0], QaPair(Q1, A1), refine=False)
    others = [t for t in A1 if t != "1961" and t != "politician"]
    for _ in range(5):
        rng.shuffle(others)
        cut = rng.randrange(len(others) + 1)
        answer = tuple(others[:cut]) + ("politician", "1961") + tuple(others[cut:])
        assert extract(toy_extractor, toy_index[0], QaPair(Q1, answer), refine=False) == base


def test_extract_multiword_entity_value(toy_kb, toy_index, toy_extractor):
    # an answer naming an entity through a dictionary surface resolves too
    pair = QaPair(tokenize("Who is Barack Obama's wife?"), tokenize("She is Michelle Obama."))
    found = extract(toy_extractor, toy_index[0], pair, refine=False)
    assert ("BarackObama", "MichelleObama") in found


def test_observations_are_kb_connected(toy_extractor, toy_index, toy_corpus):
    for pair in toy_corpus:
        for entity, value in extract(toy_extractor, toy_index[0], pair, refine=False):
            paths = predicates_between(toy_extractor.kb, entity, value, 3, name_restriction=True)
            assert paths, (entity, value)


# ---------------------------------------------------------------------------
# observations: the weighted items of TrainingSet.build


def test_build_observations_fixture_weights(toy_training):
    observations = toy_training.observations
    assert len(observations) == 3
    obama = [(v, w) for _, e, v, w in observations if e == "BarackObama"]
    assert len(obama) == 2
    for value, weight in obama:
        assert value == "1961"
        # 1 * P(a|q) * P(q) = 1 * 0.5 * 2/3
        assert weight == pytest.approx(1 / 3, abs=1e-15)
    honolulu = [(v, w) for _, e, v, w in observations if e == "Honolulu"]
    assert len(honolulu) == 1
    assert honolulu[0][0] == "390K"
    assert honolulu[0][1] == pytest.approx(1 / 3, abs=1e-15)


def test_build_observations_empty_extraction(toy_extractor, toy_index, toy_concepts):
    pair = QaPair(tokenize("gibberish question"), tokenize("gibberish answer"))
    stats = corpus_stats([pair])
    mentions = probe_corpus(toy_extractor.kb, toy_index[0], stats.question_counts).mentions
    training = TrainingSet.build(stats, mentions, toy_extractor, toy_concepts)
    assert training.observations == [] and training.groups == []


def test_build_observations_scale_invariance(toy_corpus, toy_extractor, toy_index, toy_concepts,
                                             toy_training):
    doubled = corpus_stats((q, a, n * 2) for q, a, n in toy_corpus)
    mentions = probe_corpus(toy_extractor.kb, toy_index[0], doubled.question_counts).mentions
    scaled = TrainingSet.build(doubled, mentions, toy_extractor, toy_concepts)
    assert scaled.observations == toy_training.observations


def test_build_matches_each_distinct_answer_once(toy_extractor, toy_index, toy_concepts,
                                                monkeypatch):
    # A2 under two questions and twice under Q1; A3 also under a question
    # that mentions no entity, whose answers are never matched
    unmentioned = tokenize("gibberish question")
    pairs = [
        QaPair(Q1, A1), QaPair(Q1, A2), QaPair(tokenize("What year was Barack Obama born?"), A2),
        QaPair(Q3, A3), QaPair(Q1, A2, 2), QaPair(unmentioned, A3),
        QaPair(unmentioned, tokenize("nothing here")),
    ]
    stats = corpus_stats(pairs)
    mentions = probe_corpus(toy_extractor.kb, toy_index[0], stats.question_counts).mentions
    # the item oracle matches each pair's answer anew
    one_by_one = [(i.question, i.entity, i.value, i.weight)
                  for i in training_items(stats, mentions, toy_extractor, toy_concepts)]
    calls = []
    original = EntityValueExtractor.candidate_values

    def counting(self, answer):
        calls.append(answer)
        return original(self, answer)

    monkeypatch.setattr(EntityValueExtractor, "candidate_values", counting)
    training = TrainingSet.build(stats, mentions, toy_extractor, toy_concepts)
    assert sorted(calls) == sorted([A1, A2, A3])
    assert training.observations == one_by_one
    # the repeated (Q1, A2) pair is one observation of the summed count
    assert len(training) == 4


def test_candidate_values_equal_probing_every_answer_span(
    toy_kb, toy_dictionary, toy_extractor, toy_corpus
):
    answers = [pair.answer for pair in toy_corpus]
    vocab = ["the", "was", "born", "in", "1961", "1964", "390k", "barack", "obama", "michelle",
             "obama's", "honolulu", "politician", "person", "marriage1", "wife", "he", "", "é"]
    rng = random.Random(73)
    answers += [tuple(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(300)]
    found = 0
    for answer in answers:
        want = candidate_values(toy_kb, toy_dictionary, answer)
        assert toy_extractor.candidate_values(answer) == want, answer
        found += len(want)
    assert found > 300


def test_candidate_values_reach_the_longest_node_text():
    """Answer spans are matched against node texts up to the longest one,
    here three words, and against dictionary surfaces up to the longest
    one."""
    kb = KnowledgeBase([
        ("Ada", "dob", "10 December 1815"),
        ("Ada", "spouse", "William King"),
        ("Ada", "title", "Countess"),
    ])
    dictionary = [("William King", "william king")]
    extractor = EntityValueExtractor(kb, dictionary, {})
    vocab = ["born", "10", "december", "1815", "william", "king", "countess", "ada", "of"]
    rng = random.Random(91)
    answers = [tokenize("She was born on 10 December 1815."), tokenize("William King")]
    answers += [tuple(rng.choice(vocab) for _ in range(rng.randrange(0, 9))) for _ in range(300)]
    assert extractor.candidate_values(answers[0]) == {"10 December 1815"}
    assert extractor.candidate_values(answers[1]) == {"William King"}
    for answer in answers:
        assert extractor.candidate_values(answer) == candidate_values(kb, dictionary, answer), answer


def test_candidate_values_take_the_rows_the_index_takes():
    """A dictionary row naming no KB node, or whose surface has no word,
    names no value, as neither is indexed; a surface is matched in its
    normalized form, and a node's surfaces add to its own text."""
    kb = KnowledgeBase([("Ada", "spouse", "William King"), ("Ada", "title", "Countess")])
    dictionary = [("William King", "Lord King!"), ("Ghost", "countess"), ("Ada", "..."),
                  ("Ada", "the countess")]
    extractor = EntityValueExtractor(kb, dictionary, {})
    assert extractor.candidate_values(tokenize("Lord King, and William King")) == {"William King"}
    assert extractor.candidate_values(tokenize("the Countess")) == {"Ada", "Countess"}
    assert extractor.candidate_values(("ghost",)) == set()
    assert extractor.candidate_values(("",)) == set()


def _no_index(*args):
    raise AssertionError("the entity index was asked")


def test_candidate_values_ask_the_index_nothing(
    toy_kb, toy_dictionary, toy_extractor, toy_corpus, monkeypatch
):
    monkeypatch.setattr(StaticHashArray, "lookup", _no_index)
    monkeypatch.setattr(StaticHashArray, "has_token", _no_index)
    assert not hasattr(toy_extractor, "index")
    found = 0
    for pair in toy_corpus:
        want = candidate_values(toy_kb, toy_dictionary, pair.answer)
        assert toy_extractor.candidate_values(pair.answer) == want
        found += len(want)
    assert found


def test_a_fingerprint_collision_adds_no_value(monkeypatch):
    """The span "king william" shares both hash halves with the indexed key
    "william king", so the index returns William King for it; its tokens
    are key tokens, so the token filter passes it too. No answer text is
    either key's node's, so no value is found."""
    kb = KnowledgeBase([("Ada", "spouse", "William King"), ("Ada", "title", "Countess")])
    dictionary = [("William King", "william king")]
    key_hash = hasharray.key_hash
    monkeypatch.setattr(
        hasharray, "key_hash",
        lambda key: key_hash("william king" if key == "king william" else key),
    )
    index, _ = build_entity_index(kb, dictionary)
    assert index.lookup("king william") == [kb.node_id("William King")]
    assert index.has_token("king william")
    extractor = EntityValueExtractor(kb, dictionary, {})
    assert extractor.candidate_values(("king", "william")) == set()
    assert extractor.candidate_values(("king", "william", "king")) == {"William King"}


def test_write_observations_format(toy_training):
    buf = io.StringIO()
    write_observations(toy_training.observations, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[:3] == ["when was barack obama born", "BarackObama", "1961"]
