"""Pattern validity, primitivity, DP decomposition vs. exhaustive oracle."""

from __future__ import annotations

import gc
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factqa.corpus import (
    MentionTable, QaPair, corpus_stats, lookup_tokens, probe_corpus, tokenize,
)
from factqa.decompose import (
    SLOT, Decomposer, PatternIndex, QuestionTooLongError, count_valid_patterns,
)
from factqa.engine import AnswerEngine
from factqa.hasharray import StaticHashArray
from factqa.kb import TsvParseError, load_kb
from factqa.learn import PredicateModel
from factqa.pipeline import build_entity_index, load_entity_dictionary
from oracles import decompose_bruteforce, pattern_counts


def test_pattern_validity_birth_pattern(toy_decomposer):
    f_v, f_o, p = toy_decomposer.patterns.validity(("when", "was", "$e", "born"))
    assert (f_v, f_o, p) == (2, 2, 1.0)


def test_pattern_validity_overgeneral_pattern(toy_decomposer):
    # both corpus questions match "when $e", but never through an entity
    # span: its validity is 0, so the index does not keep it
    pattern = ("when", "$e")
    assert toy_decomposer.patterns.validity(pattern) == (0, 0, 0.0)
    assert pattern not in toy_decomposer.patterns.counts


def test_pattern_validity_unmatched_pattern(toy_decomposer):
    assert toy_decomposer.patterns.validity(("nothing", "$e", "matches")) == (0, 0, 0.0)


def _random_corpus(rng, vocab, fixed=((), ())):
    """Questions of 1 to 6 tokens drawn with repeats from a small pool, each
    with a random subset of its spans as entity spans; some questions have
    every span an entity span, some none. ``fixed`` is a (prefix, suffix)
    that about half the questions wrap their tokens in."""
    pool = []
    for _ in range(rng.randrange(1, 30)):
        tokens = tuple(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
        if rng.random() < 0.5:
            tokens = fixed[0] + tokens + fixed[1]
        pool.append(tokens)
    frequency: dict = {}
    for _ in range(rng.randrange(1, 60)):
        question = rng.choice(pool)
        frequency[question] = frequency.get(question, 0) + rng.randrange(1, 4)
    entity_spans = {}
    for question in frequency:
        size = len(question)
        spans = [(i, j) for i in range(size) for j in range(i + 1, size + 1)]
        share = rng.choice([0.0, 0.2, 0.5, 1.0])
        entity_spans[question] = {span for span in spans if rng.random() < share}
    return frequency, entity_spans


@pytest.mark.parametrize("vocab, fixed", [
    (["a", "b"], ((), ())),
    (["a", "b", "c", "d"], ((), ())),
    (["a", "b", "c"], (("when", "was"), ("born",))),
    (["a", SLOT, "b"], ((), ())),  # tokenize never yields the slot, but build allows it
])
def test_pattern_index_build_matches_every_span_oracle(vocab, fixed):
    rng = random.Random(f"patterns-{vocab}-{fixed}")
    kept = shared = 0
    for _ in range(150):
        frequency, entity_spans = _random_corpus(rng, vocab, fixed)
        f_v: dict = {}
        for question, spans in entity_spans.items():
            count_valid_patterns(f_v, question, spans, frequency[question])
        counts = PatternIndex.build(frequency, f_v).counts
        assert counts == pattern_counts(frequency, entity_spans)
        kept += len(counts)
        shared += sum(f_v < f_o for f_v, f_o in counts.values())
    assert kept and shared


def test_mention_spans_enumerates_all_hits(toy_kb, toy_index):
    index, _ = toy_index
    table = MentionTable(toy_kb, index, lookup_tokens(tokenize("when was barack obama born")))
    assert set(table.entities) == {(2, 4)}
    table = MentionTable(toy_kb, index, lookup_tokens(tokenize("barack obama's wife")))
    assert set(table.entities) == {(0, 2)}


# ---------------------------------------------------------------------------
# is_primitive


def test_is_primitive_spouse_question(toy_decomposer):
    assert toy_decomposer.is_primitive(tokenize("barack obama's wife"))


def test_is_primitive_direct_question(toy_decomposer):
    assert toy_decomposer.is_primitive(tokenize("when was barack obama born"))


def test_is_primitive_no_mention(toy_decomposer):
    assert not toy_decomposer.is_primitive(tokenize("when was the dog fed"))


def test_is_primitive_two_mentions(toy_decomposer):
    tokens = tokenize("barack obama and michelle obama")
    # rule check against mention enumeration: two non-overlapping mentions
    from factqa.corpus import kb_mentions

    mentions = kb_mentions(toy_decomposer.engine.kb, toy_decomposer.engine.index, tokens)
    assert len({span for span, _ in mentions}) == 2
    assert not toy_decomposer.is_primitive(tokens)


def test_is_primitive_requires_model_support(toy_decomposer):
    # mention present, but no derivable template is in the model
    assert not toy_decomposer.is_primitive(tokenize("is barack obama tall"))


# ---------------------------------------------------------------------------
# decompose


def test_decompose_spouse_question(toy_decomposer):
    result = toy_decomposer.decompose(tokenize("when was barack obama's wife born"))
    assert result.texts == ["barack obama's wife", "when was $e born"]
    assert result.score == 1.0


def test_decompose_primitive_question_stays_whole(toy_decomposer):
    tokens = tokenize("when was barack obama born")
    result = toy_decomposer.decompose(tokens)
    assert result.sequence == [tokens]
    assert result.score == 1.0


def test_decompose_unanswerable_scores_zero(toy_decomposer):
    tokens = tokenize("completely unrelated words here")
    result = toy_decomposer.decompose(tokens)
    assert result.score == 0.0
    assert result.sequence == [tokens]


def test_decompose_rejects_over_length(toy_decomposer):
    tokens = tuple(f"w{i}" for i in range(24))
    with pytest.raises(QuestionTooLongError, match="23"):
        toy_decomposer.decompose(tokens)


def test_decompose_bruteforce_rejects_over_length(toy_decomposer):
    with pytest.raises(QuestionTooLongError, match="8"):
        decompose_bruteforce(toy_decomposer, tuple(f"w{i}" for i in range(9)))


def test_decompose_monotone_containment(toy_decomposer):
    # primitive inner question and validity-1 enclosing pattern force score 1
    inner = tokenize("barack obama's wife")
    assert toy_decomposer.is_primitive(inner)
    assert toy_decomposer.patterns.validity(("when", "was", "$e", "born"))[2] == 1.0
    assert toy_decomposer.decompose(tokenize("when was barack obama's wife born")).score == 1.0


def test_decompose_deterministic(toy_decomposer):
    tokens = tokenize("when was barack obama's wife born")
    first = toy_decomposer.decompose(tokens)
    for _ in range(3):
        again = toy_decomposer.decompose(tokens)
        assert again.sequence == first.sequence
        assert again.score == first.score


def test_decompose_leaves_no_reference_cycle(toy_decomposer):
    # a cycle per call would keep each question's memo and mention table
    # alive until the cyclic collector runs, which shows as latency spikes
    for question in ("when was barack obama born", "when was barack obama's wife born"):
        toy_decomposer.decompose(tokenize(question))
        gc.collect()
        gc.disable()
        try:
            toy_decomposer.decompose(tokenize(question))
            assert gc.collect() == 0, question
        finally:
            gc.enable()


def test_decompose_runtime_23_tokens(toy_decomposer):
    filler = ("so", "tell", "me", "please", "right", "now", "if", "you", "can",
              "indeed", "exactly", "really", "truly", "honestly", "just", "say", "it", "all")
    tokens = filler + tokenize("when was barack obama born")
    assert len(tokens) == 23
    start = time.perf_counter()
    toy_decomposer.decompose(tokens)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# DP vs exhaustive oracle


RICH_CORPUS = [
    ("When was Barack Obama born?", "The politician was born in 1961.", 2),
    ("How many people are there in Honolulu?", "It's 390K.", 1),
    ("who is barack obama's wife", "Michelle Obama.", 1),
    # makes "$e wife" valid at 1/2, so nested questions can tie
    ("barack obama's wife", "Michelle Obama.", 1),
    ("who is the wife of barack obama", "Michelle Obama.", 1),
    ("when was michelle obama born", "1964.", 1),
    ("when was honolulu born", "never.", 1),  # invalid-ish: still counts f_o
    ("how many people live in honolulu", "390K.", 1),
]


@pytest.fixture(scope="module")
def rich_decomposer(data_dir):
    """A decomposer over a livelier corpus so random questions exercise
    patterns with validities strictly between 0 and 1."""
    kb = load_kb(data_dir / "toy_kb.tsv")
    index, _ = build_entity_index(kb, load_entity_dictionary(data_dir / "entities.tsv"))
    from factqa.concepts import ConceptGraph

    concepts = ConceptGraph.load(data_dir / "isa.tsv")
    corpus = corpus_stats(QaPair(tokenize(q), tokenize(a), n) for q, a, n in RICH_CORPUS)
    model = PredicateModel.load(data_dir / "model_fixture.tsv")
    probed = probe_corpus(kb, index, corpus.question_counts)
    patterns = PatternIndex.build(corpus.question_counts, probed.f_v)
    return Decomposer(AnswerEngine(kb, index, concepts, model), patterns)


def test_dp_equals_bruteforce_on_random_questions(rich_decomposer):
    vocab = [
        "when", "was", "barack", "obama", "obama's", "born", "wife", "who",
        "is", "the", "of", "how", "many", "people", "live", "in", "honolulu",
        "michelle", "it", "never",
    ]
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        length = rng.randrange(1, 9)
        tokens = tuple(rng.choice(vocab) for _ in range(length))
        dp = rich_decomposer.decompose(tokens)
        brute = decompose_bruteforce(rich_decomposer, tokens)
        assert dp.score == brute.score, tokens
        assert dp.sequence == brute.sequence, tokens
        checked += 1
    assert checked == 200


def test_dp_equals_bruteforce_on_spouse_question(rich_decomposer):
    tokens = tokenize("when was barack obama's wife born")
    dp = rich_decomposer.decompose(tokens)
    brute = decompose_bruteforce(rich_decomposer, tokens)
    assert dp.score == brute.score
    assert dp.sequence == brute.sequence
    assert dp.texts == ["barack obama's wife", "when was $e born"]


def _chain_scores(decomposer, sub):
    """The score of every chain of ``sub``: the question alone, and each
    chain through an inner span whose pattern has positive validity."""
    scores = [1.0 if decomposer.is_primitive(sub) else 0.0]
    for a in range(len(sub)):
        for b in range(a + 1, len(sub) + 1):
            if b - a == len(sub):
                continue
            p = decomposer.patterns.validity(sub[:a] + (SLOT,) + sub[b:])[2]
            if p > 0:
                scores += [p * s for s in _chain_scores(decomposer, sub[a:b])]
    return scores


@pytest.mark.parametrize("patterns", ["built", "loaded"])
def test_dp_equals_bruteforce_on_nested_valid_patterns(rich_decomposer, data_dir, tmp_path,
                                                       patterns):
    decomposer = rich_decomposer
    if patterns == "loaded":
        path = tmp_path / "patterns.tsv"
        rich_decomposer.patterns.save(path)
        loaded = PatternIndex.load(path)
        assert loaded.counts == rich_decomposer.patterns.counts
        decomposer = Decomposer(rich_decomposer.engine, loaded)
    # Every question of at most 8 tokens made by nesting an entity surface or
    # a primitive corpus question into corpus-valid patterns, one or more deep.
    valid = list(decomposer.patterns.counts)  # every pattern with f_v > 0
    dictionary = load_entity_dictionary(data_dir / "entities.tsv")
    frontier = {tokenize(surface) for _, surface in dictionary}
    frontier |= {
        tokenize(q) for q, _, _ in RICH_CORPUS if decomposer.is_primitive(tokenize(q))
    }
    questions: set = set()
    while frontier:
        nested = {p[: p.index(SLOT)] + q + p[p.index(SLOT) + 1 :] for q in frontier for p in valid}
        frontier = {q for q in nested if len(q) <= 8} - questions
        questions |= frontier
    answered = chained = tied = 0
    for tokens in sorted(questions):
        dp = decomposer.decompose(tokens)
        brute = decompose_bruteforce(decomposer, tokens)
        assert dp.score == brute.score, tokens
        assert dp.sequence == brute.sequence, tokens
        # each later element's slot stands where the substring before it starts
        start = sum(part.index(SLOT) for part in dp.sequence[1:])
        assert tokens[start : start + len(dp.sequence[0])] == dp.sequence[0], tokens
        answered += dp.score > 0
        chained += len(dp.sequence) >= 2
        tied += dp.score > 0 and _chain_scores(decomposer, tokens).count(dp.score) >= 2
    assert answered >= len(questions) / 2
    assert chained >= len(questions) / 4
    assert tied >= 1


# ---------------------------------------------------------------------------
# Only windows that a stored pattern frames are tried

ONE_TOKEN_CORPUS = [
    "when was obama born",
    "obama's wife",
    "the wife of obama",
    "obama's wife in honolulu",
    "how many people live in honolulu",
]
FILLER = ["when", "was", "born", "wife", "the", "of", "in", "how", "many", "people", "live"]


@pytest.fixture(scope="module")
def one_token_decomposer(data_dir):
    """Both entities have one-token surfaces, so a question's entity spans
    sit exactly where its "obama" and "honolulu" tokens are."""
    kb = load_kb(data_dir / "toy_kb.tsv")
    index = StaticHashArray.build(
        [("obama", kb.node_id("BarackObama")), ("honolulu", kb.node_id("Honolulu"))]
    )
    from factqa.concepts import ConceptGraph

    spouse = ("marriage", "person", "name")
    model = PredicateModel({
        "$person wife": {spouse: 1.0},
        "the wife of $person": {spouse: 1.0},
        "when was $person born": {("dob",): 1.0},
        "how many people live in $city": {("population",): 1.0},
    })
    corpus = corpus_stats(QaPair(tokenize(q), ("a",)) for q in ONE_TOKEN_CORPUS)
    probed = probe_corpus(kb, index, corpus.question_counts)
    patterns = PatternIndex.build(corpus.question_counts, probed.f_v)
    return Decomposer(AnswerEngine(kb, index, ConceptGraph.load(data_dir / "isa.tsv"), model),
                      patterns)


def _placed_questions(placement: str) -> list[tuple[str, ...]]:
    """Questions of at most 8 tokens whose entity spans are a first token,
    a last token, or two tokens anywhere; a few known chains first."""
    known = {
        "first": ["obama's wife wife", "obama's wife wife wife"],
        "last": ["the wife of the wife of obama", "how many people live in honolulu"],
        "one-of-two": ["obama's wife wife in honolulu", "when was obama's wife born honolulu"],
    }[placement]
    questions = [tokenize(q) for q in known]
    rng = random.Random(f"placed-{placement}")
    while len(questions) < 60:
        filler = [rng.choice(FILLER) for _ in range(rng.randrange(1, 7))]
        if placement == "first":
            tokens = [rng.choice(["obama", "obama's"])] + filler
        elif placement == "last":
            tokens = filler + [rng.choice(["obama", "honolulu"])]
        else:
            for entity in ("honolulu", rng.choice(["obama", "obama's"])):
                filler.insert(rng.randrange(len(filler) + 1), entity)
            tokens = filler
        questions.append(tuple(tokens))
    return questions


@pytest.mark.parametrize("placement", ["first", "last", "one-of-two"])
def test_dp_equals_bruteforce_with_few_entity_windows(one_token_decomposer, placement):
    decomposer = one_token_decomposer
    spans_per_question = {"first": 1, "last": 1, "one-of-two": 2}[placement]
    chained = 0
    for tokens in _placed_questions(placement):
        spans = set(decomposer.engine.probe(tokens).entities)
        assert len(spans) == spans_per_question, tokens
        if placement == "first":
            assert spans == {(0, 1)}, tokens
        elif placement == "last":
            assert spans == {(len(tokens) - 1, len(tokens))}, tokens
        dp = decomposer.decompose(tokens)
        brute = decompose_bruteforce(decomposer, tokens)
        assert dp.score == brute.score, tokens
        assert dp.sequence == brute.sequence, tokens
        chained += len(dp.sequence) >= 2 and dp.score > 0
    assert chained >= 1


def _framed_in(patterns, outer, inner):
    """Whether a pattern of positive validity frames ``inner`` as a proper
    inner span of ``outer``."""
    return len(inner) < len(outer) and any(
        outer[a : a + len(inner)] == inner
        and patterns.validity(outer[:a] + (SLOT,) + outer[a + len(inner) :])[2] > 0
        for a in range(len(outer) - len(inner) + 1)
    )


def test_the_dp_enters_only_windows_a_stored_pattern_frames(one_token_decomposer,
                                                            monkeypatch):
    # With one entity token and no other token equal to it, an inner window
    # holds the entity span exactly when it holds an entity token.
    decomposer = one_token_decomposer
    walked: list[tuple[str, ...]] = []
    walk = Decomposer._walk

    def recording_walk(self, tokens, mentions):
        walked.append(tokens)
        return walk(self, tokens, mentions)

    monkeypatch.setattr(Decomposer, "_walk", recording_walk)
    # "obama's wife in $e" frames "the wife", which holds no entity
    questions = _placed_questions("first") + _placed_questions("last")
    questions.append(tokenize("obama's wife in the wife"))
    entity_tokens = {"obama", "obama's", "honolulu"}
    without_entity = 0
    for tokens in questions:
        walked.clear()
        decomposer.decompose(tokens)
        assert walked[0] == tokens
        # each later walk is of a window that a pattern frames inside a
        # substring walked before it, and no window is walked twice
        for k, sub in enumerate(walked[1:], 1):
            assert any(_framed_in(decomposer.patterns, outer, sub) for outer in walked[:k]), sub
        assert len(set(walked)) == len(walked)
        without_entity += sum(not entity_tokens & set(sub) for sub in walked)
    # a framed window that holds no entity is entered too
    assert without_entity
    # the exhaustive oracle asks about every window, entity windows among them
    asked: list[tuple[str, ...]] = []
    validity = decomposer.patterns.validity

    def counting_validity(pattern):
        asked.append(pattern)
        return validity(pattern)

    monkeypatch.setattr(decomposer.patterns, "validity", counting_validity)
    for tokens in questions:
        decompose_bruteforce(decomposer, tokens)
    assert [p for p in asked if entity_tokens & set(p)]


# Tokens of random pattern sets: the one-token entities and their
# possessive, a few filler words, and the slot itself, which a question
# may hold too.
PATTERN_VOCAB = ["obama", "obama's", "honolulu", "wife", "the", "of", "when", "was", "born",
                 "in", SLOT]
_words = st.lists(st.sampled_from(PATTERN_VOCAB), max_size=3).map(tuple)
_counts = st.integers(1, 3).flatmap(lambda f_v: st.tuples(st.just(f_v), st.integers(f_v, 4)))


@st.composite
def pattern_sets(draw):
    """A pattern set holding a bare slot row, a two-slot row, a pattern with
    an empty prefix and one with an empty suffix, several patterns sharing
    one prefix, and two patterns whose words hold an entity, so that they
    frame windows that hold none, and frame the two entities of "obama's
    wife in honolulu" as windows of one length; each with counts
    1 <= f_v <= f_o, so that ties are common."""
    shared = draw(_words)
    patterns = {
        (SLOT,),
        draw(_words) + (SLOT,) + draw(_words) + (SLOT,) + draw(_words),
        (SLOT,) + draw(_words.filter(bool)),
        draw(_words.filter(bool)) + (SLOT,),
        ("obama's", "wife", "in", SLOT),
        (SLOT, "wife", "in", "honolulu"),
    }
    patterns |= {shared + (SLOT,) + suffix
                 for suffix in draw(st.lists(_words, min_size=3, max_size=6, unique=True))}
    patterns |= {prefix + (SLOT,) + suffix
                 for prefix, suffix in draw(st.lists(st.tuples(_words, _words), max_size=8))}
    return {pattern: draw(_counts) for pattern in sorted(patterns)}


@st.composite
def nested_questions(draw, patterns):
    """Questions of at most 8 tokens: an entity surface, a question with
    one or two entities or random words, wrapped at a random slot of up to
    three random patterns of the set."""
    inner = draw(st.sampled_from([("obama",), ("honolulu",), ("obama's", "wife"),
                                  ("when", "was", "obama", "born"),
                                  ("obama's", "wife", "in", "honolulu")])
                 | st.lists(st.sampled_from(PATTERN_VOCAB), min_size=1, max_size=4).map(tuple))
    for pattern in draw(st.lists(st.sampled_from(sorted(patterns)), max_size=3)):
        slot = draw(st.sampled_from([k for k, token in enumerate(pattern) if token == SLOT]))
        wrapped = pattern[:slot] + inner + pattern[slot + 1:]
        if len(wrapped) > 8:
            break
        inner = wrapped
    return inner


@pytest.fixture(scope="module")
def bare_entity_engine(one_token_decomposer):
    """``one_token_decomposer``'s engine, with rows for the bare templates
    ``$person`` and ``$city`` too, so that an entity token alone is primitive
    and a window of one token can start a chain."""
    engine = one_token_decomposer.engine
    rows = {text: dict(engine.model.row(text)) for text in engine.model.templates()}
    rows.update({"$person": {("dob",): 1.0}, "$city": {("population",): 1.0}})
    return AnswerEngine(engine.kb, engine.index, engine.concepts, PredicateModel(rows))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_dp_equals_bruteforce_on_random_pattern_sets(bare_entity_engine, data):
    counts = data.draw(pattern_sets())
    built = PatternIndex(counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "patterns.tsv"
        built.save(path)
        loaded = PatternIndex.load(path)
    assert loaded.counts == counts
    questions = data.draw(st.lists(nested_questions(counts), min_size=1, max_size=6))
    for patterns in (built, loaded):
        decomposer = Decomposer(bare_entity_engine, patterns)
        for tokens in questions:
            dp = decomposer.decompose(tokens)
            brute = decompose_bruteforce(decomposer, tokens)
            assert dp.score == brute.score, tokens
            assert dp.sequence == brute.sequence, tokens


@pytest.mark.parametrize(
    "row, message",
    [
        ("who is $e\t1.5\t2", "invalid literal for int()"),
        ("who is $e\t0\t2", "1 <= f_v <= f_o, got f_v=0, f_o=2"),
    ],
    ids=["non-integer", "no-valid-match"],
)
def test_pattern_file_rejects_bad_counts(tmp_path, row, message):
    path = tmp_path / "patterns.tsv"
    path.write_text(f"when was $e born\t2\t2\n{row}\n", encoding="utf-8")
    with pytest.raises(TsvParseError, match=r"line 2: .*" + re.escape(message)):
        PatternIndex.load(path)


def test_pattern_file_refuses_a_repeated_pattern(tmp_path):
    path = tmp_path / "patterns.tsv"
    path.write_text("when was $e born\t2\t2\n$e wife\t1\t1\n\nwhen was $e born\t1\t3\n",
                    encoding="utf-8")
    with pytest.raises(TsvParseError, match=re.escape(
            f"{path}: line 4: same key as line 1: ('when was $e born',)")):
        PatternIndex.load(path)
