"""Online inference: value distributions, argmax answers, chained answering."""

from __future__ import annotations

import random
from math import fsum

import pytest

from conftest import answer, answer_chain
from factqa.concepts import FALLBACK_CONCEPT, ConceptGraph, derive_templates
from factqa.corpus import kb_mentions, tokenize
from factqa.engine import AnswerEngine
from factqa.hasharray import StaticHashArray
from factqa.kb import KnowledgeBase
from factqa.learn import PredicateModel
from oracles import supported_templates as supported_templates_oracle

Q0 = tokenize("When was Barack Obama born?")


def quadruple_sum_oracle(engine, tokens):
    """Full nested sum over every (entity, template, path, value) with no
    zero-skipping; normalized the same way."""
    mentions = kb_mentions(engine.kb, engine.index, tokens)
    if not mentions:
        return {}
    p_e = 1.0 / len(mentions)
    raw: dict[str, float] = {}
    for span, entity in mentions:
        concept_dist = engine.concepts.question_concepts(tokens, entity, span)
        derived = {t.text: p for t, p in derive_templates(tokens, span, concept_dist).items()}
        for template in engine.model.templates():
            p_t = derived.get(template, 0.0)
            for path, theta in engine.model.row(template).items():
                dist = engine.kb.value_distribution(entity, path)
                for value in engine.kb.nodes:
                    p_v = dist.get(value, 0.0)
                    raw[value] = raw.get(value, 0.0) + p_e * p_t * theta * p_v
    total = fsum(raw.values())
    if total <= 0:
        return {}
    return {v: m / total for v, m in raw.items() if m > 0}


def test_supported_templates_equal_the_derive_and_filter_walk(toy_kb, toy_index):
    """On random graphs, models and tokenized questions, with repeated
    words, concept names that hold a space or equal a question word, empty
    prefixes and suffixes, override questions and the fallback concept."""
    rng = random.Random(0x7E3)
    words = ["who", "is", "the", "of", "x", "born", "head"]
    names = ["person", "city", "head of state", "of x", "x", "is the"]
    entities = ["e0", "e1", "e2", "bare"]  # bare has no isA edge: the fallback
    yielded: set[str] = set()
    overridden = 0
    for _ in range(200):
        edges = [(e, rng.choice(names), rng.uniform(0.1, 2.0))
                 for e in entities[:3] for _ in range(rng.randint(1, 3))]
        questions = [tuple(rng.choices(words, k=rng.randint(1, 6))) for _ in range(4)]
        overrides = {" ".join(questions[0]): {c: rng.choice([0.0, 0.5, 1.0])
                                              for c in rng.sample(names, 3)}}
        context = {(c, w): rng.uniform(-1.5, 1.0) for c in names for w in rng.sample(words, 2)}
        graph = ConceptGraph(edges, context if rng.random() < 0.5 else None, overrides)
        texts = set()
        for q in questions:  # templates of the questions' own shapes
            i = rng.randrange(len(q))
            j = rng.randint(i + 1, len(q))
            concepts = rng.sample(names, 3) + [FALLBACK_CONCEPT]
            texts.update(" ".join(q[:i] + ("$" + c,) + q[j:]) for c in concepts)
        for _ in range(4):  # and texts with stray or several slot words
            texts.add(" ".join(rng.choices(words + ["$x", "$of", "$person"], k=rng.randint(1, 4))))
        model = PredicateModel({t: {("dob",): 1.0} if rng.random() < 0.9 else {} for t in texts})
        engine = AnswerEngine(toy_kb, toy_index[0], graph, model)
        for q in questions:
            spans = [(i, j) for i in range(len(q)) for j in range(i + 1, len(q) + 1)]
            mentions = [(rng.choice(spans), rng.choice(entities)) for _ in range(rng.randint(1, 3))]
            got = list(engine.supported_templates(q, mentions))
            assert got == supported_templates_oracle(engine, q, mentions), (q, mentions)
            yielded.update(text for _, text, _, _ in got)
            overridden += bool(got) and " ".join(q) in overrides
    # the draws reach every case the docstring names ("$entity" only by the
    # fallback), with empty prefixes and empty suffixes
    for slot in ("$head of state", "$of x", "$is the", "$entity"):
        assert any(slot in text for text in yielded), slot
    assert any(text.startswith("$") for text in yielded)
    assert any(text.split(" ")[-1].startswith("$") for text in yielded)
    assert overridden


def test_mention_of_an_unknown_shape_asks_for_no_concepts(toy_engine, monkeypatch):
    calls = []
    original = ConceptGraph.question_concepts

    def counting(self, tokens, *args, **kwargs):
        calls.append(tuple(tokens))
        return original(self, tokens, *args, **kwargs)

    monkeypatch.setattr(ConceptGraph, "question_concepts", counting)
    unknown = tokenize("is Barack Obama nice")
    mentions = toy_engine.probe(unknown).mentions()
    assert mentions
    assert list(toy_engine.supported_templates(unknown, mentions)) == []
    assert calls == []
    mentions = toy_engine.probe(Q0).mentions()
    assert list(toy_engine.supported_templates(Q0, mentions))
    assert calls == [Q0] * len(mentions)


def test_answer_distribution_toy_fixture_values(toy_engine):
    dist = answer(toy_engine, Q0)
    assert dist.reason is None
    assert dist.entries["1961"] == pytest.approx(0.79, abs=0.01)
    assert dist.entries["person"] == pytest.approx(0.11, abs=0.01)
    assert dist.entries["politician"] == pytest.approx(0.11, abs=0.01)
    assert set(dist.entries) == {"1961", "person", "politician"}


def test_answer_distribution_unnormalized_mass(toy_engine):
    # hand evaluation: 0.64*0.67*1 + 0.36*1*1 = 0.7888 for value 1961,
    # and the three raw masses happen to sum to 1 on this fixture
    dist = answer(toy_engine, Q0)
    assert dist.entries["1961"] == pytest.approx(0.7888, abs=1e-12)


def test_answer_distribution_normalized(toy_engine):
    dist = answer(toy_engine, Q0)
    assert abs(sum(dist.entries.values()) - 1.0) < 1e-9


def test_answer_argmax_birth_year(toy_engine):
    dist = answer(toy_engine, Q0)
    top = dist.top()
    assert top is not None
    value, prob = top
    assert value == "1961"
    assert prob == pytest.approx(0.79, abs=0.01)
    trace = dist.traces["1961"]
    assert trace.entity == "BarackObama"
    assert trace.path == ("dob",)


def test_single_chain_yields_probability_one(toy_engine):
    # Honolulu has one concept, one supported path, one value
    model = PredicateModel({"how many people are there in $city": {("population",): 1.0}})
    engine = AnswerEngine(
        toy_engine.kb, toy_engine.index, toy_engine.concepts, model, toy_engine.surfaces
    )
    dist = answer(engine, tokenize("How many people are there in Honolulu?"))
    assert dist.entries == {"390K": 1.0}


def test_answer_tie_breaks_lexicographically(toy_engine):
    model = PredicateModel({"who is $person": {("category",): 1.0}})
    engine = AnswerEngine(
        toy_engine.kb, toy_engine.index, toy_engine.concepts, model, toy_engine.surfaces
    )
    top = answer(engine, tokenize("who is Barack Obama")).top()
    # person and politician both at 0.5; the smaller symbol wins
    assert top == ("person", 0.5)


def test_no_entity_reason(toy_engine):
    dist = answer(toy_engine, tokenize("when was the moon made"))
    assert dist.entries == {}
    assert dist.reason == "no entity"


def test_no_template_reason(toy_engine):
    dist = answer(toy_engine, tokenize("is Barack Obama nice"))
    assert dist.entries == {}
    assert dist.reason == "no template"


def test_empty_distribution_answer_absent(toy_engine):
    dist = answer(toy_engine, tokenize("when was the moon made"))
    top = dist.top()
    assert top is None
    assert dist.reason == "no entity"


def test_matches_bruteforce_quadruple_sum(toy_engine):
    for text in (
        "When was Barack Obama born?",
        "How many people are there in Honolulu?",
        "who is barack obama",
        "barack obama's wife",
    ):
        tokens = tokenize(text)
        got = answer(toy_engine, tokens).entries
        want = quadruple_sum_oracle(toy_engine, tokens)
        assert set(got) == set(want)
        for value in got:
            assert got[value] == pytest.approx(want[value], abs=1e-12)


def test_argmax_invariant_under_positive_scaling(toy_kb, toy_index, fixture_model):
    # scaling the template-distribution inputs by a shared constant must
    # not change the chosen value (final normalization absorbs it)
    index, surfaces = toy_index
    base = {"when was barack obama born": {"person": 0.64, "politician": 0.36}}
    scaled = {"when was barack obama born": {"person": 0.64 * 7.5, "politician": 0.36 * 7.5}}
    isa = [("BarackObama", "person", 1.0)]
    engine_a = AnswerEngine(toy_kb, index, ConceptGraph(isa, overrides=base), fixture_model, surfaces)
    engine_b = AnswerEngine(toy_kb, index, ConceptGraph(isa, overrides=scaled), fixture_model, surfaces)
    top_a = answer(engine_a, Q0).top()
    top_b = answer(engine_b, Q0).top()
    assert top_a is not None and top_b is not None
    assert top_a[0] == top_b[0]
    assert top_a[1] == pytest.approx(top_b[1], abs=1e-12)


def test_enumeration_counter_linear_in_model_paths():
    # entity with n predicates, model rows over all of them: the counter
    # must grow linearly with the number of model-supported paths
    counts = {}
    for n in (4, 8):
        triples = [("e", f"p{i}", f"v{i}") for i in range(n)]
        kb = KnowledgeBase(triples)
        index = StaticHashArray.build([("e", kb.node_id("e"))])
        concepts = ConceptGraph([("e", "thing", 1.0)])
        model = PredicateModel({"who is $thing": {(f"p{i}",): 1.0 / n for i in range(n)}})
        engine = AnswerEngine(kb, index, concepts, model)
        dist = answer(engine, ("who", "is", "e"))
        counts[n] = dist.enumerations
    assert counts[8] == 2 * counts[4]


# ---------------------------------------------------------------------------
# answer_sequence


def test_answer_sequence_spouse_chain(toy_engine):
    sequence = [tokenize("barack obama's wife"), ("when", "was", "$e", "born")]
    result = answer_chain(toy_engine, sequence)
    assert result.failed_index is None
    assert result.value == "1964"
    assert result.steps[0]["answer"] == "MichelleObama"
    assert result.steps[1]["question"] == "when was michelle obama born"


def test_answer_sequence_length_one_equals_answer(toy_engine):
    result = answer_chain(toy_engine, [Q0])
    top = answer(toy_engine, Q0).top()
    assert (result.value, result.probability) == top


def test_answer_sequence_fails_at_first_index(toy_engine):
    result = answer_chain(toy_engine, [tokenize("nothing here"), ("when", "was", "$e", "born")])
    assert result.value is None
    assert result.failed_index == 0


def test_answer_sequence_step_on_a_value_that_is_no_entity(toy_engine):
    """A literal answer is no entity to ask the next step about."""
    result = answer_chain(toy_engine, [Q0, ("when", "was", "$e", "born")])
    assert result.steps[0]["answer"] == "1961"
    assert result.steps[1] == {"question": "when was 1961 born", "reason": "no entity"}
    assert result.failed_index == 1


def test_answer_sequence_empty(toy_engine):
    result = answer_chain(toy_engine, [])
    assert result.value is None
    assert result.failed_index == 0


def test_surface_fallback_is_node_id(toy_engine):
    assert toy_engine.surface("MichelleObama") == "Michelle Obama"
    assert toy_engine.surface("1961") == "1961"
