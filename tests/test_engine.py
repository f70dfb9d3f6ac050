"""Online inference: value distributions, argmax answers, chained answering."""

from __future__ import annotations

from math import fsum

import pytest

from conftest import answer, answer_chain
from factqa.concepts import ConceptGraph, derive_templates
from factqa.corpus import kb_mentions, tokenize
from factqa.engine import AnswerEngine
from factqa.hasharray import StaticHashArray
from factqa.kb import KnowledgeBase
from factqa.learn import PredicateModel

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
