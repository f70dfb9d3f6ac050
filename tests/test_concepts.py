"""Concept priors, context reweighting, template derivation."""

from __future__ import annotations

import math
import random

import pytest

from factqa.concepts import ConceptGraph, Template, derive_templates
from oracles import conceptualize as conceptualize_oracle


def test_concept_prior_normalizes_weights():
    graph = ConceptGraph([("apple", "company", 4), ("apple", "fruit", 6)])
    assert graph.concept_prior("apple") == {"company": 0.4, "fruit": 0.6}


def test_concept_prior_single_concept():
    graph = ConceptGraph([("x", "thing", 3)])
    assert graph.concept_prior("x") == {"thing": 1.0}


def test_concept_prior_no_edges():
    graph = ConceptGraph([("x", "thing", 3)])
    assert graph.concept_prior("y") == {}


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        ConceptGraph([("x", "thing", 0)])


def test_conceptualize_reduces_to_prior_without_weights(data_dir):
    tokens = ("who", "is", "barack", "obama")
    dist = ConceptGraph.load(data_dir / "isa.tsv").conceptualize(tokens, "BarackObama")
    assert dist == {"person": 0.5, "politician": 0.5}


def test_conceptualize_context_weights_fixture(toy_concepts):
    # weight person/born = 7/9 turns the 0.5/0.5 prior into 0.64/0.36
    tokens = ("when", "was", "barack", "obama", "born")
    dist = toy_concepts.conceptualize(tokens, "BarackObama", mention=(2, 4))
    assert dist["person"] == pytest.approx(0.64, abs=1e-12)
    assert dist["politician"] == pytest.approx(0.36, abs=1e-12)


def test_conceptualize_excludes_mention_tokens():
    graph = ConceptGraph(
        [("e", "a", 1), ("e", "b", 1)],
        context_weights={("a", "trigger"): 5.0},
    )
    boosted = graph.conceptualize(("trigger", "e"), "e", mention=(1, 2))
    assert boosted["a"] > boosted["b"]
    # the same token inside the mention span must not count
    neutral = graph.conceptualize(("trigger",), "e", mention=(0, 1))
    assert neutral == {"a": 0.5, "b": 0.5}


def test_conceptualize_distributions_sum_to_one():
    rng = random.Random(4)
    for _ in range(20):
        concepts = [f"c{i}" for i in range(rng.randrange(1, 6))]
        edges = [("e", c, rng.uniform(0.1, 5.0)) for c in concepts]
        weights = {
            (rng.choice(concepts), f"w{rng.randrange(4)}"): rng.uniform(0, 2.0)
            for _ in range(rng.randrange(0, 6))
        }
        graph = ConceptGraph(edges, context_weights=weights)
        tokens = tuple(f"w{i}" for i in range(4))
        dist = graph.conceptualize(tokens, "e")
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)


def test_conceptualize_symmetry_yields_uniform():
    # uniform prior + identical weights for every concept -> uniform posterior
    edges = [("e", "a", 1), ("e", "b", 1), ("e", "c", 1)]
    weights = {(c, "tok"): 1.5 for c in "abc"}
    graph = ConceptGraph(edges, context_weights=weights)
    dist = graph.conceptualize(("tok", "tok"), "e")
    assert all(math.isclose(p, 1 / 3, abs_tol=1e-12) for p in dist.values())


@pytest.mark.parametrize("with_weights", [False, True], ids=["no-weights", "weights"])
def test_cached_conceptualize_equals_the_uncached_oracle(with_weights):
    """Bit for bit, on every call: the first computes and caches the
    entity's prior, the later ones read it."""
    rng = random.Random(17)
    for _ in range(30):
        concepts = [f"c{i}" for i in range(rng.randrange(1, 5))]
        edges = [(f"e{rng.randrange(6)}", rng.choice(concepts), rng.uniform(0.1, 5.0))
                 for _ in range(rng.randrange(1, 15))]
        weights = {
            (rng.choice(concepts), f"w{rng.randrange(4)}"): rng.uniform(0, 2.0)
            for _ in range(rng.randrange(1, 6) if with_weights else 0)
        }
        graph = ConceptGraph(edges, context_weights=weights)
        for _ in range(20):
            tokens = tuple(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 6)))
            start = rng.randrange(len(tokens))
            mention = rng.choice([None, (start, rng.randrange(start + 1, len(tokens) + 1))])
            entity = f"e{rng.randrange(7)}"  # e6 has no edges
            want = conceptualize_oracle(edges, weights, tokens, entity, mention)
            assert graph.conceptualize(tokens, entity, mention) == want
            assert graph.conceptualize(tokens, entity, mention) == want


def test_question_concepts_override_wins(toy_concepts):
    dist = toy_concepts.question_concepts(
        ("when", "was", "barack", "obama", "born"), "BarackObama", (2, 4)
    )
    assert dist == {"person": 0.64, "politician": 0.36}


def test_question_concepts_fallback_for_conceptless_entity(toy_concepts):
    dist = toy_concepts.question_concepts(("who", "is", "marriage1"), "Marriage1", (2, 3))
    assert dist == {"entity": 1.0}


def test_override_file_keys_are_normalized(tmp_path, data_dir):
    # a raw question surface in the override file matches after tokenization
    raw = tmp_path / "overrides.tsv"
    raw.write_text("When was Barack Obama born?\tperson\t0.8\n")
    graph = ConceptGraph.load(data_dir / "isa.tsv", overrides_path=raw)
    tokens = ("when", "was", "barack", "obama", "born")
    assert graph.question_concepts(tokens, "BarackObama", (2, 4)) == {"person": 0.8}


# ---------------------------------------------------------------------------
# derive_templates


def test_derive_templates_two_concepts():
    tokens = ("when", "was", "barack", "obama", "born")
    out = derive_templates(tokens, (2, 4), {"person": 0.64, "politician": 0.36})
    by_text = {t.text: p for t, p in out.items()}
    assert by_text == {
        "when was $person born": 0.64,
        "when was $politician born": 0.36,
    }


def test_derive_templates_single_concept():
    out = derive_templates(("who", "is", "x"), (2, 3), {"thing": 1.0})
    ((template, prob),) = out.items()
    assert template.text == "who is $thing"
    assert prob == 1.0


def test_derive_templates_city_example():
    tokens = ("how", "many", "people", "are", "there", "in", "honolulu")
    out = derive_templates(tokens, (6, 7), {"city": 1.0})
    assert [t.text for t in out] == ["how many people are there in $city"]


def test_derive_templates_mention_out_of_range():
    with pytest.raises(ValueError):
        derive_templates(("a", "b"), (1, 5), {"c": 1.0})


def test_derive_templates_injective_per_concept():
    tokens = ("x", "y", "z")
    concepts = {f"c{i}": 1.0 / 8 for i in range(8)}
    out = derive_templates(tokens, (1, 2), concepts)
    assert len(out) == len(concepts)
    assert len({t.text for t in out}) == len(concepts)


def test_derive_templates_skips_zero_probability():
    out = derive_templates(("a", "b"), (0, 1), {"keep": 1.0, "drop": 0.0})
    assert [t.concept for t in out] == ["keep"]


def test_template_requires_exactly_one_placeholder():
    with pytest.raises(ValueError):
        Template(("no", "slot", "here"), "person")
    with pytest.raises(ValueError):
        Template(("$person", "and", "$person"), "person")
