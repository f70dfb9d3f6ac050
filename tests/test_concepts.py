"""Concept priors, context reweighting, template derivation."""

from __future__ import annotations

import math
import random
import re
import struct

import pytest

from factqa.concepts import (
    ConceptGraph,
    Template,
    concepts_bytes,
    derive_templates,
    load_concepts,
)
from factqa.kb import StoreFormatError, TsvParseError, convert_last, read_tsv
from oracles import concept_prior as concept_prior_oracle
from oracles import conceptualize as conceptualize_oracle
from oracles import question_concepts as question_concepts_oracle


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


@pytest.mark.parametrize("weights", [[math.nan], [math.inf], [1e308, 1e308]],
                         ids=["nan", "inf", "sum-overflows"])
def test_weight_or_pair_sum_that_is_not_finite_rejected(weights):
    with pytest.raises(ValueError, match=r"must sum to a finite number: \(x, thing\)"):
        ConceptGraph([("x", "thing", w) for w in weights])


def test_entity_whose_weights_sum_past_the_float_range_rejected():
    # each pair's weight is finite, but the prior's fsum over them is not
    with pytest.raises(ValueError, match="the isA weights of x must sum to a finite number"):
        ConceptGraph([("x", "thing", 1e308), ("x", "other", 1e308), ("y", "thing", 1.0)])


def test_entities_whose_weights_overflow_only_together_are_taken(tmp_path):
    graph = ConceptGraph([("x", "thing", 1e308), ("y", "thing", 1e308), ("y", "other", 1.0)])
    assert graph.concept_prior("x") == {"thing": 1.0}
    assert graph.concept_prior("y") == {"other": 1.0 / 1e308, "thing": 1.0}
    reloaded = round_trip(graph, tmp_path / "graph.concepts")
    assert [reloaded.concept_prior(e) for e in "xy"] == [graph.concept_prior(e) for e in "xy"]


def test_isa_reader_names_the_line_whose_weight_overflows_its_entity(tmp_path):
    isa = tmp_path / "isa.tsv"
    isa.write_text("x\tthing\t1e308\n# a comment\ny\tthing\t1e308\nx\tother\t1e308\n",
                   encoding="utf-8")
    with pytest.raises(TsvParseError) as caught:
        ConceptGraph.load(isa)
    assert str(caught.value) == (
        f"{isa}: line 4: the isA weights of x must sum to a finite number"
    )


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


def test_conceptualize_with_negative_context_weights_is_a_distribution_or_empty():
    """A context weight may be negative: each concept's factor is clamped
    at 0, and when no concept keeps a positive score the result is empty,
    so ``question_concepts`` falls back to the universal concept."""
    rng = random.Random(5)
    empty = 0
    for _ in range(300):
        concepts = [f"c{i}" for i in range(rng.randrange(1, 5))]
        edges = [("e", c, rng.uniform(0.1, 5.0)) for c in concepts]
        weights = {
            (rng.choice(concepts), f"w{rng.randrange(4)}"): rng.choice([-1.0, rng.uniform(-3, 2)])
            for _ in range(rng.randrange(1, 8))
        }
        graph = ConceptGraph(edges, context_weights=weights)
        tokens = tuple(f"w{rng.randrange(5)}" for _ in range(rng.randrange(1, 5)))
        dist = graph.conceptualize(tokens, "e")
        assert dist == conceptualize_oracle(edges, weights, tokens, "e")
        if not dist:
            empty += 1
            assert graph.question_concepts(tokens, "e") == {"entity": 1.0}
            continue
        assert all(0.0 <= p <= 1.0 for p in dist.values())
        assert math.isclose(math.fsum(dist.values()), 1.0, abs_tol=1e-12)
    assert empty > 10


def test_conceptualize_cancelled_boost_is_empty():
    graph = ConceptGraph([("e", "person", 1.0)], context_weights={("person", "died"): -1.0})
    assert graph.conceptualize(("when", "did", "e", "died"), "e", mention=(2, 3)) == {}
    assert graph.question_concepts(("when", "did", "e", "died"), "e", (2, 3)) == {"entity": 1.0}


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
# the concept file


def round_trip(graph: ConceptGraph, path) -> ConceptGraph:
    """``graph`` written, read back and written again: the same bytes."""
    path.write_bytes(concepts_bytes(graph))
    back = load_concepts(path)
    assert concepts_bytes(back) == path.read_bytes()
    return back


def assert_same_concepts(got: ConceptGraph, want: ConceptGraph, edges, context_weights,
                         overrides, questions) -> None:
    """``got`` equals ``want`` and the oracles for every entity of the edges
    and one without any, on every question, with no mention and with each
    span of it as the mention."""
    assert got.context_weights == want.context_weights
    assert got.overrides == want.overrides
    for entity in sorted({e for e, _, _ in edges}) + ["no such entity"]:
        prior = concept_prior_oracle(edges, entity)
        assert got.concept_prior(entity) == want.concept_prior(entity) == prior, entity
        assert list(got.concept_prior(entity)) == list(prior)
        for tokens in questions:
            spans = [(i, j) for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)]
            for mention in [None, *spans]:
                dist = conceptualize_oracle(edges, context_weights, tokens, entity, mention)
                assert got.conceptualize(tokens, entity, mention) == dist
                assert want.conceptualize(tokens, entity, mention) == dist
                dist = question_concepts_oracle(edges, context_weights, overrides, tokens,
                                                entity, mention)
                assert got.question_concepts(tokens, entity, mention) == dist
                assert want.question_concepts(tokens, entity, mention) == dist
                assert list(got.question_concepts(tokens, entity, mention)) == list(dist)


def test_concept_file_of_the_toy_data_equals_its_tsv(data_dir, tmp_path):
    paths = [data_dir / name for name in ("isa.tsv", "context_weights.tsv",
                                          "fixture_overrides.tsv")]
    graph = ConceptGraph.load(*paths)
    edges = read_tsv(paths[0], 3, convert_last(float))
    context_weights = {(c, tok): w for c, tok, w in read_tsv(paths[1], 3, convert_last(float))}
    overrides = {"when was barack obama born": {"person": 0.64, "politician": 0.36}}
    questions = [("when", "was", "barack", "obama", "born"), ("who", "is", "michelle", "obama"),
                 ("how", "many", "people", "are", "there", "in", "honolulu")]
    back = round_trip(graph, tmp_path / "toy.model.concepts")
    assert_same_concepts(back, graph, edges, context_weights, overrides, questions)


def test_concept_file_of_random_graphs_equals_the_graph(tmp_path):
    rng = random.Random(23)
    for trial in range(30):
        entities = [f"e{i} ü" for i in range(rng.randrange(1, 8))]
        concepts = [f"c{i}é" for i in range(rng.randrange(1, 5))]
        words = [f"w{i}" for i in range(4)]
        # repeated (entity, concept) pairs sum their weights
        edges = [(rng.choice(entities), rng.choice(concepts), rng.uniform(0.1, 5.0))
                 for _ in range(rng.randrange(20))]
        context_weights = {(rng.choice(concepts), rng.choice(words)): rng.uniform(0, 2.0)
                           for _ in range(rng.randrange(5))}
        overrides = {}
        for _ in range(rng.randrange(3)):
            question = " ".join(rng.choices(words, k=rng.randrange(1, 4)))
            overrides[question] = {c: rng.random() for c in rng.sample(concepts, len(concepts))}
        graph = ConceptGraph(edges, context_weights, overrides)
        questions = {tuple(rng.choices(words, k=rng.randrange(1, 4))) for _ in range(4)}
        questions.update(tuple(q.split(" ")) for q in overrides)
        back = round_trip(graph, tmp_path / f"{trial}.concepts")
        assert_same_concepts(back, graph, edges, context_weights, overrides, sorted(questions))


def test_concept_file_of_an_empty_isa(tmp_path):
    for graph in [ConceptGraph(), ConceptGraph(overrides={"who is x": {"thing": 1.0}})]:
        back = round_trip(graph, tmp_path / "empty.concepts")
        assert_same_concepts(back, graph, [], {}, graph.overrides,
                             [("who", "is", "x"), ("who", "is", "y")])


_IDS_0_1 = struct.pack("<II", 0, 1)


def _swapped(blob: bytes, old: bytes, new: bytes) -> bytes:
    assert blob.count(old) == 1
    return blob.replace(old, new)


_SEAL = "sha256 seal mismatch: the concept file was changed or cut after it was written"


@pytest.mark.parametrize(
    "graph, rewrite",
    [
        (ConceptGraph(context_weights={("a", "x"): 1.0, ("b", "y"): 2.0}),
         lambda blob: _swapped(blob, b"a\nb\n", b"b\na\n")),
        (ConceptGraph(context_weights={("a", "x"): 1.0, ("a", "y"): 2.0}),
         lambda blob: _swapped(blob, b"x\ny\n", b"x\nx\n")),
        (ConceptGraph(overrides={"a b": {"c": 1.0}, "d e": {"c": 1.0}}),
         lambda blob: _swapped(blob, b"a b\nd e\n", b"d e\na b\n")),
        # the concept ids of one entity's edges, 0 and 1, made 1 and 1, or 1 and 0
        (ConceptGraph([("e", "a", 1.0), ("e", "b", 1.0)]),
         lambda blob: _swapped(blob, _IDS_0_1, struct.pack("<II", 1, 1))),
        (ConceptGraph([("e", "a", 1.0), ("e", "b", 1.0)]),
         lambda blob: _swapped(blob, _IDS_0_1, struct.pack("<II", 1, 0))),
    ],
    ids=["context-unsorted", "context-repeated", "override-questions-unsorted",
         "concept-ids-repeated", "concept-ids-unsorted"],
)
def test_concept_file_refuses_what_no_tsv_gives(tmp_path, graph, rewrite):
    path = tmp_path / "bad.concepts"
    path.write_bytes(rewrite(concepts_bytes(graph)))
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_concepts(path)


# values a context-weight or override file may hold: the readers take a
# context weight that is finite and an override probability in [0, 1]
EDGE_VALUES = ["nan", "inf", "-0.5", "1.5", "1e308"]


def _reader_takes(kind: str, value: float) -> bool:
    return math.isfinite(value) if kind == "context" else 0 <= value <= 1


@pytest.mark.parametrize("text", [*EDGE_VALUES, "-inf"])
def test_readers_refuse_a_context_weight_not_finite_and_an_override_outside_0_1(
    tmp_path, data_dir, text
):
    weights, overrides = tmp_path / "weights.tsv", tmp_path / "overrides.tsv"
    weights.write_text(f"# a comment\nperson\tborn\t{text}\n")
    overrides.write_text(f"who is x\tperson\t{text}\n")
    value = float(text)
    if _reader_takes("context", value):
        graph = ConceptGraph.load(data_dir / "isa.tsv", weights)
        assert graph.context_weights == {("person", "born"): value}
    else:
        with pytest.raises(TsvParseError, match=f"line 2: context weight must be finite, "
                                                f"got {text}"):
            ConceptGraph.load(data_dir / "isa.tsv", weights)
    assert not _reader_takes("override", value)
    with pytest.raises(TsvParseError, match=re.escape(
        f"line 1: override probability must be in [0, 1], got {text}"
    )):
        ConceptGraph.load(data_dir / "isa.tsv", overrides_path=overrides)


@pytest.mark.parametrize("kind, value", [
    (kind, value) for kind in ("context", "override")
    for value in (math.nan, math.inf, -math.inf, -0.5, 0.0, 1.0, 1.5, 1e308)
    if _reader_takes(kind, value)
])
def test_concept_file_takes_the_context_weights_and_overrides_the_readers_take(
    tmp_path, kind, value
):
    if kind == "context":
        graph = ConceptGraph(context_weights={("c", "w"): value, ("c", "x"): 0.5})
    else:
        graph = ConceptGraph(overrides={"who is x": {"c": 0.5, "d": value}})
    back = round_trip(graph, tmp_path / "edge.concepts")
    assert (back.context_weights, back.overrides) == (graph.context_weights, graph.overrides)


@pytest.mark.parametrize("born, was", [(float(t), float(t)) for t in EDGE_VALUES]
                         + [(math.inf, -math.inf)],
                         ids=EDGE_VALUES + ["inf-minus-inf"])
def test_conceptualize_falls_back_when_a_factor_or_their_sum_is_not_finite(born, was):
    """Two finite weights of 1e308 overflow their sum: the question falls
    back to the universal concept rather than answer with NaN or raise."""
    graph = ConceptGraph([("e", "person", 1.0), ("e", "politician", 1.0)],
                         context_weights={("person", "born"): born, ("person", "was"): was})
    tokens, mention = ("when", "was", "e", "born"), (2, 3)
    dist = graph.question_concepts(tokens, "e", mention)
    assert all(math.isfinite(p) and 0 <= p <= 1 for p in dist.values())
    factor = 1 + born + was
    if not math.isfinite(factor):  # inf - inf is NaN
        assert graph.conceptualize(tokens, "e", mention) == {}
        assert dist == {"entity": 1.0}
    else:
        person = max(factor, 0.0) / (max(factor, 0.0) + 1)
        assert dist == pytest.approx({"person": person, "politician": 1 - person})


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
