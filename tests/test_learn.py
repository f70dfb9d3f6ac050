"""EM estimation: the folded training set, factors, initialization, E/M
steps, SQUAREM and convergence, baseline."""

from __future__ import annotations

import dataclasses
import logging
import random
import re
import sys
from types import ModuleType
from math import fsum, isclose, log

import pytest

import factqa.learn as learn_module
from factqa.concepts import ConceptGraph
from factqa.corpus import (
    EntityValueExtractor,
    QaPair,
    corpus_stats,
    probe_corpus,
    tokenize,
)
from factqa.kb import KnowledgeBase, TsvParseError, expand_predicates, expansion_map
from factqa.learn import (
    Posterior,
    PredicateModel,
    TrainingSet,
    e_step,
    init_theta,
    learn,
    log_likelihood,
    m_step,
)
from factqa.pipeline import build_entity_index, corpus_seed_entities
from oracles import (
    TrainingItem,
    counting_baseline,
    fold,
    grouped,
    item_candidates,
    item_responsibilities,
    learn_plain,
    log_likelihood_by_group,
    log_likelihood_by_item,
    m_step_item_by_item,
    posterior_oracle,
    training_items,
)

DOB = ("dob",)
CATEGORY = ("category",)
T_PERSON = "when was $person born"
T_POLITICIAN = "when was $politician born"


def test_package_attributes_are_its_submodules():
    """The package re-exports no name, so ``factqa.learn`` is the module,
    not the ``learn`` function."""
    assert learn_module is sys.modules["factqa.learn"]
    package = sys.modules["factqa"]
    public = {name: value for name, value in vars(package).items() if not name.startswith("_")}
    assert "learn" in public
    assert all(isinstance(value, ModuleType) for value in public.values()), sorted(public)


def make_item(template_probs, value_probs, weight=1.0, p_q=1.0, p_e=1.0):
    return TrainingItem(("q",), "e", "v", weight, p_q, p_e, template_probs, value_probs)


def random_items(rng, n_obs=10, n_templates=3, n_paths=3):
    """Random sparse instances; every observation supports at least one
    template and one path."""
    templates = [f"t{i}" for i in range(n_templates)]
    paths = [(f"p{i}",) for i in range(n_paths)]
    items = []
    for _ in range(n_obs):
        chosen_t = rng.sample(templates, rng.randrange(1, n_templates + 1))
        chosen_p = rng.sample(paths, rng.randrange(1, n_paths + 1))
        t_raw = {t: rng.uniform(0.1, 1.0) for t in chosen_t}
        t_total = fsum(t_raw.values())
        template_probs = {t: w / t_total for t, w in t_raw.items()}
        value_probs = {p: rng.uniform(0.1, 1.0) for p in chosen_p}
        items.append(
            make_item(template_probs, value_probs, weight=rng.uniform(0.5, 2.0),
                      p_q=rng.uniform(0.1, 1.0))
        )
    return items


def random_training_set(rng, n_obs=10, n_templates=3, n_paths=3):
    return fold(random_items(rng, n_obs, n_templates, n_paths))


def random_items_with_duplicates(rng, n_obs=20, n_distinct=4):
    """Random instances in which items repeat one another's candidates
    (equal factors and assignments) under weights of their own."""
    base = random_items(rng, n_obs=n_distinct, n_templates=3, n_paths=3)
    return [
        dataclasses.replace(rng.choice(base), weight=rng.uniform(0.5, 2.0))
        for _ in range(n_obs)
    ]


def random_partial_model(rng, n_templates=3, n_paths=3):
    """Random rows over random subsets of the templates and paths of
    ``random_items``, so some observations score zero."""
    rows = {}
    for t in range(n_templates):
        if rng.random() < 0.7:
            chosen = rng.sample(range(n_paths), rng.randrange(1, n_paths + 1))
            raw = {(f"p{p}",): rng.uniform(0.1, 1.0) for p in chosen}
            total = fsum(raw.values())
            rows[f"t{t}"] = {path: w / total for path, w in raw.items()}
    return PredicateModel(rows)


def _assert_likelihood_of(training, items, model, ll):
    """``ll`` is the model's log-likelihood as the E-step scores it: equal
    to the group-by-group sum, and within 1e-12 (relative) of the item by
    item one."""
    assert ll == log_likelihood(training, model)
    assert ll == log_likelihood_by_group(items, model)
    assert abs(ll - log_likelihood_by_item(items, model)) <= 1e-12 * abs(ll)


# ---------------------------------------------------------------------------
# the folded training set


def test_build_folds_the_items_of_the_item_by_item_build(toy_items, toy_training):
    assert toy_training.observations == [
        (i.question, i.entity, i.value, i.weight) for i in toy_items
    ]
    assert item_candidates(toy_training) == [item.candidates for item in toy_items]
    assert (toy_training.assignments, toy_training.groups) == grouped(toy_items)
    assert len(toy_training.groups) < len(toy_training)


def test_fold_groups_items_as_the_item_by_item_grouping():
    """Over random sets with repeated candidates, rows equal in content but
    built apart, zero probabilities and items with no candidate."""
    rng = random.Random(17)
    for _ in range(60):
        items = random_items_with_duplicates(
            rng, n_obs=rng.randrange(1, 30), n_distinct=rng.randrange(1, 6)
        )
        items += [
            dataclasses.replace(rng.choice(items), template_probs={"t0": 0.0}),
            make_item({"t1": 1.0, "t2": 0.0}, {DOB: 0.0, CATEGORY: 0.5}),
            make_item({"t2": 0.0, "t1": 1.0}, {CATEGORY: 0.5}),
        ]
        rng.shuffle(items)
        training = fold(items)
        assert (training.assignments, training.groups) == grouped(items)
        assert item_candidates(training) == [item.candidates for item in items]
        assert training.masses == [
            fsum(items[i].weight for i in members) for _, _, members in training.groups
        ]


def test_masses_follow_every_add():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0}, weight=0.25)])
    assert training.masses == [0.25]
    row_t, row_p = training.template_row({"t": 1.0}), training.path_row({DOB: 1.0})
    training.add((("q",), "e", "v", 0.5), 1.0, 1.0, row_t, row_p)
    assert training.masses == [0.75]
    assert len(training) == 2


# ---------------------------------------------------------------------------
# f(x, z), read from the observation's group (absent means zero)


def factor_f(training, entity, assignment):
    i = next(i for i, o in enumerate(training.observations) if o[1] == entity)
    return dict(item_candidates(training)[i]).get(assignment, 0.0)


def test_factor_f_obama_fixture(toy_training):
    f = factor_f(toy_training, "BarackObama", (T_PERSON, DOB))
    assert f == pytest.approx((2 / 3) * 1.0 * 0.64 * 1.0, abs=1e-12)
    assert f == pytest.approx(0.4267, abs=5e-5)


def test_factor_f_zero_when_template_missing(toy_training):
    assert factor_f(toy_training, "BarackObama", ("who is $person", DOB)) == 0.0


def test_factor_f_zero_when_path_not_connecting(toy_training):
    assert factor_f(toy_training, "BarackObama", (T_PERSON, ("population",))) == 0.0


# ---------------------------------------------------------------------------
# TrainingSet.build: template rows by phrasing shape, path rows from the
# expansion

SHAPE_CATEGORIES = {"dob": "date", "population": "number", "birthplace": "location",
                    "name": "person"}


def shape_world(isa, context_weights=None, overrides=None):
    """Six people and two cities, each named "person i" or "city j"; every
    person has a birth year and birthplace, person 3 a second birthplace,
    and persons 0 and 1 a spouse behind a marriage node."""
    triples = [("C0", "population", "1000"), ("C1", "population", "2000"),
               ("M0", "person", "P1"), ("P0", "marriage", "M0"), ("P1", "marriage", "M1"),
               ("M1", "person", "P0"), ("P3", "birthplace", "C0")]
    dictionary = [("C0", "city 0"), ("C1", "city 1")]
    for i in range(6):
        triples += [(f"P{i}", "dob", str(1950 + i)), (f"P{i}", "birthplace", f"C{i % 2}"),
                    (f"P{i}", "name", f"person {i}")]
        dictionary.append((f"P{i}", f"person {i}"))
    return KnowledgeBase(triples), dictionary, ConceptGraph(isa, context_weights, overrides)


def build_args(kb, dictionary, concepts, qa: list[tuple[str, str]]):
    """The arguments of ``TrainingSet.build`` and of its item-by-item
    oracle for the QA pairs, as the offline flow makes them."""
    stats = corpus_stats(QaPair(tokenize(q), tokenize(a)) for q, a in qa)
    mentions = probe_corpus(kb, build_entity_index(kb, dictionary)[0],
                            stats.question_counts).mentions
    paths = expand_predicates(kb, corpus_seed_entities(mentions), 3)
    extractor = EntityValueExtractor(kb, dictionary, expansion_map(paths),
                                     predicate_categories=SHAPE_CATEGORIES)
    return stats, mentions, extractor, concepts


SHAPE_ISA = [
    # persons 0, 3 and 4 share a prior; so do persons 1 and 2, by other weights
    ("P0", "person", 1.0), ("P0", "politician", 1.0), ("P3", "person", 2.0),
    ("P3", "politician", 2.0), ("P4", "politician", 1.0), ("P4", "person", 1.0),
    ("P1", "person", 1.0), ("P2", "person", 3.0),
    ("P5", "politician", 2.0), ("P5", "person", 1.0),
    ("C0", "city", 1.0),  # city 1 has no isA edge: the universal concept
]
SHAPE_CONTEXT = {("person", "born"): 0.5, ("politician", "birthday"): 1.0,
                 ("politician", "exactly"): -0.25, ("city", "live"): 0.3}
SHAPE_OVERRIDES = {"when was person 0 born": {"politician": 0.7, "person": 0.3}}
SHAPE_CORPUS = [
    # one phrasing over three entities of one prior, the override's between
    ("When was person 3 born?", "1953"),
    ("When was person 0 born?", "1950"),
    ("When was person 4 born?", "1954"),
    # the same, but for a word that carries a context weight
    ("When was person 4 born exactly?", "In 1954."),
    # equal priors under different phrasings
    ("When was person 1 born?", "1951"),
    ("When is the birthday of person 2?", "1952"),
    ("When is the birthday of person 1?", "It is 1951"),
    # a possessive mention
    ("When is person 5's birthday?", "1955"),
    ("Who is person 0's wife?", "person 1"),
    ("How many people live in city 0?", "1000"),
    ("How many people live in city 1?", "2000"),
    ("Where was person 3 born?", "city 1"),
]


def shape_key(concepts, question, entity, mentions):
    start, end = next(span for span, e in mentions[question] if e == entity)
    return question[:start], question[end:], tuple(concepts.concept_prior(entity).items())


def test_build_matches_the_item_oracle_on_a_corpus_of_shared_shapes():
    kb, dictionary, concepts = shape_world(SHAPE_ISA, SHAPE_CONTEXT, SHAPE_OVERRIDES)
    args = build_args(kb, dictionary, concepts, SHAPE_CORPUS)
    training, items, mentions = TrainingSet.build(*args), training_items(*args), args[1]
    assert (training.assignments, training.groups) == grouped(items)
    assert training.observations == [(i.question, i.entity, i.value, i.weight) for i in items]
    rows = {(i.question, i.entity): i.template_probs for i in items}
    # every kind of entry the corpus was built for is there
    assert rows[tokenize("when was person 0 born"), "P0"] == {
        "when was $politician born": 0.7, "when was $person born": 0.3}
    assert rows[tokenize("when was person 3 born"), "P3"] == rows[
        tokenize("when was person 4 born"), "P4"] != rows[tokenize("when was person 0 born"), "P0"]
    born = rows[tokenize("when was person 4 born"), "P4"]
    exactly = rows[tokenize("when was person 4 born exactly"), "P4"]
    assert exactly["when was $politician born exactly"] < born["when was $politician born"]
    assert rows[tokenize("when was person 1 born"), "P1"] == {"when was $person born": 1.0}
    assert rows[tokenize("how many people live in city 1"), "C1"] == {
        "how many people live in $entity": 1.0}
    assert rows[tokenize("when is person 5's birthday"), "P5"].keys() == {
        "when is $person birthday", "when is $politician birthday"}
    assert ("P0", "person 1") in {(i.entity, i.value) for i in items}  # a three-step path
    assert {i.value: i.value_probs for i in items if i.entity == "P3"}["C1"] == {
        ("birthplace",): 0.5}
    assert shape_key(concepts, tokenize("when was person 1 born"), "P1", mentions)[2] == (
        shape_key(concepts, tokenize("when is the birthday of person 2"), "P2", mentions)[2])


def test_build_derives_concepts_once_per_shape_and_walks_no_value_distribution(monkeypatch):
    kb, dictionary, concepts = shape_world(SHAPE_ISA, SHAPE_CONTEXT, SHAPE_OVERRIDES)
    calls = {"question_concepts": 0, "value_distribution": 0, "path_row": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ConceptGraph, "question_concepts")
    counting(KnowledgeBase, "value_distribution")
    counting(TrainingSet, "path_row")
    args = build_args(kb, dictionary, concepts, SHAPE_CORPUS)
    training = TrainingSet.build(*args)
    monkeypatch.undo()
    mentions = args[1]
    # an overridden question's rows are derived once per entity
    overridden = {(q, e) for q, e, _, _ in training.observations
                  if " ".join(q) in concepts.overrides}
    shapes = {shape_key(concepts, q, e, mentions) for q, e, _, _ in training.observations
              if (q, e) not in overridden}
    assert len(overridden) == 1 and len(shapes) < len(training) - 1
    # one path row per distinct row, though (entity, value) pairs share rows
    rows = training._path_rows[1]
    pairs = {(e, v) for _, e, v, _ in training.observations}
    assert len(rows) < len(pairs)
    assert calls == {"question_concepts": len(shapes) + len(overridden), "value_distribution": 0,
                     "path_row": len(rows)}


@pytest.mark.parametrize("seed", range(6))
def test_build_matches_the_item_oracle_on_random_corpora(seed):
    rng = random.Random(seed)
    concepts = ["person", "politician", "city", "actor"]
    isa = [(node, rng.choice(concepts), rng.choice([0.5, 1.0, 2.0, 3.0]))
           for node in [f"P{i}" for i in range(6)] + ["C0", "C1"] for _ in range(rng.randrange(3))]
    words = ["born", "birthday", "live", "exactly", "was", "when", "of"]
    context = {(rng.choice(concepts), rng.choice(words)): rng.uniform(-1.5, 1.5)
               for _ in range(rng.randrange(5))}
    phrasings = [("when was {} born", "dob"), ("when was {} born exactly", "dob"),
                 ("when is the birthday of {}", "dob"), ("when is {}'s birthday", "dob"),
                 ("when were {} and {} born", "dob"), ("how many people live in {}", "population"),
                 ("where was {} born", "birthplace"), ("who is {}'s wife", "wife"),
                 ("{} born when", "dob")]
    truth = {f"P{i}": {"dob": str(1950 + i), "birthplace": f"city {i % 2}"} for i in range(6)}
    truth["P0"]["wife"], truth["P1"]["wife"] = "person 1", "person 0"
    truth["C0"], truth["C1"] = {"population": "1000"}, {"population": "2000"}
    names = {node: node.replace("P", "person ").replace("C", "city ") for node in truth}
    qa = []
    for _ in range(60):
        phrasing, family = rng.choice(phrasings)
        nodes = rng.sample(sorted(truth), phrasing.count("{}"))
        answer = truth[nodes[0]].get(family, "no idea")
        if rng.random() < 0.25:
            answer = rng.choice(["1951", "it was 1952", "city 1", "person 0", "2000", "no idea"])
        qa.append((phrasing.format(*map(names.get, nodes)), answer))
    overrides = {" ".join(tokenize(q)): {rng.choice(concepts): 1.0}
                 for q, _ in rng.sample(qa, rng.randrange(3))}
    kb, dictionary, graph = shape_world(isa, context, overrides)
    args = build_args(kb, dictionary, graph, qa)
    training, items = TrainingSet.build(*args), training_items(*args)
    assert len(training) > 10
    assert (training.assignments, training.groups) == grouped(items)
    assert training.observations == [(i.question, i.entity, i.value, i.weight) for i in items]


def test_build_groups_the_answers_of_a_question_that_lie_apart():
    """Two questions whose answers lie apart in the corpus, one pair of them
    twice: the observations come out question by question, each question's
    answers in order of first occurrence, and EM on them gives exactly the
    model of EM on the item oracle's observations."""
    kb, dictionary, concepts = shape_world(SHAPE_ISA, SHAPE_CONTEXT, SHAPE_OVERRIDES)
    qa = [("When was person 1 born?", "1951"), ("Where was person 3 born?", "city 1"),
          ("When is the birthday of person 2?", "1952"), ("When was person 1 born?", "It is 1951"),
          ("Where was person 3 born?", "city 0"), ("When was person 1 born?", "1951")]
    args = build_args(kb, dictionary, concepts, qa)
    training, items = TrainingSet.build(*args), training_items(*args)
    assert [(q, v) for q, _, v, _ in training.observations] == [
        (tokenize(q), v) for q, v in [
            ("When was person 1 born?", "1951"), ("When was person 1 born?", "1951"),
            ("Where was person 3 born?", "C1"), ("Where was person 3 born?", "C0"),
            ("When is the birthday of person 2?", "1952")]]
    assert training.observations == [(i.question, i.entity, i.value, i.weight) for i in items]
    got, want = learn(training), learn(fold(items))
    assert got.ll_history == want.ll_history
    assert {t: dict(got.model.row(t)) for t in got.model.templates()} == {
        t: dict(want.model.row(t)) for t in want.model.templates()}


# ---------------------------------------------------------------------------
# init_theta


def test_init_theta_two_way_uniform():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0, CATEGORY: 0.5})])
    model = init_theta(training)
    assert model.row("t") == {DOB: 0.5, CATEGORY: 0.5}


def test_init_theta_single_support():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0})])
    assert init_theta(training).row("t") == {DOB: 1.0}


def test_init_theta_rows_sum_to_one_random():
    rng = random.Random(21)
    training = random_training_set(rng, n_obs=30, n_templates=5, n_paths=4)
    model = init_theta(training)
    assert len(model)
    for t in model.templates():
        assert isclose(fsum(model.row(t).values()), 1.0, abs_tol=1e-9)


def test_init_theta_empty():
    assert len(init_theta(TrainingSet())) == 0


# ---------------------------------------------------------------------------
# e_step


def test_e_step_single_assignment():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0})])
    post = e_step(training, init_theta(training))
    assert post.responsibilities == [{("t", DOB): 1.0}]
    assert post.dropped == 0


def test_e_step_hand_normalization():
    # theta row (0.5, 0.5), factors (0.4, 0.1) -> responsibilities (0.8, 0.2)
    training = fold([make_item({"t": 1.0}, {DOB: 0.4, CATEGORY: 0.1})])
    model = PredicateModel({"t": {DOB: 0.5, CATEGORY: 0.5}})
    (resp,) = e_step(training, model).responsibilities
    assert resp[("t", DOB)] == pytest.approx(0.8, abs=1e-12)
    assert resp[("t", CATEGORY)] == pytest.approx(0.2, abs=1e-12)


def test_e_step_matches_bruteforce_oracle():
    rng = random.Random(31)
    for _ in range(25):
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
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is None:
                continue
            assert set(g) == set(w)
            for z in g:
                assert g[z] == pytest.approx(w[z], abs=1e-12)


def test_e_step_drops_unsupported_observations():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0}), make_item({"t": 1.0}, {DOB: 1.0})])
    model = PredicateModel({"other": {DOB: 1.0}})
    post = e_step(training, model)
    assert post.responsibilities == [None]
    assert post.dropped == 2
    assert post.log_likelihood == 0.0


def test_e_step_on_duplicate_items_matches_oracle_and_likelihood():
    rng = random.Random(37)
    for _ in range(40):
        items = random_items_with_duplicates(
            rng, n_obs=rng.randrange(2, 25), n_distinct=rng.randrange(1, 5)
        )
        training = fold(items)
        for model in (init_theta(training), random_partial_model(rng)):
            post = e_step(training, model)
            want = posterior_oracle(items, model)
            got = item_responsibilities(training, post)
            assert len(got) == len(want)
            assert post.dropped == sum(w is None for w in want)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if g is None:
                    continue
                assert set(g) == set(w)
                for z in g:
                    assert abs(g[z] - w[z]) <= 1e-12
            _assert_likelihood_of(training, items, model, post.log_likelihood)


# ---------------------------------------------------------------------------
# m_step


def test_m_step_all_mass_on_one_assignment():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0})])
    post = Posterior([{("t", DOB): 1.0}])
    assert m_step(training, post).row("t") == {DOB: 1.0}


def test_m_step_hand_division():
    training = fold([make_item({"t": 1.0}, {DOB: 1.0, CATEGORY: 1.0})])
    post = Posterior([{("t", DOB): 0.75, ("t", CATEGORY): 0.25}])
    model = m_step(training, post)
    assert model.row("t") == {DOB: 0.75, CATEGORY: 0.25}


def test_m_step_rows_sum_to_one_random():
    rng = random.Random(41)
    for _ in range(10):
        training = random_training_set(rng, n_obs=20)
        model = m_step(training, e_step(training, init_theta(training)))
        for t in model.templates():
            assert isclose(fsum(model.row(t).values()), 1.0, abs_tol=1e-9)


def test_m_step_on_duplicate_items_matches_item_by_item_oracle():
    rng = random.Random(43)
    for _ in range(40):
        training = fold(random_items_with_duplicates(
            rng, n_obs=rng.randrange(2, 25), n_distinct=rng.randrange(1, 5)
        ))
        for model in (init_theta(training), random_partial_model(rng)):
            posterior = e_step(training, model)
            _assert_models_close(m_step(training, posterior),
                                 m_step_item_by_item(training, posterior))


def _assert_models_close(got, want):
    assert got.templates() == want.templates()
    for template in want.templates():
        assert set(got.row(template)) == set(want.row(template))
        for path, prob in want.row(template).items():
            assert abs(got.row(template)[path] - prob) <= 1e-12


def distance(a, b):
    """Max |a - b| over every entry of either model."""
    return max(
        (abs(a.prob(t, p) - b.prob(t, p))
         for model in (a, b) for t in model.templates() for p in model.row(t)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# learn


def test_learn_noise_tolerance_majority_predicate():
    # 90% of the template's observations connect via dob only
    items = [make_item({"t": 1.0}, {DOB: 1.0}) for _ in range(18)]
    items += [make_item({"t": 1.0}, {CATEGORY: 1.0}) for _ in range(2)]
    result = learn(fold(items))
    top = result.model.top_path("t")
    assert top is not None and top[0] == DOB
    assert result.model.prob("t", DOB) == pytest.approx(0.9, abs=1e-9)


def test_learn_single_assignment_converges_immediately():
    items = [make_item({"t": 1.0}, {DOB: 1.0}), make_item({"u": 1.0}, {CATEGORY: 1.0})]
    result = learn(fold(items))
    assert result.iterations == 1
    assert result.model.prob("t", DOB) == 1.0


def test_learn_toy_fixture_prefers_dob(toy_training):
    result = learn(toy_training)
    assert result.model.prob(T_PERSON, DOB) > result.model.prob(T_PERSON, CATEGORY)
    assert result.model.prob(T_POLITICIAN, DOB) == 1.0
    assert result.dropped_observations == 0


def test_learn_toy_fixture_equals_plain_em(toy_training):
    """The toy set converges in one step, before any extrapolation."""
    got, want = learn(toy_training), learn_plain(toy_training)
    assert got.iterations == want.iterations == 1
    assert got.model.items() == want.model.items()
    assert got.ll_history == want.ll_history


def test_learn_empty_training_set():
    result = learn(TrainingSet())
    assert len(result.model) == 0
    assert result.iterations == 0


def test_learn_rejects_bad_max_iters(toy_training):
    with pytest.raises(ValueError):
        learn(toy_training, max_iters=0)


def random_em_items(rng):
    """A random set with repeated candidates, one-member groups, zero
    template and path probabilities (an item keeps some candidates) and an
    item with no candidate, which every model drops."""
    items = random_items_with_duplicates(
        rng, n_obs=rng.randrange(2, 30), n_distinct=rng.randrange(1, 6)
    )
    items += random_items(rng, n_obs=rng.randrange(1, 8), n_templates=4, n_paths=4)
    items.append(dataclasses.replace(items[0], weight=rng.uniform(0.5, 2.0)))
    zeroed = rng.choice(items)
    items.append(dataclasses.replace(
        zeroed,
        template_probs={**zeroed.template_probs, "t3": 0.0},
        value_probs={**zeroed.value_probs, ("p3",): 0.0},
    ))
    items.append(make_item({"t0": 0.0}, {("p0",): 1.0}, weight=rng.uniform(0.5, 2.0)))
    rng.shuffle(items)
    return items


def test_squarem_over_random_training_sets():
    """Over 200 seeded sets: the likelihood never decreases (beyond
    rounding), every row is on the simplex, and the model is no farther
    from EM's fixed point (plain EM run to 1e-12) than plain EM stopped at
    the same epsilon. Where plain EM takes more than 1,000 steps to reach
    1e-12 (a tail that creeps toward a row's edge), no fixed point is at
    hand and the distance is not compared."""
    rng = random.Random(1801)
    compared = 0
    for _ in range(200):
        items = random_em_items(rng)
        training = fold(items)
        assert any(len(members) > 1 for _, _, members in training.groups)
        assert any(len(members) == 1 for _, _, members in training.groups)
        result = learn(training)
        assert result.dropped_observations >= 1
        history = result.ll_history
        assert len(history) == result.iterations + 1
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-12 * abs(before)
        for template in result.model.templates():
            row = result.model.row(template)
            assert all(0 < p <= 1 for p in row.values())
            assert abs(fsum(row.values()) - 1.0) <= 1e-12
        plain = learn_plain(training)
        assert result.iterations <= plain.iterations + 1
        fixed = learn_plain(training, max_iters=1000, epsilon=1e-12)
        if fixed.iterations < 1000:
            compared += 1
            assert distance(result.model, fixed.model) <= distance(plain.model, fixed.model)
    assert compared >= 140


def _debug_steps(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.DEBUG and r.getMessage().startswith("EM step ")]


def test_learn_logs_one_debug_line_per_step(caplog, toy_training):
    caplog.set_level(logging.DEBUG, logger="factqa")
    rng = random.Random(1803)
    for training in [toy_training, *(fold(random_em_items(rng)) for _ in range(20))]:
        caplog.clear()
        result = learn(training)
        steps = _debug_steps(caplog)
        assert len(steps) == result.iterations
        for number, (line, ll) in enumerate(zip(steps, result.ll_history), 1):
            assert line.startswith(f"EM step {number}: log-likelihood {ll!r}, max change ")
            assert line.endswith(("plain", "extrapolated", "fallback"))


def test_learn_first_two_steps_are_plain_em():
    rng = random.Random(1805)
    for _ in range(30):
        training = fold(random_em_items(rng))
        for max_iters in (1, 2):
            got, want = learn(training, max_iters), learn_plain(training, max_iters)
            assert got.iterations == want.iterations
            assert got.model.items() == want.model.items()
            assert got.ll_history == want.ll_history


def test_learn_third_step_starts_from_the_squarem_point(caplog):
    caplog.set_level(logging.DEBUG, logger="factqa")
    rng = random.Random(1807)
    kinds = set()
    for _ in range(30):
        training = fold(random_em_items(rng))
        if learn_plain(training, 3).iterations < 3:
            continue
        caplog.clear()
        result = learn(training, max_iters=3)
        assert result.iterations == 3
        steps = _debug_steps(caplog)
        assert [s.rsplit(", ", 1)[1] for s in steps[:2]] == ["plain", "plain"]
        kinds.add(steps[2].rsplit(", ", 1)[1])
        history = result.ll_history
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(history, history[1:]))
    assert "extrapolated" in kinds


@pytest.mark.parametrize("refused", ["leaves-the-simplex", "lower-likelihood"])
def test_refused_extrapolations_fall_back_to_plain_em(monkeypatch, caplog, refused):
    """When every SQUAREM point is refused, each cycle goes on from the
    plain model, so the run is plain EM step for step."""

    def leaving(theta0, theta1, theta2):
        # an entry that EM keeps positive is pushed below zero
        point = list(theta0)
        point[next(a for a, p in enumerate(theta0) if p > 0)] = -0.5
        return point

    def lower(theta0, theta1, theta2):
        # the cycle's start scores below theta1, the last model scored
        return list(theta0)

    monkeypatch.setattr(
        learn_module, "_squarem_point", leaving if refused == "leaves-the-simplex" else lower
    )
    caplog.set_level(logging.DEBUG, logger="factqa")
    rng = random.Random(1809)
    for _ in range(20):
        training = fold(random_em_items(rng))
        caplog.clear()
        got = learn(training)
        # plain EM to its stop, and one more step for the second change
        # below epsilon
        assert got.iterations - learn_plain(training).iterations in (0, 1)
        want = learn_plain(training, got.iterations, epsilon=0.0)
        assert got.iterations == want.iterations
        assert got.model.items() == want.model.items()
        assert got.ll_history == want.ll_history
        kinds = [s.rsplit(", ", 1)[1] for s in _debug_steps(caplog)]
        assert "extrapolated" not in kinds
        assert kinds[:3] == ["plain", "plain", "fallback"][: len(kinds)]


# ---------------------------------------------------------------------------
# log_likelihood


def test_log_likelihood_single_term():
    training = fold([make_item({"t": 1.0}, {DOB: 0.5})])
    model = PredicateModel({"t": {DOB: 0.5}})
    assert log_likelihood(training, model) == pytest.approx(log(0.25), abs=1e-12)


def test_log_likelihood_monotone_over_random_instances():
    rng = random.Random(51)
    for _ in range(20):
        training = random_training_set(
            rng, n_obs=rng.randrange(5, 25), n_templates=4, n_paths=4
        )
        result = learn(training, max_iters=100)
        history = result.ll_history
        assert len(history) >= 2
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9


def test_ll_history_is_the_likelihood_of_every_model_visited(monkeypatch):
    scored = {}
    inputs = []

    def recording_e_step(training, model):
        posterior = e_step(training, model)
        scored[id(posterior)] = model
        return posterior

    def recording_m_step(training, posterior):
        inputs.append(scored[id(posterior)])
        return m_step(training, posterior)

    monkeypatch.setattr(learn_module, "e_step", recording_e_step)
    monkeypatch.setattr(learn_module, "m_step", recording_m_step)
    rng = random.Random(53)
    for _ in range(15):
        items = random_items_with_duplicates(
            rng, n_obs=rng.randrange(2, 30), n_distinct=rng.randrange(1, 6)
        )
        training = fold(items)
        scored.clear()
        inputs.clear()
        result = learn(training, max_iters=rng.randrange(1, 40))
        assert inputs[0].items() == init_theta(training).items()
        assert len(result.ll_history) == len(inputs) + 1 == result.iterations + 1
        for ll, model in zip(result.ll_history, [*inputs, result.model]):
            _assert_likelihood_of(training, items, model, ll)
        assert result.final_log_likelihood == result.ll_history[-1]


def test_learn_matches_an_item_by_item_run(monkeypatch, toy_training):
    # A group's folded mass times r can differ in its last digits from the
    # item-by-item sum. Where every group has one member the two runs agree
    # bit for bit by construction; on the toy corpus, which has a group of
    # two, they agree bit for bit too; elsewhere they agree to 1e-12.
    rng = random.Random(57)
    distinct = [
        random_training_set(rng, n_obs=rng.randrange(5, 25), n_templates=4, n_paths=4)
        for _ in range(15)
    ]
    duplicated = [
        fold(random_items_with_duplicates(
            rng, n_obs=rng.randrange(2, 30), n_distinct=rng.randrange(1, 6)
        ))
        for _ in range(15)
    ]
    runs = [(training, learn(training)) for training in [toy_training, *distinct, *duplicated]]
    monkeypatch.setattr(learn_module, "m_step", m_step_item_by_item)
    for training, got in runs:
        want = learn(training)
        assert got.iterations == want.iterations
        if training is toy_training or all(len(g[2]) == 1 for g in training.groups):
            assert got.ll_history == want.ll_history
            assert got.model.items() == want.model.items()
        else:
            assert got.ll_history == pytest.approx(want.ll_history, rel=1e-12, abs=0)
            _assert_models_close(got.model, want.model)
    assert len(toy_training.groups) < len(toy_training)
    assert all(len(g[2]) == 1 for training in distinct for g in training.groups)


def test_log_likelihood_invariant_under_reordering():
    rng = random.Random(61)
    items = random_items(rng, n_obs=12)
    training = fold(items)
    model = init_theta(training)
    shuffled = fold(list(reversed(items)))
    assert log_likelihood(training, model) == pytest.approx(
        log_likelihood(shuffled, model), abs=1e-12
    )


# ---------------------------------------------------------------------------
# counting baseline (the oracle in tests/oracles.py)


def test_counting_baseline_unique_connector():
    items = [make_item({"t": 1.0}, {DOB: 1.0}) for _ in range(3)]
    assert counting_baseline(items).row("t") == {DOB: 1.0}


def test_counting_baseline_two_equal_connectors():
    model = counting_baseline([make_item({"t": 1.0}, {DOB: 0.5, CATEGORY: 0.5})])
    assert model.row("t") == {DOB: 0.5, CATEGORY: 0.5}


def test_counting_baseline_two_to_one_split():
    # person-template observations split 2:1 between dob- and
    # category-connected values -> 2/3 vs 1/3 (the 0.67 / 0.33 rows)
    items = [
        make_item({T_PERSON: 1.0}, {DOB: 1.0}, weight=1 / 3),
        make_item({T_PERSON: 1.0}, {DOB: 1.0}, weight=1 / 3),
        make_item({T_PERSON: 1.0}, {CATEGORY: 0.5}, weight=1 / 3),
    ]
    model = counting_baseline(items)
    assert model.prob(T_PERSON, DOB) == pytest.approx(2 / 3, abs=1e-12)
    assert model.prob(T_PERSON, CATEGORY) == pytest.approx(1 / 3, abs=1e-12)
    assert round(model.prob(T_PERSON, DOB), 2) == 0.67
    assert round(model.prob(T_PERSON, CATEGORY), 2) == 0.33


def test_counting_baseline_agrees_with_em_on_single_connector_instances():
    # when every observation admits one connecting path, EM collapses to
    # counting; the per-template argmax must agree
    rng = random.Random(71)
    for _ in range(10):
        items = []
        for _ in range(rng.randrange(4, 15)):
            t = f"t{rng.randrange(2)}"
            p = (f"p{rng.randrange(3)}",)
            items.append(make_item({t: 1.0}, {p: rng.uniform(0.2, 1.0)}))
        em_model = learn(fold(items)).model
        count_model = counting_baseline(items)
        for t in count_model.templates():
            assert em_model.top_path(t)[0] == count_model.top_path(t)[0]


# ---------------------------------------------------------------------------
# model file round-trip


def test_model_save_load_roundtrip(tmp_path, toy_training):
    model = learn(toy_training).model
    target = tmp_path / "model.tsv"
    model.save(target)
    reloaded = PredicateModel.load(target)
    assert reloaded.items() == model.items()
    # sorted by template then probability descending
    lines = target.read_text().splitlines()
    assert lines == sorted(lines, key=lambda l: (l.split("\t")[0], -float(l.split("\t")[2])))


def test_model_file_refuses_a_repeated_template_and_path(tmp_path):
    target = tmp_path / "model.tsv"
    target.write_text("t\tdob\t0.5\nt\tplace_of_birth\t0.5\nu\tdob\t1.0\nt\tdob\t0.25\n",
                      encoding="utf-8")
    with pytest.raises(TsvParseError, match=re.escape(
            f"{target}: line 4: same key as line 1: ('t', 'dob')")):
        PredicateModel.load(target)
    # a template may hold several paths, and a path several templates
    target.write_text("t\tdob\t0.5\nt\tplace_of_birth\t0.5\nu\tdob\t1.0\n", encoding="utf-8")
    assert len(PredicateModel.load(target)) == 2


def test_model_items_deterministic(fixture_model, tmp_path):
    fixture_model.save(tmp_path / "first.tsv")
    fixture_model.save(tmp_path / "second.tsv")
    assert (tmp_path / "first.tsv").read_bytes() == (tmp_path / "second.tsv").read_bytes()


def test_model_row_is_read_only():
    model = PredicateModel({"t": {DOB: 0.5, CATEGORY: 0.5}})
    row = model.row("t")
    with pytest.raises(TypeError):
        row[DOB] = 1.0
    with pytest.raises(TypeError):
        del row[CATEGORY]
    with pytest.raises(TypeError):
        model.row("missing")[DOB] = 1.0
    assert model.row("t") == {DOB: 0.5, CATEGORY: 0.5}
    assert "missing" not in model
