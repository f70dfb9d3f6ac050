"""A seeded synthetic world for the benchmark.

One generator, driven by a seed and a scale factor (1.0 is 1,000 people),
writes everything the program reads: the KB, the entity dictionary, the isA
taxonomy, the predicate categories and the QA corpus. It also keeps what the
benchmark needs to check the program: the planted template -> path table,
the counts the offline report must show, and the question sets of the
online workloads with their planted answers.

The world holds:

- people with ``dob``, ``founded`` (equal to ``dob`` for some people, so EM
  has to tell the two apart) and ``birthplace`` edges to cities;
- husbands behind ``marriage -> person -> name`` mediator chains, so k=3
  paths and the name restriction are exercised; the mediator also carries a
  ``dob`` edge whose 3-edge path the name restriction must drop;
- cities with ``population``;
- a dictionary with one unique canonical surface per entity plus aliases
  that two people share;
- weighted isA edges, with secondary concepts for some entities;
- predicate categories matching the question categories. Noun-phrase
  questions ("the wife of ...") categorize as ``description``, so the
  predicates they ask about are labelled ``description``;
- a QA corpus drawn from question families, with a share of noise answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import SLOT, tokenize

PERSON_CONCEPTS = ("person", "politician", "entrepreneur")
CITY_CONCEPTS = ("city", "capital")

MARRIED_SHARE = 0.3
FOUNDED_IS_DOB_SHARE = 0.3
ALIASED_SHARE = 0.1
SECONDARY_CONCEPT_SHARE = 0.3
ASKED_SHARE = 0.7
REPHRASED_SHARE = 0.2
NOISE_SHARE = 0.1
ALIAS_QUESTION_SHARE = 0.3  # of the corpus questions about aliased people
ALIAS_QUESTIONS_PER_FAMILY = 4  # of the simple questions of each person family

CATEGORIES = {
    "dob": "date",
    "founded": "date",
    "population": "number",
    "birthplace": "description",
    "name": "description",
    "marriage": "other",
    "person": "other",
}

DATE_ANSWERS = ("{}.", "It was {}.", "In {}, as far as I know.")
CITY_ANSWERS = ("{}.", "In {}.", "It is {}, I think.")
PERSON_ANSWERS = ("{}.", "Her name is {}.", "That is {}.")
NUMBER_ANSWERS = ("{}.", "About {} people.", "Roughly {}.")


@dataclass(frozen=True)
class Family:
    """A primitive question family: one phrasing, the path it asks about."""

    name: str
    phrasing: str  # "{}" marks the entity mention
    path: tuple[str, ...]
    subject: str  # "person", "husband" or "city"
    answers: tuple[str, ...]


FAMILIES = {
    f.name: f
    for f in (
        Family("dob", "when was {} born?", ("dob",), "person", DATE_ANSWERS),
        Family("dob_year", "what year was {} born?", ("dob",), "person", DATE_ANSWERS),
        Family("founded", "when did {} found the company?", ("founded",), "person", DATE_ANSWERS),
        Family("birthplace", "the birthplace of {}", ("birthplace",), "person", CITY_ANSWERS),
        Family("birth_city", "the city where {} was born", ("birthplace",), "person", CITY_ANSWERS),
        Family("wife", "the wife of {}", ("marriage", "person", "name"), "husband", PERSON_ANSWERS),
        Family("wife_possessive", "{}'s wife", ("marriage", "person", "name"), "husband",
               PERSON_ANSWERS),
        Family("population", "how many people are there in {}?", ("population",), "city",
               NUMBER_ANSWERS),
        Family("population_live", "how many people live in {}?", ("population",), "city",
               NUMBER_ANSWERS),
    )
}

# Complex questions nest families from the inside out. Every chain passes only
# through canonical (unambiguous) surfaces and avoids the "X's wife" phrasing,
# whose decomposition ties (see the benchmark README).
CHAINS = (
    ("wife", "dob"),
    ("wife", "dob_year"),
    ("wife", "founded"),
    ("wife", "birthplace"),
    ("wife", "birth_city"),
    ("birthplace", "population"),
    ("birthplace", "population_live"),
    ("birth_city", "population"),
    ("wife", "birthplace", "population"),
    ("wife", "birth_city", "population_live"),
)


def _with_slot(phrasing: str, slot: str) -> str:
    """The tokenized phrasing with the mention's token(s), clitic included,
    replaced by ``slot``."""
    marker = "xslotx"
    return " ".join(slot if marker in tok else tok for tok in tokenize(phrasing.format(marker)))


def planted_template(family: Family, concept: str) -> str:
    """The template text the program derives for this family and concept."""
    return _with_slot(family.phrasing, "$" + concept)


@dataclass
class Question:
    text: str
    answer: str | None  # planted value; None when the surface is ambiguous
    chain: list[str] = field(default_factory=list)  # planted decomposition


@dataclass
class World:
    triples: list[tuple[str, str, str]]
    dictionary: list[tuple[str, str]]
    isa: list[tuple[str, str, int]]
    corpus: list[tuple[str, str, int]]
    people: int
    cities: int
    facts: dict[str, dict[str, str]]  # entity -> family path head -> value
    surface: dict[str, str]
    aliases: dict[str, str]

    @property
    def entities(self) -> int:
        return len({s for s, _, _ in self.triples})

    def planted_templates(self) -> dict[str, tuple[str, ...]]:
        out = {}
        for family in FAMILIES.values():
            kinds = CITY_CONCEPTS if family.subject == "city" else PERSON_CONCEPTS
            for concept in kinds:
                out[planted_template(family, concept)] = family.path
        return out

    def value(self, entity: str, family: str) -> str | None:
        return self.facts.get(entity, {}).get(family)

    def eligible(self, family: Family) -> list[str]:
        pool = [f"C{j}" for j in range(self.cities)] if family.subject == "city" else [
            f"P{i}" for i in range(self.people)
        ]
        return [e for e in pool if self.value(e, family.name) is not None]

    def write(self, directory: Path) -> Path:
        """Write the program's inputs and a pipeline config; return the config."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "kb.tsv").write_text(
            "".join(f"{s}\t{p}\t{o}\n" for s, p, o in self.triples), encoding="utf-8"
        )
        (directory / "entities.tsv").write_text(
            "".join(f"{n}\t{s}\n" for n, s in self.dictionary), encoding="utf-8"
        )
        (directory / "isa.tsv").write_text(
            "".join(f"{e}\t{c}\t{w}\n" for e, c, w in self.isa), encoding="utf-8"
        )
        (directory / "categories.tsv").write_text(
            "".join(f"{p}\t{c}\n" for p, c in sorted(CATEGORIES.items())), encoding="utf-8"
        )
        with open(directory / "corpus.jsonl", "w", encoding="utf-8") as fp:
            for question, answer, count in self.corpus:
                fp.write(json.dumps({"question": question, "answer": answer, "count": count}))
                fp.write("\n")
        config = directory / "pipeline.cfg"
        config.write_text(
            "kb = kb.tsv\n"
            "entities = entities.tsv\n"
            "isa = isa.tsv\n"
            "corpus = corpus.jsonl\n"
            "predicate-categories = categories.tsv\n"
            "index = artifacts/world.index\n"
            "expansion = artifacts/world.expansion.tsv\n"
            "model = artifacts/world.model.tsv\n"
            "report = artifacts/world.report.json\n"
            "k = 3\n"
            "name-restriction = true\n",
            encoding="utf-8",
        )
        return config


def generate(seed: int, scale: float) -> World:
    rng = random.Random(f"world-{seed}")
    people = max(20, round(1000 * scale))
    cities = max(5, people // 10)
    triples: list[tuple[str, str, str]] = []
    facts: dict[str, dict[str, str]] = {}
    surface: dict[str, str] = {}
    isa: list[tuple[str, str, int]] = []

    for j in range(cities):
        city = f"C{j}"
        population = str(rng.randint(10_000, 9_999_999))
        triples.append((city, "population", population))
        surface[city] = f"city {j}"
        facts[city] = {"population": population, "population_live": population}
        isa.append((city, "city", 4))
        if rng.random() < SECONDARY_CONCEPT_SHARE:
            isa.append((city, "capital", rng.randint(1, 2)))

    for i in range(people):
        person = f"P{i}"
        dob = rng.randint(1900, 1999)
        founded = dob if rng.random() < FOUNDED_IS_DOB_SHARE else dob + rng.randint(18, 60)
        city = f"C{rng.randrange(cities)}"
        triples += [
            (person, "dob", str(dob)),
            (person, "founded", str(founded)),
            (person, "birthplace", city),
        ]
        surface[person] = f"person {i}"
        facts[person] = {
            "dob": str(dob), "dob_year": str(dob), "founded": str(founded),
            "birthplace": city, "birth_city": city,
        }
        isa.append((person, "person", rng.randint(3, 6)))
        if rng.random() < SECONDARY_CONCEPT_SHARE:
            isa.append((person, rng.choice(PERSON_CONCEPTS[1:]), rng.randint(1, 3)))

    order = [f"P{i}" for i in range(people)]
    rng.shuffle(order)
    married = round(people * MARRIED_SHARE)
    for husband, wife in zip(order[:married], order[married : 2 * married]):
        marriage, mediator = "M" + husband[1:], "S" + husband[1:]
        triples += [
            (husband, "marriage", marriage),
            (marriage, "person", mediator),
            (mediator, "name", wife),
            (mediator, "dob", facts[wife]["dob"]),
        ]
        facts[husband]["wife"] = facts[husband]["wife_possessive"] = wife

    dictionary = [(node, surface[node]) for node in sorted(surface, key=_node_order)]
    aliases: dict[str, str] = {}
    shuffled = order[:]
    rng.shuffle(shuffled)
    pairs = round(people * ALIASED_SHARE / 2)
    for k in range(pairs):
        for person in shuffled[2 * k : 2 * k + 2]:
            aliases[person] = f"alias {k}"
            dictionary.append((person, f"alias {k}"))

    world = World(triples, dictionary, isa, [], people, cities, facts, surface, aliases)
    world.corpus = _corpus(world, rng)
    return world


def _node_order(node: str) -> tuple[str, int]:
    return node[0], int(node[1:])


def _noise_value(world: World, family: Family, rng: random.Random) -> str:
    if family.subject == "city":
        return str(rng.randint(10_000, 9_999_999))
    if family.path[-1] in ("dob", "founded"):
        return str(rng.randint(1900, 2059))
    if family.path[-1] == "birthplace":
        return f"C{rng.randrange(world.cities)}"
    return f"P{rng.randrange(world.people)}"


def _corpus(world: World, rng: random.Random) -> list[tuple[str, str, int]]:
    """QA pairs merged on their tokenized (question, answer), as the program
    merges them, so the line count is the report's ``qa_pairs``."""
    merged: dict[tuple[tuple[str, ...], tuple[str, ...]], list] = {}
    for family in FAMILIES.values():
        for entity in world.eligible(family):
            if rng.random() >= ASKED_SHARE:
                continue
            mention = world.surface[entity]
            if entity in world.aliases and rng.random() < ALIAS_QUESTION_SHARE:
                mention = world.aliases[entity]
            question = family.phrasing.format(mention)
            value = world.value(entity, family.name)
            if rng.random() < NOISE_SHARE:
                value = _noise_value(world, family, rng)
            phrasings = rng.sample(family.answers, 2 if rng.random() < REPHRASED_SHARE else 1)
            for phrasing in phrasings:
                answer = phrasing.format(world.surface.get(value, value))
                key = (tokenize(question), tokenize(answer))
                count = rng.randint(1, 3)
                if key in merged:
                    merged[key][2] += count
                else:
                    merged[key] = [question, answer, count]
    return [tuple(row) for row in merged.values()]


def simple_questions(world: World, seed: int, per_family: int) -> list[Question]:
    """Primitive questions, the same number from every family. In every
    person family a fixed number name an aliased person by the alias that
    two people share; these are the slowest questions, so a fixed count
    keeps the latency tail made of the same mix whatever the seed."""
    rng = random.Random(f"simple-{seed}")
    out = []
    for family in FAMILIES.values():
        pool = world.eligible(family)
        aliased = [e for e in pool if e in world.aliases] if family.subject != "city" else []
        by_alias = rng.sample(aliased, min(ALIAS_QUESTIONS_PER_FAMILY, len(aliased), per_family))
        for entity in by_alias:
            out.append(Question(family.phrasing.format(world.aliases[entity]), None))
        rest = [e for e in pool if e not in by_alias]
        for entity in rng.sample(rest, min(per_family - len(by_alias), len(rest))):
            out.append(Question(family.phrasing.format(world.surface[entity]),
                                world.value(entity, family.name)))
    return out


def chain_question(world: World, steps: tuple[str, ...], head: str) -> Question | None:
    """The nested question about ``head`` with its planted chain and answer,
    or None when a fact along the chain is missing."""
    text = world.surface[head]
    node: str | None = head
    chain = []
    for i, name in enumerate(steps):
        family = FAMILIES[name]
        node = world.value(node, name)
        if node is None:
            return None
        text = family.phrasing.format(text)
        chain.append(_with_slot(family.phrasing, SLOT) if i else " ".join(tokenize(text)))
    return Question(text, node, chain)


def complex_questions(world: World, seed: int, per_chain: int) -> list[Question]:
    rng = random.Random(f"complex-{seed}")
    out = []
    heads = [f"P{i}" for i in range(world.people)]
    for steps in CHAINS:
        made = [q for q in (chain_question(world, steps, h) for h in heads) if q is not None]
        out += rng.sample(made, min(per_chain, len(made)))
    return out
