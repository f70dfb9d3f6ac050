"""Offline estimation of the predicate-given-template table.

The training unit is a (question, entity, value) observation with a corpus
mass, extracted question by question from the corpus grouped by question
(``corpus_stats``), each (entity, value) link read once. For each
observation the latent assignment z = (template, path) has a fixed factor
f(x, z) = P(q) P(e|q) P(t|e,q) P(v|e,p). Observations with equal
candidates (the same assignments with the same factors) are folded into
one candidate group as they are extracted, and expectation-maximization
works per group: it alternates responsibilities and row renormalization,
accelerated by SQUAREM, until a plain EM step stops moving the table.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum, log, sqrt
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Mapping

from .concepts import PLACEHOLDER_MARK, ConceptGraph, derive_templates
from .corpus import CorpusStats, EntityValueExtractor, Tokens, linked, question_category
from .hasharray import Memo
from .kb import PredicatePath, convert_last, read_tsv

logger = logging.getLogger("factqa")

# Latent assignment: (template text, predicate path).
Assignment = tuple[str, PredicatePath]
# One observation as the dump writes it: (question, entity, value, weight).
Observation = tuple[Tokens, str, str, float]
# Observations with equal candidates: (assignment ids, factors, the numbers
# of the member observations).
CandidateGroup = tuple[tuple[int, ...], tuple[float, ...], list[int]]


class TrainingSet:
    """Observations folded into candidate groups; the input to learning.

    ``add`` is the one way in: it files an observation under the group of
    its candidate vector, which is computed once per distinct (template
    row, path row, p_q, p_e). Rows are interned by content
    (``template_row``, ``path_row``); candidates run over the row entries
    with a positive probability, templates then paths in sorted order.
    Assignments are numbered in order of first appearance and groups are
    kept in order of their first member."""

    def __init__(self) -> None:
        self.observations: list[Observation] = []
        self.assignments: list[Assignment] = []
        self.groups: list[CandidateGroup] = []
        self._number: dict[Assignment, int] = {}
        # interned rows: each row's number by content, and the rows by number
        self._template_rows: tuple[dict, list] = ({}, [])
        self._path_rows: tuple[dict, list] = ({}, [])
        self._group_of_vector: dict[tuple[int, int, float, float], CandidateGroup] = {}
        self._group_of_candidates: dict[tuple, CandidateGroup] = {}

    def __len__(self) -> int:
        return len(self.observations)

    def template_row(self, probs: Mapping[str, float]) -> int:
        """The number of the row P(t | e, q) holding ``probs``."""
        return _intern(*self._template_rows, probs)

    def path_row(self, probs: Mapping[PredicatePath, float]) -> int:
        """The number of the row P(v | e, p) holding ``probs``."""
        return _intern(*self._path_rows, probs)

    def add(
        self, observation: Observation, p_q: float, p_e: float, template_row: int, path_row: int
    ) -> None:
        """File one observation, its factors f(x, z) = p_q p_e P(t) P(v)."""
        vector = (template_row, path_row, p_q, p_e)
        group = self._group_of_vector.get(vector)
        if group is None:
            group = self._group_of_vector[vector] = self._group(p_q * p_e, template_row, path_row)
        group[2].append(len(self.observations))
        self.observations.append(observation)
        self.__dict__.pop("masses", None)

    def _group(self, p_qe: float, template_row: int, path_row: int) -> CandidateGroup:
        ids: list[int] = []
        factors: list[float] = []
        paths = self._path_rows[1][path_row]
        for template, pt in self._template_rows[1][template_row]:
            for path, pv in paths:
                z = (template, path)
                a = self._number.get(z)
                if a is None:
                    a = self._number[z] = len(self.assignments)
                    self.assignments.append(z)
                ids.append(a)
                factors.append(p_qe * pt * pv)
        key = (tuple(ids), tuple(factors))
        group = self._group_of_candidates.get(key)
        if group is None:
            group = self._group_of_candidates[key] = (*key, [])
            self.groups.append(group)
        return group

    @cached_property
    def masses(self) -> list[float]:
        """Each group's folded mass, the ``fsum`` of its members' weights;
        EM reads it on every step, and ``add`` drops it."""
        observations = self.observations
        return [fsum(observations[i][3] for i in members) for _, _, members in self.groups]

    @classmethod
    def build(
        cls,
        corpus: CorpusStats,
        mentions: Mapping[Tokens, list[tuple[tuple[int, int], str]]],
        extractor: EntityValueExtractor,
        concepts: ConceptGraph,
        refine: bool = True,
    ) -> "TrainingSet":
        """One observation per (entity, value) extracted from each pair of
        the grouped corpus, question by question, each question's answers
        in order of first occurrence, its pairs sorted; ``mentions`` holds
        each question's ``kb_mentions`` (``CorpusMentions.mentions``).

        A question with no mentions is skipped, and no value is looked for
        in its answers; any other has its category found once. Each
        distinct answer is matched to KB values once, and its pairs are
        those ``corpus.linked`` gives, as ``extract``'s are. Each (entity,
        value) link is read once, with no walk of the KB, and its path row
        interned once per distinct path counts. A template row is looked up
        once per (question, entity) and derived once per phrasing shape:
        the words before the entity's span, the words after it and the
        entity's concept prior, the only inputs of ``question_concepts`` and
        ``derive_templates``. A question that a concept override names has
        no shape: its rows are derived once per (question, entity) pair."""
        training = cls()
        values = Memo(lambda answer: sorted(extractor.candidate_values(answer)))
        # P(value | entity, path) over the connecting paths, interned once
        # per distinct sorted (path, object count) pairs, which fix the row
        path_row_of = Memo(lambda counts: training.path_row({p: 1.0 / n for p, n in counts}))
        links = Memo(lambda pair: (link := extractor.link(pair)) and
                     (link[0], path_row_of[link[1]]))
        # P(template | entity, question) once per phrasing shape
        template_rows: dict[tuple, int] = {}
        priors = Memo(lambda entity: tuple(concepts.concept_prior(entity).items()))
        overrides = concepts.overrides
        for question, answers in corpus.answer_counts.items():
            found = mentions[question]
            if not found:
                continue
            found = sorted(found, key=itemgetter(1))  # so the pairs come sorted
            category = question_category(question) if refine else None
            total = corpus.question_counts[question]
            p_q = total / corpus.total
            # an override is keyed by the whole question, which has no shape
            overridden = bool(overrides) and " ".join(question) in overrides
            rows: dict[str, int] = {}  # each entity's template row
            for answer, count in answers.items():
                extracted = linked(found, values[answer], category, links)
                if not extracted:
                    continue
                p_e = 1.0 / len(set(map(itemgetter(1), extracted)))
                mass = (1.0 / len(extracted)) * (count / total) * p_q
                for span, entity, value, (_, path_row) in extracted:
                    t_row = rows.get(entity)
                    if t_row is None:
                        key = ((question, entity) if overridden else
                               (question[:span[0]], question[span[1]:], priors[entity]))
                        t_row = template_rows.get(key)
                        if t_row is None:
                            concept_dist = concepts.question_concepts(question, entity, span)
                            templates = derive_templates(question, span, concept_dist)
                            t_row = template_rows[key] = training.template_row(
                                {t.text: prob for t, prob in templates.items()}
                            )
                        rows[entity] = t_row
                    training.add((question, entity, value, mass), p_q, p_e, t_row, path_row)
        return training


def _intern(numbers: dict[tuple, int], rows: list[tuple], probs: Mapping) -> int:
    row = tuple((k, p) for k, p in sorted(probs.items()) if p > 0)
    number = numbers.get(row)
    if number is None:
        number = numbers[row] = len(rows)
        rows.append(row)
    return number


def write_observations(observations: Iterable[Observation], fp: IO[str]) -> None:
    """Debug dump: ``question<TAB>entity<TAB>value<TAB>weight``."""
    for question, entity, value, weight in observations:
        fp.write(f"{' '.join(question)}\t{entity}\t{value}\t{weight!r}\n")


# A template of the model by the words around its slot: (text, concept, row).
ShapeEntry = tuple[str, str, Mapping[PredicatePath, float]]


class PredicateModel:
    """Sparse conditional table P(path | template), rows summing to one.

    ``by_shape`` indexes the templates with a row by the words around their
    slot; it is built on first use, so the models EM makes step by step
    never build it."""

    def __init__(self, rows: dict[str, dict[PredicatePath, float]] | None = None):
        self._rows: dict[str, dict[PredicatePath, float]] = {
            t: dict(row) for t, row in (rows or {}).items()
        }

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, template: str) -> bool:
        return template in self._rows

    def templates(self) -> list[str]:
        return sorted(self._rows)

    def row(self, template: str) -> Mapping[PredicatePath, float]:
        """A read-only view of the template's row; empty if it has none."""
        return MappingProxyType(self._rows.get(template, {}))

    @cached_property
    def by_shape(self) -> dict[tuple[Tokens, Tokens], list[ShapeEntry]]:
        """(the words before the slot, the words after it) -> (template
        text, concept, row) for each template with a non-empty row, in text
        order.

        A concept name may hold a space, so a slot ``$c`` may span several
        words: each template is filed under every split that starts at a
        word beginning with ``$`` and ends at any later word boundary. For
        tokens that hold no space, the words around a mention's span and a
        concept then name an entry exactly when ``derive_templates`` gives
        that entry's text for them."""
        shapes: dict[tuple[Tokens, Tokens], list[ShapeEntry]] = {}
        for text in sorted(self._rows):
            if not self._rows[text]:
                continue
            row = self.row(text)
            words = tuple(text.split(" "))
            for i, word in enumerate(words):
                if word.startswith(PLACEHOLDER_MARK):
                    for j in range(i + 1, len(words) + 1):
                        concept = " ".join(words[i:j])[len(PLACEHOLDER_MARK):]
                        shapes.setdefault((words[:i], words[j:]), []).append((text, concept, row))
        return shapes

    def prob(self, template: str, path: PredicatePath) -> float:
        return self._rows.get(template, {}).get(path, 0.0)

    def top_path(self, template: str) -> tuple[PredicatePath, float] | None:
        """Highest-probability path for a template; ties break on the
        lexicographically smaller path."""
        row = self._rows.get(template)
        if not row:
            return None
        best = sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        return best

    def items(self) -> list[tuple[str, PredicatePath, float]]:
        out = []
        for template in sorted(self._rows):
            row = self._rows[template]
            for path, prob in sorted(row.items(), key=lambda kv: (-kv[1], kv[0])):
                out.append((template, path, prob))
        return out

    def save(self, path: str | Path) -> None:
        """TSV ``template<TAB>p1|p2|...<TAB>probability``, sorted by
        template then probability descending."""
        with open(path, "w", encoding="utf-8") as fp:
            for template, preds, prob in self.items():
                fp.write(f"{template}\t{'|'.join(preds)}\t{prob!r}\n")

    @classmethod
    def load(cls, path: str | Path) -> "PredicateModel":
        rows: dict[str, dict[PredicatePath, float]] = {}
        for template, path_text, prob in read_tsv(path, 3, convert_last(_probability),
                                                  key_fields=2):
            rows.setdefault(template, {})[tuple(path_text.split("|"))] = prob
        return cls(rows)


def _probability(text: str) -> float:
    prob = float(text)
    if not 0.0 <= prob <= 1.0:  # also refuses nan
        raise ValueError(f"probability must be a finite number in [0, 1], got {text!r}")
    return prob



@dataclass
class Posterior:
    """One responsibility dict per candidate group (``TrainingSet.groups``),
    shared by its members; None for a group with no admissible assignment,
    whose members are dropped and counted. ``log_likelihood`` is the
    weighted log marginal of the model scored
    (``log_likelihood(training, model)``)."""

    responsibilities: list[dict[Assignment, float] | None]
    dropped: int = 0
    log_likelihood: float = 0.0


def init_theta(training: TrainingSet) -> PredicateModel:
    """Uniform rows over every (template, path) supported by some observation."""
    support: dict[str, list[PredicatePath]] = {}
    for template, path in training.assignments:
        support.setdefault(template, []).append(path)
    rows = {
        template: {path: 1.0 / len(paths) for path in paths}
        for template, paths in support.items()
    }
    return PredicateModel(rows)


def e_step(training: TrainingSet, model: PredicateModel) -> Posterior:
    """Responsibilities proportional to f(x, z) * theta, normalized per
    group. A group of mass W whose scores sum to s adds W log s to the
    log-likelihood."""
    assignments = training.assignments
    theta = [model.prob(*z) for z in assignments]
    responsibilities: list[dict[Assignment, float] | None] = []
    dropped = 0
    terms: list[float] = []
    for (ids, factors, members), mass in zip(training.groups, training.masses):
        scores = [f * theta[a] for a, f in zip(ids, factors)]
        total = fsum(scores)
        if total <= 0:
            responsibilities.append(None)
            dropped += len(members)
            continue
        responsibilities.append({assignments[a]: s / total for a, s in zip(ids, scores) if s > 0})
        terms.append(mass * log(total))
    return Posterior(responsibilities, dropped, fsum(terms))


def m_step(training: TrainingSet, posterior: Posterior) -> PredicateModel:
    """Row-renormalized responsibility mass, weighted by observation mass.

    Each candidate group adds its folded mass times r for each of its
    assignments z. The mass of z is the ``fsum`` of those terms, which can
    differ in its last digits from a sum over the observations one by one.
    Templates left with zero total mass are removed.
    """
    terms: defaultdict[Assignment, list[float]] = defaultdict(list)
    for resp, mass in zip(posterior.responsibilities, training.masses):
        if resp is None:
            continue
        for z, r in resp.items():
            terms[z].append(mass * r)
    sums: dict[str, dict[PredicatePath, float]] = {}
    for (template, path), zterms in terms.items():
        sums.setdefault(template, {})[path] = fsum(zterms)
    rows: dict[str, dict[PredicatePath, float]] = {}
    for template, by_path in sums.items():
        total = fsum(by_path.values())
        if total <= 0:
            continue
        rows[template] = {path: s / total for path, s in by_path.items()}
    return PredicateModel(rows)


def log_likelihood(training: TrainingSet, model: PredicateModel) -> float:
    """Weighted sum of log marginal probabilities, as the E-step scores it.

    Observations whose every assignment scores zero under the model are
    skipped, matching the set the E-step drops.
    """
    return e_step(training, model).log_likelihood


@dataclass
class LearnResult:
    model: PredicateModel
    iterations: int
    final_log_likelihood: float
    dropped_observations: int
    ll_history: list[float] = field(default_factory=list)


def learn(
    training: TrainingSet, max_iters: int = 100, epsilon: float = 1e-6
) -> LearnResult:
    """EM from the uniform initialization, accelerated by SQUAREM (SqS3:
    Varadhan & Roland 2008, Scand. J. Statist. 35).

    A step is one EM map, an E-step and an M-step; at most ``max_iters``
    are taken. After two plain steps from a cycle's start, the next step
    starts from the SQUAREM point of the three models instead
    ("extrapolated"), and its result starts the next cycle. When that
    point leaves the simplex (an entry EM keeps positive is not) or scores
    a lower likelihood than the last model scored, the step starts from
    the plain model ("fallback"), which starts the next cycle; a refused
    point costs one E-step and no step. Every step is logged at debug
    level.

    A step's max-abs parameter change is that of a plain EM step from its
    start. The run stops at a step that changes nothing, or at the second
    step that changes less than epsilon: in the linear tail an accelerated
    run can fall below epsilon a fraction of a step ahead of plain EM,
    farther from the fixed point than plain EM ends.

    ``ll_history`` holds the log-likelihood of every model a step started
    from, and the final model's; it never decreases beyond rounding."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    model = init_theta(training)
    if not len(model):
        return LearnResult(model, 0, 0.0, len(training))
    posterior = e_step(training, model)
    theta = _vector(training, model)
    cycle = [theta]  # the cycle's start and the plain steps taken from it
    kind = "plain"
    history: list[float] = []
    steps = below = 0
    while True:
        history.append(posterior.log_likelihood)
        model = m_step(training, posterior)
        steps += 1
        new = _vector(training, model)
        delta = max(abs(a - b) for a, b in zip(theta, new))
        logger.debug("EM step %d: log-likelihood %r, max change %.3g, %s",
                     steps, history[-1], delta, kind)
        below += delta < epsilon
        if delta == 0 or below == 2 or steps == max_iters:
            break
        cycle = [new] if kind == "extrapolated" else [*cycle, new]
        theta, kind = new, "plain"
        if len(cycle) == 3:
            point = _squarem_point(*cycle)
            if point is not None and not any(p <= 0 < a for a, p in zip(cycle[0], point)):
                jumped = _model(training, point)
                scored = e_step(training, jumped)
                if scored.log_likelihood >= history[-1]:
                    theta, model, posterior = _vector(training, jumped), jumped, scored
                    kind = "extrapolated"
                    continue
            cycle, kind = [new], "fallback"
        posterior = e_step(training, model)
    history.append(log_likelihood(training, model))
    return LearnResult(model, steps, history[-1], posterior.dropped, history)


def _vector(training: TrainingSet, model: PredicateModel) -> list[float]:
    return [model.prob(*z) for z in training.assignments]


def _model(training: TrainingSet, theta: list[float]) -> PredicateModel:
    """The positive entries of ``theta``, each row renormalized: a SQUAREM
    point's rows sum to one only up to its rounding, which a far step
    magnifies."""
    rows: dict[str, dict[PredicatePath, float]] = {}
    for (template, path), prob in zip(training.assignments, theta):
        if prob > 0:
            rows.setdefault(template, {})[path] = prob
    for template, row in rows.items():
        total = fsum(row.values())
        rows[template] = {path: prob / total for path, prob in row.items()}
    return PredicateModel(rows)


def _squarem_point(
    theta0: list[float], theta1: list[float], theta2: list[float]
) -> list[float] | None:
    """theta0 - 2 alpha r + alpha^2 v, with r = theta1 - theta0,
    v = theta2 - 2 theta1 + theta0 and the step alpha = -|r|/|v| taken at
    least as far as theta2 (alpha <= -1); None when v is zero. The
    coefficients of the three models sum to one, so each row sums to one
    up to rounding, but an entry can turn negative."""
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - b - d for b, c, d in zip(theta1, theta2, r)]
    rr = fsum(x * x for x in r)
    vv = fsum(x * x for x in v)
    if vv == 0:
        return None
    alpha = min(-1.0, -sqrt(rr / vv))
    return [a - 2 * alpha * x + alpha * alpha * y for a, x, y in zip(theta0, r, v)]
