"""Offline estimation of the predicate-given-template table.

The training unit is a (question, entity, value) observation with a corpus
mass. For each observation the latent assignment z = (template, path) has a
fixed factor f(x, z) = P(q) P(e|q) P(t|e,q) P(v|e,p) computed once up
front; expectation-maximization then alternates responsibilities and row
renormalization until the table stops moving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import fsum, log
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Mapping

from .concepts import ConceptGraph, derive_templates
from .corpus import CorpusStats, EntityValueExtractor, QaPair, Tokens
from .kb import PredicatePath, convert_last, read_tsv

# Latent assignment: (template text, predicate path).
Assignment = tuple[str, PredicatePath]
# Items with equal candidates: (assignment ids, factors, item indices, weights,
# the weights' folded mass fsum(weights)).
CandidateGroup = tuple[tuple[int, ...], tuple[float, ...], list[int], list[float], float]


@dataclass(frozen=True)
class TrainingItem:
    """One observation plus the per-observation factors feeding f(x, z)."""

    question: Tokens
    entity: str
    value: str
    weight: float
    p_q: float
    p_e: float
    template_probs: dict[str, float]
    value_probs: dict[PredicatePath, float]

    @property
    def candidates(self) -> tuple[tuple[Assignment, float], ...]:
        """All assignments z with positive factor f(x, z), in a deterministic
        order; EM reads them once, through ``TrainingSet.interned``."""
        out = []
        for template in sorted(self.template_probs):
            pt = self.template_probs[template]
            if pt <= 0:
                continue
            for path in sorted(self.value_probs):
                pv = self.value_probs[path]
                if pv <= 0:
                    continue
                out.append(((template, path), self.p_q * self.p_e * pt * pv))
        return tuple(out)


class TrainingSet:
    """Observations with precomputed factors; the input to learning."""

    def __init__(self, items: Iterable[TrainingItem]):
        self.items: tuple[TrainingItem, ...] = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def interned(self) -> tuple[list[Assignment], list[CandidateGroup]]:
        """Every assignment numbered once, in order of first appearance, and
        the items grouped by equal candidates, groups in order of their first
        member, each with its folded mass. Built on first use (EM's first
        step) and kept: EM scores and sums each group once per step, not
        each item."""
        assignments: list[Assignment] = []
        number: dict[Assignment, int] = {}
        groups: dict[tuple, tuple[list[int], list[float]]] = {}
        for i, item in enumerate(self.items):
            candidates = item.candidates
            for z, _ in candidates:
                if z not in number:
                    number[z] = len(assignments)
                    assignments.append(z)
            key = (tuple(number[z] for z, _ in candidates), tuple(f for _, f in candidates))
            members, weights = groups.setdefault(key, ([], []))
            members.append(i)
            weights.append(item.weight)
        return assignments, [
            (*key, members, weights, fsum(weights)) for key, (members, weights) in groups.items()
        ]

    @classmethod
    def build(
        cls,
        corpus: Iterable[QaPair],
        mentions: Mapping[Tokens, list[tuple[tuple[int, int], str]]],
        extractor: EntityValueExtractor,
        stats: CorpusStats,
        concepts: ConceptGraph,
        refine: bool = True,
    ) -> "TrainingSet":
        """One item per (entity, value) extracted from each pair; ``mentions``
        holds each question's ``kb_mentions`` (``CorpusMentions.mentions``).
        Each distinct answer of a question with mentions is matched to KB
        values once, each (entity, value) pair to its paths once, and each
        (question, entity) pair to its templates once: items of one such
        pair share the ``template_probs`` dict."""
        items: list[TrainingItem] = []
        kb = extractor.kb
        values: dict[Tokens, set[str]] = {}
        # P(value | entity, path) over the connecting paths, once per pair
        value_probs: dict[tuple[str, str], dict[PredicatePath, float]] = {}
        # P(template | entity, question); the entity's span is its first in
        # the question's mentions, so it depends on the question alone
        templates: dict[tuple[Tokens, str], dict[str, float]] = {}
        for pair in corpus:
            found = mentions[pair.question]
            if found and pair.answer not in values:
                values[pair.answer] = extractor.candidate_values(pair.answer)
            # without mentions nothing is extracted, and no value is looked for
            answer_values = values.get(pair.answer, set())
            extracted = sorted(extractor.extract(pair, found, answer_values, refine))
            if not extracted:
                continue
            distinct_entities = {e for e, _ in extracted}
            p_e = 1.0 / len(distinct_entities)
            p_q = stats.p_q(pair.question)
            mass = (1.0 / len(extracted)) * stats.p_a(pair.question, pair.answer) * p_q
            for entity, value in extracted:
                template_probs = templates.get((pair.question, entity))
                if template_probs is None:
                    span = next(span for span, e in found if e == entity)
                    concept_dist = concepts.question_concepts(pair.question, entity, span)
                    template_probs = templates[pair.question, entity] = {
                        t.text: prob
                        for t, prob in derive_templates(pair.question, span, concept_dist).items()
                    }
                probs = value_probs.get((entity, value))
                if probs is None:
                    probs = value_probs[entity, value] = {
                        path: kb.value_distribution(entity, path).get(value, 0.0)
                        for path in extractor.connecting_paths(entity, value)
                    }
                items.append(
                    TrainingItem(
                        pair.question, entity, value, mass, p_q, p_e,
                        template_probs, probs,
                    )
                )
        return cls(items)


def write_observations(items: Iterable[TrainingItem], fp: IO[str]) -> None:
    """Debug dump: ``question<TAB>entity<TAB>value<TAB>weight``."""
    for item in items:
        fp.write(f"{' '.join(item.question)}\t{item.entity}\t{item.value}\t{item.weight!r}\n")


class PredicateModel:
    """Sparse conditional table P(path | template), rows summing to one."""

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

    def save(self, target: str | Path | IO[str]) -> None:
        """TSV ``template<TAB>p1|p2|...<TAB>probability``, sorted by
        template then probability descending."""
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as fp:
                self.save(fp)
            return
        for template, path, prob in self.items():
            target.write(f"{template}\t{'|'.join(path)}\t{prob!r}\n")

    @classmethod
    def load(cls, source: str | Path | IO[str]) -> "PredicateModel":
        rows: dict[str, dict[PredicatePath, float]] = {}
        for template, path_text, prob in read_tsv(source, 3, convert_last(_probability)):
            rows.setdefault(template, {})[tuple(path_text.split("|"))] = prob
        return cls(rows)


def _probability(text: str) -> float:
    prob = float(text)
    if not 0.0 <= prob <= 1.0:  # also refuses nan
        raise ValueError(f"probability must be a finite number in [0, 1], got {text!r}")
    return prob


@dataclass
class Posterior:
    """Per-observation responsibilities; observations with no admissible
    assignment are dropped and counted. The members of a candidate group
    (``TrainingSet.interned``) share one responsibility dict, and
    ``m_step`` reads it at the group's first member only.
    ``log_likelihood`` is the weighted log marginal of the model scored
    (``log_likelihood(training, model)``)."""

    responsibilities: list[dict[Assignment, float] | None]
    dropped: list[int] = field(default_factory=list)
    log_likelihood: float = 0.0


def init_theta(training: TrainingSet) -> PredicateModel:
    """Uniform rows over every (template, path) supported by some observation."""
    assignments, _ = training.interned
    support: dict[str, list[PredicatePath]] = {}
    for template, path in assignments:
        support.setdefault(template, []).append(path)
    rows = {
        template: {path: 1.0 / len(paths) for path in paths}
        for template, paths in support.items()
    }
    return PredicateModel(rows)


def e_step(training: TrainingSet, model: PredicateModel) -> Posterior:
    """Responsibilities proportional to f(x, z) * theta, normalized per
    observation; each group of equal candidate vectors is scored once."""
    assignments, groups = training.interned
    theta = [model.prob(*z) for z in assignments]
    responsibilities: list[dict[Assignment, float] | None] = [None] * len(training.items)
    dropped: list[int] = []
    terms: list[float] = []
    for ids, factors, members, weights, _ in groups:
        scores = [(a, s) for a, f in zip(ids, factors) if (s := f * theta[a]) > 0]
        total = fsum(s for _, s in scores)
        if total <= 0:
            dropped.extend(members)
            continue
        resp = {assignments[a]: s / total for a, s in scores}
        for i in members:
            responsibilities[i] = resp
        marginal = log(total)
        terms.extend(w * marginal for w in weights)
    dropped.sort()
    return Posterior(responsibilities, dropped, fsum(terms))


def m_step(training: TrainingSet, posterior: Posterior) -> PredicateModel:
    """Row-renormalized responsibility mass, weighted by observation mass.

    Each candidate group adds its folded mass times r for each of its
    assignments z, reading the responsibility dict its members share (see
    ``Posterior``) once. The mass of z is the ``fsum`` of those terms,
    which can differ in its last digits from a sum over the items one by
    one. Templates left with zero total mass are removed.
    """
    _, groups = training.interned
    terms: dict[Assignment, list[float]] = {}
    for _, _, members, _, mass in groups:
        resp = posterior.responsibilities[members[0]]
        if resp is None:
            continue
        for z, r in resp.items():
            terms.setdefault(z, []).append(mass * r)
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
    """Alternate E and M steps from the uniform initialization until the
    max-abs parameter change falls below epsilon or max_iters is hit.

    ``ll_history`` holds the log-likelihood of every model visited: each
    E-step gives its model's, and the final model takes one more pass."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    model = init_theta(training)
    if not len(model):
        return LearnResult(model, 0, 0.0, len(training.items))
    # init_theta's rows and m_step's are keyed by these assignments, so
    # comparing the models on them compares every entry of either
    assignments, _ = training.interned
    history = []
    dropped = 0
    iterations = 0
    for _ in range(max_iters):
        posterior = e_step(training, model)
        history.append(posterior.log_likelihood)
        dropped = len(posterior.dropped)
        new_model = m_step(training, posterior)
        iterations += 1
        delta = max(abs(model.prob(*z) - new_model.prob(*z)) for z in assignments)
        model = new_model
        if delta < epsilon:
            break
    history.append(log_likelihood(training, model))
    return LearnResult(model, iterations, history[-1], dropped, history)

