"""Online probabilistic inference: from a question to a value distribution.

Enumeration follows the chain question -> entity -> template -> path ->
value, skipping any branch whose factor is zero, and normalizes at the
end. Everything operates on immutable stores, so concurrent queries are
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Iterator, Mapping

from .concepts import ConceptGraph
from .corpus import MentionTable, Tokens, lookup_tokens, tokenize
from .decompose import SLOT
from .hasharray import StaticHashArray
from .kb import KnowledgeBase, PredicatePath
from .learn import PredicateModel

REASON_NO_ENTITY = "no entity"
REASON_NO_TEMPLATE = "no template"
REASON_NO_VALUE = "no value"

SupportedTemplate = tuple[str, str, float, Mapping[PredicatePath, float]]


@dataclass(frozen=True)
class Trace:
    """Best-scoring explanation of a value: which entity, template and
    path produced its largest raw mass."""

    entity: str
    template: str
    path: PredicatePath
    mass: float


@dataclass
class AnswerDistribution:
    entries: dict[str, float]
    traces: dict[str, Trace] = field(default_factory=dict)
    reason: str | None = None
    enumerations: int = 0

    def top(self) -> tuple[str, float] | None:
        """Argmax value; ties break on the lexicographically smaller value."""
        if not self.entries:
            return None
        value = min(self.entries, key=lambda v: (-self.entries[v], v))
        return value, self.entries[value]


@dataclass
class SequenceResult:
    value: str | None
    probability: float
    failed_index: int | None
    steps: list[dict]


class AnswerEngine:
    """Answers tokenized questions against loaded artifacts. It holds all of
    the online state, and its template walk alone decides what a question
    can be answered from."""

    def __init__(
        self,
        kb: KnowledgeBase,
        index: StaticHashArray,
        concepts: ConceptGraph,
        model: PredicateModel,
        surfaces: dict[str, str] | None = None,
    ):
        self.kb = kb
        self.index = index
        self.concepts = concepts
        self.model = model
        self.surfaces = surfaces or {}

    def surface(self, node: str) -> str:
        """Canonical surface string for substitution; falls back to the
        node id itself."""
        return self.surfaces.get(node, node)

    def probe(self, tokens: Tokens) -> MentionTable:
        """The question's mention table: a span is probed when a read of
        the table first needs it, and only then."""
        return MentionTable(self.kb, self.index, lookup_tokens(tokens))

    def supported_templates(
        self, tokens: Tokens, mentions: list[tuple[tuple[int, int], str]]
    ) -> Iterator[SupportedTemplate]:
        """(entity, template text, P(template), model row) for each template
        that ``derive_templates`` gives a mention and the model has a row
        for; per mention, in template text order.

        A mention's shape, the words before and after its span, is looked
        up in the model's ``by_shape`` index: a shape that no template has
        yields nothing and asks for no concepts, and any other takes the
        entries whose concept ``question_concepts`` weights positively."""
        tokens = tuple(tokens)
        by_shape = self.model.by_shape
        for span, entity in mentions:
            entries = by_shape.get((tokens[:span[0]], tokens[span[1]:]))
            if entries is None:
                continue
            concept_dist = self.concepts.question_concepts(tokens, entity, span)
            for text, concept, row in entries:
                p_template = concept_dist.get(concept, 0.0)
                if not p_template <= 0:  # as derive_templates, which keeps nan
                    yield entity, text, p_template, row

    def answer_distribution(
        self,
        tokens: Tokens,
        mentions: list[tuple[tuple[int, int], str]],
        walk: Iterable[SupportedTemplate] | None = None,
    ) -> AnswerDistribution:
        """P(value | question); ``mentions`` are the question's, from its
        mention table (a chain step's is its carried answer); ``walk`` their
        ``supported_templates`` (``Decomposition.walk``), walked here if not
        given."""
        if not mentions:
            return AnswerDistribution({}, reason=REASON_NO_ENTITY)
        if walk is None:
            walk = self.supported_templates(tokens, mentions)
        p_entity = 1.0 / len(mentions)
        masses: dict[str, list[float]] = {}
        traces: dict[str, Trace] = {}
        supported = False
        enumerations = 0
        for entity, template, p_template, row in walk:
            supported = True
            for path in sorted(row):
                theta = row[path]
                if theta <= 0:
                    continue
                for value, p_value in self.kb.value_distribution(entity, path).items():
                    enumerations += 1
                    mass = p_entity * p_template * theta * p_value
                    if mass <= 0:
                        continue
                    masses.setdefault(value, []).append(mass)
                    best = traces.get(value)
                    if best is None or mass > best.mass:
                        traces[value] = Trace(entity, template, path, mass)
        if not supported:
            return AnswerDistribution({}, reason=REASON_NO_TEMPLATE, enumerations=enumerations)
        if not masses:
            return AnswerDistribution({}, reason=REASON_NO_VALUE, enumerations=enumerations)
        raw = {value: fsum(terms) for value, terms in masses.items()}
        total = fsum(raw.values())
        entries = {value: m / total for value, m in sorted(raw.items())}
        return AnswerDistribution(entries, traces, enumerations=enumerations)

    def answer_sequence(
        self,
        sequence: list[Tokens],
        head_mentions: list[tuple[tuple[int, int], str]],
        head_walk: Iterable[SupportedTemplate] | None = None,
    ) -> SequenceResult:
        """Answer a decomposed question chain by substitution.

        The first element is answered directly, from ``head_mentions``, and
        from ``head_walk`` if given (see ``Decomposition``); each later element
        carries a ``$e`` slot that receives the previous answer's surface form,
        and that answer as its one mention, unprobed, if a worded KB entity.
        Aborts, reporting the failing index, when any step yields nothing.
        """
        if not sequence:
            return SequenceResult(None, 0.0, 0, [])
        steps: list[dict] = []
        current_value: str | None = None
        probability = 0.0
        for i, element in enumerate(sequence):
            if i == 0:
                question, mentions, walk = tuple(element), head_mentions, head_walk
            else:
                surface = tokenize(self.surface(current_value))
                question, span = _substitute(tuple(element), surface)
                carried = surface and self.kb.is_entity(current_value)
                mentions, walk = [(span, current_value)] if carried else [], None
            dist = self.answer_distribution(question, mentions, walk)
            top = dist.top()
            if top is None:
                steps.append({"question": " ".join(question), "reason": dist.reason})
                return SequenceResult(None, 0.0, i, steps)
            current_value, probability = top
            steps.append(
                {
                    "question": " ".join(question),
                    "answer": current_value,
                    "probability": probability,
                }
            )
        return SequenceResult(current_value, probability, None, steps)


def _substitute(pattern: Tokens, replacement: Tokens) -> tuple[Tokens, tuple[int, int]]:
    """The pattern with its one ``$e`` replaced, and the replacement's span."""
    if pattern.count(SLOT) != 1:
        raise ValueError(f"pattern must contain {SLOT!r} exactly once: {pattern}")
    i = pattern.index(SLOT)
    return pattern[:i] + replacement + pattern[i + 1 :], (i, i + len(replacement))
