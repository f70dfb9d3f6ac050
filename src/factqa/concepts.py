"""isA taxonomy: concept priors, context-aware reweighting, template derivation.

The offline flow saves the graph it trained with as one binary concept
file beside the model, which online start-up reads in place of the isA,
context-weight and override TSVs.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import fsum, inf, isfinite
from pathlib import Path
from typing import Callable, Iterable

from .corpus import normalize_text
from .kb import U32, SectionReader, convert_last, name_table, packed, read_tsv, sealed

PLACEHOLDER_MARK = "$"
FALLBACK_CONCEPT = "entity"

CONCEPTS_MAGIC = b"FQACON\x00"
CONCEPTS_VERSION = 2
# after the head: the counts of entities, concepts, isA edges, context
# weights and override rows, and the byte lengths of the entity, concept,
# context concept, context token, override question and override concept
# tables
_HEADER = struct.Struct("<11Q")


@dataclass(frozen=True)
class Template:
    """A question with exactly one entity mention replaced by a concept slot."""

    tokens: tuple[str, ...]
    concept: str

    def __post_init__(self) -> None:
        slot = PLACEHOLDER_MARK + self.concept
        if self.tokens.count(slot) != 1:
            raise ValueError(f"template must contain the placeholder {slot!r} exactly once")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def _number(rule: str, holds: Callable[[float], bool]) -> Callable[[str], float]:
    """A TSV field reader: the field's float, a ValueError stating ``rule``
    when it does not hold (NaN holds none of the rules below)."""
    def read(text: str) -> float:
        value = float(text)
        if not holds(value):
            raise ValueError(f"{rule}, got {text}")
        return value
    return read


_positive_weight = _number("isA edge weight must be positive", lambda w: w > 0)
_context_weight = _number("context weight must be finite", isfinite)
_probability = _number("override probability must be in [0, 1]", lambda p: 0 <= p <= 1)


def _finite_sum(values: Iterable[float]) -> bool:
    try:
        return isfinite(fsum(values))
    except OverflowError:  # fsum's intermediate overflow
        return False


class ConceptGraph:
    """Weighted entity -> concept edges as a CSR, plus optional context
    machinery.

    Entities and concepts are interned in sorted order. Entity ``i``'s
    concepts are positions ``offsets[i]`` to ``offsets[i + 1]`` of two
    parallel arrays, concept ids (ascending) and weights, each weight the
    sum of its (entity, concept) pair's edge weights in input order. Built
    from edges offline, or read back from the concept file
    (``load_concepts``) online; the two are equal in every accessor.

    ``context_weights`` maps (concept, token) to a finite boost, possibly
    negative, used by :meth:`conceptualize`. ``overrides`` pins an exact
    concept distribution to a full question string and wins over any
    computation, which keeps worked examples reproducible bit for bit.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str, float]] = (),
        context_weights: dict[tuple[str, str], float] | None = None,
        overrides: dict[str, dict[str, float]] | None = None,
    ):
        table: dict[str, dict[str, float]] = {}
        for entity, concept, weight in edges:
            row = table.setdefault(entity, {})
            total = row.get(concept, 0.0) + float(weight)
            if not (weight > 0 and total < inf):  # NaN fails too
                raise ValueError(
                    f"isA edge weight must be positive, and a pair's weights must sum to a "
                    f"finite number: ({entity}, {concept})"
                )
            row[concept] = total
        entities = sorted(table)
        concepts = sorted({c for row in table.values() for c in row})
        ids = dict(zip(concepts, range(len(concepts))))
        rows = [sorted(table[e].items()) for e in entities]
        weights = array("d", [w for row in rows for _, w in row])
        # each entity's total is what concept_prior divides by; when all the
        # (positive) weights sum to a finite number, so does each entity's
        if not _finite_sum(weights):
            for entity, row in zip(entities, rows):
                if not _finite_sum(w for _, w in row):
                    raise ValueError(f"the isA weights of {entity} must sum to a finite number")
        self._adopt(
            entities, concepts, array(U32, accumulate(map(len, rows), initial=0)),
            array(U32, [ids[c] for row in rows for c, _ in row]), weights,
            dict(context_weights or {}),
            {q: dict(d) for q, d in (overrides or {}).items()},
        )

    def _adopt(self, entities: list[str], concepts: list[str], offsets: array,
               concept_ids: array, weights: array, context_weights: dict[tuple[str, str], float],
               overrides: dict[str, dict[str, float]]) -> None:
        self._entities = entities
        self._concepts = concepts
        self._offsets = offsets
        self._concept_ids = concept_ids
        self._weights = weights
        self._priors: dict[str, dict[str, float]] = {}  # filled lazily
        self.context_weights = context_weights
        self.overrides = overrides

    @classmethod
    def load(
        cls,
        isa_path: str | Path,
        context_weights_path: str | Path | None = None,
        overrides_path: str | Path | None = None,
    ) -> "ConceptGraph":
        """The graph of the isA, context-weight and override TSVs. An isA
        line whose weight takes its entity's running total past the float
        range is refused by its line, and so is a context-weight line that
        repeats a (concept, token) or an override line that repeats a
        (tokenized question, concept)."""
        totals: dict[str, float] = {}

        def edge(fields: tuple[str, ...]) -> tuple[str, str, float]:
            entity, concept, text = fields
            weight = _positive_weight(text)
            total = totals[entity] = totals.get(entity, 0.0) + weight
            if total == inf:
                raise ValueError(f"the isA weights of {entity} must sum to a finite number")
            return entity, concept, weight

        edges = read_tsv(isa_path, 3, edge)
        weights = None
        if context_weights_path is not None:
            rows = read_tsv(context_weights_path, 3, convert_last(_context_weight), key_fields=2)
            weights = {(c, tok): w for c, tok, w in rows}
        overrides: dict[str, dict[str, float]] | None = None
        if overrides_path is not None:
            overrides = {}
            # keyed by the tokenized question: any spelling of it matches at
            # lookup time, and two spellings of it are one key
            for question, concept, prob in read_tsv(
                overrides_path, 3, lambda f: (normalize_text(f[0]), f[1], _probability(f[2])),
                key_fields=2,
            ):
                overrides.setdefault(question, {})[concept] = prob
        return cls(edges, weights, overrides)

    def concept_prior(self, entity: str) -> dict[str, float]:
        """isA edge weights of the entity, normalized; empty if it has none.

        Normalized from the entity's CSR slice on first use and cached (the
        edges never change), so every caller gets the same dict: callers
        only read it.
        """
        prior = self._priors.get(entity)
        if prior is None:
            entities = self._entities
            i = bisect_left(entities, entity)
            if i == len(entities) or entities[i] != entity:
                return {}
            start, end = self._offsets[i], self._offsets[i + 1]
            weights = self._weights[start:end]
            total = fsum(weights)
            names = self._concepts
            prior = self._priors[entity] = {
                names[c]: w / total for c, w in zip(self._concept_ids[start:end], weights)
            }
        return prior

    def conceptualize(
        self, tokens: Iterable[str], entity: str, mention: tuple[int, int] | None = None
    ) -> dict[str, float]:
        """Prior reweighted by question context.

        P(c | q, e) is proportional to P(c | e) * (1 + sum of the
        context weights of tokens outside the mention span), a factor
        clamped at 0, since a context weight may be negative. Empty when
        every factor is 0, as for an entity without isA edges, and when a
        factor or their sum is not finite. With no context weights every
        factor is exactly 1, so the token loop is skipped and this is the
        prior divided by its fsum.
        """
        prior = self.concept_prior(entity)
        if not prior:
            return {}
        weights = self.context_weights
        scores = prior
        try:
            if weights:
                toks = list(tokens)
                if mention is not None:
                    start, end = mention
                    toks = toks[:start] + toks[end:]
                # a NaN factor stays NaN: max keeps its first argument
                scores = {
                    c: p * max(1.0 + fsum(weights.get((c, tok), 0.0) for tok in toks), 0.0)
                    for c, p in prior.items()
                }
            # the prior's fsum need not be exactly 1, so divide even without weights
            total = fsum(scores.values())
        except (OverflowError, ValueError):  # fsum's intermediate overflow, or inf - inf
            return {}
        if not 0 < total < inf:  # NaN fails too
            return {}
        return {c: s / total for c, s in scores.items()}

    def question_concepts(
        self, tokens: Iterable[str], entity: str, mention: tuple[int, int] | None = None
    ) -> dict[str, float]:
        """Concept distribution used when deriving templates for a question.

        Checks the per-question override first, then conceptualizes; an
        entity without isA edges falls back to the universal concept so
        every mention yields at least one template.
        """
        toks = tuple(tokens)
        override = self.overrides.get(" ".join(toks))
        if override:
            return dict(override)
        dist = self.conceptualize(toks, entity, mention=mention)
        if dist:
            return dist
        return {FALLBACK_CONCEPT: 1.0}


def derive_templates(
    tokens: Iterable[str], mention: tuple[int, int], concepts: dict[str, float]
) -> dict[Template, float]:
    """One template per positively weighted concept, mention span replaced
    by the concept placeholder. Probabilities are copied unchanged."""
    toks = tuple(tokens)
    start, end = mention
    if not (0 <= start < end <= len(toks)):
        raise ValueError(f"mention span {mention} out of range for {len(toks)} tokens")
    out: dict[Template, float] = {}
    for concept, prob in concepts.items():
        if prob <= 0:
            continue
        slot = (PLACEHOLDER_MARK + concept,)
        out[Template(toks[:start] + slot + toks[end:], concept)] = prob
    return out


def concepts_bytes(graph: ConceptGraph) -> bytes:
    """The concept file: ``graph``'s CSR, then its context weights sorted by
    (concept, token), then its override rows by question, each question's
    concepts in their given order."""
    context = sorted(graph.context_weights.items())
    overrides = [(q, c, p) for q in sorted(graph.overrides) for c, p in graph.overrides[q].items()]
    tables = [
        name_table(graph._entities, "entity"),
        name_table(graph._concepts, "concept"),
        name_table([c for (c, _), _ in context], "context concept"),
        name_table([tok for (_, tok), _ in context], "context token"),
        name_table([q for q, _, _ in overrides], "override question"),
        name_table([c for _, c, _ in overrides], "override concept"),
    ]
    header = _HEADER.pack(len(graph._entities), len(graph._concepts), len(graph._concept_ids),
                          len(context), len(overrides), *map(len, tables))
    return sealed(CONCEPTS_MAGIC, CONCEPTS_VERSION, [
        header, tables[0], tables[1], packed(U32, graph._offsets),
        packed(U32, graph._concept_ids), packed("d", graph._weights),
        tables[2], tables[3], packed("d", [w for _, w in context]),
        tables[4], tables[5], packed("d", [p for _, _, p in overrides]),
    ])


def load_concepts(source: str | Path) -> ConceptGraph:
    """The graph of a concept file; one that is not a sealed concept file
    of this version raises StoreFormatError."""
    with open(source, "rb") as fp:
        read = SectionReader(fp.read(), _HEADER, CONCEPTS_MAGIC, CONCEPTS_VERSION,
                             "concept file")
    (entity_count, _, edge_count, context_count, override_count, entity_bytes, concept_bytes,
     context_concept_bytes, token_bytes, question_bytes, override_concept_bytes) = read.fields
    entities = read.names(entity_bytes)
    concepts = read.names(concept_bytes)
    offsets = read.packed(U32, entity_count + 1)
    concept_ids = read.packed(U32, edge_count)
    weights = read.packed("d", edge_count)
    context_concepts = read.names(context_concept_bytes)
    tokens = read.names(token_bytes)
    context_weights = read.packed("d", context_count)
    questions = read.names(question_bytes)
    override_concepts = read.names(override_concept_bytes)
    probabilities = read.packed("d", override_count)
    overrides: dict[str, dict[str, float]] = {}
    for question, concept, prob in zip(questions, override_concepts, probabilities):
        overrides.setdefault(question, {})[concept] = prob
    graph = ConceptGraph.__new__(ConceptGraph)
    graph._adopt(entities, concepts, offsets, concept_ids, weights,
                 dict(zip(zip(context_concepts, tokens), context_weights)), overrides)
    return graph
