"""isA taxonomy: concept priors, context-aware reweighting, template derivation."""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from pathlib import Path
from typing import Iterable

from .kb import convert_last, read_tsv

PLACEHOLDER_MARK = "$"
FALLBACK_CONCEPT = "entity"


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


def _positive_weight(text: str) -> float:
    weight = float(text)
    if not weight > 0:
        raise ValueError(f"isA edge weight must be positive, got {text}")
    return weight


class ConceptGraph:
    """Weighted entity -> concept edges plus optional context machinery.

    ``context_weights`` maps (concept, token) to a non-negative boost used
    by :meth:`conceptualize`. ``overrides`` pins an exact concept
    distribution to a full question string and wins over any computation,
    which keeps worked examples reproducible bit for bit.
    """

    def __init__(
        self,
        edges: Iterable[tuple[str, str, float]] = (),
        context_weights: dict[tuple[str, str], float] | None = None,
        overrides: dict[str, dict[str, float]] | None = None,
    ):
        table: dict[str, dict[str, float]] = {}
        for entity, concept, weight in edges:
            if weight <= 0:
                raise ValueError(f"isA edge weight must be positive: ({entity}, {concept})")
            row = table.setdefault(entity, {})
            row[concept] = row.get(concept, 0.0) + float(weight)
        self._edges = table
        self._priors: dict[str, dict[str, float]] = {}  # filled lazily
        self.context_weights = dict(context_weights or {})
        self.overrides = {q: dict(d) for q, d in (overrides or {}).items()}

    @classmethod
    def load(
        cls,
        isa_path: str | Path,
        context_weights_path: str | Path | None = None,
        overrides_path: str | Path | None = None,
    ) -> "ConceptGraph":
        from .corpus import normalize_text

        edges = read_tsv(isa_path, 3, convert_last(_positive_weight))
        weights = None
        if context_weights_path is not None:
            rows = read_tsv(context_weights_path, 3, convert_last(float))
            weights = {(c, tok): w for c, tok, w in rows}
        overrides: dict[str, dict[str, float]] | None = None
        if overrides_path is not None:
            overrides = {}
            for question, concept, prob in read_tsv(overrides_path, 3, convert_last(float)):
                # keys are stored in tokenized form so any surface spelling
                # of the question matches at lookup time
                overrides.setdefault(normalize_text(question), {})[concept] = prob
        return cls(edges, weights, overrides)

    def concept_prior(self, entity: str) -> dict[str, float]:
        """isA edge weights of the entity, normalized; empty if it has none.

        Normalized once per entity and cached (the edges never change), so
        every caller gets the same dict: callers only read it.
        """
        prior = self._priors.get(entity)
        if prior is None:
            row = self._edges.get(entity)
            if not row:
                return {}
            total = fsum(row.values())
            prior = self._priors[entity] = {c: w / total for c, w in sorted(row.items())}
        return prior

    def conceptualize(
        self, tokens: Iterable[str], entity: str, mention: tuple[int, int] | None = None
    ) -> dict[str, float]:
        """Prior reweighted by question context.

        P(c | q, e) is proportional to P(c | e) * (1 + sum of the
        context weights of tokens outside the mention span). With no
        context weights every factor is exactly 1, so the token loop is
        skipped and this is the prior divided by its fsum.
        """
        prior = self.concept_prior(entity)
        if not prior:
            return {}
        weights = self.context_weights
        scores = prior
        if weights:
            toks = list(tokens)
            if mention is not None:
                start, end = mention
                toks = toks[:start] + toks[end:]
            scores = {
                c: p * (1.0 + fsum(weights.get((c, tok), 0.0) for tok in toks))
                for c, p in prior.items()
            }
        # the prior's fsum need not be exactly 1, so divide even without weights
        total = fsum(scores.values())
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
