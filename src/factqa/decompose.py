"""Complex-question decomposition.

A complex question is split into a chain of answerable one-entity
questions: the head carries the entity, every later element carries a
``$e`` slot for the previous answer. Pattern validity is estimated from
the QA corpus (how often a pattern arises from replacing a true entity
mention versus any span at all).

The optimal chain is found by memoized recursion from the whole question.
A primitive substring scores 1; any other scores the best, over its inner
spans, of the pattern's validity times the inner span's score, or 0. Inner
spans are tried longest first, then leftmost, and only a strict improvement
replaces the best so far, so that order breaks ties. Only substrings behind
a pattern of positive validity are ever scored, and each distinct substring
is scored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .concepts import ConceptGraph, derive_templates
from .corpus import MentionTable, QaPair, Tokens, kb_mentions
from .hasharray import StaticHashArray
from .kb import KnowledgeBase
from .learn import PredicateModel

SLOT = "$e"

DEFAULT_MAX_QUESTION_LEN = 23


class QuestionTooLongError(ValueError):
    def __init__(self, length: int, limit: int):
        super().__init__(f"question has {length} tokens, limit is {limit}")
        self.length = length
        self.limit = limit


@dataclass
class Decomposition:
    """Question chain with its validity score.

    ``sequence[0]`` is the head question; later elements contain the
    ``$e`` slot. A score of zero means no valid decomposition was found
    and the sequence is the question itself.
    """

    sequence: list[Tokens]
    score: float

    @property
    def texts(self) -> list[str]:
        return [" ".join(part) for part in self.sequence]


class PatternIndex:
    """Precomputed per-pattern match counts over the corpus.

    For each corpus question and each contiguous span, the span is
    replaced by the slot token to form a pattern. f_o counts questions
    (frequency-weighted) matching the pattern under any substitution;
    f_v counts those where some generating span is an entity mention.
    """

    def __init__(self, f_o: dict[Tokens, int], f_v: dict[Tokens, int]):
        self.f_o = f_o
        self.f_v = f_v

    @classmethod
    def build(
        cls,
        corpus: Iterable[QaPair],
        kb: KnowledgeBase,
        index: StaticHashArray,
        max_mention_span: int = 5,
    ) -> "PatternIndex":
        freq: dict[Tokens, int] = {}
        for pair in corpus:
            freq[pair.question] = freq.get(pair.question, 0) + pair.frequency
        f_o: dict[Tokens, int] = {}
        f_v: dict[Tokens, int] = {}
        for question, n in freq.items():
            valid_spans = MentionTable(kb, index, question, max_mention_span).entity_spans()
            patterns: set[Tokens] = set()
            valid_patterns: set[Tokens] = set()
            size = len(question)
            for i in range(size):
                for j in range(i + 1, size + 1):
                    pattern = question[:i] + (SLOT,) + question[j:]
                    if len(pattern) < 2:
                        continue  # a bare slot is not a pattern
                    patterns.add(pattern)
                    if (i, j) in valid_spans:
                        valid_patterns.add(pattern)
            for pattern in patterns:
                f_o[pattern] = f_o.get(pattern, 0) + n
            for pattern in valid_patterns:
                f_v[pattern] = f_v.get(pattern, 0) + n
        return cls(f_o, f_v)

    def validity(self, pattern: Tokens) -> tuple[int, int, float]:
        """(f_v, f_o, f_v / f_o); probability is zero when f_o is zero."""
        f_o = self.f_o.get(pattern, 0)
        f_v = self.f_v.get(pattern, 0)
        return f_v, f_o, (f_v / f_o if f_o else 0.0)


class Decomposer:
    """Chain decomposition against a pattern index and model."""

    def __init__(
        self,
        kb: KnowledgeBase,
        index: StaticHashArray,
        concepts: ConceptGraph,
        model: PredicateModel,
        patterns: PatternIndex,
        *,
        max_mention_span: int = 5,
        max_question_len: int = DEFAULT_MAX_QUESTION_LEN,
    ):
        self.kb = kb
        self.index = index
        self.concepts = concepts
        self.model = model
        self.patterns = patterns
        self.max_mention_span = max_mention_span
        self.max_question_len = max_question_len

    def is_primitive(self, tokens: Tokens, spans: MentionTable | None = None) -> bool:
        """A directly answerable question: exactly one entity mention and
        at least one derivable template the model has a row for.

        ``spans`` is the question's mention table, if already probed.
        """
        if spans is None:
            mentions = kb_mentions(self.kb, self.index, tokens, self.max_mention_span)
        else:
            mentions = spans.mentions()
        return self._primitive(tokens, mentions)

    def _primitive(self, tokens: Tokens, mentions: list[tuple[tuple[int, int], str]]) -> bool:
        if len({span for span, _ in mentions}) != 1:
            return False
        for span, entity in mentions:
            concept_dist = self.concepts.question_concepts(tokens, entity, span)
            for template in derive_templates(tokens, span, concept_dist):
                if template.text in self.model:
                    return True
        return False

    def decompose(self, tokens: Tokens, spans: MentionTable | None = None) -> Decomposition:
        """Best-scoring chain by memoized recursion over the substrings a
        pattern of positive validity reaches from the whole question.

        A substring's primitivity is read from one mention table of the
        question (``spans``, probed here if not given), so each span is
        probed once.
        """
        question = tuple(tokens)
        if len(question) > self.max_question_len:
            raise QuestionTooLongError(len(question), self.max_question_len)
        if not question:
            return Decomposition([()], 0.0)
        if spans is None:
            spans = MentionTable(self.kb, self.index, question, self.max_mention_span)
        best: dict[Tokens, tuple[float, tuple[Tokens, ...]]] = {}

        def solve(start: int, end: int) -> tuple[float, tuple[Tokens, ...]]:
            sub = question[start:end]
            if sub in best:
                return best[sub]
            # Every validity is at most 1 (f_v <= f_o), so no chain can
            # strictly beat a primitive substring's score of 1.
            if self._primitive(sub, spans.mentions(start, end)):
                best[sub] = (1.0, (sub,))
                return best[sub]
            score, sequence = 0.0, (sub,)
            size = end - start
            for length in range(size - 1, 0, -1):  # longest first, then leftmost
                for a in range(size - length + 1):
                    b = a + length
                    pattern = sub[:a] + (SLOT,) + sub[b:]
                    p_pattern = self.patterns.validity(pattern)[2]
                    if p_pattern <= 0:
                        continue
                    inner_score, inner_seq = solve(start + a, start + b)
                    candidate = p_pattern * inner_score
                    if candidate > score:  # strict, so the span order breaks ties
                        score = candidate
                        sequence = inner_seq + (pattern,)
            best[sub] = (score, sequence)
            return best[sub]

        score, sequence = solve(0, len(question))
        return Decomposition(list(sequence), score)
