"""Complex-question decomposition.

A complex question is split into a chain of answerable one-entity
questions: the head carries the entity, every later element carries a
``$e`` slot for the previous answer. Pattern validity is estimated
offline from the QA corpus (how often a pattern arises from replacing a
true entity mention, f_v, counted as the corpus is probed, versus any span
at all, f_o) and loaded online.

The optimal chain is found by memoized recursion from the whole question.
A primitive substring scores 1; any other scores the best, over its inner
spans, of the pattern's validity times the inner span's score, or 0. Inner
spans are tried longest first, then leftmost, and only a strict improvement
replaces the best so far, so that order breaks ties. Only substrings behind
a pattern of positive validity are ever scored, and each distinct substring
is scored once.

The search asks the pattern index what can frame a substring: the patterns
are held split at each slot token, so a substring's inner spans are found
by looking up its prefixes of a stored length, then the suffixes each of
those holds, one dict lookup each. A framed span that holds no entity
mention scores 0 through its own walk, and 0 never strictly improves on the
best so far.

A substring with one mention span lists its supported templates once: it is
primitive iff the list is non-empty, and answering reuses the head's list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .kb import read_tsv

if TYPE_CHECKING:  # the corpus and the engine import from here
    from .corpus import Tokens
    from .engine import AnswerEngine, SupportedTemplate

    # A stored prefix's (suffix lengths, ascending; suffix -> (pattern, validity)).
    Frame = tuple[list[int], dict[Tokens, tuple[Tokens, float]]]

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
    and the sequence is the question itself. ``mentions`` are the head's,
    from the question's mention table and relative to the head, and
    ``walk`` lists their ``supported_templates``, or is None when the head
    has not exactly one mention span; answering the head reuses both.
    """

    sequence: list[Tokens]
    score: float
    walk: list[SupportedTemplate] | None = field(default=None, repr=False)
    mentions: list[tuple[tuple[int, int], str]] | None = field(default=None, repr=False)

    @property
    def texts(self) -> list[str]:
        return [" ".join(part) for part in self.sequence]


class PatternIndex:
    """Validity counts of the corpus patterns with f_v > 0.

    A pattern is a corpus question with one contiguous span replaced by the
    slot token. f_v counts questions (frequency-weighted) where some span
    generating the pattern is an entity mention; f_o counts those where any
    span does. Only patterns with f_v > 0 are kept, each with both counts:
    the decomposer skips every pattern whose validity f_v / f_o is zero.

    ``frames`` and ``prefix_lengths`` index the patterns for the decomposer;
    they are built on first use, so the offline pass never builds them.
    """

    def __init__(self, counts: dict[Tokens, tuple[int, int]]):
        self.counts = counts

    @classmethod
    def build(cls, frequency: Mapping[Tokens, int], f_v: Mapping[Tokens, int]) -> "PatternIndex":
        """From each distinct question's frequency and the f_v > 0 of each
        pattern (``count_valid_patterns``); f_o is counted for those only.
        Any span of a question generates the pattern ``prefix $e suffix``
        iff the question starts with the prefix, ends with the suffix, and
        leaves at least one token between them; each question counts once
        per pattern. A pattern is split at each of its slot tokens, so this
        holds for any tokens."""
        ends = _split_at_slots(f_v)
        prefix_lengths = sorted({len(prefix) for prefix in ends})
        f_o = dict.fromkeys(f_v, 0)
        for question, n in frequency.items():
            size = len(question)
            found = set()
            for length in prefix_lengths:
                if length >= size:
                    break
                by_suffix = ends.get(question[:length])
                if by_suffix:
                    for suffix, pattern in by_suffix.items():
                        rest = size - len(suffix)
                        if rest > length and question[rest:] == suffix:
                            found.add(pattern)
            for pattern in found:
                f_o[pattern] += n
        return cls({pattern: (f_v[pattern], f_o[pattern]) for pattern in f_v})

    def save(self, target: str | Path) -> None:
        """TSV ``pattern<TAB>f_v<TAB>f_o``, the pattern's tokens joined by
        spaces, sorted by pattern."""
        rows = sorted((" ".join(p), f_v, f_o) for p, (f_v, f_o) in self.counts.items())
        with open(target, "w", encoding="utf-8") as fp:
            fp.writelines(f"{text}\t{f_v}\t{f_o}\n" for text, f_v, f_o in rows)

    @classmethod
    def load(cls, path: str | Path) -> "PatternIndex":
        return cls({tuple(text.split(" ")): (f_v, f_o)
                    for text, f_v, f_o in read_tsv(path, 3, _pattern_row, key_fields=1)})

    def validity(self, pattern: Tokens) -> tuple[int, int, float]:
        """(f_v, f_o, f_v / f_o); all zero for a pattern of no positive validity."""
        f_v, f_o = self.counts.get(pattern, (0, 0))
        return f_v, f_o, (f_v / f_o if f_o else 0.0)

    @cached_property
    def frames(self) -> dict[Tokens, Frame]:
        """Each pattern of positive validity split at each of its slot
        tokens: prefix -> (the lengths of the suffixes it holds, ascending;
        suffix -> (pattern, validity))."""
        frames: dict[Tokens, Frame] = {}
        for prefix, by_suffix in _split_at_slots(self.counts).items():
            framed = {suffix: (pattern, p) for suffix, pattern in by_suffix.items()
                      if (p := self.validity(pattern)[2]) > 0}
            if framed:
                frames[prefix] = sorted({len(suffix) for suffix in framed}), framed
        return frames

    @cached_property
    def prefix_lengths(self) -> list[int]:
        """The lengths of the prefixes in ``frames``, ascending."""
        return sorted({len(prefix) for prefix in self.frames})


def count_valid_patterns(
    f_v: dict[Tokens, int], question: Tokens, spans: Iterable[tuple[int, int]], frequency: int
) -> None:
    """Add ``frequency`` to f_v of each pattern, once, that replacing one of
    the question's entity ``spans`` by the slot gives; a bare slot is none."""
    size = len(question)
    for pattern in {question[:i] + (SLOT,) + question[j:] for i, j in spans if j - i < size}:
        f_v[pattern] = f_v.get(pattern, 0) + frequency


def _split_at_slots(patterns: Iterable[Tokens]) -> dict[Tokens, dict[Tokens, Tokens]]:
    """prefix -> {suffix: pattern}, each pattern split at each of its slot
    tokens, so that ``prefix + (SLOT,) + suffix == pattern``."""
    ends: dict[Tokens, dict[Tokens, Tokens]] = {}
    for pattern in patterns:
        for k, token in enumerate(pattern):
            if token == SLOT:
                ends.setdefault(pattern[:k], {})[pattern[k + 1:]] = pattern
    return ends


def _pattern_row(fields: tuple[str, ...]) -> tuple[str, int, int]:
    # The decomposer stops at a primitive substring, which is exact only
    # while no validity exceeds 1.
    text, f_v, f_o = fields[0], int(fields[1]), int(fields[2])
    if not 1 <= f_v <= f_o:
        raise ValueError(f"pattern counts must satisfy 1 <= f_v <= f_o, got f_v={f_v}, f_o={f_o}")
    return text, f_v, f_o


class Decomposer:
    """Chain decomposition over an answering engine and a pattern index."""

    def __init__(
        self,
        engine: AnswerEngine,
        patterns: PatternIndex,
        *,
        max_question_len: int = DEFAULT_MAX_QUESTION_LEN,
    ):
        self.engine = engine
        self.patterns = patterns
        self.max_question_len = max_question_len

    def is_primitive(self, tokens: Tokens) -> bool:
        """A directly answerable question: exactly one entity mention and
        at least one derivable template the model has a row for."""
        return bool(self._walk(tokens, self.engine.probe(tokens).mentions()))

    def _walk(
        self, tokens: Tokens, mentions: list[tuple[tuple[int, int], str]]
    ) -> list[SupportedTemplate] | None:
        """The supported templates of a question with one mention span, else None."""
        one_span = len({span for span, _ in mentions}) == 1
        return list(self.engine.supported_templates(tokens, mentions)) if one_span else None

    def decompose(self, tokens: Tokens) -> Decomposition:
        """Best-scoring chain by memoized recursion over the substrings a
        pattern of positive validity reaches from the whole question.

        A substring's primitivity is read from one mention table of the
        question, which probes a span only when a walk reads it, and each
        span at most once. A primitive question is answered from the walk
        of the whole question alone; any other walks each substring it
        scores. The length limit bounds the search, so a primitive question,
        which needs none, is never refused, and a longer question is refused
        before the search.
        """
        question = tuple(tokens)
        n = len(question)
        spans = self.engine.probe(question)
        mentions = spans.mentions(0, n)
        walk = self._walk(question, mentions)
        # Every validity is at most 1 (f_v <= f_o), so no chain can
        # strictly beat a primitive substring's score of 1.
        if walk:
            return Decomposition([question], 1.0, walk, mentions)
        if n > self.max_question_len:  # only the whole question can be longer
            raise QuestionTooLongError(n, self.max_question_len)
        frames, prefix_lengths = self.patterns.frames, self.patterns.prefix_lengths
        best: dict[Tokens, tuple[float, tuple[Tokens, ...]]] = {}
        walks: dict[Tokens, tuple[list[tuple[tuple[int, int], str]],
                                  list[SupportedTemplate] | None]] = {question: (mentions, walk)}

        def solve(start: int, end: int) -> tuple[float, tuple[Tokens, ...]]:
            """The score and chain of a proper substring."""
            sub = question[start:end]
            if sub in best:
                return best[sub]
            mentions = spans.mentions(start, end)
            walk = self._walk(sub, mentions)
            walks[sub] = mentions, walk
            best[sub] = (1.0, (sub,)) if walk else split(start, end, sub)
            return best[sub]

        def split(start: int, end: int, sub: Tokens) -> tuple[float, tuple[Tokens, ...]]:
            """The best chain of a substring that is not primitive, through
            an inner span, or the substring itself, scoring 0."""
            size = end - start
            # (-length, a, b, pattern, validity) of each inner span [a, b)
            # that a pattern frames
            framed = []
            for a in prefix_lengths:
                if a >= size:
                    break
                frame = frames.get(sub[:a])
                if frame is None:
                    continue
                suffix_lengths, by_suffix = frame
                for length in suffix_lengths:
                    b = size - length
                    if b <= a:  # the suffixes left are longer still
                        break
                    # a proper inner span only, so a bare slot frames none
                    if b - a < size and (hit := by_suffix.get(sub[b:])):
                        framed.append((a - b, a, b) + hit)
            framed.sort()  # longest first, then leftmost
            score, sequence = 0.0, (sub,)
            for _, a, b, pattern, p_pattern in framed:
                inner_score, inner_seq = solve(start + a, start + b)
                candidate = p_pattern * inner_score
                if candidate > score:  # strict, so the span order breaks ties
                    score = candidate
                    sequence = inner_seq + (pattern,)
            return score, sequence

        try:
            score, sequence = split(0, n, question)
        finally:
            # solve and split refer to each other; without this, every call
            # leaves a cycle (and the question's table) for the cyclic collector
            del solve, split
        mentions, walk = walks[sequence[0]]
        return Decomposition(list(sequence), score, walk, mentions)
