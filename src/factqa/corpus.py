"""QA corpus ingestion and the distributions grounded in it.

Covers tokenization, the corpus grouped by question as it is read, and
joint entity and value extraction with category refinement.
``corpus_stats`` is the one grouping: its counts give P(q) and P(a|q), and
the probe (which counts f_v as it goes), the pattern counts and the
training set read its groups. Question mentions are probed in the entity
index; answer values are looked up in one table of node and dictionary
texts, never in the index.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .decompose import count_valid_patterns
from .hasharray import Memo, SpanTable, StaticHashArray
from .kb import KnowledgeBase, PredicatePath, convert_last, read_tsv

Tokens = tuple[str, ...]

CATEGORY_DATE = "date"
CATEGORY_NUMBER = "number"
CATEGORY_PERSON = "person"
CATEGORY_LOCATION = "location"
CATEGORY_DESCRIPTION = "description"
CATEGORY_OTHER = "other"
CATEGORIES = frozenset(
    {CATEGORY_DATE, CATEGORY_NUMBER, CATEGORY_PERSON, CATEGORY_LOCATION,
     CATEGORY_DESCRIPTION, CATEGORY_OTHER}
)

_PUNCT = string.punctuation
_raw_decode = json.JSONDecoder().raw_decode


def tokenize(text: str) -> Tokens:
    """Lowercase, split on whitespace, strip leading/trailing ASCII punctuation.

    Digits and interior punctuation (e.g. the apostrophe in a possessive)
    survive; tokens that were pure punctuation are dropped.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return tuple(out)


def lookup_token(token: str) -> str:
    """Normalization applied to a token before probing the entity index.

    Strips a trailing possessive clitic so a span like ``barack obama's``
    still matches the indexed surface ``barack obama``.
    """
    if token.endswith("'s"):
        return token[:-2]
    if token.endswith("'"):
        return token[:-1]
    return token


def lookup_tokens(tokens: Iterable[str]) -> Tokens:
    return tuple(map(lookup_token, tokens))


def normalize_text(text: str) -> str:
    return " ".join(tokenize(text))


def question_category(tokens: Tokens) -> str:
    """Coarse expected-answer type from the question's wh-words."""
    if not tokens:
        return CATEGORY_DESCRIPTION
    first = tokens[0]
    if first == "when" or (first == "what" and len(tokens) > 1 and tokens[1] == "year"):
        return CATEGORY_DATE
    if first == "how" and len(tokens) > 1 and tokens[1] in ("many", "much", "long"):
        return CATEGORY_NUMBER
    if first in ("who", "whom", "whose"):
        return CATEGORY_PERSON
    if first == "where":
        return CATEGORY_LOCATION
    return CATEGORY_DESCRIPTION


def load_predicate_categories(path: str | Path) -> dict[str, str]:
    """TSV ``predicate<TAB>category``; unknown category names and a second
    row for one predicate are rejected."""
    return dict(read_tsv(path, 2, convert_last(_category), key_fields=1))


def _category(name: str) -> str:
    if name not in CATEGORIES:
        raise ValueError(f"unknown category {name!r}")
    return name


class QaPair(NamedTuple):
    question: Tokens
    answer: Tokens
    frequency: int = 1


def load_corpus(path: str | Path) -> CorpusStats:
    """The JSON-lines corpus at ``path``: {"question": ..., "answer": ...,
    "count": n}, grouped by question as it is read (``corpus_stats``); an
    empty file gives an empty corpus. Each distinct string is tokenized
    once, and its lines share that one token tuple."""
    return corpus_stats(_records(path))


def _records(path: str | Path) -> Iterator[tuple[Tokens, Tokens, int]]:
    """Each line's (question, answer, count); a bad line raises, naming it."""
    tokenized: dict[str, Tokens] = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                try:  # again, for the error text json.loads gives
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}: invalid JSON ({exc})") from exc
            try:
                question, answer = record["question"], record["answer"]
                count = record.get("count", 1)
            except KeyError as exc:
                raise ValueError(f"line {lineno}: missing field {exc}") from exc
            except TypeError as exc:
                raise ValueError(f"line {lineno}: bad record ({exc})") from exc
            if not (isinstance(question, str) and isinstance(answer, str)):
                raise ValueError(f"line {lineno}: bad record (question and answer must be strings)")
            if type(count) is not int:  # a bool is an int too
                raise ValueError(f"line {lineno}: bad record (count must be an integer)")
            if count < 1:
                raise ValueError(f"line {lineno}: count must be >= 1")
            q = tokenized.get(question)
            if q is None:
                q = tokenized[question] = tokenize(question)
            a = tokenized.get(answer)
            if a is None:
                a = tokenized[answer] = tokenize(answer)
            yield q, a, count


@dataclass
class CorpusStats:
    """The corpus grouped by question: each distinct question's answers
    with their counts, in order of first occurrence, each question's
    total count and the corpus total. P(q) and P(a|q) are ratios of those
    counts."""

    answer_counts: dict[Tokens, dict[Tokens, int]]
    question_counts: dict[Tokens, int]
    total: int

    @property
    def pairs(self) -> int:
        """The number of distinct (question, answer) pairs."""
        return sum(map(len, self.answer_counts.values()))

    def p_q(self, question: Tokens) -> float:
        return self.question_counts.get(question, 0) / self.total

    def p_a(self, question: Tokens, answer: Tokens) -> float:
        answers = self.answer_counts.get(question)
        return answers.get(answer, 0) / self.question_counts[question] if answers else 0.0


def corpus_stats(pairs: Iterable[tuple[Tokens, Tokens, int]]) -> CorpusStats:
    """The one grouping of (question, answer, count) pairs, ``QaPair``s
    among them, by question: equal pairs merge, summing their counts."""
    answer_counts: dict[Tokens, dict[Tokens, int]] = {}
    for question, answer, count in pairs:
        answers = answer_counts.get(question)
        if answers is None:
            answers = answer_counts[question] = {}
        answers[answer] = answers.get(answer, 0) + count
    question_counts = {question: sum(answers.values())
                       for question, answers in answer_counts.items()}
    return CorpusStats(answer_counts, question_counts, sum(question_counts.values()))


class MentionTable(SpanTable):
    """A span table of a question's lookup keys (``lookup_tokens``), probed
    on read, with the KB entities per span.

    The keys are not normalized again: ``lookup_token`` is not idempotent.
    ``payloads`` keeps every raw hit and ``entities`` the hit spans whose
    payloads name KB entities (payload order): the greedy walk stops on any
    hit and filters to entities afterwards, so a payload that names no
    entity (a fingerprint false positive) still takes its span. Each hit
    span is named once, on its first read.
    """

    __slots__ = ("_names",)

    def __init__(self, kb: KnowledgeBase, index: StaticHashArray, keys: Tokens):
        super().__init__(index, keys)
        payloads = self._payloads
        self._names = Memo(lambda span: _entities(kb, payloads[span]))

    @property
    def entities(self) -> dict[tuple[int, int], list[str]]:
        names = self._names
        return {span: entities for span in self.payloads if (entities := names[span])}

    def mentions(self, start: int = 0, end: int | None = None) -> list[tuple[tuple[int, int], str]]:
        """``kb_mentions`` of the window ``[start, end)``, spans relative to it."""
        names = self._names
        out: list[tuple[tuple[int, int], str]] = []
        seen: set[str] = set()
        for i, j in self.greedy(start, end):
            for node in names[(i, j)]:
                if node not in seen:
                    seen.add(node)
                    out.append(((i - start, j - start), node))
        return out


def kb_mentions(
    kb: KnowledgeBase, index: StaticHashArray, tokens: Tokens
) -> list[tuple[tuple[int, int], str]]:
    """Entity mentions in a token sequence, KB-verified.

    Greedy longest-match spans via the entity index; payloads that do not
    name a KB entity (possible fingerprint false positives) are dropped.
    Returns one (span, entity) per distinct entity, first span wins.
    """
    return MentionTable(kb, index, lookup_tokens(tokens)).mentions()


def _entities(kb: KnowledgeBase, payloads: Iterable[int]) -> list[str]:
    """The KB entities that ``payloads`` name, in payload order."""
    nodes = [kb.node_name(p) for p in payloads if kb.has_node_id(p)]
    return [node for node in nodes if kb.is_entity(node)]


class CorpusMentions(NamedTuple):
    """Each distinct question's ``kb_mentions``, and f_v of each pattern its
    entity spans generate (``decompose.count_valid_patterns``)."""

    mentions: dict[Tokens, list[tuple[tuple[int, int], str]]]
    f_v: dict[Tokens, int]


def probe_corpus(
    kb: KnowledgeBase, index: StaticHashArray, frequency: Mapping[Tokens, int]
) -> CorpusMentions:
    """What a ``MentionTable`` of each distinct question of ``frequency``
    gives, built from the question's runs of lookup keys that the token
    filter passes.

    Every hit lies inside one such run (``SpanTable``), so a run's hits,
    entity spans and greedy mentions depend on its keys alone: each
    distinct run is read through one ``MentionTable`` for the whole pass,
    and a question joins its runs' results in order, spans shifted by the
    run's offset, an entity named in two runs kept at its first span. Each
    distinct token is normalized and filtered once to split the runs, and
    each distinct run's table filters its keys again. A question's entity
    spans are counted into f_v as it is joined, and not kept."""
    # each distinct token's lookup key, or None where the filter stops a run
    keys: dict[str, str | None] = {}
    for token in set(chain.from_iterable(frequency)):
        key = lookup_token(token)
        keys[token] = key if index.has_token(key) else None
    # each distinct run's entity spans and mentions, run-relative
    runs: dict[Tokens, tuple[list, list]] = {}
    mentions = {}
    f_v: dict[Tokens, int] = {}
    for question, n in frequency.items():
        found: list[tuple[tuple[int, int], str]] = []
        spans: list[tuple[int, int]] = []
        seen: set[str] = set()
        run_keys = (*map(keys.__getitem__, question), None)
        start = 0
        while start < len(run_keys):
            stop = run_keys.index(None, start)
            if start < stop:
                run = run_keys[start:stop]
                probed = runs.get(run)
                if probed is None:
                    table = MentionTable(kb, index, run)
                    # the table read in full first: its walk then probes nothing
                    probed = runs[run] = (list(table.entities), table.mentions())
                run_spans, walk = probed
                for (i, j), node in walk:
                    if node not in seen:
                        seen.add(node)
                        found.append(((i + start, j + start), node))
                spans += [(i + start, j + start) for i, j in run_spans]
            start = stop + 1
        mentions[question] = found
        count_valid_patterns(f_v, question, spans, n)
    return CorpusMentions(mentions, f_v)


class EntityValueExtractor:
    """Joint entity and value extraction against a KB and its entity
    dictionary.

    A pair (e, v) is extracted when e is mentioned in the question, v is a
    token span of the answer naming a KB node, and the expansion map
    (``expansion_map`` of the offline expansion) holds a predicate path
    connecting them. Refinement keeps only pairs whose value category (from
    the connecting path's final predicate) matches the question category.

    An answer span names a node when it equals the node's normalized id or
    a surface of it that ``build_entity_index`` indexes; one table maps
    each such text to its nodes.

    The expansion holds every object of a path it records for a mentioned
    entity: its seeds are the mentioned entities, and the name restriction
    depends on the path alone. So P(v | e, p), the KB's
    ``value_distribution(e, p)[v]``, is one over the count of the
    expansion's objects of (e, p), counted here once.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        dictionary: Iterable[tuple[str, str]],
        expansion: dict[tuple[str, str], list[PredicatePath]],
        *,
        predicate_categories: dict[str, str] | None = None,
    ):
        self.kb = kb
        self.predicate_categories = predicate_categories or {}
        self._expansion = expansion
        self._objects = Counter((e, path) for (e, _), paths in expansion.items() for path in paths)
        table: dict[str, set[str]] = {}
        for node in kb.nodes:
            table.setdefault(normalize_text(node), set()).add(node)
        for node, surface in dictionary:
            if node in kb.nodes and (text := normalize_text(surface)):
                table.setdefault(text, set()).add(node)
        self._nodes_by_text = {text: tuple(sorted(ns)) for text, ns in table.items()}
        # no answer span of more words can equal a text of the table
        self._longest_text = max((text.count(" ") + 1 for text in table), default=0)

    def candidate_values(self, answer: Tokens) -> set[str]:
        """KB nodes named by some contiguous answer span: one table lookup
        per span, up to the longest text."""
        by_text = self._nodes_by_text
        found: set[str] = set()
        n = len(answer)
        for i in range(n):
            for j in range(i + 1, min(n, i + self._longest_text) + 1):
                found.update(by_text.get(" ".join(answer[i:j]), ()))
        return found

    def link(self, pair: tuple[str, str]) -> tuple[frozenset[str], tuple] | None:
        """The categories of the paths connecting (entity, value), and each
        path with the count of the expansion's objects of (entity, path),
        sorted: P(value | entity, path) is one over it. None if none does."""
        paths = self._expansion.get(pair)
        if not paths:
            return None
        entity, objects, categories = pair[0], self._objects, self.predicate_categories
        return (frozenset([categories.get(path[-1], CATEGORY_OTHER) for path in paths]),
                tuple(sorted([(path, objects[entity, path]) for path in paths])))

    def extract(self, pair: QaPair, mentions: list[tuple[tuple[int, int], str]],
                values: Collection[str], refine: bool = True) -> set[tuple[str, str]]:
        """Candidate (entity, value) pairs for one QA pair, given the
        question's ``kb_mentions`` and the answer's ``candidate_values``."""
        category = question_category(pair.question) if refine else None
        return {(entity, value) for _, entity, value, _ in
                linked(mentions, values, category, Memo(self.link))}


def linked(mentions: Iterable[tuple[tuple[int, int], str]], values: Collection[str],
           category: str | None, links: Mapping[tuple[str, str], tuple | None]) -> list[tuple]:
    """Each (span, entity, value, link) of the (span, entity) ``mentions``,
    then the ``values``, whose link (``EntityValueExtractor.link``) exists
    and, unless ``category`` is None, names that category."""
    return [(span, entity, value, link) for span, entity in mentions for value in values
            if (link := links[entity, value]) and (category is None or category in link[0])]
