"""Plain reference implementations the span table is checked against.

These are the mention loops as they stood before every question's spans
were probed once into a table: a lazy greedy walk that probes the index
span by span, and an all-span loop that probes every span again.
"""

from __future__ import annotations

from factqa.corpus import Tokens, lookup_tokens
from factqa.hasharray import StaticHashArray
from factqa.kb import KnowledgeBase


def find_mentions(
    index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> list[tuple[tuple[int, int], list[int]]]:
    """Greedy left-to-right longest match, probing as it walks."""
    toks = list(tokens)
    n = len(toks)
    out: list[tuple[tuple[int, int], list[int]]] = []
    i = 0
    while i < n:
        matched = None
        for j in range(min(n, i + max_span), i, -1):
            candidates = index.lookup(" ".join(toks[i:j]))
            if candidates:
                matched = ((i, j), sorted(set(candidates)))
                break
        if matched is None:
            i += 1
        else:
            out.append(matched)
            i = matched[0][1]
    return out


def kb_mentions(
    kb: KnowledgeBase, index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> list[tuple[tuple[int, int], str]]:
    """``find_mentions`` on the lookup tokens, then the KB entity filter."""
    out: list[tuple[tuple[int, int], str]] = []
    seen: set[str] = set()
    for span, payloads in find_mentions(index, lookup_tokens(tokens), max_span):
        for payload in payloads:
            if not kb.has_node_id(payload):
                continue
            node = kb.node_name(payload)
            if kb.is_entity(node) and node not in seen:
                seen.add(node)
                out.append((span, node))
    return out


def mention_spans(
    kb: KnowledgeBase, index: StaticHashArray, tokens: Tokens, max_span: int = 5
) -> set[tuple[int, int]]:
    """Every span whose lookup text has a payload naming a KB entity."""
    probe = lookup_tokens(tokens)
    spans: set[tuple[int, int]] = set()
    n = len(tokens)
    for i in range(n):
        for j in range(i + 1, min(n, i + max_span) + 1):
            for payload in index.lookup(" ".join(probe[i:j])):
                if kb.has_node_id(payload) and kb.is_entity(kb.node_name(payload)):
                    spans.add((i, j))
                    break
    return spans
