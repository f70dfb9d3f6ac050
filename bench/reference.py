"""Reference computations the benchmark checks the program against.

Everything here is written from the documented file formats and rules
(README of the repository) with plain dicts and lists: no hash index, no
import of the program. A check fails when the program's artifact or answer
disagrees with what these functions compute from the generated inputs.
"""

from __future__ import annotations

import json
import string
from math import fsum
from pathlib import Path

SLOT = "$e"
NAME_PREDICATE = "name"
MAX_MENTION_SPAN = 5
K = 3
FALLBACK_CONCEPT = "entity"


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, split on whitespace, strip ASCII punctuation at both ends."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return tuple(out)


def probe_token(token: str) -> str:
    """A trailing possessive clitic does not take part in entity matching."""
    if token.endswith("'s"):
        return token[:-2]
    if token.endswith("'"):
        return token[:-1]
    return token


def read_rows(path: Path, width: int) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            fields = line.split("\t")
            if len(fields) != width:
                raise ValueError(f"{path}: expected {width} fields: {line!r}")
            rows.append(fields)
    return rows


class Reference:
    """The generated inputs and a learned model file, as plain dicts."""

    def __init__(self, world_dir: Path, model_path: Path):
        self.triples = {tuple(r) for r in read_rows(world_dir / "kb.tsv", 3)}
        self.adj: dict[str, dict[str, set[str]]] = {}
        for s, p, o in self.triples:
            self.adj.setdefault(s, {}).setdefault(p, set()).add(o)
        nodes = {s for s, _, _ in self.triples} | {o for _, _, o in self.triples}
        self.node_ids = {n: i for i, n in enumerate(sorted(nodes))}
        self.surfaces: dict[tuple[str, ...], set[str]] = {}
        for node, surface in read_rows(world_dir / "entities.tsv", 2):
            if node in self.node_ids:
                self.surfaces.setdefault(tokenize(surface), set()).add(node)
        self.isa: dict[str, dict[str, float]] = {}
        for entity, concept, weight in read_rows(world_dir / "isa.tsv", 3):
            row = self.isa.setdefault(entity, {})
            row[concept] = row.get(concept, 0.0) + float(weight)
        self.model: dict[str, dict[tuple[str, ...], float]] = {}
        for template, path, prob in read_rows(model_path, 3):
            self.model.setdefault(template, {})[tuple(path.split("|"))] = float(prob)

    # -- mentions and concepts -------------------------------------------

    def mentions(self, tokens: tuple[str, ...]) -> list[tuple[tuple[int, int], str]]:
        """Greedy longest match, one (span, entity) per distinct entity."""
        probe = tuple(probe_token(t) for t in tokens)
        out: list[tuple[tuple[int, int], str]] = []
        seen: set[str] = set()
        i = 0
        while i < len(probe):
            for j in range(min(len(probe), i + MAX_MENTION_SPAN), i, -1):
                nodes = self.surfaces.get(probe[i:j])
                if nodes:
                    for node in sorted(nodes, key=self.node_ids.__getitem__):
                        if node in self.adj and node not in seen:
                            seen.add(node)
                            out.append(((i, j), node))
                    i = j
                    break
            else:
                i += 1
        return out

    def concepts(self, entity: str) -> dict[str, float]:
        row = self.isa.get(entity)
        if not row:
            return {FALLBACK_CONCEPT: 1.0}
        total = fsum(row.values())
        return {c: w / total for c, w in row.items()}

    def follow(self, entity: str, path: tuple[str, ...]) -> set[str]:
        frontier = {entity}
        for pred in path:
            frontier = {o for n in frontier for o in self.adj.get(n, {}).get(pred, ())}
        return frontier

    # -- answers -----------------------------------------------------------

    def answer(self, question: str) -> tuple[str, float] | None:
        """argmax of P(value | question), ties to the smaller value."""
        tokens = tokenize(question)
        found = self.mentions(tokens)
        if not found:
            return None
        masses: dict[str, list[float]] = {}
        for (start, end), entity in found:
            for concept, p_t in self.concepts(entity).items():
                template = " ".join(tokens[:start] + ("$" + concept,) + tokens[end:])
                for path, theta in self.model.get(template, {}).items():
                    values = self.follow(entity, path) if theta > 0 else ()
                    for value in values:
                        masses.setdefault(value, []).append(
                            (1.0 / len(found)) * p_t * theta / len(values)
                        )
        if not masses:
            return None
        raw = {v: fsum(terms) for v, terms in masses.items()}
        total = fsum(raw.values())
        value = min(raw, key=lambda v: (-raw[v], v))
        return value, raw[value] / total

    # -- offline artifacts ---------------------------------------------------

    def seed_entities(self, corpus_path: Path) -> set[str]:
        seeds: set[str] = set()
        for line in corpus_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                question = tokenize(json.loads(line)["question"])
                seeds.update(entity for _, entity in self.mentions(question))
        return seeds

    def expansion(self, seeds: set[str]) -> set[tuple[str, tuple[str, ...], str]]:
        """Breadth-first walk of up to K edges from each seed, with the name
        restriction: a path of two or more edges must end in ``name``."""
        found: set[tuple[str, tuple[str, ...], str]] = set()
        for seed in seeds:
            level = {(seed, ())}
            for _ in range(K):
                nxt = set()
                for node, path in level:
                    for pred, objs in self.adj.get(node, {}).items():
                        for obj in objs:
                            nxt.add((obj, path + (pred,)))
                for obj, path in nxt:
                    if len(path) < 2 or path[-1] == NAME_PREDICATE:
                        found.add((seed, path, obj))
                level = nxt
        return found


def read_expansion(path: Path) -> set[tuple[str, tuple[str, ...], str]]:
    return {(s, tuple(p.split("|")), o) for s, p, o in read_rows(path, 3)}
