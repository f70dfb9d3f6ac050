"""In-memory triple store with value queries and bounded predicate expansion.

Nodes live in a single id space; a node counts as an entity iff it occurs
as a subject. The store is immutable after construction and safe for
concurrent readers.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Any, Callable, Iterable, NamedTuple

PredicatePath = tuple[str, ...]

NAME_PREDICATE = "name"


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


class SpoPath(NamedTuple):
    """A subject connected to an object through an ordered predicate path."""

    subject: str
    path: PredicatePath
    object: str


class TsvParseError(ValueError):
    """A malformed line in a tab-separated file; names the file when read
    from a path (``path`` is None otherwise)."""

    def __init__(self, line_number: int, message: str, path: str | Path | None = None):
        where = f"line {line_number}" if path is None else f"{path}: line {line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number
        self.path = path


RowConverter = Callable[[tuple[str, ...]], tuple[Any, ...]]


def read_tsv(source: str | Path | IO[str] | Iterable[str], n_fields: int,
             convert: RowConverter | None = None) -> list[tuple[Any, ...]]:
    """Rows of a tab-separated file from a path, file object or line iterable.

    Line ends (``\\n``, ``\\r``) are stripped, and blank lines and lines
    starting with ``#`` are skipped. Every other line must hold exactly
    ``n_fields`` non-empty fields. ``convert``, if given, maps each row's
    fields to the row returned (``convert_last`` makes the common one); a
    ValueError it raises names the line.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fp:
            return _tsv_rows(fp, n_fields, convert, source)
    return _tsv_rows(source, n_fields, convert, None)


def convert_last(convert: Callable[[str], Any]) -> RowConverter:
    """A ``read_tsv`` row converter that converts only the last field."""
    return lambda fields: fields[:-1] + (convert(fields[-1]),)


def _tsv_rows(lines: Iterable[str], n_fields: int, convert: RowConverter | None,
              path: str | Path | None) -> list[tuple[Any, ...]]:
    rows = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != n_fields:
            raise TsvParseError(
                lineno, f"expected {n_fields} tab-separated fields, got {len(fields)}", path
            )
        if not all(fields):
            raise TsvParseError(lineno, "empty field", path)
        if convert is not None:
            try:
                fields = convert(fields)
            except ValueError as exc:
                raise TsvParseError(lineno, str(exc), path) from None
        rows.append(fields)
    return rows


class KnowledgeBase:
    """Immutable set of triples with forward adjacency.

    Adjacency maps subject -> predicate -> objects. Node ids are interned
    to dense ints in sorted order so downstream indexes are reproducible.
    """

    def __init__(self, triples: Iterable[Triple]):
        self.triples: tuple[Triple, ...] = tuple(sorted(set(triples)))
        adj: dict[str, dict[str, list[str]]] = {}
        nodes: set[str] = set()
        for s, p, o in self.triples:
            adj.setdefault(s, {}).setdefault(p, []).append(o)
            nodes.add(s)
            nodes.add(o)
        self._adj: dict[str, dict[str, tuple[str, ...]]] = {
            s: {p: tuple(objs) for p, objs in by_pred.items()} for s, by_pred in adj.items()
        }
        self.entities: frozenset[str] = frozenset(self._adj)
        self.nodes: frozenset[str] = frozenset(nodes)
        self._node_list: tuple[str, ...] = tuple(sorted(nodes))
        self._node_ids: dict[str, int] = {n: i for i, n in enumerate(self._node_list)}

    def __len__(self) -> int:
        return len(self.triples)

    def is_entity(self, node: str) -> bool:
        return node in self.entities

    def node_id(self, node: str) -> int:
        return self._node_ids[node]

    def node_name(self, node_id: int) -> str:
        return self._node_list[node_id]

    def has_node_id(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._node_list)

    def value_distribution(self, entity: str, path: PredicatePath) -> dict[str, float]:
        """Uniform distribution over distinct nodes reachable via ``path``.

        An unknown entity or an unrealizable path yields an empty map.
        """
        if not path:
            raise ValueError("empty predicate path")
        if entity not in self.nodes:
            return {}
        frontier: set[str] = {entity}
        for pred in path:
            nxt: set[str] = set()
            for node in frontier:
                nxt.update(self._adj.get(node, {}).get(pred, ()))
            frontier = nxt
            if not frontier:
                return {}
        share = 1.0 / len(frontier)
        return {v: share for v in sorted(frontier)}


def load_kb(source: str | Path | IO[str] | Iterable[str]) -> KnowledgeBase:
    """Load a knowledge base from a path, file object, or line iterable of
    ``subject<TAB>predicate<TAB>object`` rows."""
    return KnowledgeBase(Triple(*row) for row in read_tsv(source, 3))


def expand_predicates(
    kb: KnowledgeBase,
    seeds: Iterable[str],
    k: int,
    *,
    name_restriction: bool = True,
    name_symbol: str = NAME_PREDICATE,
) -> set[SpoPath]:
    """All (subject, path, object) reachable from the seeds within k steps.

    Implemented as k sequential scans of the triple stream, each joined
    against the previous round's endpoints; no reverse adjacency is built.
    Paths may revisit nodes; identical results deduplicate. With the name
    restriction on, paths of length >= 2 must end with the name predicate.
    """
    found: set[SpoPath] = set()
    if k < 1:
        return found
    seed_set = {s for s in seeds if s in kb.entities}
    if not seed_set:
        return found
    # frontier: endpoint -> set of (origin, path so far) arriving there
    frontier: dict[str, set[tuple[str, PredicatePath]]] = {s: {(s, ())} for s in seed_set}
    for _ in range(k):
        nxt: dict[str, set[tuple[str, PredicatePath]]] = {}
        for s, p, o in kb.triples:
            arrivals = frontier.get(s)
            if not arrivals:
                continue
            bucket = nxt.setdefault(o, set())
            for origin, path in arrivals:
                bucket.add((origin, path + (p,)))
        for endpoint, arrivals in nxt.items():
            for origin, path in arrivals:
                found.add(SpoPath(origin, path, endpoint))
        if not nxt:
            break
        frontier = nxt
    if name_restriction:
        found = {sp for sp in found if len(sp.path) < 2 or sp.path[-1] == name_symbol}
    return found


def expansion_map(paths: Iterable[SpoPath]) -> dict[tuple[str, str], list[PredicatePath]]:
    """Group expansion output by (subject, object) for constant-time path lookup."""
    grouped: dict[tuple[str, str], list[PredicatePath]] = {}
    for sp in paths:
        grouped.setdefault((sp.subject, sp.object), []).append(sp.path)
    for key in grouped:
        grouped[key].sort(key=lambda p: (len(p), p))
    return grouped


def write_expansion(paths: Iterable[SpoPath], fp: IO[str]) -> int:
    """Write expansion rows as ``subject<TAB>p1|p2|...<TAB>object``, sorted."""
    rows = sorted(paths)
    for sp in rows:
        fp.write(f"{sp.subject}\t{'|'.join(sp.path)}\t{sp.object}\n")
    return len(rows)
