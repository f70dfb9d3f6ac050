"""In-memory triple store as a CSR adjacency, with value queries and
bounded predicate expansion that both walk it.

Nodes live in a single id space; a node counts as an entity iff it occurs
as a subject. The store is immutable after construction, holds no lazily
built cache and is safe for concurrent readers. The offline flow saves
it, with the canonical surface of each node, as one binary KB store file
that online start-up reads in place of the KB and dictionary TSVs. The
store's checked section reader and its name-table and packed-array
writers serve the concept file and the entity index too: this module
knows the binary layout all three artifacts share.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import IO, Any, Callable, Iterable, KeysView, Mapping, NamedTuple, Sequence

PredicatePath = tuple[str, ...]

NAME_PREDICATE = "name"

STORE_MAGIC = b"FQAKBS\x00"
STORE_VERSION = 1
# magic, version, then the counts of nodes, predicates, edges and surfaces
# and the byte lengths of the node, predicate and surface tables
_STORE_HEADER = struct.Struct("<7sIQQQQQQQ")
U32 = next(code for code in "IL" if array(code).itemsize == 4)


class SpoPath(NamedTuple):
    """A subject connected to an object through an ordered predicate path."""

    subject: str
    path: PredicatePath
    object: str


class TsvParseError(ValueError):
    """A malformed line in a tab-separated file; names the file."""

    def __init__(self, line_number: int, message: str, path: str | Path):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number
        self.path = path


RowConverter = Callable[[tuple[str, ...]], tuple[Any, ...]]


def read_tsv(path: str | Path, n_fields: int,
             convert: RowConverter | None = None, *, key_fields: int = 0) -> list[tuple[Any, ...]]:
    """Rows of the tab-separated file at ``path``.

    Line ends (``\\n``, ``\\r``) are stripped, and blank lines and lines
    starting with ``#`` are skipped. Every other line must hold exactly
    ``n_fields`` non-empty fields. ``convert``, if given, maps each row's
    fields to the row returned (``convert_last`` makes the common one); a
    ValueError it raises names the line. Then no two rows returned may hold
    the same first ``key_fields`` fields: the later line is refused, naming
    the earlier.
    """
    rows = []
    first_line: dict[tuple[str, ...], int] = {}  # key -> the line that holds it
    with open(path, encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, 1):
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
            row = fields
            if convert is not None:
                try:
                    row = convert(fields)
                except ValueError as exc:
                    raise TsvParseError(lineno, str(exc), path) from None
            if key_fields:
                key = row[:key_fields]
                first = first_line.setdefault(key, lineno)
                if first != lineno:
                    raise TsvParseError(lineno, f"same key as line {first}: {key!r}", path)
            rows.append(row)
    return rows


def convert_last(convert: Callable[[str], Any]) -> RowConverter:
    """A ``read_tsv`` row converter that converts only the last field."""
    return lambda fields: fields[:-1] + (convert(fields[-1]),)


class KnowledgeBase:
    """Immutable set of triples as a CSR adjacency over interned ids.

    Nodes and predicates are interned to dense ints in sorted order, so
    downstream indexes are reproducible. Node ``i``'s out-edges are
    positions ``offsets[i]`` to ``offsets[i + 1]`` of two parallel id
    arrays, predicates and objects, sorted by (predicate, object): the
    edges run in sorted triple order. Built from triples offline, or read
    back from the KB store (``load_store``) online; the two are equal in
    every accessor.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str]] = ()):
        rows = sorted(set(triples))
        nodes = sorted({s for s, _, _ in rows}.union(o for _, _, o in rows))
        degree = Counter(s for s, _, _ in rows)
        self._adopt(nodes, sorted({p for _, p, _ in rows}),
                    array(U32, accumulate((degree[n] for n in nodes), initial=0)),
                    array(U32), array(U32))
        self._edge_predicates.extend(self._pred_ids[p] for _, p, _ in rows)
        self._edge_objects.extend(self._node_ids[o] for _, _, o in rows)

    def _adopt(self, nodes: list[str], predicates: list[str], offsets: array,
               edge_predicates: array, edge_objects: array) -> None:
        self._node_list: tuple[str, ...] = tuple(nodes)
        self._node_ids: dict[str, int] = dict(zip(nodes, range(len(nodes))))
        self.nodes: KeysView[str] = self._node_ids.keys()
        self.predicates: tuple[str, ...] = tuple(predicates)
        self._pred_ids: dict[str, int] = dict(zip(predicates, range(len(predicates))))
        self._offsets = offsets
        self._edge_predicates = edge_predicates
        self._edge_objects = edge_objects

    def __len__(self) -> int:
        return len(self._edge_objects)

    @property
    def entities(self) -> frozenset[str]:
        """The nodes with an out-edge: those that occur as a subject;
        computed on each read."""
        offsets = self._offsets
        return frozenset(n for n, a, b in zip(self._node_list, offsets, offsets[1:]) if a != b)

    def is_entity(self, node: str) -> bool:
        i = self._node_ids.get(node)
        return i is not None and self._offsets[i] != self._offsets[i + 1]

    def node_id(self, node: str) -> int:
        return self._node_ids[node]

    def node_name(self, node_id: int) -> str:
        return self._node_list[node_id]

    def has_node_id(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._node_list)

    def value_distribution(self, entity: str, path: PredicatePath) -> dict[str, float]:
        """Uniform distribution over distinct nodes reachable via ``path``,
        in node order.

        An unknown entity or an unrealizable path yields an empty map.
        """
        if not path:
            raise ValueError("empty predicate path")
        node = self._node_ids.get(entity)
        if node is None:
            return {}
        offsets, preds, objs = self._offsets, self._edge_predicates, self._edge_objects
        frontier: set[int] = {node}
        for pred in path:
            p = self._pred_ids.get(pred)
            if p is None:
                return {}
            nxt: set[int] = set()
            for n in frontier:
                for e in range(offsets[n], offsets[n + 1]):
                    if preds[e] == p:
                        nxt.add(objs[e])
            frontier = nxt
            if not frontier:
                return {}
        share = 1.0 / len(frontier)
        names = self._node_list
        return {names[v]: share for v in sorted(frontier)}


def load_kb(path: str | Path) -> KnowledgeBase:
    """The knowledge base of a TSV file of ``subject<TAB>predicate<TAB>object``
    rows."""
    return KnowledgeBase(read_tsv(path, 3))


class StoreFormatError(ValueError):
    """Raised when a binary artifact, the KB store, the concept file or the
    entity index, cannot be decoded."""


def name_table(names: Sequence[str], what: str) -> bytes:
    """``names`` as one UTF-8 section, each name followed by ``\\n``."""
    text = "".join(f"{name}\n" for name in names)
    if text.count("\n") != len(names):
        raise ValueError(f"a {what} holds a line break, which a name table cannot hold")
    return text.encode("utf-8")


def packed(code: str, values: Iterable[Any]) -> bytes:
    """``values`` as a little-endian array of the ``array`` type ``code``."""
    arr = array(code, values)
    if sys.byteorder != "little":
        arr.byteswap()
    return arr.tobytes()


def check_ascending(values: Sequence[Any], name: str) -> None:
    """Refuse ``values`` unless each is less than the next."""
    if not all(map(operator.lt, values, values[1:])):
        raise StoreFormatError(f"corrupt {name}: not strictly ascending")


class SectionReader:
    """A binary artifact read front to back: a header of magic, version
    and the fields of ``header`` after them, then sections in order, each
    refused with StoreFormatError unless it is all there."""

    def __init__(self, data: bytes, header: struct.Struct, magic: bytes, version: int,
                 kind: str):
        if len(data) < header.size:
            raise StoreFormatError("truncated header")
        found_magic, found_version, *self.fields = header.unpack_from(data)
        if found_magic != magic:
            raise StoreFormatError("bad magic")
        if found_version != version:
            raise StoreFormatError(
                f"unsupported version: {kind} format version {found_version}, expected {version}"
            )
        self._view = memoryview(data)
        self._pos = header.size

    def section(self, size: int, name: str) -> memoryview:
        if len(self._view) - self._pos < size:
            raise StoreFormatError(f"truncated {name}")
        self._pos += size
        return self._view[self._pos - size:self._pos]

    def names(self, size: int, count: int, name: str) -> list[str]:
        """A ``name_table`` of ``size`` bytes holding ``count`` names."""
        try:
            out = str(self.section(size, name), "utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise StoreFormatError(f"corrupt {name}: {exc}") from None
        if len(out) != count + 1 or out.pop():
            raise StoreFormatError(f"corrupt {name}: not {count} names")
        return out

    def packed(self, code: str, count: int, name: str) -> array:
        """A ``packed`` array of ``count`` items of type ``code``."""
        arr = array(code)
        arr.frombytes(self.section(count * arr.itemsize, name))
        if sys.byteorder != "little":
            arr.byteswap()
        return arr

    def ids(self, count: int, limit: int, name: str) -> array:
        """A ``packed`` ``uint32`` array of ``count`` ids, each below ``limit``."""
        arr = self.packed(U32, count, name)
        if arr and max(arr) >= limit:
            raise StoreFormatError(f"corrupt {name}: id {max(arr)} out of range 0..{limit - 1}")
        return arr

    def offsets(self, count: int, total: int, code: str = U32, name: str = "offsets",
                of: str = "edge") -> array:
        """``count`` CSR offsets of the ``array`` type ``code``, rising from 0
        to ``total``, the count of what they index (``of``)."""
        arr = self.packed(code, count, name)
        bounds = arr.tolist()
        if bounds[0] != 0 or bounds[-1] != total or bounds != sorted(bounds):
            raise StoreFormatError(f"corrupt {name}: not monotone from 0 to the {of} count")
        return arr

    def end(self, last: str) -> None:
        """Refuse any bytes after the ``last`` section."""
        if self._pos != len(self._view):
            raise StoreFormatError(f"trailing bytes after the {last}")


def store_bytes(kb: KnowledgeBase, surfaces: Mapping[str, str]) -> bytes:
    """The KB store: ``kb`` as its CSR plus the canonical surface of each
    node in ``surfaces``, which must all be KB nodes."""
    surface_ids = sorted(kb.node_id(node) for node in surfaces)
    tables = [
        name_table(kb._node_list, "node"),
        name_table(kb.predicates, "predicate"),
        name_table([surfaces[kb.node_name(i)] for i in surface_ids], "surface"),
    ]
    header = _STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION, len(kb._node_list),
                                len(kb.predicates), len(kb), len(surface_ids),
                                *map(len, tables))
    return b"".join([header, tables[0], tables[1], packed(U32, kb._offsets),
                     packed(U32, kb._edge_predicates), packed(U32, kb._edge_objects),
                     packed(U32, surface_ids), tables[2]])


def load_store(source: str | Path) -> tuple[KnowledgeBase, dict[str, str]]:
    """The KB and canonical surfaces of a KB store file; a store that does
    not decode, or whose ids or offsets are out of range, raises
    StoreFormatError."""
    with open(source, "rb") as fp:
        read = SectionReader(fp.read(), _STORE_HEADER, STORE_MAGIC, STORE_VERSION, "KB store")
    (node_count, predicate_count, edge_count, surface_count, node_bytes, predicate_bytes,
     surface_bytes) = read.fields
    nodes = read.names(node_bytes, node_count, "node table")
    predicates = read.names(predicate_bytes, predicate_count, "predicate table")
    offsets = read.offsets(node_count + 1, edge_count)
    edge_predicates = read.ids(edge_count, predicate_count, "edge predicates")
    edge_objects = read.ids(edge_count, node_count, "edge objects")
    surface_ids = read.ids(surface_count, node_count, "surface ids")
    surfaces = read.names(surface_bytes, surface_count, "surface table")
    read.end("surface table")
    check_ascending(nodes, "node table")
    check_ascending(predicates, "predicate table")
    check_ascending(surface_ids, "surface ids")
    kb = KnowledgeBase.__new__(KnowledgeBase)
    kb._adopt(nodes, predicates, offsets, edge_predicates, edge_objects)
    return kb, dict(zip(map(nodes.__getitem__, surface_ids), surfaces))


def expand_predicates(
    kb: KnowledgeBase,
    seeds: Iterable[str],
    k: int,
    *,
    name_restriction: bool = True,
    name_symbol: str = NAME_PREDICATE,
) -> set[SpoPath]:
    """All (subject, path, object) reachable from the seeds within k steps.

    A breadth-first walk of the CSR: each of the k rounds follows the
    out-edges of the previous round's endpoints, carrying predicate ids,
    and names are looked up only for a path that is recorded. Seeds that
    are not entities are dropped. Paths may revisit nodes; identical
    results deduplicate. With the name restriction on, paths of length
    >= 2 must end with the name predicate.
    """
    found: set[SpoPath] = set()
    names, predicates = kb._node_list, kb.predicates
    offsets, edge_predicates, edge_objects = kb._offsets, kb._edge_predicates, kb._edge_objects
    name_id = kb._pred_ids.get(name_symbol)
    # frontier: endpoint id -> set of (origin, predicate ids so far) arriving there
    frontier: dict[int, set[tuple[str, tuple[int, ...]]]] = {
        kb.node_id(s): {(s, ())} for s in seeds if kb.is_entity(s)
    }
    for length in range(1, k + 1):
        nxt: dict[int, set[tuple[str, tuple[int, ...]]]] = {}
        for node, arrivals in frontier.items():
            for e in range(offsets[node], offsets[node + 1]):
                p = edge_predicates[e]
                nxt.setdefault(edge_objects[e], set()).update(
                    (origin, path + (p,)) for origin, path in arrivals
                )
        restricted = name_restriction and length >= 2
        for endpoint, arrivals in nxt.items():
            for origin, path in arrivals:
                if not restricted or path[-1] == name_id:
                    found.add(SpoPath(origin, tuple(map(predicates.__getitem__, path)),
                                      names[endpoint]))
        frontier = nxt
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
