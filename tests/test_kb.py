"""Triple store: loading, value queries, the path oracle, expansion over the CSR."""

from __future__ import annotations

import random
import struct

import pytest

from factqa.kb import (
    KnowledgeBase,
    SpoPath,
    StoreFormatError,
    TsvParseError,
    expand_predicates,
    expansion_map,
    load_kb,
    load_store,
    read_tsv,
    store_bytes,
    write_expansion,
)
from factqa.pipeline import build_entity_index, load_entity_dictionary
from oracles import predicates_between, triples_of
from oracles import value_distribution as value_distribution_oracle

# ---------------------------------------------------------------------------
# oracles


def enumerate_paths_oracle(triples, seeds, k, name_restriction=False, name_symbol="name"):
    """Exhaustive recursive enumeration of (s, path, o) over a raw triple
    list; structured nothing like the breadth-first walk of the CSR."""
    out = set()

    def step(origin, node, prefix):
        if len(prefix) == k:
            return
        for s, p, o in triples:
            if s == node:
                path = prefix + (p,)
                out.add(SpoPath(origin, path, o))
                step(origin, o, path)

    for seed in seeds:
        step(seed, seed, ())
    if name_restriction:
        out = {sp for sp in out if len(sp.path) < 2 or sp.path[-1] == name_symbol}
    return out


def paths_between_oracle(triples, entity, value, k):
    return sorted(
        {sp.path for sp in enumerate_paths_oracle(triples, {entity}, k) if sp.object == value},
        key=lambda p: (len(p), p),
    )


def random_graph(rng, nodes=100, edges=200, predicates=("name", "p1", "p2", "p3")):
    triples = set()
    while len(triples) < edges:
        s = f"n{rng.randrange(nodes)}"
        o = f"n{rng.randrange(nodes)}"
        triples.add((s, rng.choice(predicates), o))
    return sorted(triples)


# ---------------------------------------------------------------------------
# loading


def load_kb_text(tmp_path, text: str) -> KnowledgeBase:
    path = tmp_path / "kb.tsv"
    path.write_text(text, encoding="utf-8")
    return load_kb(path)


def test_toy_kb_loads(toy_kb):
    assert len(toy_kb) == 9
    assert len(toy_kb.entities) == 5
    assert toy_kb.is_entity("BarackObama")
    assert not toy_kb.is_entity("1961")


def test_empty_stream_is_valid(tmp_path):
    kb = load_kb_text(tmp_path, "")
    assert len(kb) == 0
    assert kb.entities == frozenset()


def test_duplicate_lines_collapse(tmp_path):
    assert len(load_kb_text(tmp_path, "a\tp\tb\na\tp\tb\na\tq\tc\n")) == 2


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(TsvParseError) as exc:
        load_kb_text(tmp_path, "a\tp\tb\nbroken line\n")
    assert f"{tmp_path / 'kb.tsv'}: line 2" in str(exc.value)
    assert exc.value.line_number == 2


def test_empty_field_rejected(tmp_path):
    with pytest.raises(TsvParseError):
        load_kb_text(tmp_path, "a\t\tb\n")


def test_read_tsv_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\t1\n# a\tb\t1\na\tc\t1\nb\tb\t1\n", encoding="utf-8")
    # comments are no rows, and keys differ in any of their fields
    assert len(read_tsv(path, 3, key_fields=2)) == 3
    with pytest.raises(TsvParseError, match="line 3: same key as line 1: \\('a',\\)") as exc:
        read_tsv(path, 3, key_fields=1)
    assert exc.value.line_number == 3
    # without key fields a repeated row is read as it stands
    assert len(read_tsv(path, 3)) == 3
    # the key is read off the converted row: here "A" and "a" are one key
    path.write_text("a\tb\t1\nA\tb\t2\n", encoding="utf-8")
    assert len(read_tsv(path, 3, key_fields=2)) == 2
    with pytest.raises(TsvParseError, match="line 2: same key as line 1: \\('a', 'b'\\)"):
        read_tsv(path, 3, lambda row: (row[0].lower(), *row[1:]), key_fields=2)


def test_comments_and_blank_lines_skipped(tmp_path):
    kb = load_kb_text(tmp_path, "# header\n\na\tp\tb\n")
    assert len(kb) == 1


def test_node_ids_are_sorted_and_stable(toy_kb):
    names = [toy_kb.node_name(i) for i in range(len(toy_kb.nodes))]
    assert names == sorted(toy_kb.nodes)
    assert all(toy_kb.node_id(n) == i for i, n in enumerate(names))


# ---------------------------------------------------------------------------
# value_distribution


def test_value_distribution_dob(toy_kb):
    assert toy_kb.value_distribution("BarackObama", ("dob",)) == {"1961": 1.0}


def test_value_distribution_category(toy_kb):
    dist = toy_kb.value_distribution("BarackObama", ("category",))
    assert dist == {"politician": 0.5, "person": 0.5}


def test_value_distribution_spouse_path(toy_kb):
    dist = toy_kb.value_distribution("BarackObama", ("marriage", "person", "name"))
    assert dist == {"MichelleObama": 1.0}


def test_value_distribution_unknown_entity(toy_kb):
    assert toy_kb.value_distribution("Nobody", ("dob",)) == {}


def test_value_distribution_rejects_empty_path(toy_kb):
    with pytest.raises(ValueError):
        toy_kb.value_distribution("BarackObama", ())


def test_value_distribution_sums_to_one_everywhere(toy_kb):
    # every (entity, path) with a non-empty value set is uniform and normalized
    for sp in expand_predicates(toy_kb, toy_kb.entities, 3, name_restriction=False):
        dist = toy_kb.value_distribution(sp.subject, sp.path)
        assert sp.object in dist
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        expected = 1.0 / len(dist)
        assert all(p == expected for p in dist.values())


# ---------------------------------------------------------------------------
# predicates_between (the depth-first path oracle in tests/oracles.py)


def test_predicates_between_direct(toy_kb):
    assert predicates_between(toy_kb, "BarackObama", "1961", 1) == [("dob",)]


def test_predicates_between_spouse(toy_kb):
    assert predicates_between(toy_kb, "BarackObama", "MichelleObama", 3) == [
        ("marriage", "person", "name")
    ]


def test_predicates_between_self_loop_is_empty(toy_kb):
    # frozen from the exhaustive oracle on the toy graph
    assert paths_between_oracle(triples_of(toy_kb), "BarackObama", "BarackObama", 3) == []
    assert predicates_between(toy_kb, "BarackObama", "BarackObama", 3) == []


def test_predicates_between_k_zero(toy_kb):
    assert predicates_between(toy_kb, "BarackObama", "1961", 0) == []


def test_predicates_between_matches_value_distribution(toy_kb):
    # cross-operation consistency on a small store
    for e in toy_kb.entities:
        for v in toy_kb.nodes:
            via_paths = predicates_between(toy_kb, e, v, 3)
            expected = [
                p
                for p in {sp.path for sp in expand_predicates(toy_kb, {e}, 3, name_restriction=False)}
                if v in toy_kb.value_distribution(e, p)
            ]
            assert sorted(via_paths) == sorted(expected)


def test_predicates_between_oracle_random_graphs():
    rng = random.Random(11)
    for _ in range(10):
        triples = random_graph(rng, nodes=12, edges=30)
        kb = KnowledgeBase(triples)
        e = rng.choice(sorted(kb.entities))
        v = rng.choice(sorted(kb.nodes))
        assert predicates_between(kb, e, v, 3) == paths_between_oracle(triples, e, v, 3)


def test_predicates_between_name_restriction(toy_kb):
    unrestricted = predicates_between(toy_kb, "BarackObama", "1964", 3)
    assert unrestricted == [("marriage", "person", "dob")]
    assert predicates_between(toy_kb, "BarackObama", "1964", 3, name_restriction=True) == []


# ---------------------------------------------------------------------------
# expand_predicates


def test_expand_includes_spouse_path(toy_kb):
    paths = expand_predicates(toy_kb, {"BarackObama"}, 3)
    assert SpoPath("BarackObama", ("marriage", "person", "name"), "MichelleObama") in paths


def test_expand_name_restriction_excludes_meaningless_path(toy_kb):
    meaningless = SpoPath("BarackObama", ("marriage", "person", "dob"), "1964")
    restricted = expand_predicates(toy_kb, {"BarackObama"}, 3, name_restriction=True)
    unrestricted = expand_predicates(toy_kb, {"BarackObama"}, 3, name_restriction=False)
    assert meaningless in unrestricted
    assert meaningless not in restricted


def test_expand_no_seeds(toy_kb):
    assert expand_predicates(toy_kb, set(), 3) == set()


def test_expand_k_zero(toy_kb):
    assert expand_predicates(toy_kb, {"BarackObama"}, 0) == set()


def test_expand_matches_bfs_oracle_on_random_graphs():
    rng = random.Random(42)
    seen_objects_only = 0
    for _ in range(50):
        triples = random_graph(rng)
        kb = KnowledgeBase(triples)
        entities = sorted(kb.entities)
        objects_only = sorted(set(kb.nodes) - kb.entities)
        # a node that is only an object, and a name the KB lacks, seed nothing
        seeds = {*rng.sample(entities, min(10, len(entities))), *objects_only[:1], "no such node"}
        seen_objects_only += bool(objects_only)
        k = rng.randrange(1, 4)
        restricted = rng.random() < 0.5
        got = expand_predicates(kb, seeds, k, name_restriction=restricted)
        want = enumerate_paths_oracle(triples, seeds, k, name_restriction=restricted)
        assert got == want
    assert seen_objects_only


def test_expand_invariant_under_stream_permutation(toy_kb, data_dir, tmp_path):
    lines = [l for l in (data_dir / "toy_kb.tsv").read_text().splitlines() if not l.startswith("#")]
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(lines)
        kb = load_kb_text(tmp_path, "\n".join(lines))
        assert expand_predicates(kb, {"BarackObama"}, 3) == expand_predicates(
            toy_kb, {"BarackObama"}, 3
        )


def test_expand_all_entities_equals_exhaustive_enumeration():
    rng = random.Random(7)
    triples = random_graph(rng, nodes=40, edges=150)
    kb = KnowledgeBase(triples)
    got = expand_predicates(kb, kb.entities, 3, name_restriction=False)
    assert got == enumerate_paths_oracle(triples, kb.entities, 3)


# ---------------------------------------------------------------------------
# expansion file round-trip


def test_expansion_file_roundtrip(toy_kb, tmp_path):
    paths = expand_predicates(toy_kb, {"BarackObama", "Honolulu"}, 3)
    target = tmp_path / "expansion.tsv"
    with open(target, "w", encoding="utf-8") as fp:
        write_expansion(paths, fp)
    rows = read_tsv(target, 3)
    assert {SpoPath(s, tuple(p.split("|")), o) for s, p, o in rows} == paths
    grouped = expansion_map(paths)
    assert grouped[("BarackObama", "MichelleObama")] == [("marriage", "person", "name")]


# ---------------------------------------------------------------------------
# the KB store


def assert_same_kb(got: KnowledgeBase, want: KnowledgeBase) -> None:
    """Equal in every accessor, value distributions over every path the
    unrestricted expansion of every entity yields included."""
    assert got.nodes == want.nodes
    assert got.entities == want.entities
    assert triples_of(got) == triples_of(want)
    assert len(got) == len(want)
    assert [got.node_name(i) for i in range(len(got.nodes))] == sorted(want.nodes)
    for i in range(-2, len(want.nodes) + 2):
        assert got.has_node_id(i) == want.has_node_id(i)
    for node in [*sorted(want.nodes), "no such node"]:
        assert got.is_entity(node) == want.is_entity(node)
    paths = expand_predicates(want, want.entities, 3, name_restriction=False)
    assert paths == expand_predicates(got, got.entities, 3, name_restriction=False)
    for sp in paths:
        want_dist = value_distribution_oracle(triples_of(want), sp.subject, sp.path)
        assert got.value_distribution(sp.subject, sp.path) == want_dist
        assert want.value_distribution(sp.subject, sp.path) == want_dist


def round_trip(kb: KnowledgeBase, surfaces: dict[str, str], path) -> None:
    path.write_bytes(store_bytes(kb, surfaces))
    back, back_surfaces = load_store(path)
    assert back_surfaces == surfaces
    assert_same_kb(back, kb)
    assert store_bytes(back, back_surfaces) == path.read_bytes()


def test_store_of_the_toy_data_equals_its_tsv(toy_kb, data_dir, tmp_path):
    _, surfaces = build_entity_index(toy_kb, load_entity_dictionary(data_dir / "entities.tsv"))
    assert surfaces["MichelleObama"] == "Michelle Obama"
    round_trip(toy_kb, surfaces, tmp_path / "toy.index.kb")


def test_store_of_random_kbs_equals_the_kb(tmp_path):
    rng = random.Random(5)
    for trial in range(30):
        nodes = rng.randrange(2, 40)  # at least 16 distinct triples to draw from
        triples = random_graph(rng, nodes=nodes, edges=rng.randrange(min(80, nodes * nodes)),
                               predicates=("name", "p1", "p2", "ü3"))
        kb = KnowledgeBase(triples)
        named = rng.sample(sorted(kb.nodes), rng.randrange(len(kb.nodes) + 1))
        surfaces = {node: f"Surface {node} é" for node in named}
        round_trip(kb, surfaces, tmp_path / f"{trial}.kb")


def test_store_of_an_empty_kb(tmp_path):
    round_trip(KnowledgeBase(), {}, tmp_path / "empty.kb")


@pytest.mark.parametrize("triple", [("a\nb", "p", "c"), ("a", "p\n", "c"), ("a", "p", "\n")])
def test_store_refuses_a_name_with_a_line_break(triple):
    with pytest.raises(ValueError, match="line break"):
        store_bytes(KnowledgeBase([triple]), {})


def test_store_refuses_a_surface_with_a_line_break():
    with pytest.raises(ValueError, match="line break"):
        store_bytes(KnowledgeBase([("a", "p", "b")]), {"a": "A\nB"})


_SEAL = "sha256 seal mismatch: the KB store was changed or cut after it was written"


@pytest.mark.parametrize(
    "rewrite",
    [
        # the toy store's node table starts "1961\n1964\n"
        lambda blob: blob.replace(b"1961\n1964\n", b"1964\n1961\n", 1),
        lambda blob: blob.replace(b"1961\n1964\n", b"1961\n1961\n", 1),
        lambda blob: blob.replace(b"1961\n1964\n", b"1961\n1964 ", 1),
        lambda blob: blob.replace(b"1961\n1964\n", b"1961\n196\xff\n", 1),
        lambda blob: blob.replace(b"category\ndob\n", b"dob\ncategory\n", 1),
    ],
    ids=["nodes-unsorted", "nodes-repeated", "node-count", "node-utf8", "predicates-unsorted"],
)
def test_store_refuses_a_corrupt_name_table(toy_kb, tmp_path, rewrite):
    path = tmp_path / "toy.index.kb"
    blob = store_bytes(toy_kb, {})
    path.write_bytes(rewrite(blob))
    assert path.read_bytes() != blob
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_store(path)


def test_store_refuses_repeated_surface_ids(toy_kb, tmp_path):
    path = tmp_path / "toy.index.kb"
    surfaces = {"BarackObama": "Barack Obama", "Honolulu": "Honolulu"}
    blob = store_bytes(toy_kb, surfaces)
    first = struct.pack("<I", toy_kb.node_id("BarackObama"))
    second = struct.pack("<I", toy_kb.node_id("Honolulu"))
    path.write_bytes(blob.replace(first + second, first + first, 1))
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_store(path)
