"""Static hash array: construction, lookup, serialization, mention spotting."""

from __future__ import annotations

import hashlib
import os
import random
import struct
import subprocess
import sys
import tracemalloc
import zlib
from array import array
from pathlib import Path

import pytest

from conftest import random_keys
from factqa.hasharray import (
    MAGIC,
    StaticHashArray,
    find_mentions,
    key_hash,
    token_bits,
)
from factqa.kb import StoreFormatError


def test_inserted_keys_are_found():
    idx = StaticHashArray.build([("honolulu", 4), ("barack obama", 1)])
    assert idx.lookup("honolulu") == [4]
    assert idx.lookup("barack obama") == [1]


def test_empty_build():
    idx = StaticHashArray.build([])
    assert len(idx) == 0
    assert list(idx.offsets) == [0, 0]
    assert idx.lookup("anything") == []


def test_absent_key_returns_empty():
    idx = StaticHashArray.build([("alpha", 1), ("beta", 2)])
    assert idx.lookup("gamma") == []


def test_duplicate_pairs_collapse_but_multi_payload_keys_survive():
    idx = StaticHashArray.build([("x", 1), ("x", 1), ("x", 2)])
    assert len(idx) == 2
    assert idx.lookup("x") == [1, 2]


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        StaticHashArray.build([("", 1)])


def test_bucket_count_is_power_of_two():
    for n in (1, 2, 3, 5, 17, 100):
        idx = StaticHashArray.build([(f"k{i}", i) for i in range(n)])
        assert idx.bucket_count >= n
        assert idx.bucket_count & (idx.bucket_count - 1) == 0


def test_no_false_negatives_100k():
    rng = random.Random(99)
    keys = random_keys(rng, 100_000)
    idx = StaticHashArray.build((k, i) for i, k in enumerate(keys))
    misses = sum(1 for i, k in enumerate(keys) if i not in idx.lookup(k))
    assert misses == 0


def test_shared_bucket_distinct_fingerprints_stay_apart():
    # brute-force a pair of short keys landing in the same bucket of a
    # two-entry index (bucket_count == 2) with different fingerprints
    base = "aa"
    base_bucket, base_fingerprint = key_hash(base)
    partner = None
    for i in range(1000):
        cand = f"bb{i}"
        bucket, fingerprint = key_hash(cand)
        if bucket & 1 == base_bucket & 1 and fingerprint != base_fingerprint:
            partner = cand
            break
    assert partner is not None
    idx = StaticHashArray.build([(base, 10), (partner, 20)])
    assert idx.lookup(base) == [10]
    assert idx.lookup(partner) == [20]


def test_flattening_preserves_item_multiset():
    rng = random.Random(5)
    keys = random_keys(rng, 500)
    entries = [(k, i % 37) for i, k in enumerate(keys)]
    idx = StaticHashArray.build(entries)
    expected = sorted((key_hash(k)[1], payload) for k, payload in set(entries))
    assert sorted(zip(idx.items[::2], idx.items[1::2])) == expected


def test_offsets_invariants_on_random_builds():
    rng = random.Random(6)
    for n in (0, 1, 7, 64, 300):
        idx = StaticHashArray.build((k, 0) for k in random_keys(rng, n))
        offsets = list(idx.offsets)
        assert offsets[0] == 0
        assert offsets[-1] == len(idx)
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))


def test_buckets_hold_sorted_unique_pairs_whatever_the_entry_order():
    # keys carry several payloads from a small shared pool, some put twice;
    # the same entries shuffled or reversed build the same bytes
    rng = random.Random(8)
    pool = [rng.getrandbits(64) for _ in range(4)]
    for n in (1, 7, 64, 300):
        entries = [(k, rng.choice(pool)) for k in random_keys(rng, n)
                   for _ in range(rng.randint(1, 4))]
        idx = StaticHashArray.build(entries)
        pairs = list(zip(idx.items[::2], idx.items[1::2]))
        offsets = list(idx.offsets)
        for a, b in zip(offsets, offsets[1:]):
            assert all(x < y for x, y in zip(pairs[a:b], pairs[a + 1:b]))
        put: dict[str, set[int]] = {}
        for key, payload in entries:
            put.setdefault(key, set()).add(payload)
        for key, payloads in put.items():
            assert idx.lookup(key) == sorted(payloads)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        for order in (shuffled, entries[::-1]):
            assert StaticHashArray.build(order).to_bytes() == idx.to_bytes()


# ---------------------------------------------------------------------------
# serialization


# the head of an index file: magic, version and seal, the sha256 of the rest
_HEAD = 7 + 4 + 32
_SEAL = "sha256 seal mismatch: the index was changed or cut after it was written"


def load_blob(tmp_path: Path, blob: bytes) -> StaticHashArray:
    """The index loaded from a file holding ``blob``."""
    path = tmp_path / "blob.index"
    path.write_bytes(blob)
    return StaticHashArray.load(path)


def test_roundtrip_bytes_identical(tmp_path):
    rng = random.Random(12)
    idx = StaticHashArray.build((k, i) for i, k in enumerate(random_keys(rng, 1000)))
    blob = idx.to_bytes()
    reloaded = load_blob(tmp_path, blob)
    assert reloaded.to_bytes() == blob
    for k in random_keys(rng, 50):
        assert reloaded.lookup(k) == idx.lookup(k)


def test_save_load_file(tmp_path):
    idx = StaticHashArray.build([("alpha", 7)])
    target = tmp_path / "idx.bin"
    target.write_bytes(idx.to_bytes())
    assert StaticHashArray.load(target).lookup("alpha") == [7]


def test_truncated_items_section(tmp_path):
    idx = StaticHashArray.build([("alpha", 7), ("beta", 8)])
    blob = idx.to_bytes()
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob[:-len(idx.token_filter) - 8])


def test_truncated_offsets_section(tmp_path):
    idx = StaticHashArray.build([("alpha", 7)])
    header_size = _HEAD + 8 * 4
    blob = idx.to_bytes()[: header_size + 4]
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob)


def test_bad_magic(tmp_path):
    idx = StaticHashArray.build([("alpha", 7)])
    blob = b"XXXXXXX" + idx.to_bytes()[len(MAGIC):]
    with pytest.raises(StoreFormatError, match="bad magic"):
        load_blob(tmp_path, blob)


def test_bad_version(tmp_path):
    idx = StaticHashArray.build([("alpha", 7)])
    blob = bytearray(idx.to_bytes())
    blob[7] = 99
    with pytest.raises(StoreFormatError, match="unsupported version"):
        load_blob(tmp_path, bytes(blob))


def test_version_1_header_names_the_version(tmp_path):
    # the layout written before the single key hash: two seed fields
    # between the version and the counts
    header = struct.pack("<7sIQQQQ", MAGIC, 1, 0x5851F42D4C957F2D, 0x14057B7EF767814F, 1, 1)
    blob = header + bytes(16 + 16)
    with pytest.raises(StoreFormatError, match="index format version 1, expected 7"):
        load_blob(tmp_path, blob)


def test_version_2_header_names_the_version(tmp_path):
    # the layout written before the longest-key field
    idx = StaticHashArray.build([("alpha", 7)])
    header = struct.pack("<7sIQQ", MAGIC, 2, idx.bucket_count, len(idx))
    blob = header + idx.to_bytes()[_HEAD + 8 * 4 : -len(idx.token_filter)]
    with pytest.raises(StoreFormatError, match="index format version 2, expected 7"):
        load_blob(tmp_path, blob)


def test_version_3_header_names_the_version(tmp_path):
    # the layout written before the token filter
    idx = StaticHashArray.build([("alpha", 7)])
    header = struct.pack("<7sIQQQ", MAGIC, 3, idx.bucket_count, len(idx), idx.max_words)
    blob = header + idx.to_bytes()[_HEAD + 8 * 4 : -len(idx.token_filter)]
    with pytest.raises(StoreFormatError, match="index format version 3, expected 7"):
        load_blob(tmp_path, blob)


def test_version_4_header_names_the_version(tmp_path):
    # the layout written before each bucket's pairs were sorted: the same
    # sections, buckets in insertion order
    blob = bytearray(StaticHashArray.build([("alpha", 7)]).to_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 4)
    with pytest.raises(StoreFormatError, match="index format version 4, expected 7"):
        load_blob(tmp_path, bytes(blob))


def test_version_5_index_is_refused(tmp_path):
    # the layout written before the two-bit token filter: the same
    # sections, a filter of one bit per token
    blob = bytearray(StaticHashArray.build([("alpha", 7)]).to_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 5)
    with pytest.raises(StoreFormatError, match="index format version 5, expected 7"):
        load_blob(tmp_path, bytes(blob))


def test_max_words_round_trips(tmp_path):
    idx = StaticHashArray.build([("alpha", 1), ("barack obama", 2), ("new york city", 3)])
    assert idx.max_words == 3
    assert load_blob(tmp_path, idx.to_bytes()).max_words == 3
    assert StaticHashArray.build([]).max_words == 0


def _with_max_words(blob: bytes, max_words: int) -> bytes:
    return blob[: _HEAD + 8 * 2] + struct.pack("<Q", max_words) + blob[_HEAD + 8 * 3:]


@pytest.mark.parametrize("entries, max_words", [([("alpha", 7)], 0), ([], 1)],
                         ids=["zero-for-keys", "nonzero-for-none"])
def test_corrupt_max_words_refused(tmp_path, entries, max_words):
    blob = _with_max_words(StaticHashArray.build(entries).to_bytes(), max_words)
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob)


def test_token_filter_sets_two_bits_of_each_key_token_by_crc32(tmp_path):
    keys = ["barack obama", "new york city", "zürich", "x  y", "東京", "obama"]
    idx = StaticHashArray.build((key, i) for i, key in enumerate(keys))
    tokens = {token for key in keys for token in key.split(" ")}
    assert len(tokens) == 10  # the double space gives an empty token
    assert len(idx.token_filter) == 64  # the smallest power of two >= 4 * 10
    expected = bytearray(64)
    for token in tokens:
        crc = zlib.crc32(token.encode("utf-8"))
        rotated = (crc >> 16 | crc << 16) & 0xFFFFFFFF
        for bit in (crc % 512, rotated % 512):
            expected[bit >> 3] |= 1 << (bit & 7)
    assert idx.token_filter == bytes(expected)
    assert all(idx.has_token(token) for token in tokens)
    reloaded = load_blob(tmp_path, idx.to_bytes())
    assert reloaded.token_filter == idx.token_filter
    assert all(reloaded.has_token(token) for token in tokens)


def test_token_filter_tests_both_bits():
    # absent tokens with exactly one of their two bits set, the first or the
    # second, are stopped
    idx = StaticHashArray.build([("alpha", 7)])
    mask = len(idx.token_filter) * 8 - 1
    set_bits = set(token_bits("alpha", mask))
    assert len(set_bits) == 2
    one_bit_set = {}
    for token in (f"t{i}" for i in range(100_000)):
        first, second = (bit in set_bits for bit in token_bits(token, mask))
        if first != second:
            one_bit_set.setdefault(first, token)
        if len(one_bit_set) == 2:
            break
    assert len(one_bit_set) == 2
    assert not any(map(idx.has_token, one_bit_set.values()))


@pytest.mark.parametrize("keys, size", [([], 1), (["a"], 4), (["a b"], 8), (["a b c"], 16),
                                        (["a b c d e f g h"], 32),
                                        (["a b c d", "e f g h i"], 64)])
def test_token_filter_size_is_the_smallest_power_of_two_at_least_four_per_token(keys, size):
    assert len(StaticHashArray.build((key, 0) for key in keys).token_filter) == size


def _random_token(rng: random.Random) -> str:
    """A token of 1 to 6 characters: ASCII, Latin-1, CJK, an emoji, or a
    lone surrogate (a byte that was not UTF-8, decoded with
    ``surrogateescape``)."""
    alphabet = "abcxyz019'-" "éüßñ" "東京大阪" "\U0001F600" "\udcff\udc80"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))


@pytest.mark.parametrize("key_count", [1, 7, 100, 2_000, 40_000])
def test_has_token_passes_every_key_token_at_every_filter_size(tmp_path, key_count):
    """Keys of 1 to 3 random tokens joined by one space or two (two give an
    empty token). Past 2,048 distinct tokens the filter holds more than
    2**16 bits, so its two crc windows overlap."""
    rng = random.Random(key_count)
    keys = {rng.choice([" ", "  "]).join(_random_token(rng) for _ in range(rng.randint(1, 3)))
            for _ in range(key_count)}
    idx = StaticHashArray.build((key, i) for i, key in enumerate(sorted(keys)))
    tokens = {token for key in keys for token in key.split(" ")}
    assert len(idx.token_filter) >= 4 * len(tokens)
    assert (len(idx.token_filter) * 8 > 1 << 16) == (key_count >= 2_000)
    reloaded = load_blob(tmp_path, idx.to_bytes())
    for index in (idx, reloaded):
        assert all(map(index.has_token, tokens))
        assert all(map(index.has_token, keys))


@pytest.mark.parametrize("bits", [1 << k for k in range(4, 21)])
def test_has_token_tests_the_two_token_bits_at_every_filter_size(bits):
    """``has_token`` writes ``token_bits`` out, with a shortcut for filters
    of at most 2**16 bits: at every size from 2**4 to 2**20 bits it passes
    exactly the tokens both of whose bits are set, here in a filter with
    about half its bits set."""
    rng = random.Random(bits)
    token_filter = rng.randbytes(bits // 8)
    idx = StaticHashArray(1, array("Q", [0, 0]), array("Q"), 0, token_filter)
    passed = {}
    for token in {_random_token(rng) for _ in range(2_000)}:
        expected = all(token_filter[bit >> 3] >> (bit & 7) & 1
                       for bit in token_bits(token, bits - 1))
        assert idx.has_token(token) == expected, token
        passed[expected] = token
    assert set(passed) == {False, True}


def test_token_filter_misses_almost_all_absent_tokens():
    rng = random.Random(31)
    idx = StaticHashArray.build((key, i) for i, key in enumerate(random_keys(rng, 10_000)))
    absent = random_keys(random.Random(32), 10_000, prefix="out:")
    assert sum(map(idx.has_token, absent)) <= 0.01 * len(absent)


def test_index_bytes_do_not_depend_on_the_hash_seed():
    # set order and hash() change with PYTHONHASHSEED; the file must not
    script = (
        "import sys; from factqa.hasharray import StaticHashArray; sys.stdout.write("
        "StaticHashArray.build((f'k{i} t{i % 7} ü{i % 5}', i) for i in range(300)).to_bytes().hex())"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    blobs = {
        subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src,
                                                 "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(blobs) == 1


def _with_filter_bytes(blob: bytes, filter_bytes: int) -> bytes:
    return blob[: _HEAD + 8 * 3] + struct.pack("<Q", filter_bytes) + blob[_HEAD + 8 * 4:]


@pytest.mark.parametrize("filter_bytes", [0, 3, 12])
def test_token_filter_length_not_a_power_of_two_refused(tmp_path, filter_bytes):
    blob = _with_filter_bytes(StaticHashArray.build([("alpha", 7)]).to_bytes(), filter_bytes)
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob)


def test_truncated_token_filter(tmp_path):
    blob = StaticHashArray.build([("alpha beta gamma", 7)]).to_bytes()
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob[:-1])


def test_trailing_bytes_refused(tmp_path):
    blob = StaticHashArray.build([("alpha", 7), ("beta", 8)]).to_bytes()
    with pytest.raises(StoreFormatError, match=_SEAL):
        load_blob(tmp_path, blob + b"garbage!")


def test_key_hash_is_blake2b_split_in_halves():
    digest = hashlib.blake2b("barack obama".encode(), digest_size=16).digest()
    value = int.from_bytes(digest, "little")
    assert key_hash("barack obama") == (value & (1 << 64) - 1, value >> 64)


def test_truncated_header(tmp_path):
    with pytest.raises(StoreFormatError, match="truncated header"):
        load_blob(tmp_path, b"SHA")


def test_serialized_form_smaller_than_construction_peak():
    rng = random.Random(77)
    keys = random_keys(rng, 10_000)
    tracemalloc.start()
    idx = StaticHashArray.build((k, i) for i, k in enumerate(keys))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(idx.to_bytes()) < peak


# ---------------------------------------------------------------------------
# find_mentions


def _mention_index():
    return StaticHashArray.build(
        [("barack obama", 1), ("obama", 2), ("honolulu", 3), ("michelle obama", 4)]
    )


def test_find_mentions_basic():
    idx = _mention_index()
    tokens = ["when", "was", "barack", "obama", "born"]
    assert find_mentions(idx, tokens) == [((2, 4), [1])]


def test_find_mentions_nothing():
    idx = _mention_index()
    assert find_mentions(idx, ["completely", "unrelated", "words"]) == []


def test_find_mentions_prefers_longest_span():
    idx = _mention_index()
    # "barack obama" and "obama" are both indexed; only the longer match
    # is reported. Frozen from exhaustive span enumeration: spans hitting
    # the index are (2,4) and (3,4); greedy longest-match keeps (2,4).
    tokens = ["when", "was", "barack", "obama", "born"]
    spans = {
        (i, j)
        for i in range(len(tokens))
        for j in range(i + 1, len(tokens) + 1)
        if idx.lookup(" ".join(tokens[i:j]))
    }
    assert spans == {(2, 4), (3, 4)}
    assert [span for span, _ in find_mentions(idx, tokens)] == [(2, 4)]


def test_find_mentions_no_overlap():
    idx = _mention_index()
    tokens = ["obama", "obama", "honolulu"]
    assert [span for span, _ in find_mentions(idx, tokens)] == [(0, 1), (1, 2), (2, 3)]


def test_find_mentions_respects_max_span(monkeypatch):
    """The maximum span is the index's longest key: spans up to it are
    matched, and no longer span is probed."""
    idx = StaticHashArray.build([("a b c", 1), ("b", 2)])
    assert idx.max_words == 3
    probed: list[str] = []
    lookup = StaticHashArray.lookup

    def recording_lookup(self, key):
        probed.append(key)
        return lookup(self, key)

    monkeypatch.setattr(StaticHashArray, "lookup", recording_lookup)
    assert find_mentions(idx, ["a", "b", "c", "b", "a"]) == [((0, 3), [1]), ((3, 4), [2])]
    assert probed and max(key.count(" ") + 1 for key in probed) == 3
