"""Compact immutable string index: a flattened bucket array keyed by one hash.

Each key is hashed once with blake2b to 128 bits: the low 64 bits select a
bucket, the high 64 bits are stored as a full-width fingerprint next to the
payload. Construction sorts the distinct (bucket, fingerprint, payload)
cells into one contiguous item array plus a prefix-sum offset array, so
lookups touch two cache-friendly slabs, return their payloads sorted and
unique, and the structure serializes as a flat file whose bytes depend only
on the set of entries.

Lookups never miss an inserted key; distinct keys can collide on both
halves, so a lookup may return extra payloads, which callers filter by
membership checks downstream. The index also records its longest key in
words and a two-bit filter over its key tokens, both bits taken from one
crc32 (which, unlike ``hash()``, is the same in every process), so span
probing can skip spans that equal no key.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable

from .kb import SectionReader, packed, sealed

MAGIC = b"SHA1DX\x00"
VERSION = 7
# after the head: the bucket count, the item count, the longest key in
# words and the byte length of the token filter
_HEADER = struct.Struct("<QQQQ")
_DIGEST = struct.Struct("<QQ")


def key_hash(key: str) -> tuple[int, int]:
    """(bucket hash, fingerprint): the low and high 64 bits of the key's
    128-bit blake2b digest. A lone surrogate (a byte that was not UTF-8,
    decoded with ``surrogateescape``) encodes as itself, so it hashes
    rather than raises, and equals no key read as strict UTF-8."""
    return _DIGEST.unpack(
        hashlib.blake2b(key.encode("utf-8", "surrogatepass"), digest_size=16).digest()
    )


def token_bits(token: str, mask: int) -> tuple[int, int]:
    """The two filter bits a token sets, of a filter of ``mask + 1`` bits:
    its crc32 masked, and its crc32 rotated by 16 bits and masked. Up to
    2**16 bits the two come from disjoint halves of the crc; above, they
    overlap. A lone surrogate encodes as itself, as in ``key_hash``."""
    crc = zlib.crc32(token.encode("utf-8", "surrogatepass"))
    return crc & mask, (crc >> 16 | crc << 16) & mask


class StaticHashArray:
    """Read-only mapping from string keys to u64 payloads.

    ``offsets`` has bucket_count + 1 entries in prefix-sum form;
    ``items`` interleaves (fingerprint, payload) pairs. Items of one
    bucket are adjacent, sorted and unique. ``max_words`` is the largest
    ``key.count(" ") + 1`` over the keys, 0 when there are none.
    ``token_filter`` is a bitset of a power-of-two byte count, at least four
    times the number of distinct key tokens: 32 to 64 bits per token. Each
    token sets two bits of it (``token_bits``).
    """

    __slots__ = ("bucket_count", "_mask", "offsets", "items", "max_words", "token_filter",
                 "_token_mask", "_wide")

    def __init__(self, bucket_count: int, offsets: array, items: array, max_words: int,
                 token_filter: bytes):
        self.bucket_count = bucket_count
        self._mask = bucket_count - 1
        self.offsets = offsets
        self.items = items
        self.max_words = max_words
        self.token_filter = bytes(token_filter)
        self._token_mask = len(token_filter) * 8 - 1
        self._wide = self._token_mask >> 16 > 0

    def __len__(self) -> int:
        return len(self.items) // 2

    @classmethod
    def build(cls, entries: Iterable[tuple[str, int]]) -> "StaticHashArray":
        """Build from (key, payload) pairs.

        Duplicate (key, payload) pairs collapse to one; the same key may
        keep several distinct payloads. Keys must be non-empty. The result,
        its bytes included, depends only on the set of pairs, not on their
        order.
        """
        pairs: set[tuple[str, int]] = set()
        for key, payload in entries:
            if not key:
                raise ValueError("empty key")
            if not 0 <= payload < 1 << 64:
                raise ValueError(f"payload out of u64 range: {payload}")
            pairs.add((key, payload))
        bucket_count = 1
        while bucket_count < len(pairs):
            bucket_count <<= 1
        mask = bucket_count - 1
        cells = set()
        for key, payload in pairs:
            bucket_hash, fingerprint = key_hash(key)
            cells.add((bucket_hash & mask, fingerprint, payload))
        sizes = [0] * (bucket_count + 1)
        items = array("Q")
        for bucket, fingerprint, payload in sorted(cells):
            sizes[bucket + 1] += 1
            items.append(fingerprint)
            items.append(payload)
        offsets = array("Q", accumulate(sizes))
        max_words = max((key.count(" ") + 1 for key, _ in pairs), default=0)
        tokens = {token for key, _ in pairs for token in key.split(" ")}
        token_filter = bytearray(1 << max(4 * len(tokens) - 1, 0).bit_length())
        for token in tokens:
            for bit in token_bits(token, len(token_filter) * 8 - 1):
                token_filter[bit >> 3] |= 1 << (bit & 7)
        return cls(bucket_count, offsets, items, max_words, token_filter)

    def has_token(self, token: str) -> bool:
        """False only when no key holds ``token``: some ``split(" ")`` piece
        of it is a piece of no key (a span equal to a key splits into
        exactly that key's pieces). Tests both of a piece's ``token_bits``,
        written out here since the online path calls this per token."""
        if " " in token:
            return all(map(self.has_token, token.split(" ")))
        crc = zlib.crc32(token.encode("utf-8", "surrogatepass"))
        mask, bits = self._token_mask, self.token_filter
        bit = crc & mask
        if not bits[bit >> 3] >> (bit & 7) & 1:  # most absent tokens stop here
            return False
        # up to 2**16 bits the masked rotation is the crc's high half masked,
        # an int of one CPython digit
        bit = (crc >> 16 | crc << 16) & mask if self._wide else crc >> 16 & mask
        return bits[bit >> 3] >> (bit & 7) & 1 == 1

    def lookup(self, key: str) -> list[int]:
        """Payloads stored under fingerprints matching this key, sorted
        and unique.

        Never misses an inserted key; may include false positives when a
        different key shares both halves of the hash.
        """
        bucket_hash, fingerprint = key_hash(key)
        bucket = bucket_hash & self._mask
        items = self.items
        out = []
        for i in range(self.offsets[bucket] * 2, self.offsets[bucket + 1] * 2, 2):
            if items[i] == fingerprint:
                out.append(items[i + 1])
        return out

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(self.bucket_count, len(self), self.max_words,
                              len(self.token_filter))
        return sealed(MAGIC, VERSION, [header, packed("Q", self.offsets), packed("Q", self.items),
                                       self.token_filter])

    @classmethod
    def load(cls, path: str | Path) -> "StaticHashArray":
        """The index of the file at ``path``; one that is not a sealed index
        of this version raises StoreFormatError."""
        read = SectionReader(Path(path).read_bytes(), _HEADER, MAGIC, VERSION, "index")
        bucket_count, item_count, max_words, filter_bytes = read.fields
        offsets = read.packed("Q", bucket_count + 1)
        items = read.packed("Q", item_count * 2)
        return cls(bucket_count, offsets, items, max_words, read.section(filter_bytes))


class Memo(dict):
    """``compute(key)`` of each key asked, computed on its first ask only."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        found = self[key] = self._compute(key)
        return found


class SpanTable:
    """A token sequence's spans, each probed at most once against an index,
    and only when read.

    ``payloads`` maps each span (i, j) that hits the index to its payloads
    as the index gives them (sorted and unique), in the list its lookup
    returned: ``lookup`` makes a new one on every call, so the table owns
    it. A span that can equal no key is never probed, so only a
    fingerprint false positive is lost: one longer than the longest key
    (m tokens joined by spaces hold m - 1 spaces), or one with a token that
    fails ``has_token``. So every hit lies inside one maximal run of tokens
    that pass, and the greedy walk of the whole sequence is the walks of
    its runs joined in order.

    ``_ends[i]`` lists the ends of the hits at i probed so far, longest
    first. Spans at i are probed longest first, so the ones not yet probed
    are shorter than every listed hit: while any remain, the list ends
    with a mark, minus the end of the longest of them. A greedy walk that
    reaches a mark probes from there down to the first hit it can take,
    and nothing else; reading ``payloads`` probes every span still marked.
    Keys must already carry whatever normalization was applied to the
    indexed keys; with ``passed``, every key is known to pass ``has_token``,
    which is then not asked. The greedy walk works on any ``[start, end)``
    window, so one table serves every substring of the sequence.
    """

    __slots__ = ("_lookup", "_keys", "_payloads", "_ends")

    def __init__(self, index: StaticHashArray, keys: Iterable[str], passed: bool = False):
        self._lookup = index.lookup
        self._keys = keys = tuple(keys)
        self._payloads: dict[tuple[int, int], list[int]] = {}
        # a token the filter stops starts no span that can equal a key; any
        # other starts spans up to the end of its run of tokens that pass,
        # at most as long as the longest key
        self._ends: list[list[int] | tuple[()]] = [()] * len(keys)
        ends = self._ends
        longest, has = index.max_words, index.has_token
        stop = len(keys) if longest else 0  # an index with no key: no span
        for i in range(stop - 1, -1, -1):
            if passed or has(keys[i]):
                ends[i] = [-(i + longest if i + longest < stop else stop)]
            else:
                stop = i

    @property
    def payloads(self) -> dict[tuple[int, int], list[int]]:
        self.fill()
        return self._payloads

    def fill(self) -> None:
        """Probe every span not probed yet: no span at i ends by i, so
        probing down to one probes all of them and leaves no mark."""
        for i, found in enumerate(self._ends):
            if found and found[-1] < 0:
                self._probe_down(i, i)

    def _probe_down(self, i: int, end: int) -> int:
        """Probe the spans at i not yet probed, longest first, down to the
        first hit ending by ``end``: its end, or 0 when none does."""
        keys, found, lookup = self._keys, self._ends[i], self._lookup
        for j in range(-found.pop(), i, -1):
            candidates = lookup(" ".join(keys[i:j]))
            if candidates:
                self._payloads[(i, j)] = candidates
                found.append(j)
                if j <= end:
                    if j - 1 > i:
                        found.append(1 - j)
                    return j
        return 0

    def greedy(self, start: int = 0, end: int | None = None) -> list[tuple[int, int]]:
        """Greedy left-to-right longest-match spans inside ``[start, end)``.

        Spans are absolute and never overlap; a span stops the walk on any
        payload hit, whatever the payload names. A start whose first end
        within the window is a mark is probed down to its longest hit there.
        """
        ends = self._ends
        if end is None:
            end = len(ends)
        out: list[tuple[int, int]] = []
        i = start
        while i < end:
            for j in ends[i]:
                if j <= end:
                    break
            else:
                i += 1
                continue
            if j < 0 and not (j := self._probe_down(i, end)):
                i += 1
                continue
            out.append((i, j))
            i = j
        return out


def find_mentions(
    index: StaticHashArray, tokens: Iterable[str]
) -> list[tuple[tuple[int, int], list[int]]]:
    """Greedy left-to-right longest-match span spotting.

    Returns (span, payload candidates) per mention; spans are half-open
    token ranges and never overlap. Tokens must already carry whatever
    normalization was applied to the indexed keys.
    """
    table = SpanTable(index, tokens)
    return [(span, table._payloads[span]) for span in table.greedy()]
