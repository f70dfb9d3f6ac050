"""The three binary artifacts, the entity index, the KB store and the
concept file: their bytes pinned across commits, and fault injection: each
is sealed with the sha256 of its bytes, so no cut and no changed byte
loads. The toy pipeline's text artifacts are pinned beside them."""

from __future__ import annotations

import hashlib
import random
import struct
from pathlib import Path
from typing import Iterable

import pytest

from factqa.concepts import load_concepts
from factqa.hasharray import StaticHashArray
from factqa.kb import StoreFormatError, load_store
from factqa.pipeline import concepts_path, load_config, run_offline, store_path

DATA = Path(__file__).parent / "data"

# sha256 of the toy pipeline's binary artifacts. A change to one of the
# formats bumps its version and updates its digest here in the same change.
DIGESTS = {
    "toy.index": "8195564f26c55e4265b2cc7fbea73c1cdd200bc9a3bc3d0d1b4a5ebd53054e85",
    "toy.index.kb": "391a0883f7ec442feeb1c78e2c98aedea494933922a15e4c093ace7df3c116c7",
    "toy.model.concepts": "563667e73b123aa0024d5a67046609fcecff400ccd14ba011a529ee3a24ad6b5",
}

# sha256 of the toy pipeline's text artifacts: the model, the pattern file,
# the expansion, the report and the observations dump. A change that means
# to keep every artifact as it was keeps these too.
TEXT_DIGESTS = {
    "toy.expansion.tsv": "0ac4fb64475bf0c3f4838c7362eb9dc04892411cd59a3107caf673907913b1a9",
    "toy.model.patterns.tsv": "41b46dcf3536a297022aa094a0d9623dfec042eeccb51cc2477fb43e68fef841",
    "toy.model.tsv": "e4d493f396e90a5c8bc87fc6e0f3546d30e5e7643474efa64b2d28b64a82bf6b",
    "toy.observations.tsv": "f604d8dc53be2f39d00eb9389a0c011c878d4015edac8c835e230c44b06b26bf",
    "toy.report.json": "ef43ee2a2e91dada7beaebf14aa40b42ff8efe891909704cbc6b4ca4b2a791a1",
}

LOADERS = {
    "toy.index": StaticHashArray.load,
    "toy.index.kb": load_store,
    "toy.model.concepts": load_concepts,
}


@pytest.fixture(scope="module")
def toy_artifacts(tmp_path_factory) -> Path:
    """The toy pipeline (``tests/data/pipeline.cfg``), with its observations
    dump, run into a fresh directory."""
    out = tmp_path_factory.mktemp("toy")
    run_offline(load_config(DATA / "pipeline.cfg", {
        "index": out / "toy.index", "expansion": out / "toy.expansion.tsv",
        "model": out / "toy.model.tsv", "report": out / "toy.report.json",
        "observations": out / "toy.observations.tsv",
    }))
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_binary_artifact_bytes_are_pinned(toy_artifacts, name):
    assert hashlib.sha256((toy_artifacts / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_binary_artifact_head_holds_the_sha256_of_the_rest(toy_artifacts, name):
    # magic (7 bytes) and version (4), then the seal: what a manifest of
    # artifact hashes can copy without hashing the file again
    blob = (toy_artifacts / name).read_bytes()
    assert blob[11:43] == hashlib.sha256(blob[43:]).digest()


@pytest.mark.parametrize("name, other", [
    (name, other) for name in sorted(LOADERS) for other in sorted(LOADERS) if other != name
])
def test_each_loader_refuses_the_other_binary_artifacts_by_their_magic(toy_artifacts, name,
                                                                       other):
    # the KB store and the concept file are both version 2 and each seal
    # holds over its own file, so only the magic tells them apart
    with pytest.raises(StoreFormatError, match="bad magic"):
        LOADERS[name](toy_artifacts / other)


@pytest.mark.parametrize("name, previous, message", [
    ("toy.index", 6, "index format version 6, expected 7"),
    ("toy.index.kb", 1, "KB store format version 1, expected 2"),
    ("toy.model.concepts", 1, "concept file format version 1, expected 2"),
])
def test_the_unsealed_previous_version_of_each_binary_artifact_is_refused_by_its_version(
    toy_artifacts, tmp_path, name, previous, message
):
    """The previous version of each format is the sealed one without its
    seal: the version is checked before the seal, so the file is refused by
    its version, not as changed or cut."""
    blob = (toy_artifacts / name).read_bytes()
    path = tmp_path / name
    path.write_bytes(blob[:7] + struct.pack("<I", previous) + blob[43:])
    with pytest.raises(StoreFormatError, match=message):
        LOADERS[name](path)


@pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
def test_text_artifact_bytes_are_pinned(toy_artifacts, name):
    assert hashlib.sha256((toy_artifacts / name).read_bytes()).hexdigest() == TEXT_DIGESTS[name]


def changes(blob: bytes, positions: Iterable[int]):
    """(label, bytes): the file cut at each of ``positions``, then the byte
    at each set to 0x00, to 0xff, and to itself XOR 0x80 and XOR 0x01,
    wherever that changes it."""
    positions = sorted(positions)
    for size in positions:
        yield f"cut to {size} bytes", blob[:size]
    for i in positions:
        byte = blob[i]
        for label, new in (("0x00", 0), ("0xff", 0xFF), ("^0x80", byte ^ 0x80),
                           ("^0x01", byte ^ 0x01)):
            if new != byte:
                yield f"byte {i} set to {label}", blob[:i] + bytes([new]) + blob[i + 1:]


def assert_every_change_is_refused(path: Path, load, positions: Iterable[int],
                                   target: Path) -> None:
    """Each of the ``changes`` of the file at ``path``, written to
    ``target``, raises StoreFormatError when ``load`` reads it."""
    blob = path.read_bytes()
    load(path)
    not_refused = []
    for label, damaged in changes(blob, positions):
        target.write_bytes(damaged)
        try:
            load(target)
            not_refused.append(f"{label}: loaded")
        except StoreFormatError:
            pass
        except Exception as exc:  # any other exception is an escape, to be listed
            not_refused.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not_refused == []


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_cut_and_changed_byte_of_a_binary_artifact_is_refused(toy_artifacts, tmp_path,
                                                                     name):
    path = toy_artifacts / name
    assert_every_change_is_refused(path, LOADERS[name], range(path.stat().st_size),
                                   tmp_path / name)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_sampled_cuts_and_changed_bytes_of_the_ci_worlds_binary_artifacts_are_refused(
    ci_world, tmp_path, name
):
    """The CI world's artifacts are some thousands of bytes long: up to
    2,000 positions of each, drawn at random, are damaged as above."""
    config = ci_world[0]
    path = {"toy.index": config.index, "toy.index.kb": store_path(config.index),
            "toy.model.concepts": concepts_path(config.model)}[name]
    size = path.stat().st_size
    positions = random.Random(name).sample(range(size), min(size, 2000))
    assert_every_change_is_refused(path, LOADERS[name], positions, tmp_path / path.name)
