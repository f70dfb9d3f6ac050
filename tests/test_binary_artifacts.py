"""The three binary artifacts, the entity index, the KB store and the
concept file: their bytes pinned across commits, and fault injection. The
toy pipeline's text artifacts are pinned beside them."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from factqa.concepts import load_concepts
from factqa.hasharray import StaticHashArray
from factqa.kb import StoreFormatError, load_store
from factqa.pipeline import load_config, run_offline

DATA = Path(__file__).parent / "data"

# sha256 of the toy pipeline's binary artifacts. A change to one of the
# formats bumps its version and updates its digest here in the same change.
DIGESTS = {
    "toy.index": "e6499d65b82075dabf7515725e7b24cf6ffb029922568f958ca6bbe9ddef2746",
    "toy.index.kb": "6175958f1bd25851cc39a14384b72f6d27815d0300dc617a9c0c22831762ebcd",
    "toy.model.concepts": "01e90beb657955c16bc8c0a915d06b8e19fc731ef78df024cc13a69527f18612",
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


@pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
def test_text_artifact_bytes_are_pinned(toy_artifacts, name):
    assert hashlib.sha256((toy_artifacts / name).read_bytes()).hexdigest() == TEXT_DIGESTS[name]


def variants(blob: bytes):
    """(label, bytes): the file cut at every shorter length, then each byte
    set to 0x00, to 0xff, and to itself XOR 0x80 and XOR 0x01."""
    for size in range(len(blob)):
        yield f"cut to {size} bytes", blob[:size]
    for i, byte in enumerate(blob):
        for label, new in (("0x00", 0), ("0xff", 0xFF), ("^0x80", byte ^ 0x80),
                           ("^0x01", byte ^ 0x01)):
            yield f"byte {i} set to {label}", blob[:i] + bytes([new]) + blob[i + 1:]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_damaged_binary_artifact_loads_or_is_refused(toy_artifacts, tmp_path, name):
    blob = (toy_artifacts / name).read_bytes()
    LOADERS[name](toy_artifacts / name)
    target = tmp_path / name
    escaped, loaded_cuts = [], []
    for label, damaged in variants(blob):
        target.write_bytes(damaged)
        try:
            LOADERS[name](target)
        except StoreFormatError:
            continue
        except Exception as exc:  # any other exception is an escape, to be listed
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if label.startswith("cut"):
            loaded_cuts.append(label)
    assert escaped == []
    # every section's length is in the header, so no cut file decodes
    assert loaded_cuts == []
