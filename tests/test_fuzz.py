"""Fuzzing of the two file boundaries: whatever bytes `load_dataset` or
`load_checkpoint` is given, it returns a valid object or raises its typed
error, never anything else. Whatever bytes lie in a dataset's sidecar, the
load returns what parsing the dataset returns."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coupledmil import bagdata
from coupledmil.bagdata import (
    Dataset,
    DatasetParseError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from coupledmil.milnet import MilModel, ModelConfig
from coupledmil.orchestrator import CheckpointError, load_checkpoint, save_checkpoint
from oracles import dataset_bits, parsed, whole_text_lines

FUZZ = settings(max_examples=100, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` after one to four byte flips, deletions, insertions or cuts."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "delete", "insert", "cut")))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[pos] ^= draw(st.integers(1, 255))
        elif kind == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        else:
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "ds.jsonl"
    save_dataset(generate_synthetic(SyntheticSpec(
        num_bags=3, instances_per_bag=(1, 3), d_raw=2, seed=1)), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    cfg = ModelConfig(d_raw=2, hidden=(2,), embed_dim=2, attn_dim=2)
    save_checkpoint(MilModel.build(cfg, np.random.default_rng(0)), path)
    return path.read_bytes()


def _check_dataset(path) -> None:
    try:
        ds = load_dataset(path)
    except DatasetParseError:
        return
    assert isinstance(ds, Dataset)
    for bag in ds.bags:
        assert bag.features.ndim == 2 and len(bag) >= 1
        assert bag.features.shape[1] == ds.d_raw
        assert np.isfinite(bag.features).all()
        assert bag.label.size == 2
        assert abs(bag.label.sum() - 1.0) <= 1e-9


def _check_checkpoint(path) -> None:
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    # a loaded model is one save_checkpoint could have written
    again = path.with_suffix(".again")
    save_checkpoint(model, again)
    assert again.read_bytes() == path.read_bytes()


@FUZZ
@given(blob=st.binary(max_size=512))
def test_dataset_any_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(blob)
    _check_dataset(path)


@FUZZ
@given(data=st.data())
def test_dataset_mutated_file(tmp_path, dataset_bytes, data):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(data.draw(mutated(dataset_bytes)))
    _check_dataset(path)


@pytest.fixture(scope="module")
def sidecar(tmp_path_factory, dataset_bytes):
    """A valid dataset's path, the bits its parse gives and its sidecar's bytes."""
    path = tmp_path_factory.mktemp("sidecar") / "ds.jsonl"
    path.write_bytes(dataset_bytes)
    load_dataset(path)
    return path, dataset_bits(parsed(path)), path.with_name("ds.jsonl.cache").read_bytes()


@FUZZ
@given(data=st.data())
def test_dataset_mutated_sidecar(sidecar, data):
    path, want, good = sidecar
    cache = path.with_name("ds.jsonl.cache")
    cache.write_bytes(data.draw(mutated(good)))
    assert dataset_bits(load_dataset(path)) == want
    assert cache.read_bytes() == good


@FUZZ
@given(blob=st.binary(max_size=512))
def test_checkpoint_any_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    _check_checkpoint(path)


@FUZZ
@given(data=st.data())
def test_checkpoint_mutated_file(tmp_path, checkpoint_bytes, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data.draw(mutated(checkpoint_bytes)))
    _check_checkpoint(path)


# every separator `str.splitlines` breaks on, `\r\n` as one, among text with
# one- to four-byte UTF-8 characters, and bytes that are no UTF-8
LINE_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                   "\x85", "\u2028", "\u2029"]
TEXT_PIECES = st.sampled_from(LINE_SEPARATORS + ["a", "{}", " ", "\u00e9", "\u20ac",
                                                  "\U0001f600"])
BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80", b"\xed\xa0\x80"])


def _streamed_lines(blob: bytes):
    digest = hashlib.sha256()
    try:
        lines = list(bagdata._lines(io.BytesIO(blob), digest))
    except DatasetParseError as exc:
        return exc.line
    assert digest.digest() == hashlib.sha256(blob).digest()  # every byte read is hashed
    return lines


def _whole_lines(blob: bytes):
    try:
        return whole_text_lines(blob)
    except DatasetParseError as exc:
        return exc.line


@FUZZ
@given(pieces=st.lists(TEXT_PIECES, max_size=40),
       bad=st.lists(st.tuples(st.integers(0, 40), BAD_UTF8), max_size=2))
def test_streamed_lines_match_whole_text(pieces, bad):
    # the same lines, numbered the same, as the decoded file's splitlines();
    # invalid UTF-8 on the same line as a whole decode reports it
    blob = "".join(pieces).encode("utf-8")
    for pos, junk in bad:
        pos = min(pos, len(blob))
        blob = blob[:pos] + junk + blob[pos:]
    assert _streamed_lines(blob) == _whole_lines(blob)
