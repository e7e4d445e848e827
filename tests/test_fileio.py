import ast
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import capfuse
from capfuse.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from capfuse.data import SampleRecord, read_manifest, write_manifest
from capfuse.fileio import atomic_open
from capfuse.vecfile import VecFileError, load_vectors, save_vectors

SRC = Path(capfuse.__file__).parent


class _FailingRecord(SampleRecord):
    def to_json(self) -> str:
        raise RuntimeError("interrupted")


def test_interrupted_write_keeps_previous_bytes_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "data.jsonl"
    write_manifest(path, [SampleRecord(id="a", source="s", reference="r")])
    before = path.read_bytes()
    records = [SampleRecord(id=f"n{i}", source="s", reference="r") for i in range(3)]
    records.append(_FailingRecord(id="bad", source="s", reference="r"))
    with pytest.raises(RuntimeError, match="interrupted"):
        write_manifest(path, records)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


def test_atomic_open_writes_beside_target_then_replaces(tmp_path):
    target = tmp_path / "step-000001.ckpt"
    target.write_bytes(b"old")
    with atomic_open(target, "wb") as fh:
        fh.write(b"new")
        # the temporary name never matches the step-*.ckpt glob
        assert [p.name for p in tmp_path.glob("*.tmp")] == \
            [f"step-000001.ckpt.{os.getpid()}.tmp"]
        assert [p.name for p in tmp_path.glob("step-*.ckpt")] == [target.name]
        assert target.read_bytes() == b"old"
    assert target.read_bytes() == b"new"
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_open_file_mode_follows_umask_like_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x")
    atomic = tmp_path / "atomic.txt"
    with atomic_open(atomic) as fh:
        fh.write("x")
    assert atomic.stat().st_mode == plain.stat().st_mode


def test_atomic_open_onto_a_directory_fails_and_cleans_up(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        with atomic_open(target) as fh:
            fh.write("x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            yield name, node


def test_only_fileio_writes_files_or_unpacks_binary():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for name, node in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{node.lineno}"
            if name in ("write_text", "write_bytes", "unpack_from"):
                offenders.append(f"{where} {name}")
            elif name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and set(mode.value) <= set("rbt")):
                    offenders.append(f"{where} open for writing")
    assert offenders == []


def _one_array_checkpoint(path):
    save_checkpoint(path, {"w": np.arange(12.0).reshape(3, 4)})
    return path.read_bytes()


def _two_record_vecf(path):
    save_vectors(path, {"a": np.ones(4, np.float32), "bc": np.zeros(4, np.float32)}, 4)
    return path.read_bytes()


def test_checkpoint_cut_at_every_offset_is_a_typed_error_with_path(tmp_path):
    blob = _one_array_checkpoint(tmp_path / "full.ckpt")
    assert len(blob) == 125
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(cut)
        assert f"{cut}: truncated at byte {n}," in str(excinfo.value)


def test_vecf_cut_off_a_record_boundary_is_a_typed_error_with_path(tmp_path):
    blob = _two_record_vecf(tmp_path / "full.vecf")
    assert len(blob) == 55
    # the header has no record count, so a cut at a record boundary loads
    boundaries = {12: 0, 12 + 4 + 1 + 16: 1}
    cut = tmp_path / "cut.vecf"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        if n in boundaries:
            assert len(load_vectors(cut)[0]) == boundaries[n]
            continue
        with pytest.raises(VecFileError) as excinfo:
            load_vectors(cut)
        assert f"{cut}: truncated at byte {n}," in str(excinfo.value)


# (byte offset of a u32 field, value written there, message)
_CFCK_FLIPS = [
    (4, 2, "unsupported version 2"),
    (8, 2, "truncated at byte 125"),   # parameter count
    (8, 0, "113 trailing bytes"),
    (12, 0xFFFFFFFF, "truncated"),     # name length
    (12, 40, "bad UTF-8"),             # the name runs into the payload
    (17, 0xFFFFFFFF, "truncated"),     # ndim
    (21, 0x7FFFFFFF, "truncated"),     # first dimension
]
_VECF_FLIPS = [
    (8, 0xFFFFFFFF, "truncated"),      # dimension
    (12, 0xFFFFFFFF, "truncated"),     # first id length
    (12, 5, "bad UTF-8"),              # the id runs into the float payload
]


@pytest.mark.parametrize("kind, offset, value, message",
                         [("ckpt", *f) for f in _CFCK_FLIPS]
                         + [("vecf", *f) for f in _VECF_FLIPS])
def test_flipped_length_field_is_a_typed_error_with_path(tmp_path, kind, offset,
                                                         value, message):
    make, load, error = {"ckpt": (_one_array_checkpoint, load_checkpoint, CheckpointError),
                         "vecf": (_two_record_vecf, load_vectors, VecFileError)}[kind]
    path = tmp_path / f"flipped.{kind}"
    blob = bytearray(make(path))
    blob[offset:offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(blob))
    with pytest.raises(error) as excinfo:
        load(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_manifest_text_with_unicode_line_breaks_reads_back(tmp_path):
    # json.dumps(ensure_ascii=False) leaves U+0085, U+2028 and U+2029 raw;
    # the file has one record per "\n", whatever str.splitlines would split on
    path = tmp_path / "m.jsonl"
    records = [SampleRecord(id=f"r{i}", source=f"a{ch}b", reference=f"c{ch}d",
                            caption=f"e{ch}") for i, ch in enumerate("\x85\u2028\u2029\x1c")]
    write_manifest(path, records)
    assert read_manifest(path) == records


def test_manifest_blank_lines_skipped_and_bad_line_named(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [SampleRecord(id="a", source="s", reference="r")])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n  \n[1]\n")
    with pytest.raises(ValueError, match=r"m.jsonl:4: bad manifest record: "
                                         r"expected a JSON object, got list"):
        read_manifest(path)
