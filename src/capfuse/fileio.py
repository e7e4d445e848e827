"""Atomic writes, and text, JSONL and binary readers whose errors name the file."""

import errno
import io
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``<path>.<pid>.tmp`` (plain ``open``, so the umask sets its mode),
    then ``os.replace`` it over ``path``; on any failure, remove it instead.
    A directory at ``path`` fails on entry, and errors name ``path``."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def read_text(path) -> str:
    """The file as UTF-8 text; bytes that are not are a ValueError naming it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def read_jsonl(path, parse, what: str):
    """Yield ``(line number, parse(object))`` per non-blank line. A line that is
    not a JSON object, or that ``parse`` rejects, is a ValueError naming it."""
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), 1):
        if line.strip():
            try:
                raw = json.loads(line)
                if type(raw) is not dict:
                    raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
                record = parse(raw)
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}:{lineno}: bad {what} record: {detail}") from exc
            yield lineno, record


class RecordReader:
    """Little-endian memoryview reads of a file that starts with ``magic`` and a
    u32 ``version``; a bad read raises ``error`` naming the file and offset."""

    def __init__(self, path, error, magic: bytes, version: int):
        self.path, self.error, self.offset = path, error, 0
        self.data = memoryview(Path(path).read_bytes())
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise error(f"{path}: bad magic {found!r}, expected {magic!r}")
        (found_version,) = self.u32s()
        if found_version != version:
            raise error(f"{path}: unsupported version {found_version}")

    def take(self, size: int) -> memoryview:
        start, self.offset = self.offset, self.offset + size
        if self.offset > len(self.data):
            raise self.error(f"{self.path}: truncated at byte {len(self.data)}, offset {start}")
        return self.data[start:self.offset]

    def u32s(self, count: int = 1) -> tuple:
        return struct.unpack(f"<{count}I", self.take(4 * count))

    def text(self) -> str:  # u32 byte length, then UTF-8
        (size,) = self.u32s()
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: bad UTF-8 at byte {self.offset - size}") from None
