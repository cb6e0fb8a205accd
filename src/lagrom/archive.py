"""On-disk archive for named float64 arrays, and the codec that maps
dataclass products to entries named by field path (``rbs_map/factor``).

Layout (all integers little-endian): a 4-byte magic, a u32 format version,
a u32 entry count, then per entry a u16 name length, the UTF-8 name, a u8
rank, u64 dimensions, and the row-major little-endian float64 payload.
Round-trips are bit-exact.
"""

import dataclasses
import math
import os
import struct
import typing

import numpy as np

MAGIC = b"LGRM"
VERSION = 2


def save_archive(path, arrays: dict) -> None:
    """Write a name -> ndarray mapping; scalars are stored as rank-0."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for name, array in arrays.items():
            data = np.asarray(array, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack("<%dQ" % data.ndim, *data.shape))
            fh.write(data.tobytes(order="C"))


def load_archive(path) -> dict:
    """Read an archive back into a name -> ndarray mapping; a file cut short,
    an entry sized beyond the bytes left in it, or bytes after its last
    entry raise ``ValueError``."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(size):
            # Checked before reading: a corrupted dimension may ask for more
            # bytes than memory holds.
            if size > file_size - fh.tell():
                raise ValueError("truncated archive at byte %d" % fh.tell())
            return fh.read(size)

        if read(4) != MAGIC:
            raise ValueError("not a matrix archive: bad magic")
        version, count = struct.unpack("<II", read(8))
        if version != VERSION:
            raise ValueError("unsupported archive version %d" % version)
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            name = read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack("<%dQ" % ndim, read(8 * ndim))
            payload = read(8 * math.prod(shape))   # exact: np.prod wraps
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError("bytes after the last archive entry")
    return arrays


def flatten(products, skip=()) -> dict:
    """Leaves (arrays, ``bool``/``int``/``float``) of a dataclass product
    below its fields and string-keyed dicts, named by path
    (``term_bases/force``); top-level ``skip`` fields are left out."""
    arrays = {}

    def walk(path, value):
        if dataclasses.is_dataclass(value):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        if isinstance(value, dict):
            for key, item in value.items():
                if "/" in key:
                    raise ValueError("archive key %r contains '/'" % key)
                walk(path + "/" + key if path else key, item)
        elif isinstance(value, (np.ndarray, np.generic, bool, int, float)):
            arrays[path] = value
        else:
            raise TypeError("cannot archive %s at %r" % (type(value).__name__, path))

    walk("", {f.name: getattr(products, f.name)
              for f in dataclasses.fields(products) if f.name not in skip})
    return arrays


def unflatten(cls, arrays: dict, **given):
    """Rebuild a dataclass product written by :func:`flatten` from its
    field annotations (``np.ndarray``, ``bool``, ``int``, ``float``,
    ``dict[str, X]``, dataclasses); top-level fields in ``given`` are taken
    as passed, and entries no field reads are ignored."""

    def build(kind, path, given=None):
        if dataclasses.is_dataclass(kind):
            given = given or {}
            hints = typing.get_type_hints(kind)
            return kind(**{f.name: given[f.name] if f.name in given else
                           build(hints[f.name], (path + "/" if path else "") + f.name)
                           for f in dataclasses.fields(kind)})
        if typing.get_origin(kind) is dict:
            prefix = path + "/"
            keys = dict.fromkeys(name[len(prefix):].split("/")[0]
                                 for name in arrays if name.startswith(prefix))
            return {key: build(typing.get_args(kind)[1], prefix + key) for key in keys}
        if path not in arrays:
            raise ValueError("archive has no entry %r" % path)
        return arrays[path] if kind is np.ndarray else kind(arrays[path])

    return build(cls, "", given)
