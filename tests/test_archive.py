import struct
from dataclasses import dataclass

import numpy as np
import pytest

from lagrom.archive import MAGIC, flatten, load_archive, save_archive, unflatten


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {
        "matrix": rng.normal(size=(7, 5)),
        "vector": rng.normal(size=11),
        "scalar": np.array(np.pi),
        "stack": rng.normal(size=(3, 4, 4)),
        "indices": np.array([3.0, 1.0, 4.0]),
    }
    path = tmp_path / "products.lgrm"
    save_archive(path, arrays)
    loaded = load_archive(path)
    assert set(loaded) == set(arrays)
    for name, value in arrays.items():
        assert loaded[name].shape == np.asarray(value).shape
        assert np.array_equal(loaded[name], value)
        assert loaded[name].dtype == np.float64


def test_extreme_values_preserved(tmp_path):
    values = np.array([0.0, -0.0, 1e-308, 1e308, np.pi, -1 / 3])
    path = tmp_path / "edge.lgrm"
    save_archive(path, {"v": values})
    out = load_archive(path)["v"]
    assert np.array_equal(out, values)
    assert np.signbit(out[1])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.lgrm"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_archive(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "cut.lgrm"
    save_archive(path, {"m": rng.normal(size=(4, 4))})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_archive(path)


def test_every_truncation_and_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "cut.lgrm"
    save_archive(path, {"matrix": rng.normal(size=(2, 3)), "scalar": np.array(1.5)})
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated archive"):
            load_archive(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="after the last archive entry"):
        load_archive(path)


@pytest.mark.parametrize("dim", [2**40, 2**61])
def test_entry_sized_beyond_file_rejected(tmp_path, dim):
    """A corrupted dimension asks for more bytes than the file holds: no
    allocation is tried, and 8 * 2**61 does not wrap to zero."""
    path = tmp_path / "huge.lgrm"
    path.write_bytes(MAGIC + struct.pack("<II", 2, 1) + struct.pack("<H", 1)
                     + b"x" + struct.pack("<BQ", 1, dim) + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated archive"):
        load_archive(path)


def test_empty_archive(tmp_path):
    path = tmp_path / "empty.lgrm"
    save_archive(path, {})
    assert load_archive(path) == {}


def test_version_one_archive_rejected(tmp_path):
    # Version 1 named entries by hand-picked keys; its layout is not read.
    path = tmp_path / "old.lgrm"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 0))
    with pytest.raises(ValueError, match="unsupported archive version 1"):
        load_archive(path)


@dataclass(frozen=True)
class _Leaf:
    values: np.ndarray
    count: int
    flag: bool


@dataclass
class _Tree:
    scale: float
    leaf: _Leaf
    by_name: dict[str, _Leaf]
    note: str


def test_flatten_names_leaves_by_field_path(tmp_path, rng):
    tree = _Tree(scale=0.5, leaf=_Leaf(rng.normal(size=3), 4, True),
                 by_name={"b": _Leaf(np.zeros((2, 0)), 0, False),
                          "a": _Leaf(rng.normal(size=(2, 2)), 7, True)},
                 note="not archived")
    arrays = flatten(tree, skip=("note",))
    assert list(arrays) == [
        "scale", "leaf/values", "leaf/count", "leaf/flag",
        "by_name/b/values", "by_name/b/count", "by_name/b/flag",
        "by_name/a/values", "by_name/a/count", "by_name/a/flag"]
    path = tmp_path / "tree.lgrm"
    save_archive(path, arrays)
    loaded = unflatten(_Tree, load_archive(path), note="given")
    assert loaded.note == "given"
    assert type(loaded.scale) is float and loaded.scale == 0.5
    assert list(loaded.by_name) == ["b", "a"]
    for got, want in [(loaded.leaf, tree.leaf), *zip(loaded.by_name.values(),
                                                     tree.by_name.values())]:
        assert np.array_equal(got.values, want.values)
        assert got.values.shape == want.values.shape
        assert type(got.count) is int and got.count == want.count
        assert type(got.flag) is bool and got.flag == want.flag


def test_unarchivable_leaf_rejected():
    with pytest.raises(TypeError, match="str"):
        flatten(_Tree(0.0, _Leaf(np.zeros(1), 0, False), {}, "x"))
    with pytest.raises(TypeError, match="list"):
        flatten(_Tree(0.0, _Leaf([np.zeros(1)], 0, False), {}, "x"),
                skip=("note",))
    with pytest.raises(ValueError, match="contains"):
        flatten(_Tree(0.0, _Leaf(np.zeros(1), 0, False),
                      {"a/b": _Leaf(np.zeros(1), 0, False)}, "x"),
                skip=("note",))
