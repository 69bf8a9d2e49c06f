import json
import struct

import numpy as np
import pytest

from lpann import Dataset, SchemeConfig, UsageError, load_index, preprocess, query, save_index
from lpann.cli import main
from lpann.container import FORMAT_VERSION, MAGIC
from lpann.oracle import TrialSpec, make_planted_instance


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    spec = TrialSpec(n=100, d=32, p=4.0, r=1.0, trials=1, seed=19)
    dataset, q, _ = make_planted_instance(spec)
    scheme = preprocess(dataset, SchemeConfig(p=4.0, r=1.0, seed=7))
    path = tmp_path_factory.mktemp("idx") / "scheme.lpann"
    save_index(scheme, str(path))
    return dataset, scheme, path


def test_roundtrip_answers_identical(built):
    dataset, scheme, path = built
    loaded = load_index(str(path))
    rng = np.random.default_rng(2)
    for _ in range(30):
        q = rng.standard_normal(32)
        a, b = query(scheme, q), query(loaded, q)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.id == b.id
            assert a.distance == b.distance
            assert a.trace == b.trace


def test_header_fields(built):
    _, scheme, path = built
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen])
    assert header["format_version"] == FORMAT_VERSION
    assert header["p"] == 4.0
    assert header["d"] == 32
    assert header["n"] == 100
    assert header["config"]["seed"] == 7
    assert set(header["blocks"])  # non-empty block table
    for meta in header["blocks"].values():
        assert meta["dtype"] in ("<f8", "<i8")
        assert meta["offset"] >= 0


def test_loaded_bound_matches(built):
    _, scheme, path = built
    loaded = load_index(str(path))
    assert loaded.bound.as_dict() == scheme.bound.as_dict()
    assert loaded.p_effective == scheme.p_effective
    assert loaded.r_effective == scheme.r_effective


def test_roundtrip_with_singleton_clusters(tmp_path):
    # far-apart points give singleton clusters (no signed-power map, no
    # child schemes); the container must carry that shape too
    vectors = np.zeros((2, 32))
    vectors[1, 0] = 1e6
    scheme = preprocess(Dataset(vectors, 4.0), SchemeConfig(p=4.0, r=1.0, seed=3))
    path = tmp_path / "singletons.lpann"
    save_index(scheme, str(path))
    loaded = load_index(str(path))
    q = vectors[1] + 0.5
    a, b = query(scheme, q), query(loaded, q)
    assert a is not None and b is not None
    assert (a.id, a.distance) == (b.id, b.distance)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bogus.lpann"
    p.write_bytes(b"NOTANIDX" + b"\x00" * 32)
    with pytest.raises(UsageError):
        load_index(str(p))


def test_truncated_file_rejected(built, tmp_path):
    _, _, path = built
    raw = path.read_bytes()
    p = tmp_path / "trunc.lpann"
    p.write_bytes(raw[:12])
    with pytest.raises(UsageError):
        load_index(str(p))


def test_unknown_version_rejected(built, tmp_path):
    _, _, path = built
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen])
    header["format_version"] = FORMAT_VERSION + 1
    new_header = json.dumps(header, separators=(",", ":")).encode()
    blob = raw[:8] + struct.pack("<Q", len(new_header)) + new_header + raw[16 + hlen:]
    p = tmp_path / "future.lpann"
    p.write_bytes(blob)
    with pytest.raises(UsageError):
        load_index(str(p))


def _rewrite_header(path, out, edit):
    """Copy an index file to out with edit(header) applied to its JSON header."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen])
    edit(header)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    out.write_bytes(raw[:8] + struct.pack("<Q", len(new_header)) + new_header + raw[16 + hlen:])
    return out


def _cli_query_exit(index, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("1 32 4\n" + " ".join(["0"] * 32) + "\n")
    return main(["query", "--index", str(index), "--query-file", str(queries)])


def _first_block(header):
    return header["blocks"][header["scheme"]["ids"]]


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: _first_block(h).update(shape=[1.5]),
        lambda h: _first_block(h).update(shape=["100"]),
        lambda h: _first_block(h).update(shape=[-1]),
        lambda h: _first_block(h).update(dtype="<f4"),
        lambda h: _first_block(h).update(offset=-8),
        lambda h: _first_block(h).update(offset=10**12),
        lambda h: h["blocks"].pop(h["scheme"]["ids"]),
        lambda h: h["scheme"].pop("t"),
        lambda h: h["scheme"].update(t="4"),
        lambda h: h.update(d=32.5),
        lambda h: h["config"].update(seed=None),
        lambda h: h.update(blocks=[]),
        lambda h: h.update(format_version=1),
    ],
    ids=[
        "float-shape", "string-shape", "negative-shape", "unknown-dtype",
        "negative-offset", "offset-past-end", "missing-block", "missing-key",
        "string-number", "float-integer", "null-seed", "block-table-list", "version-1",
    ],
)
def test_malformed_header_is_usage_error(built, tmp_path, capsys, edit):
    _, _, path = built
    bad = _rewrite_header(path, tmp_path / "bad.lpann", edit)
    with pytest.raises(UsageError):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def test_truncated_blocks_are_usage_error(built, tmp_path, capsys):
    _, _, path = built
    bad = tmp_path / "short.lpann"
    bad.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(UsageError, match="outside the file"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2
