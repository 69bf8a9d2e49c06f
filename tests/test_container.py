import json
import os
import struct
import sys
import threading
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpann import (
    Dataset,
    NumericRangeError,
    SchemeConfig,
    UsageError,
    load_index,
    preprocess,
    query,
    save_index,
)
from lpann.cli import main
from lpann import recursive
from lpann.container import FORMAT_VERSION, MAGIC, index_digest
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


def _layout(raw: bytes) -> tuple[int, dict, int, int]:
    """(H, header, n, d) of a format-8 file: n rows of 8 (1 + d) bytes
    follow the header, then the 4-byte trailer."""
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen])
    d = header["d"]
    return hlen, header, (len(raw) - 20 - hlen) // (8 * (1 + d)), d


def test_header_fields(built):
    _, scheme, path = built
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    hlen, header, _, d = _layout(raw)
    assert set(header) == {"format_version", "d", "config", "numpy", "digest"}
    assert header["format_version"] == FORMAT_VERSION
    assert header["d"] == 32
    assert header["config"]["p"] == 4.0
    assert header["config"]["seed"] == 7
    assert header["numpy"] == np.__version__
    assert header["digest"] == index_digest(scheme)
    # only the root's points are stored: ids, then vectors, back to back
    n = scheme.root.ids.size
    assert len(raw) == 16 + hlen + 8 * n * (1 + d) + 4
    body = 16 + hlen
    assert (np.frombuffer(raw, "<i8", n, body) == scheme.root.ids).all()
    assert (np.frombuffer(raw, "<f8", n * d, body + 8 * n) == scheme.root.vectors.ravel()).all()


def test_loaded_bound_matches(built):
    _, scheme, path = built
    loaded = load_index(str(path))
    assert loaded.bound.as_dict() == scheme.bound.as_dict()
    assert loaded.p_effective == scheme.p_effective
    assert loaded.r_effective == scheme.r_effective


@pytest.fixture(scope="module")
def singletons(tmp_path_factory):
    # far-apart points give singleton clusters (no signed-power map, no
    # child schemes); the container must carry that shape too
    vectors = np.zeros((2, 32))
    vectors[1, 0] = 1e6
    scheme = preprocess(Dataset(vectors, 4.0), SchemeConfig(p=4.0, r=1.0, seed=3))
    path = tmp_path_factory.mktemp("idx") / "singletons.lpann"
    save_index(scheme, str(path))
    return vectors, scheme, path


def test_roundtrip_with_singleton_clusters(singletons):
    vectors, scheme, path = singletons
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


def _seal(body: bytes) -> bytes:
    """body followed by its CRC32 trailer, as save_index writes it."""
    return body + struct.pack("<I", zlib.crc32(body))


def _rewrite_header(path, out, edit):
    """Copy an index file to out with edit(header) applied to its JSON
    header, and seal it again."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16: 16 + hlen])
    edit(header)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    body = raw[:8] + struct.pack("<Q", len(new_header)) + new_header + raw[16 + hlen: -4]
    out.write_bytes(_seal(body))
    return out


def _cli_query_exit(index, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("1 32 4\n" + " ".join(["0"] * 32) + "\n")
    return main(["query", "--index", str(index), "--query-file", str(queries)])


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(d=0),
        lambda h: h.update(d=-32),
        lambda h: h.update(d=32.0),
        lambda h: h.update(d="32"),
        lambda h: h.update(d=[32]),
        lambda h: h.update(d=None),
        lambda h: h.update(d=True),
        lambda h: h.update(d=10**30),
        lambda h: h.update(d=31),
        lambda h: h.update(d=10),
        lambda h: h.pop("d"),
        lambda h: h["config"].update(r="1.0"),
        lambda h: h.update(d=32.5),
        lambda h: h["config"].update(seed=None),
        lambda h: h["config"].update(p=10**400),
        lambda h: h["config"].update(base_copies=10**9),
        lambda h: h["config"].update(child_copies=10**9),
        lambda h: h.update(format_version=1),
        lambda h: h.update(format_version=2),
        lambda h: h.update(format_version=3),
        lambda h: h.update(format_version=4),
        lambda h: h.update(format_version=5),
        lambda h: h.update(format_version=6),
        lambda h: h.update(format_version=7),
        lambda h: h.update(format_version=8),
        lambda h: h.pop("digest"),
        lambda h: h.update(digest=int(h["digest"], 16)),
        lambda h: h.pop("numpy"),
        lambda h: h.update(numpy=[2, 4]),
    ],
    ids=[
        "zero-d", "negative-d", "integral-float-d", "string-d", "list-d", "null-d",
        "bool-d", "huge-d", "partial-rows-d", "other-rows-d", "missing-key",
        "string-number", "float-integer", "null-seed", "int-past-float-p", "huge-base-copies",
        "huge-child-copies", "version-1",
        "version-2", "version-3", "version-4", "version-5", "version-6", "version-7",
        "version-8", "missing-digest", "number-digest", "missing-numpy", "list-numpy",
    ],
)
def test_malformed_header_is_usage_error(built, tmp_path, capsys, edit):
    bad = _rewrite_header(built[2], tmp_path / "bad.lpann", edit)
    with pytest.raises(UsageError):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def test_exponent_whose_closed_form_overflows_is_usage_error(built, tmp_path):
    # (16 log2 p)^(log2 p) overflows float64 at p = 1e308; the loader
    # rebuilds for that exponent, and the rebuild differs from the digest
    bad = _rewrite_header(built[2], tmp_path / "bad.lpann", lambda h: h["config"].update(p=1e308))
    with pytest.raises(UsageError, match="digest mismatch"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8])
def test_old_format_names_its_version(built, tmp_path, version):
    bad = _rewrite_header(built[2], tmp_path / "old.lpann",
                          lambda h: h.update(format_version=version))
    with pytest.raises(UsageError, match=f"unsupported format version {version}$"):
        load_index(str(bad))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    # eight points, a grid root whose ladder carves child sets: a rebuild
    # at any config is quick
    points = Dataset(np.random.default_rng(0).standard_normal((8, 32)), 4.0)
    scheme = preprocess(points, SchemeConfig(p=4.0, r=1.0, seed=1))
    path = tmp_path_factory.mktemp("idx") / "tiny.lpann"
    save_index(scheme, str(path))
    return path, index_digest(scheme)


_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3))
_JSON = _SCALAR | st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3,
)
_DROP = object()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_resealed_config_loads_or_is_usage_error(tiny, tmp_path_factory, data):
    # any JSON value, or none, for one or two config keys of a resealed
    # file, the others kept valid: the load either gives the saved index or
    # raises UsageError (exit 2), or NumericRangeError (exit 4) for a radius
    # whose grid cells overflow, as a build at that radius does
    path, digest = tiny
    names = data.draw(st.sets(st.sampled_from(
        ["p", "r", "delta", "seed", "base_copies", "child_copies"]), min_size=1, max_size=2))
    edits = {name: data.draw(st.just(_DROP) | _JSON, label=name) for name in sorted(names)}

    def edit(header):
        for name, value in edits.items():
            if value is _DROP:
                del header["config"][name]
            else:
                header["config"][name] = value

    work = tmp_path_factory.getbasetemp() / "resealed"
    work.mkdir(exist_ok=True)
    bad = _rewrite_header(path, work / "bad.lpann", edit)
    try:
        loaded = load_index(str(bad))
    except UsageError:
        expected = 2
    except NumericRangeError:
        expected = 4
    else:
        assert index_digest(loaded) == digest
        expected = 0
    assert _cli_query_exit(bad, work) == expected


def _answer_key(ans):
    return None if ans is None else (ans.id, float.hex(ans.distance), ans.trace)


def test_concurrent_queries_on_a_fresh_load_match_sequential(built):
    # the loader builds every lookup table before it returns, so threads
    # querying a freshly loaded index at once only read finished state
    dataset, _, path = built
    rng = np.random.default_rng(3)
    rows = rng.choice(dataset.n, size=40)
    queries = dataset.vectors[rows] + 0.1 * rng.standard_normal((40, dataset.d))
    loaded = load_index(str(path))
    start = threading.Barrier(2)
    answers = [None, None]

    def work(k):
        start.wait(timeout=30)
        answers[k] = [_answer_key(query(loaded, q)) for q in queries]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sequential = load_index(str(path))
    expected = [_answer_key(query(sequential, q)) for q in queries]
    assert any(a is not None for a in expected)
    assert answers == [expected, expected]


def test_truncated_blocks_are_usage_error(built, tmp_path, capsys):
    # resealed after losing 100 bytes, less than a row of 8 (1 + 32)
    _, _, path = built
    bad = tmp_path / "short.lpann"
    bad.write_bytes(_seal(path.read_bytes()[:-4][:-100]))
    with pytest.raises(UsageError, match="whole number"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def _rewrite_points(path, out, name, change, seal=True):
    """Copy an index file to out with its ids or vectors (name) replaced by
    change(array), sealed again unless told otherwise."""
    raw = bytearray(path.read_bytes())
    hlen, _, n, d = _layout(raw)
    start, count, dtype = {"ids": (16 + hlen, n, "<i8"),
                           "vectors": (16 + hlen + 8 * n, n * d, "<f8")}[name]
    array = np.frombuffer(bytes(raw), dtype, count, start)
    raw[start: start + 8 * count] = change(array).astype(dtype).tobytes()
    out.write_bytes(_seal(bytes(raw[:-4])) if seal else bytes(raw))
    return out


@pytest.mark.parametrize(
    "pick,change",
    [("ids", lambda b: b[::-1])],
    ids=["ids-descend"],
)
def test_corrupt_block_contents_are_usage_error(built, tmp_path, capsys, pick, change):
    _, _, path = built
    bad = _rewrite_points(path, tmp_path / "bad.lpann", pick, change)
    with pytest.raises(UsageError, match="corrupt index"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def _nudge_first_coordinate(array):
    out = array.copy()
    out[0] = np.nextafter(out[0], np.inf)
    return out


def test_unsealed_edit_fails_checksum(built, tmp_path, capsys):
    # a vector one ulp off passes every header and length check: resealed,
    # the digest of the index it rebuilds catches it; unsealed, the trailer does
    _, _, path = built
    sealed = _rewrite_points(path, tmp_path / "sealed.lpann", "vectors",
                             _nudge_first_coordinate)
    with pytest.raises(UsageError, match="digest mismatch"):
        load_index(str(sealed))
    assert _cli_query_exit(sealed, tmp_path) == 2
    bad = _rewrite_points(path, tmp_path / "bad.lpann", "vectors",
                          _nudge_first_coordinate, seal=False)
    with pytest.raises(UsageError, match="checksum"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def test_dropped_row_fails_digest(built, tmp_path, capsys):
    # dropping the last id and the last vector leaves n - 1 whole rows of
    # ascending ids, which rebuild another index
    _, scheme, path = built
    raw = path.read_bytes()
    hlen, _, n, d = _layout(raw)
    assert n == scheme.root.ids.size
    ids_end, vectors_end = 16 + hlen + 8 * n, len(raw) - 4
    body = raw[: ids_end - 8] + raw[ids_end: vectors_end - 8 * d]
    bad = tmp_path / "dropped.lpann"
    bad.write_bytes(_seal(body))
    assert _layout(bad.read_bytes())[2] == n - 1
    with pytest.raises(UsageError, match="digest mismatch"):
        load_index(str(bad))
    assert _cli_query_exit(bad, tmp_path) == 2


def test_file_that_shrinks_while_read_is_usage_error(built, tmp_path, monkeypatch):
    # the file's length, as fstat gave it, promises one row more than the
    # file still holds when the arrays are read: the short read is caught
    _, _, path = built
    real_size = path.stat().st_size
    stat = os.fstat

    def longer(fd):
        size = stat(fd).st_size
        return SimpleNamespace(st_size=size + 8 * 33 if size == real_size else size)

    monkeypatch.setattr(os, "fstat", longer)
    with pytest.raises(UsageError, match="truncated file"):
        load_index(str(path))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flipped_bit_or_truncation_is_usage_error(built, tmp_path_factory, data):
    raw = built[2].read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        bad = bytearray(raw)
        bad[bit // 8] ^= 1 << (bit % 8)
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    path = work / "bad.lpann"
    path.write_bytes(bytes(bad))
    with pytest.raises(UsageError):
        load_index(str(path))
    assert _cli_query_exit(path, work) == 2


def test_rebuild_that_differs_names_both_numpy_versions(built, tmp_path, capsys, monkeypatch):
    # a numpy whose random streams changed rebuilds other draws: moving one
    # grid shift by one ulp at load stands in for it (this index's l2 sets
    # all scan, so it draws no l2 projections)
    _, _, path = built
    old = _rewrite_header(path, tmp_path / "old.lpann", lambda h: h.update(numpy="0.0.1"))
    load_index(str(old))  # the version alone rejects nothing
    real, calls = recursive.build_coarse_ann, []

    def nudged(*args):
        group = real(*args)
        if not calls:
            group.shifts[0, 0] = np.nextafter(group.shifts[0, 0], np.inf)
        calls.append(group)
        return group

    monkeypatch.setattr(recursive, "build_coarse_ann", nudged)
    with pytest.raises(UsageError, match="digest mismatch") as err:
        load_index(str(old))
    assert calls
    assert "numpy 0.0.1" in str(err.value)
    assert f"numpy {np.__version__}" in str(err.value)
    # and the other causes of a rebuild that differs: another BLAS's
    # rounding of l2 keys, and another lpann under the same format version
    assert "this BLAS rounds an l2 key differently" in str(err.value)
    assert f"this lpann builds another index under format {FORMAT_VERSION}" in str(err.value)
    calls.clear()
    assert _cli_query_exit(old, tmp_path) == 2
