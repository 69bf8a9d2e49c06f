"""Self-describing binary container for built indexes.

Layout (documented in docs/index_format.md):

    bytes 0..8      magic  b"LPANNIDX"
    bytes 8..16     header length H, little-endian uint64
    bytes 16..16+H  JSON header, UTF-8
    then            the root's ids, n little-endian int64
    then            the root's vectors, n x d little-endian float64
    last 4 bytes    CRC32 of every preceding byte, little-endian uint32

An index is a function of its points, its configuration, numpy's random
streams and the BLAS that rounds its l2 keys' matrix products, so a file
stores only the build's inputs: the root's deduplicated ids and vectors,
and in the header the dimension and the build configuration. n is not
stored: it is the length of the body divided by the row size, 8 (1 + d)
bytes. The header also records the numpy version that saved the file and
``digest``, a blake2b over every array the built index holds
(``index_digest``).

``load_index`` rebuilds the index with ``preprocess``, so a loaded index is
a built index by construction, and then recomputes the digest. NumPy does
not promise that its random streams stay the same across versions (NEP 19),
another BLAS may round an l2 key's product to the other side of a bucket
edge, and an lpann whose build changed under the same ``FORMAT_VERSION``
builds another index; so a rebuild that differs from the saved index raises
``UsageError`` naming both numpy versions and those causes instead of
answering with other draws. Loading costs a build of the stored
configuration.

Only the current format version loads. The loader reads the file once, in
order, the two arrays straight into arrays of their own, and rebuilds only
after the checksum matches. A file that fails its checksum, lacks or
mistypes a header key, holds no whole number of rows, or whose points do
not ascend by id or rebuild another index raises ``UsageError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, fields

import numpy as np

from .base_schemes import CoarseGroup, L2Group, L2Scan
from .errors import UsageError
from .geometry import Dataset
from .recursive import LpScheme, SchemeConfig, preprocess

# Aliases that exist only for the benchmark's load probes
# (perfbench/layers.py), which wrap these names while an index loads; no
# load calls them. Drop them with those probes.
L2Scheme, CoarseScheme = L2Group, CoarseGroup

MAGIC = b"LPANNIDX"
FORMAT_VERSION = 9


def index_digest(scheme: LpScheme) -> str:
    """blake2b, in hex, over the dtype, shape and bytes of every array the
    index holds. It walks each ``PointSet`` once, in build order: its ids
    and vectors, its group's draws and bucket table (a scanned l2 set,
    ``L2Scan``, has neither), then per ladder step
    its cover's clusters and ``covering_ref``, then the point sets carved
    from that cover, in cluster order. Every copy over a set shares these,
    and its group holds every copy's draws in copy order."""
    h = hashlib.blake2b(digest_size=32)

    def feed(arr) -> None:
        if arr is None:
            h.update(b"None;")
            return
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.reshape(-1).view(np.uint8))

    def walk(pset) -> None:
        group = pset.group
        feed(pset.ids)
        feed(pset.vectors)
        if not isinstance(group, L2Scan):
            draws = (group.projections, group.offsets) if isinstance(group, L2Group) else (group.shifts,)
            for arr in (*draws, *vars(group.table).values()):
                feed(arr)
        for level in pset.ladder:
            clusters = level.cover.clusters
            feed(np.array([cl.center_id for cl in clusters], dtype=np.int64))
            for cl in clusters:
                feed(cl.member_ids)
            feed(level.cover.covering_ref)
            for reduction in level.children:
                if reduction.child is not None:
                    walk(reduction.child)

    walk(scheme.root)
    return h.hexdigest()


def atomic_write(path: str, chunks) -> None:
    """Write the byte chunks, in order, to a temp file beside path and rename
    it over path, so path holds either its old content or all of the new."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lpann-tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _with_crc(chunks):
    """The chunks, then the CRC32 of all their bytes as a 4-byte trailer."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def save_index(scheme: LpScheme, path: str) -> None:
    """Serialize a built index: its points, its configuration and its
    digest. The write is atomic (temp file + rename)."""
    header = {
        "format_version": FORMAT_VERSION,
        "d": scheme.d,
        "config": asdict(scheme.config),
        "numpy": np.__version__,
        "digest": index_digest(scheme),
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    raw = [np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8)
           for arr, dtype in ((scheme.root.ids, "<i8"), (scheme.root.vectors, "<f8"))]
    atomic_write(path, _with_crc([MAGIC, struct.pack("<Q", len(payload)), payload, *raw]))


def _typed(value, kind, key: str):
    """value itself if it is a JSON value of the given kind (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise UsageError(f"header key {key!r} has the wrong type: {value!r}")
    return value


def _num(meta: dict, key: str) -> float:
    return float(_typed(meta[key], (int, float), key))


def _int(meta: dict, key: str) -> int:
    return _typed(meta[key], int, key)


def _str(meta: dict, key: str) -> str:
    return _typed(meta[key], str, key)


def _read(f) -> tuple[dict, np.ndarray, np.ndarray]:
    """The header, ids and vectors of the index file open as f, read once;
    raises UsageError unless the body holds whole rows and the trailer is
    the CRC32 of every byte before it."""
    size = os.fstat(f.fileno()).st_size
    lead = f.read(16)
    if len(lead) < 16 or lead[:8] != MAGIC:
        raise UsageError("not an lpann index file")
    (header_len,) = struct.unpack("<Q", lead[8:])
    if 16 + header_len > size:
        raise UsageError("truncated header")
    payload = f.read(header_len)
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"corrupt header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise UsageError(f"unsupported format version {version}")
    d = _int(header, "d")
    n, rest = divmod(size - 20 - header_len, 8 * (1 + d)) if d >= 1 else (0, 0)
    if n < 1 or rest:
        raise UsageError(f"the body does not hold a whole number (>= 1) of rows of d = {d}")
    ids, vectors = np.empty(n, dtype="<i8"), np.empty((n, d), dtype="<f8")
    crc = zlib.crc32(payload, zlib.crc32(lead))
    for arr in (ids, vectors):
        raw = arr.reshape(-1).view(np.uint8)
        if f.readinto(raw) != raw.size:
            raise UsageError("truncated file")
        crc = zlib.crc32(raw, crc)
    if f.read(4) != struct.pack("<I", crc):
        raise UsageError("checksum mismatch: the file is corrupt or truncated")
    return header, ids, vectors


def _inputs(header: dict, ids, vectors) -> tuple[Dataset, SchemeConfig, str, str]:
    """(points, config, numpy version, digest) the file holds."""
    cmeta = header["config"]
    config = SchemeConfig(**{
        f.name: (_int if f.type in (int, "int") else _num)(cmeta, f.name)
        for f in fields(SchemeConfig)
    })
    saved_with, saved = _str(header, "numpy"), _str(header, "digest")
    if not (np.diff(ids) > 0).all():
        raise UsageError("corrupt index: root ids do not ascend")
    return Dataset(vectors, config.p, ids=ids), config, saved_with, saved


def load_index(path: str) -> LpScheme:
    """Load an index written by :func:`save_index`: read the file once,
    check its checksum, rebuild the index from its points and configuration
    with ``preprocess``, and check the rebuild against the saved digest."""
    try:
        with open(path, "rb") as f:
            points, config, saved_with, saved = _inputs(*_read(f))
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise UsageError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    scheme = preprocess(points, config)
    if index_digest(scheme) != saved:
        raise UsageError(
            f"{path}: digest mismatch: the rebuilt index differs from the saved one (saved "
            f"with numpy {saved_with}, rebuilt with numpy {np.__version__}); the file is "
            f"corrupt, this numpy draws other random streams, this BLAS rounds an l2 key "
            f"differently, or this lpann builds another index under format {FORMAT_VERSION}"
        )
    return scheme
