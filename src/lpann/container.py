"""Self-describing binary container for built indexes.

Layout (documented in docs/index_format.md):

    bytes 0..8      magic  b"LPANNIDX"
    bytes 8..16     header length H, little-endian uint64
    bytes 16..16+H  JSON header, UTF-8
    then            raw data blocks, little-endian float64 / int64
    last 4 bytes    CRC32 of every preceding byte, little-endian uint32

An index is a function of its points, its configuration and numpy's random
streams, so a file stores only the build's inputs: two blocks, the root's
deduplicated ids and vectors, and in the header the dimension, the build
configuration and a block table mapping names to (offset, dtype, shape);
offsets are relative to the end of the header. The header also records the
numpy version that saved the file and ``digest``, a blake2b over every
array the built index holds (``index_digest``).

``load_index`` rebuilds the index with ``preprocess``, so a loaded index is
a built index by construction, and then recomputes the digest. NumPy does
not promise that its random streams stay the same across versions
(NEP 19), so a rebuild that differs from the saved index raises
``UsageError`` naming both numpy versions instead of answering with other
draws. Loading costs a build of the stored configuration.

Only the current format version loads. The loader reads the file once, in
order, each block straight into an array of its own, and rebuilds only
after the checksum matches. A file that fails its checksum, is truncated,
names an unknown block, lacks or mistypes a header key, or whose blocks
overlap, hold points that do not ascend by id, or rebuild another index
raises ``UsageError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, fields

import numpy as np

# perfbench/layers.py patches these two names here while an index loads
from .base_schemes import CoarseScheme, L2Group, L2Scheme  # noqa: F401
from .errors import UsageError
from .geometry import Dataset
from .recursive import LpScheme, SchemeConfig, preprocess

MAGIC = b"LPANNIDX"
FORMAT_VERSION = 6

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def index_digest(scheme: LpScheme) -> str:
    """blake2b, in hex, over the dtype, shape and bytes of every array the
    index holds. It walks each ``PointSet`` once, in build order: its ids
    and vectors, its group's draws and bucket table, then per ladder step
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
        draws = (group.projections, group.offsets) if isinstance(group, L2Group) else (group.shifts,)
        for arr in (pset.ids, pset.vectors, *draws, *vars(group.table).values()):
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
    blocks = {"ids": np.ascontiguousarray(scheme.root.ids, dtype="<i8"),
              "vectors": np.ascontiguousarray(scheme.root.vectors, dtype="<f8")}
    table, offset = {}, 0
    for name, arr in blocks.items():
        table[name] = {"offset": offset, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        offset += arr.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "d": scheme.d,
        "config": asdict(scheme.config),
        "numpy": np.__version__,
        "digest": index_digest(scheme),
        "ids": "ids",
        "vectors": "vectors",
        "blocks": table,
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    raw = [arr.reshape(-1).view(np.uint8) for arr in blocks.values()]
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


def _take(blocks: dict, name: str) -> np.ndarray:
    arr = blocks.pop(name, None)
    if arr is None:
        raise UsageError(f"block {name!r} is missing from the block table or named twice")
    return arr


def _inputs(header: dict, blocks: dict) -> tuple[Dataset, SchemeConfig, str, str]:
    """(points, config, numpy version, digest) the header and blocks hold."""
    cmeta = header["config"]
    config = SchemeConfig(**{
        f.name: (_int if f.type in (int, "int") else _num)(cmeta, f.name)
        for f in fields(SchemeConfig)
    })
    d = _int(header, "d")
    saved_with, saved = _str(header, "numpy"), _str(header, "digest")
    ids, vectors = _take(blocks, header["ids"]), _take(blocks, header["vectors"])
    if not (ids.ndim == 1 and ids.size and (np.diff(ids) > 0).all()
            and vectors.shape == (ids.size, d)):
        raise UsageError("corrupt index: root ids do not ascend or do not match its vectors")
    return Dataset(vectors, config.p, ids=ids), config, saved_with, saved


def _crc_through(f, count: int, crc: int) -> int:
    """crc carried over the next count bytes of f, read a MiB at a time."""
    while count > 0:
        chunk = f.read(min(count, 1 << 20))
        if not chunk:
            raise UsageError("truncated file")
        crc = zlib.crc32(chunk, crc)
        count -= len(chunk)
    return crc


def _read_blocks(f, table: dict, body: int, crc: int) -> tuple[dict, int]:
    """Every block of the block table, read from f, which stands at the
    start of the body of ``body`` bytes, once and in offset order, straight
    into an array of its own; and crc carried over the whole body."""
    plan = []
    for name, meta in table.items():
        dtype = _DTYPES.get(meta.get("dtype"))
        if dtype is None:
            raise UsageError(f"block {name!r} has unknown dtype {meta.get('dtype')!r}")
        shape = meta.get("shape")
        if not isinstance(shape, list) or not all(_typed(x, int, "shape") >= 0 for x in shape):
            raise UsageError(f"block {name!r} has malformed shape {shape!r}")
        offset, size = _int(meta, "offset"), math.prod(shape) * dtype.itemsize
        if offset < 0 or offset + size > body:
            raise UsageError(f"block {name!r} lies outside the file")
        plan.append((offset, size, name, dtype, shape))
    blocks, pos = {}, 0
    for offset, size, name, dtype, shape in sorted(plan, key=lambda block: block[:2]):
        if offset < pos and size:
            raise UsageError(f"block {name!r} overlaps another block")
        crc = _crc_through(f, offset - pos, crc)
        arr = np.empty(shape, dtype=dtype)
        raw = arr.reshape(-1).view(np.uint8)
        if f.readinto(raw) != size:
            raise UsageError("truncated file")
        blocks[name], crc, pos = arr, zlib.crc32(raw, crc), max(pos, offset + size)
    return blocks, _crc_through(f, body - pos, crc)


def _read(f) -> tuple[dict, dict]:
    """The header and the blocks of the index file open as f, read once;
    raises UsageError unless the trailer is the CRC32 of every byte before
    it."""
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
    body = size - 4 - 16 - header_len
    if body >= 0:
        blocks, crc = _read_blocks(f, header["blocks"], body, zlib.crc32(payload, zlib.crc32(lead)))
        if crc == struct.unpack("<I", f.read(4))[0]:
            return header, blocks
    raise UsageError("checksum mismatch: the file is corrupt or truncated")


def load_index(path: str) -> LpScheme:
    """Load an index written by :func:`save_index`: read the file once,
    check its checksum, rebuild the index from its points and configuration
    with ``preprocess``, and check the rebuild against the saved digest."""
    try:
        with open(path, "rb") as f:
            header, blocks = _read(f)
        points, config, saved_with, saved = _inputs(header, blocks)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    scheme = preprocess(points, config)
    if index_digest(scheme) != saved:
        raise UsageError(
            f"{path}: digest mismatch: the rebuilt index differs from the saved one (saved "
            f"with numpy {saved_with}, rebuilt with numpy {np.__version__}); the file is "
            f"corrupt or this numpy draws other random streams"
        )
    return scheme
