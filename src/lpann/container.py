"""Self-describing binary container for built indexes.

Layout (documented in docs/index_format.md):

    bytes 0..8      magic  b"LPANNIDX"
    bytes 8..16     header length H, little-endian uint64
    bytes 16..16+H  JSON header, UTF-8
    then            raw data blocks, little-endian float64 / int64
    last 4 bytes    CRC32 of every preceding byte, little-endian uint32

Only what the build drew or carved is stored: the root's ids and vectors,
every base scheme's random projections and offsets or grid shifts, and
every cover's clusters and point-to-cluster map, once per point set (the
carving tree, which every node copy and child copy over a point set
shares). The header holds the build configuration, the carving tree and a
scheme tree of block names, and a block table mapping names to (offset,
dtype, shape); offsets are relative to the end of the header.

Everything else is a function of these, and the loader derives it with the
build's own code: the bound (``approximation_bound``), each ladder level's
cover radius and approximations (``ladder_steps``), each cluster's map and
the points its child nodes index (``map_cluster``, once per cluster), the
base schemes' widths and probe limits (their constructors), and the groups,
one per point set, that build one bucket table each from their schemes'
draws (``link_group``), all built before ``load_index`` returns. A loaded index
equals the saved one bit for bit, and shares covers and images as it does.

Only the current format version loads. The loader reads the file once, in
order, each block straight into an array of its own, and decodes it only
after the checksum matches. A file that fails its checksum, is truncated,
names an unknown block, lacks or mistypes a header key, or whose blocks
overlap or break the index's invariants raises ``UsageError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import asdict, fields

import numpy as np

from .base_schemes import CoarseScheme, L2Scheme
from .cover import Cluster, SparseCover, diameter_bound_for
from .errors import UsageError
from .recursive import (
    LpScheme,
    SchemeConfig,
    SchemeCopy,
    SchemeNode,
    approximation_bound,
    ladder_steps,
    link_group,
    map_cluster,
    new_ladder,
)

MAGIC = b"LPANNIDX"
FORMAT_VERSION = 5

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class _BlockWriter:
    def __init__(self):
        self.blocks = []
        self.table = {}
        self.offset = 0

    def add(self, array) -> str:
        """Name the array's block; its bytes are written from the array
        itself, which is copied only if its dtype or layout differs."""
        arr = np.asarray(array)
        code = "<i8" if arr.dtype.kind in "iu" else "<f8"
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[code]).reshape(-1).view(np.uint8)
        name = f"b{len(self.blocks)}"
        self.table[name] = {"offset": self.offset, "dtype": code, "shape": list(arr.shape)}
        self.blocks.append(raw)
        self.offset += raw.size
        return name


def _encode_carving(node: SchemeNode, w: _BlockWriter) -> list:
    """The covers of the node's point set, and under each cluster those of
    its image, read off the first copy: every copy over a point set shares
    them, as ``preprocess`` builds it."""
    levels = []
    for lvl in node.copies[0].ladder:
        clusters = lvl.cover.clusters
        levels.append({
            "centers": w.add([cl.center_id for cl in clusters]),
            "member_offsets": w.add(np.cumsum([0] + [len(cl.member_ids) for cl in clusters])),
            "members": w.add(np.concatenate([cl.member_ids for cl in clusters])),
            "covering": w.add(lvl.cover.covering_ref),
            "images": [_encode_carving(ch.copies[0], w) if ch.copies else None
                       for ch in lvl.children],
        })
    return levels


def _encode_node(node: SchemeNode, w: _BlockWriter) -> dict:
    return {
        "copies": [
            {
                "base": [
                    {"projections": w.add(b.projections), "offsets": w.add(b.offsets)}
                    if isinstance(b, L2Scheme) else {"shifts": w.add(b.shifts)}
                    for b in copy.base
                ],
                "ladder": [
                    [[_encode_node(sub, w) for sub in ch.copies] for ch in lvl.children]
                    for lvl in copy.ladder
                ],
            }
            for copy in node.copies
        ]
    }


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
    """Serialize a built index; the write is atomic (temp file + rename)."""
    w = _BlockWriter()
    header = {
        "format_version": FORMAT_VERSION,
        "d": scheme.d,
        "config": asdict(scheme.config),
        "ids": w.add(scheme.root.ids),
        "vectors": w.add(scheme.root.vectors),
        "carving": _encode_carving(scheme.root, w),
        "scheme": _encode_node(scheme.root, w),
        "blocks": w.table,
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    atomic_write(path, _with_crc([MAGIC, struct.pack("<Q", len(payload)), payload, *w.blocks]))


def _typed(value, kind, key: str):
    """value itself if it is a JSON number of the given kind (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise UsageError(f"header key {key!r} has the wrong type: {value!r}")
    return value


def _num(meta: dict, key: str) -> float:
    return float(_typed(meta[key], (int, float), key))


def _int(meta: dict, key: str) -> int:
    return _typed(meta[key], int, key)


class _BlockReader:
    """Hands each block out once, and forgets it: a group stacks its
    schemes' draws, and a block no scheme holds any more is freed."""

    def __init__(self, blocks: dict):
        self.blocks = blocks

    def get(self, name: str) -> np.ndarray:
        arr = self.blocks.pop(name, None)
        if arr is None:
            raise UsageError(f"block {name!r} is missing from the block table or named twice")
        return arr


def _require(ok, what: str) -> None:
    if not ok:
        raise UsageError(f"corrupt index: {what}")


def _decode_cover(meta: dict, r: _BlockReader, ids: np.ndarray,
                  radius: float, beta: float) -> SparseCover:
    centers = r.get(meta["centers"])
    offsets = r.get(meta["member_offsets"])
    members = r.get(meta["members"])
    covering = r.get(meta["covering"])
    _require(
        centers.ndim == 1 and offsets.shape == (centers.size + 1,) and offsets[0] >= 0
        and (np.diff(offsets) >= 0).all() and offsets[-1] <= members.size,
        "cluster member offsets decrease or run past the member list",
    )
    _require(
        covering.shape == ids.shape and ((covering >= 0) & (covering < centers.size)).all(),
        "covering cluster index out of range",
    )
    _require(np.isin(centers, ids).all() and np.isin(members, ids).all(),
             "cluster names an id its node does not hold")
    clusters = [
        Cluster(member_ids=members[a:b], center_id=int(c))
        for c, a, b in zip(centers, offsets[:-1], offsets[1:])
    ]
    _require(all((np.diff(cl.member_ids) > 0).all() for cl in clusters),
             "cluster members do not ascend")
    return SparseCover(
        clusters=clusters,
        covering_ref=covering,
        beta=beta,
        radius=radius,
        diameter_bound=diameter_bound_for(radius, beta),
        sparsity=sum(len(cl.member_ids) for cl in clusters),
    )


def _decode_carving(meta: list, r: _BlockReader, node: SchemeNode, scheme: LpScheme) -> list:
    """The carving of the node's point set, as ``recursive.carve`` builds it,
    from its stored covers: each cover is checked and each cluster mapped
    once."""
    steps = ladder_steps(node.t, scheme.r_effective, scheme.bound)
    _require(len(meta) == len(steps), "ladder length differs from the plan")
    levels = []
    for lmeta, (radius, c_base, c_new) in zip(meta, steps):
        cover = _decode_cover(lmeta, r, node.ids, radius, scheme.bound.beta)
        _require(len(lmeta["images"]) == len(cover.clusters), "image count differs from clusters")
        images = []
        for cl, sub in zip(cover.clusters, lmeta["images"]):
            mapped = map_cluster(node, cl, cover)
            _require((mapped is None) == (sub is None),
                     "a cluster has an image exactly when it is not a singleton")
            images.append(None if mapped is None
                          else (*mapped, _decode_carving(sub, r, mapped[1], scheme)))
        levels.append((c_base, c_new, cover, images))
    return levels


def _decode_set(owners: list, carving: list, r: _BlockReader, scheme: LpScheme) -> None:
    """Fill every node over one point set, given per owner as (node, stored
    tree) pairs, with its stored copies over the set's carving, deriving the
    rest as the build does; then, for every copy at once, the nodes over
    each point set carved from it; then group the set, as ``_build_set``
    does."""
    r_eff = scheme.r_effective
    copies = []
    for block in owners:
        for node, meta in block:
            _require(meta["copies"] and all(c["base"] for c in meta["copies"]),
                     "a node without copies or a copy without base schemes")
            for cmeta in meta["copies"]:
                base = [
                    L2Scheme(node.ids, node.vectors, r_eff, r.get(b["projections"]),
                             r.get(b["offsets"]))
                    if node.t == 2.0 else
                    CoarseScheme(node.ids, node.vectors, node.t, r_eff, r.get(b["shifts"]))
                    for b in cmeta["base"]
                ]
                _require(len(cmeta["ladder"]) == len(carving), "ladder length differs from the plan")
                for lmeta, (_, _, _, images) in zip(cmeta["ladder"], carving):
                    _require(len(lmeta) == len(images), "child count differs from clusters")
                    _require(all((image is None) == (not trees) for image, trees in zip(images, lmeta)),
                             "a cluster has child nodes exactly when it is not a singleton")
                node.copies.append(SchemeCopy(base=base, ladder=new_ladder(carving)))
                copies.append((node.copies[-1], cmeta))
    for j, (_, _, _, images) in enumerate(carving):
        for k, image in enumerate(images):
            if image is None:
                continue
            sub, kids = image[1], []
            for copy, cmeta in copies:
                block = [(SchemeNode(sub.t, sub.ids, sub.vectors), m) for m in cmeta["ladder"][j][k]]
                copy.ladder[j].children[k].copies = [node for node, _ in block]
                kids.append(block)
            _decode_set(kids, image[2], r, scheme)
    link_group([[node for node, _ in block] for block in owners])


def _decode_scheme(header: dict, reader: _BlockReader) -> LpScheme:
    cmeta = header["config"]
    config = SchemeConfig(**{
        f.name: (_int if f.type in (int, "int") else _num)(cmeta, f.name)
        for f in fields(SchemeConfig)
    })
    d = _int(header, "d")
    ids, vectors = reader.get(header["ids"]), reader.get(header["vectors"])
    _require(
        ids.ndim == 1 and ids.size and (np.diff(ids) > 0).all()
        and vectors.shape == (ids.size, d),
        "root ids do not ascend or do not match its vectors",
    )
    scheme = LpScheme(config=config, d=d, bound=approximation_bound(config, d), root=None)
    root = SchemeNode(t=scheme.p_effective, ids=ids, vectors=vectors)
    carving = _decode_carving(header["carving"], reader, root, scheme)
    _decode_set([[(root, header["scheme"])]], carving, reader, scheme)
    scheme.root = root
    return scheme


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
    """Load an index written by :func:`save_index`. The file is read once,
    each block straight into its own array, and decoded only after its
    checksum matches."""
    try:
        with open(path, "rb") as f:
            header, blocks = _read(f)
        return _decode_scheme(header, _BlockReader(blocks))
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
