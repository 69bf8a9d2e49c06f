"""Self-describing binary container for built indexes.

Layout (documented in docs/index_format.md):

    bytes 0..8    magic  b"LPANNIDX"
    bytes 8..16   header length H, little-endian uint64
    bytes 16..16+H  JSON header, UTF-8
    bytes 16+H..  raw data blocks, little-endian float64 / int64

The header carries the format version, build configuration, the computed
approximation bound, the scheme tree, and a block table mapping block
names to (offset, dtype, shape); offsets are relative to the end of the
header. Bucket tables are not stored: they are derived data, rebuilt
deterministically from the stored projections, shifts, and vectors at load
time, so a loaded index answers queries identically to the saved one.

Only the current format version loads. A file that is truncated, names an
unknown block, lacks or mistypes a header key, or whose blocks break the
index's invariants (ascending ids, cluster indices and ids that exist)
raises ``UsageError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, fields

import numpy as np

from .base_schemes import CoarseScheme, L2Scheme
from .cover import Cluster, SparseCover
from .errors import UsageError
from .geometry import MazurMapSpec
from .recursive import (
    ApproxBound,
    ClusterChild,
    LadderLevel,
    LevelPlan,
    LpScheme,
    SchemeConfig,
    SchemeCopy,
    SchemeNode,
)

MAGIC = b"LPANNIDX"
FORMAT_VERSION = 3

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class _BlockWriter:
    def __init__(self):
        self.blocks = []
        self.table = {}
        self.offset = 0
        self._seen = {}  # id(array) -> block name, dedupes shared arrays
        self._pin = []  # keeps arrays alive so ids in _seen stay unique

    def add(self, array: np.ndarray) -> str:
        key = id(array)
        if key in self._seen:
            return self._seen[key]
        self._pin.append(array)
        arr = np.asarray(array)
        code = "<i8" if arr.dtype.kind in "iu" else "<f8"
        arr = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        name = f"b{len(self.blocks)}"
        self.table[name] = {"offset": self.offset, "dtype": code, "shape": list(arr.shape)}
        raw = arr.tobytes()
        self.blocks.append(raw)
        self.offset += len(raw)
        self._seen[key] = name
        return name


def _encode_l2(s: L2Scheme, w: _BlockWriter) -> dict:
    return {
        "kind": "l2",
        "r": s.r,
        "k": s.k,
        "w": s.w,
        "max_probe": s.max_probe,
        "projections": w.add(s.projections),
        "offsets": w.add(s.offsets),
    }


def _encode_coarse(s: CoarseScheme, w: _BlockWriter) -> dict:
    return {
        "kind": "coarse",
        "p": s.p,
        "r": s.r,
        "c0": s.c0,
        "cell_side": s.cell_side,
        "shifts": w.add(s.shifts),
    }


def _encode_cover(cover: SparseCover, w: _BlockWriter) -> dict:
    centers = np.asarray([cl.center_id for cl in cover.clusters], dtype=np.int64)
    offsets = np.cumsum([0] + [len(cl.member_ids) for cl in cover.clusters])
    members = np.concatenate([cl.member_ids for cl in cover.clusters])
    return {
        "beta": cover.beta,
        "radius": cover.radius,
        "diameter_bound": cover.diameter_bound,
        "sparsity": cover.sparsity,
        "centers": w.add(centers),
        "member_offsets": w.add(offsets),
        "members": w.add(members),
        "covering": w.add(cover.covering_ref),
    }


def _encode_node(node: SchemeNode, w: _BlockWriter) -> dict:
    copies = []
    for copy in node.copies:
        base = [
            _encode_l2(b, w) if isinstance(b, L2Scheme) else _encode_coarse(b, w)
            for b in copy.base
        ]
        ladder = []
        for lvl in copy.ladder:
            children = [
                {
                    "mazur": None if ch.mazur is None else asdict(ch.mazur),
                    "copies": [_encode_node(sub, w) for sub in ch.copies],
                }
                for ch in lvl.children
            ]
            ladder.append(
                {
                    "index": lvl.index,
                    "base_approx": lvl.base_approx,
                    "new_approx": lvl.new_approx,
                    "cover": _encode_cover(lvl.cover, w),
                    "children": children,
                }
            )
        copies.append({"base": base, "ladder": ladder})
    return {
        "t": node.t,
        "ids": w.add(node.ids),
        "vectors": w.add(node.vectors),
        "copies": copies,
    }


def save_index(scheme: LpScheme, path: str) -> None:
    """Serialize a built index; the write is atomic (temp file + rename)."""
    w = _BlockWriter()
    scheme_tree = _encode_node(scheme.root, w)
    header = {
        "format_version": FORMAT_VERSION,
        "p": scheme.p,
        "r": scheme.r,
        "d": scheme.d,
        "n": scheme.n,
        "p_effective": scheme.p_effective,
        "holder_factor": scheme.holder_factor,
        "r_effective": scheme.r_effective,
        "config": asdict(scheme.config),
        "bound": scheme.bound.as_dict(),
        "id_alias": [[k, v] for k, v in sorted(scheme.id_alias.items())],
        "scheme": scheme_tree,
        "blocks": w.table,
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lpann-tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(payload)))
            f.write(payload)
            for raw in w.blocks:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    def __init__(self, buf: bytes, table: dict, data_start: int):
        self.buf = buf
        self.table = table
        self.data_start = data_start

    def get(self, name: str) -> np.ndarray:
        meta = self.table.get(name)
        if not isinstance(meta, dict):
            raise UsageError(f"block {name!r} is missing from the block table")
        dtype = _DTYPES.get(meta.get("dtype"))
        if dtype is None:
            raise UsageError(f"block {name!r} has unknown dtype {meta.get('dtype')!r}")
        shape = meta.get("shape")
        if not isinstance(shape, list) or not all(_typed(x, int, "shape") >= 0 for x in shape):
            raise UsageError(f"block {name!r} has malformed shape {shape!r}")
        start = self.data_start + _int(meta, "offset")
        count = math.prod(shape)
        if start < self.data_start or start + count * dtype.itemsize > len(self.buf):
            raise UsageError(f"block {name!r} lies outside the file")
        arr = np.frombuffer(self.buf, dtype=dtype, count=count, offset=start)
        return arr.reshape(shape).copy()


def _decode_base(meta: dict, r: _BlockReader, node: SchemeNode):
    """A base scheme over its node's points; like a built one, it shares their arrays."""
    if meta["kind"] == "l2":
        return L2Scheme(
            ids=node.ids,
            vectors=node.vectors,
            r=_num(meta, "r"),
            k=_int(meta, "k"),
            w=_num(meta, "w"),
            projections=r.get(meta["projections"]),
            offsets=r.get(meta["offsets"]),
            max_probe=_int(meta, "max_probe"),
        )
    return CoarseScheme(
        ids=node.ids,
        vectors=node.vectors,
        p=_num(meta, "p"),
        r=_num(meta, "r"),
        c0=_num(meta, "c0"),
        cell_side=_num(meta, "cell_side"),
        shifts=r.get(meta["shifts"]),
    )


def _require(ok, what: str) -> None:
    if not ok:
        raise UsageError(f"corrupt index: {what}")


def _decode_cover(meta: dict, r: _BlockReader, ids: np.ndarray) -> SparseCover:
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
    return SparseCover(
        clusters=clusters,
        covering_ref=covering,
        beta=_num(meta, "beta"),
        radius=_num(meta, "radius"),
        diameter_bound=_num(meta, "diameter_bound"),
        sparsity=_int(meta, "sparsity"),
    )


def _decode_node(meta: dict, r: _BlockReader) -> SchemeNode:
    node = SchemeNode(t=_num(meta, "t"), ids=r.get(meta["ids"]), vectors=r.get(meta["vectors"]))
    ids = node.ids
    _require(
        ids.ndim == 1 and ids.size and (np.diff(ids) > 0).all()
        and node.vectors.ndim == 2 and node.vectors.shape[0] == ids.size,
        "node ids do not ascend or do not match its vectors",
    )
    for cmeta in meta["copies"]:
        base = [_decode_base(b, r, node) for b in cmeta["base"]]
        ladder = []
        for lmeta in cmeta["ladder"]:
            cover = _decode_cover(lmeta["cover"], r, ids)
            children = [
                ClusterChild(
                    mazur=None if ch["mazur"] is None else MazurMapSpec(
                        **{f.name: _num(ch["mazur"], f.name) for f in fields(MazurMapSpec)}
                    ),
                    copies=[_decode_node(sub, r) for sub in ch["copies"]],
                )
                for ch in lmeta["children"]
            ]
            _require(len(children) == len(cover.clusters), "child count differs from clusters")
            for ch, cl in zip(children, cover.clusters):
                _require(
                    (ch.mazur is None) == (not ch.copies)
                    and all(np.array_equal(sub.ids, cl.member_ids) for sub in ch.copies),
                    "cluster child does not match its cluster",
                )
            ladder.append(
                LadderLevel(
                    index=_int(lmeta, "index"),
                    base_approx=_num(lmeta, "base_approx"),
                    new_approx=_num(lmeta, "new_approx"),
                    cover=cover,
                    children=children,
                )
            )
        node.copies.append(SchemeCopy(base=base, ladder=ladder))
    return node


def _optional_num(meta: dict, key: str) -> float:
    """A number stored as null when infinite."""
    return math.inf if meta[key] is None else _num(meta, key)


def _decode_bound(bmeta: dict) -> ApproxBound:
    return ApproxBound(
        p=_num(bmeta, "p"),
        d=_int(bmeta, "d"),
        delta=_num(bmeta, "delta"),
        p_effective=_num(bmeta, "p_effective"),
        holder_factor=_num(bmeta, "holder_factor"),
        beta=_optional_num(bmeta, "beta"),
        beta_eff=_optional_num(bmeta, "beta_eff"),
        levels=tuple(
            LevelPlan(
                t=_num(lv, "t"),
                initial_approx=_num(lv, "initial_approx"),
                k_nominal=_int(lv, "k"),
                ladder=tuple(float(_typed(c, (int, float), "ladder")) for c in lv["ladder"]),
            )
            for lv in bmeta["levels"]
        ),
        c_l2=_num(bmeta, "c_l2"),
        c_p=_num(bmeta, "c_p"),
        closed_form_literal=_num(bmeta, "closed_form_literal"),
    )


def _decode_scheme(header: dict, reader: _BlockReader) -> LpScheme:
    cmeta = header["config"]
    return LpScheme(
        config=SchemeConfig(**{
            f.name: (_int if f.type in (int, "int") else _num)(cmeta, f.name)
            for f in fields(SchemeConfig)
        }),
        p=_num(header, "p"),
        d=_int(header, "d"),
        n=_int(header, "n"),
        p_effective=_num(header, "p_effective"),
        holder_factor=_num(header, "holder_factor"),
        r=_num(header, "r"),
        r_effective=_num(header, "r_effective"),
        bound=_decode_bound(header["bound"]),
        root=_decode_node(header["scheme"], reader),
        id_alias={int(k): int(v) for k, v in header["id_alias"]},
    )


def load_index(path: str) -> LpScheme:
    """Load an index written by :func:`save_index`."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 16 or buf[:8] != MAGIC:
        raise UsageError(f"{path}: not an lpann index file")
    (header_len,) = struct.unpack("<Q", buf[8:16])
    if 16 + header_len > len(buf):
        raise UsageError(f"{path}: truncated header")
    try:
        header = json.loads(buf[16: 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: corrupt header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise UsageError(f"{path}: unsupported format version {version}")
    try:
        return _decode_scheme(header, _BlockReader(buf, header["blocks"], 16 + header_len))
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
