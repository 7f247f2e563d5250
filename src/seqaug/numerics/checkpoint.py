"""Single-file checkpoint format: JSON manifest + raw little-endian arrays.

Layout: 8-byte magic, little-endian uint64 manifest length, UTF-8 JSON
manifest (each array's name, shape, dtype, offset, byte count and zlib
CRC-32), then the concatenated array buffers. Reload is bit-exact.
"""

import json
import math
import zlib

import numpy as np

MAGIC = b"SQAGCKP1"


def save_checkpoint(path, arrays, meta=None):
    """Write named arrays (dict name -> ndarray) plus an optional meta dict."""
    entries = []
    offset = 0
    buffers = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        buf = np.ascontiguousarray(le).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": arr.dtype.newbyteorder("<").str,
            "offset": offset,
            "nbytes": len(buf),
            "crc32": zlib.crc32(buf),
        })
        buffers.append(buf)
        offset += len(buf)
    manifest = json.dumps({"meta": meta or {}, "arrays": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.array(len(manifest), dtype="<u8").tobytes())
        f.write(manifest)
        for buf in buffers:
            f.write(buf)


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays: dict name -> ndarray, meta: dict).

    A file cut short, a manifest that does not parse into its fields, and an array whose
    byte count does not fit its shape, that has no checksum (the file predates them) or
    whose bytes fail it raise ``ValueError`` naming the path."""
    with open(path, "rb") as f:
        data = f.read()
    if not MAGIC.startswith(data[:len(MAGIC)]):
        raise ValueError(f"{path}: not a checkpoint file (bad magic {data[:len(MAGIC)]!r})")
    head = len(MAGIC) + 8
    if len(data) < head:
        raise ValueError(f"{path}: truncated header: {len(data)} of {head} bytes")
    mlen = int(np.frombuffer(data[len(MAGIC):head], dtype="<u8")[0])
    if len(data) < head + mlen:
        raise ValueError(f"{path}: truncated manifest: {len(data) - head} of {mlen} bytes")
    try:
        manifest = json.loads(data[head:head + mlen].decode("utf-8"))
        meta = dict(manifest["meta"])
        entries = [(e["name"], int(e["offset"]), int(e["nbytes"]), np.dtype(e["dtype"]),
                    tuple(int(n) for n in e["shape"]), e.get("crc32")) for e in manifest["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: corrupt manifest ({type(exc).__name__}: {exc})") from None
    blob = memoryview(data)[head + mlen:]
    arrays = {}
    for name, start, nbytes, dtype, shape, crc in entries:
        if crc is None:
            raise ValueError(f"{path}: array {name!r} carries no checksum (an older version saved it)")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise ValueError(f"{path}: array {name!r} has {nbytes} bytes, but shape {list(shape)} "
                             f"of {dtype} takes {math.prod(shape) * dtype.itemsize}")
        if len(blob) < start + nbytes:
            raise ValueError(f"{path}: array {name!r} truncated: "
                             f"{max(len(blob) - start, 0)} of {nbytes} bytes")
        if zlib.crc32(blob[start:start + nbytes]) != crc:
            raise ValueError(f"{path}: array {name!r} fails its checksum")
        arrays[name] = np.frombuffer(blob[start:start + nbytes], dtype=dtype).reshape(shape).copy()
    return arrays, meta
