"""Disk cache for structure constants and block idempotents.

One JSON file per (group fingerprint, p, d, cache version), carrying the
class-sum structure constants, class sizes, and block coordinates, plus a
sha256 checksum of the canonicalized payload.  A checksum or version mismatch
is treated as a miss, so a stale or corrupted file can only cost a
recomputation, never change a verdict.  Writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

CACHE_VERSION = 1


def group_fingerprint(G):
    h = hashlib.sha256()
    h.update(str(G.degree).encode())
    for x in G.elements:
        h.update(bytes(x))
    return h.hexdigest()


def cache_key(G, F):
    return f"{group_fingerprint(G)[:24]}_p{F.p}_d{F.d}_v{CACHE_VERSION}"


def _checksum(payload):
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load(cache_dir, key):
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("version") != CACHE_VERSION or doc.get("key") != key:
        return None
    payload = doc.get("payload")
    if payload is None or doc.get("sha256") != _checksum(payload):
        return None
    return payload


def store(cache_dir, key, payload):
    os.makedirs(cache_dir, exist_ok=True)
    doc = {"version": CACHE_VERSION, "key": key, "payload": payload,
           "sha256": _checksum(payload)}
    path = os.path.join(cache_dir, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def class_algebra_and_blocks(G, F, cache_dir=None):
    """Structure constants and blocks, through the cache when a dir is given."""
    from .blocks import blocks, class_sum_algebra

    if cache_dir is None:
        A = class_sum_algebra(G, F)
        return A, blocks(G, F, algebra=A)
    key = cache_key(G, F)
    payload = load(cache_dir, key)
    if payload is not None:
        try:
            A = class_sum_algebra(G, F, cached=payload)
        except (ValueError, KeyError):
            payload = None  # malformed payload: fall through to recompute
        else:
            coords = [tuple(F.decode(c) for c in u) for u in payload["blocks"]]
            return A, blocks(G, F, algebra=A, coords=coords)
    A = class_sum_algebra(G, F)
    out = blocks(G, F, algebra=A)
    payload = {
        "const": [[[F.encode(v) for v in row] for row in plane]
                  for plane in A.const],
        "class_reps": [list(c.representative) for c in A.classes],
        "class_sizes": [len(c.members) for c in A.classes],
        "blocks": [[F.encode(c) for c in b.coords] for b in out],
    }
    store(cache_dir, key, payload)
    return A, out
