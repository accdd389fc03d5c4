"""Output fingerprints and the comparison that gates every op.

An op's outputs (its stdout and each `--out` file) are reduced to a
fingerprint that can be stored per seed:

* exact leaves -- strings, integers, booleans, the CSV header and shape --
  are kept verbatim (or as a SHA-256 when there are many of them) and
  must match exactly.  Exact rationals such as `sigma_exact` and `avg`
  are strings, and verdicts are strings or booleans, so they fall here;
* float leaves are grouped by their JSON path with list indices folded to
  `#` (a CSV body is one group).  A group of at most SMALL values is kept
  whole; a larger group keeps its length, CHUNKS chunk sums of the values
  and of their absolute values, and CHUNKS evenly spaced samples.

Floats compare at |a - b| <= RTOL |b| + RTOL * scale, where scale is the
largest magnitude in the reference group.  That admits a reordered
summation (errors near 1e-15 of scale) and rejects any change in value a
reader of the report could see.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

RTOL = 1e-9
SMALL = 64
CHUNKS = 16


def _leaves(obj, path, exact, floats):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _leaves(obj[key], f"{path}.{key}", exact, floats)
    elif isinstance(obj, list):
        exact.append([f"{path}.len", len(obj)])
        for i, item in enumerate(obj):
            _leaves(item, f"{path}.{i}", exact, floats)
    elif isinstance(obj, float):
        group = ".".join("#" if part.isdigit() else part for part in path.split("."))
        floats.setdefault(group, []).append(obj)
    else:
        exact.append([path, obj])


def _digest(values) -> dict:
    v = np.asarray(values, dtype=float)
    if v.size <= SMALL:
        return {"values": v.tolist()}
    idx = np.linspace(0, v.size - 1, CHUNKS).astype(int)
    return {
        "n": int(v.size),
        "max_abs": float(np.abs(v).max()),
        "chunk_sums": [float(c.sum()) for c in np.array_split(v, CHUNKS)],
        "chunk_abs": [float(np.abs(c).sum()) for c in np.array_split(v, CHUNKS)],
        "samples": v[idx].tolist(),
    }


def _exact_field(pairs: list) -> object:
    if len(pairs) <= SMALL:
        return pairs
    text = json.dumps(pairs, sort_keys=True)
    return {"n": len(pairs), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def fingerprint(text: str) -> dict:
    """Fingerprint of one output: empty, a grid CSV, or a JSON report."""
    if text == "":
        return {"exact": [["text", ""]], "floats": {}}
    if text.startswith("# resolution="):
        header, _, body = text.partition("\n")
        rows = [line for line in body.split("\n") if line]
        widths = sorted({line.count(",") + 1 for line in rows})
        values = np.array(",".join(rows).split(","), dtype=float)
        return {"exact": [["header", header], ["rows", len(rows)], ["widths", widths]],
                "floats": {"values": _digest(values)}}
    exact, floats = [], {}
    _leaves(json.loads(text), "", exact, floats)
    return {"exact": _exact_field(exact),
            "floats": {g: _digest(v) for g, v in floats.items()}}


def _close(a: float, b: float, scale: float) -> bool:
    # written so that NaN on either side fails
    return abs(a - b) <= RTOL * abs(b) + RTOL * scale


def _compare_digest(group: str, got: dict, ref: dict) -> list[str]:
    if (got.keys() != ref.keys() or got.get("n") != ref.get("n")
            or len(got.get("values", ())) != len(ref.get("values", ()))):
        return [f"{group}: number of values differs from the reference"]
    if "values" in ref:
        scale = max((abs(x) for x in ref["values"]), default=0.0)
        fields = {"values": scale}
    else:
        scale = ref["max_abs"]
        fields = {"max_abs": scale, "chunk_sums": max(ref["chunk_abs"]),
                  "chunk_abs": max(ref["chunk_abs"]), "samples": scale}
    errors = []
    for name, fscale in fields.items():
        g, r = got[name], ref[name]
        pairs = zip(g, r) if isinstance(r, list) else [(g, r)]
        for i, (a, b) in enumerate(pairs):
            if not _close(a, b, fscale):
                errors.append(f"{group}.{name}[{i}]: {a!r} != {b!r}")
                break
    return errors


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches between two fingerprints; empty when they agree."""
    if got["exact"] != ref["exact"]:
        if isinstance(ref["exact"], list) and isinstance(got["exact"], list):
            diff = [(g, r) for g, r in zip(got["exact"], ref["exact"]) if g != r]
            first = diff[0] if diff else (len(got["exact"]), len(ref["exact"]))
            return [f"exact fields differ: got/expected {first}"]
        return ["exact fields differ"]
    if got["floats"].keys() != ref["floats"].keys():
        return [f"float groups {sorted(got['floats'])} != {sorted(ref['floats'])}"]
    errors = []
    for group, digest in ref["floats"].items():
        errors += _compare_digest(group, got["floats"][group], digest)
    return errors
