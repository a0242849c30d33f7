"""Policy archive files.

One JSON record per line per policy: the flattening layout, the raw
little-endian float64 parameter bytes (base64), and free-form metadata
(preference weight, pipeline stage, returns). The container is
self-describing and round-trips bit-exactly. A reader decodes the
parameter bytes of only the records it asks for, and parses the others
without their payload.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Container, Iterable

import numpy as np

from .policy import ParameterVector, ParamLayout, policy_layout

FORMAT_TAG = "morlext-policy-archive-v1"


@dataclass
class ArchiveRecord:
    theta: ParameterVector | None  # None when loaded without its parameters
    meta: dict[str, Any] = field(default_factory=dict)


def _encode(record: ArchiveRecord) -> str:
    data = np.ascontiguousarray(record.theta.data, dtype="<f8")
    return json.dumps(
        {
            "format": FORMAT_TAG,
            "layout": [[key, list(shape)] for key, shape in record.theta.layout.entries],
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
            "meta": record.meta,
        }
    )


# A record's top-level payload key as `_encode` writes it.
_DATA_KEY = '"data": "'


def _parse_without_data(line: str) -> dict:
    """The record with its top-level "data" string emptied, parsed without
    scanning the payload.

    The cut runs from the first "data" key's opening quote to the next
    quote. It is made only when one "{" precedes the key, so that the key
    belongs to the top-level object, and when no backslash precedes that
    quote, so that the quote ends the string. Otherwise, or when the
    shortened line fails to parse, the whole line is parsed. What the cut
    leaves unchecked is the payload's characters: a raw control character
    in an undecoded payload, which a whole-line parse rejects, is
    accepted, as a payload that is not base64 always was.
    """
    key = line.find(_DATA_KEY)
    if key > 0 and line.count("{", 0, key) == 1:
        start = key + len(_DATA_KEY)
        end = line.find('"', start)
        if end > 0 and line.find("\\", start, end) < 0:
            try:
                return json.loads((line[:start] + line[end:]).strip())
            except ValueError:
                pass
    return json.loads(line.strip())


def _decode(obj: Any, with_theta: bool) -> ArchiveRecord:
    if not isinstance(obj, dict):
        raise ValueError("not a policy archive record (not a JSON object)")
    if obj.get("format") != FORMAT_TAG:
        raise ValueError(f"not a policy archive record (format={obj.get('format')!r})")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("policy archive record's meta is not a JSON object")
    if not with_theta:
        return ArchiveRecord(theta=None, meta=meta)
    try:
        layout = _actor_critic_layout(tuple((key, tuple(shape)) for key, shape in obj["layout"]))
        raw = base64.b64decode(obj["data"])
        data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        theta = ParameterVector(data, layout)
    except (KeyError, TypeError) as err:
        raise ValueError(f"policy archive record with a missing or malformed layout or data: {err}") from None
    return ArchiveRecord(theta=theta, meta=meta)


def _actor_critic_layout(entries: tuple) -> ParamLayout:
    """The layout that `entries` read from a record describe, accepted only
    if it is the `policy_layout` of its own weight shapes, whose sizes
    must be integers."""
    try:
        sizes = []
        for net in ("actor", "critic"):
            shapes = [shape for key, shape in entries if key.startswith(f"{net}.W")]
            sizes.append((shapes[0][0], *(shape[1] for shape in shapes)))
        layout = policy_layout(*sizes)
    except (IndexError, TypeError, ValueError):
        layout = None
    if layout is None or layout.entries != entries:
        raise ValueError("policy archive record's layout is not an actor-critic layout")
    return layout


def save_archive(path: str | Path, records: Iterable[ArchiveRecord]) -> None:
    """Write the records in order, encoding each as it is drawn."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for record in records:
            fh.write(_encode(record) + "\n")


def load_archive(path: str | Path, entries: Container[int] | None = None) -> list[ArchiveRecord]:
    """Every record in order; only those whose index is in `entries` (all
    when None) get their parameter bytes decoded, the others a None theta
    and a parse that skips the payload."""
    records = []
    with open(path) as fh:
        for line in fh:
            if line.isspace():
                continue
            with_theta = entries is None or len(records) in entries
            obj = json.loads(line.strip()) if with_theta else _parse_without_data(line)
            records.append(_decode(obj, with_theta))
    return records
