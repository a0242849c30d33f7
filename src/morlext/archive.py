"""Policy archive files.

One JSON record per line per policy: the flattening layout, the raw
little-endian float64 parameter bytes (base64), and free-form metadata
(preference weight, pipeline stage, returns). The container is
self-describing and round-trips bit-exactly. A reader decodes the
parameter bytes of only the records it asks for.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Container, Iterable

import numpy as np

from .policy import ParameterVector, ParamLayout

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


def _decode(line: str, with_theta: bool) -> ArchiveRecord:
    obj = json.loads(line)
    if obj.get("format") != FORMAT_TAG:
        raise ValueError(f"not a policy archive record (format={obj.get('format')!r})")
    if not with_theta:
        return ArchiveRecord(theta=None, meta=obj.get("meta", {}))
    layout = ParamLayout(tuple((key, tuple(shape)) for key, shape in obj["layout"]))
    raw = base64.b64decode(obj["data"])
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return ArchiveRecord(theta=ParameterVector(data, layout), meta=obj.get("meta", {}))


def save_archive(path: str | Path, records: Iterable[ArchiveRecord]) -> None:
    """Write the records in order, encoding each as it is drawn."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for record in records:
            fh.write(_encode(record) + "\n")


def load_archive(path: str | Path, entries: Container[int] | None = None) -> list[ArchiveRecord]:
    """Every record in order; only those whose index is in `entries` (all
    when None) get their parameter bytes decoded, the others a None theta."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(_decode(line, entries is None or len(records) in entries))
    return records
