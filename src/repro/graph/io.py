"""Plain-text persistence for temporal graphs.

The on-disk format is the de-facto standard for public temporal network
datasets (SNAP et al.): one ``src dst timestamp`` triple per line, whitespace
separated, ``#``-prefixed comment lines ignored.  Loading re-indexes node ids
and timestamps to dense 0-based ranges, which is what every public loader for
these datasets does before modelling.
"""

from __future__ import annotations

import os
from decimal import Decimal, InvalidOperation
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from .temporal_graph import TemporalGraph

PathLike = Union[str, "os.PathLike[str]"]


def save_edge_list(graph: TemporalGraph, path: PathLike, header: bool = True) -> None:
    """Write a temporal graph as a ``src dst t`` edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(
                f"# temporal graph: n={graph.num_nodes} m={graph.num_edges} "
                f"T={graph.num_timestamps}\n"
            )
        for s, d, time in zip(graph.src.tolist(), graph.dst.tolist(), graph.t.tolist()):
            handle.write(f"{s} {d} {time}\n")


def load_edge_list(
    path: PathLike,
    num_nodes: Optional[int] = None,
    num_timestamps: Optional[int] = None,
    reindex: bool = True,
) -> TemporalGraph:
    """Read a ``src dst t`` edge list into a :class:`TemporalGraph`.

    Parameters
    ----------
    path:
        File of whitespace-separated triples; ``#`` lines are comments.
    num_nodes, num_timestamps:
        Optional explicit universe sizes (only valid with ``reindex=False``).
    reindex:
        Remap raw node ids to ``0..n-1`` and raw timestamps to dense
        ``0..T-1`` ranks (timestamps keep their order).
    """
    src_raw, dst_raw, t_raw = _read_triples(path)
    if src_raw.size == 0:
        raise GraphFormatError(f"no edges found in {path!s}")
    if reindex:
        node_ids, inverse = np.unique(np.concatenate([src_raw, dst_raw]), return_inverse=True)
        src = inverse[: src_raw.size]
        dst = inverse[src_raw.size :]
        times_unique, t = np.unique(t_raw, return_inverse=True)
        return TemporalGraph(
            node_ids.size, src, dst, t, num_timestamps=times_unique.size, validate=False
        )
    return TemporalGraph(
        num_nodes if num_nodes is not None else int(max(src_raw.max(), dst_raw.max())) + 1,
        src_raw,
        dst_raw,
        t_raw,
        num_timestamps=num_timestamps,
    )


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_int(field: str, where: str) -> int:
    """One edge-list field as an exact int64 value.

    Integer literals parse exactly (ids above ``2**53`` stay distinct);
    decimal or exponent spellings are accepted only when integral
    (``"3.0"``, ``"1e3"``).  Non-finite, fractional, non-numeric or
    out-of-int64 fields raise :class:`GraphFormatError` naming ``where``.
    """
    try:
        value = int(field)
    except ValueError:
        try:
            exact = Decimal(field)
        except InvalidOperation as exc:
            raise GraphFormatError(f"{where}: non-numeric field {field!r}") from exc
        if not exact.is_finite():
            raise GraphFormatError(f"{where}: non-finite field {field!r}") from None
        if exact != exact.to_integral_value():
            raise GraphFormatError(f"{where}: non-integral field {field!r}") from None
        # Bound the exponent before int(): "1e999999999" would otherwise
        # build a billion-digit integer just to reject it.
        value = int(exact) if exact.adjusted() < 19 else _INT64_MAX + 1
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise GraphFormatError(f"{where}: field {field!r} does not fit in int64")
    return value


def _read_triples(path: PathLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    srcs, dsts, ts = [], [], []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("%"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 3:
                raise GraphFormatError(
                    f"{path!s}:{line_no}: expected 'src dst t', got {line!r}"
                )
            where = f"{path!s}:{line_no}"
            srcs.append(_parse_int(parts[0], where))
            dsts.append(_parse_int(parts[1], where))
            ts.append(_parse_int(parts[2], where))
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(ts, dtype=np.int64),
    )
