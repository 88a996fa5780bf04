"""Build graphs from transaction logs and generate synthetic logs.

Each log record is a source element, a target element, and a count.
The graph built from a log has one node per distinct element and one
edge per distinct ordered pair, weighted by the pair's share of all
transactions, so edge weights sum to 1 up to rounding.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _check_token

_HEADER_FIELDS = ("src", "dst", "count")


class LogFormatError(ValueError):
    """Malformed transaction log content."""


@dataclass(frozen=True)
class TransactionRecord:
    """One logged transaction between two data elements."""

    source: str
    target: str
    count: int = 1

    def __post_init__(self):
        for endpoint in (self.source, self.target):  # they become node ids
            _check_token(endpoint, "element id", LogFormatError)
        if type(self.count) is not int or self.count < 1:
            raise LogFormatError(f"transaction count must be an int >= 1, got {self.count!r}")


def build_from_log(records: Sequence[TransactionRecord]) -> Graph:
    """Graph whose edge weights are normalized transaction frequencies.

    Repeated (source, target) pairs aggregate into one edge. Nodes get
    unit weight; edge weights are pair totals over the grand total and
    sum to 1 up to rounding. Record order never affects the result.
    """
    if not records:
        raise LogFormatError("transaction log is empty")
    pair_counts: dict[tuple[str, str], int] = {}
    nodes: dict[str, None] = {}
    for rec in records:
        nodes.setdefault(rec.source)
        nodes.setdefault(rec.target)
        pair = (rec.source, rec.target)
        pair_counts[pair] = pair_counts.get(pair, 0) + rec.count
    total = sum(pair_counts.values())
    edges = [(src, dst, count / total) for (src, dst), count in pair_counts.items()]
    return Graph(nodes, edges)


def generate_log(node_count: int, transaction_count: int, rng_seed: int = 0) -> list[TransactionRecord]:
    """Uniform random transactions over nodes n1..n<node_count>.

    Endpoints of each record are distinct. Deterministic for a fixed
    ``rng_seed``.
    """
    if node_count < 2:
        raise ValueError(f"node_count must be >= 2, got {node_count}")
    if transaction_count < 1:
        raise ValueError(f"transaction_count must be >= 1, got {transaction_count}")
    rng = np.random.default_rng(rng_seed)
    src = rng.integers(0, node_count, transaction_count)
    offset = rng.integers(1, node_count, transaction_count)
    dst = (src + offset) % node_count
    return [
        TransactionRecord(f"n{a + 1}", f"n{b + 1}")
        for a, b in zip(src.tolist(), dst.tolist())
    ]


def read_log_csv(text: str) -> list[TransactionRecord]:
    """Parse log CSV: ``src,dst[,count]`` per line, blank lines skipped,
    and an optional ``src,dst[,count]`` header as the first non-blank row."""
    records: list[TransactionRecord] = []
    first = True
    for line_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        fields = [f.strip() for f in row]
        is_first, first = first, False
        if is_first and tuple(f.lower() for f in fields) in (_HEADER_FIELDS[:2], _HEADER_FIELDS):
            continue
        if len(fields) not in (2, 3):
            raise LogFormatError(f"line {line_no}: expected src,dst[,count], got {row!r}")
        count = 1
        if len(fields) == 3:
            try:
                count = int(fields[2])
            except ValueError:
                raise LogFormatError(f"line {line_no}: bad count {fields[2]!r}") from None
        try:
            records.append(TransactionRecord(fields[0], fields[1], count))
        except LogFormatError as exc:
            raise LogFormatError(f"line {line_no}: {exc}") from None
    return records


def write_log_csv(records: Iterable[TransactionRecord]) -> str:
    """Render records as log CSV with a header line."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER_FIELDS)
    for rec in records:
        writer.writerow((rec.source, rec.target, rec.count))
    return out.getvalue()
