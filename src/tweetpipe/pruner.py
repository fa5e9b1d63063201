"""Reduce analysis CSVs to their most relevant entries.

Relevance is the row count, the only signal present; pruning is sorting
plus truncation, and is idempotent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .analyzer import AnalysisRow

ORDER_COUNT_DESC = "count_desc"
ORDER_KEY_ASC = "key_asc"


def by_count(row: AnalysisRow) -> tuple[int, str]:
    """Sort key: descending count, ties broken by ascending key."""
    return (-row.count, row.key)


# Each order's name and its sort key.
ORDERS = {
    ORDER_COUNT_DESC: by_count,
    ORDER_KEY_ASC: lambda row: (row.key, -row.count),
}

DEFAULT_LIMIT = 100


def check_limit(limit: int) -> None:
    """Raise ValueError for a prune limit below 1."""
    if limit < 1:
        raise ValueError("limit must be at least 1")


def prune(rows, limit: int, order: str) -> list[AnalysisRow]:
    """Top rows in the named order, at most limit of them.

    count_desc sorts by descending count with ties broken by ascending
    key; key_asc sorts by key, then descending count. Both are total
    orders over distinct rows, so the result is deterministic and pruning
    twice changes nothing. Raises ValueError for a limit below 1 or an
    unknown order.
    """
    check_limit(limit)
    if order not in ORDERS:
        raise ValueError(f"order must be one of {tuple(ORDERS)}")
    return sorted(rows, key=ORDERS[order])[:limit]
