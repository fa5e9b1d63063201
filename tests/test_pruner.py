"""Top-N pruning tests."""

import pytest
from hypothesis import given, strategies as st

from tweetpipe.analyzer import AnalysisRow
from tweetpipe.cli import build_parser
from tweetpipe.pruner import DEFAULT_LIMIT, ORDER_COUNT_DESC, ORDER_KEY_ASC, prune


def rows_of(*pairs):
    return [AnalysisRow(key, count) for key, count in pairs]


def test_keeps_top_n_by_count():
    rows = rows_of(("a", 5), ("b", 9), ("c", 1))
    assert prune(rows, 2, ORDER_COUNT_DESC) == rows_of(("b", 9), ("a", 5))


def test_count_ties_break_by_key():
    rows = rows_of(("z", 3), ("a", 3), ("m", 3))
    assert prune(rows, 2, ORDER_COUNT_DESC) == rows_of(("a", 3), ("m", 3))


def test_limit_larger_than_input_keeps_everything():
    rows = rows_of(("a", 1), ("b", 2))
    assert prune(rows, 50, ORDER_COUNT_DESC) == rows_of(("b", 2), ("a", 1))


def test_empty_input():
    assert prune([], 10, ORDER_COUNT_DESC) == []


def test_key_ascending_order():
    rows = rows_of(("b", 1), ("a", 9), ("c", 5))
    assert prune(rows, 2, ORDER_KEY_ASC) == rows_of(("a", 9), ("b", 1))


def test_default_limit():
    parser = build_parser()
    prune_args = parser.parse_args(["prune", "--in", "a.csv", "--out", "b.csv"])
    assert (prune_args.limit, prune_args.order) == (DEFAULT_LIMIT, ORDER_COUNT_DESC)
    assert parser.parse_args(["pipeline"]).limit == DEFAULT_LIMIT


def test_config_validation():
    with pytest.raises(ValueError, match="^limit must be at least 1$"):
        prune([], 0, ORDER_COUNT_DESC)
    with pytest.raises(ValueError):
        prune([], 1, "sideways")


row_lists = st.lists(
    st.tuples(st.text(min_size=1, max_size=8), st.integers(0, 10_000)).map(
        lambda kv: AnalysisRow(*kv)
    ),
    max_size=40,
)
limits = st.integers(1, 30)
orders = st.sampled_from([ORDER_COUNT_DESC, ORDER_KEY_ASC])


@given(rows=row_lists, limit=limits, order=orders)
def test_prune_is_idempotent(rows, limit, order):
    once = prune(rows, limit, order)
    assert prune(once, limit, order) == once


@given(rows=row_lists, limit=limits, order=orders)
def test_prune_output_is_a_bounded_subset(rows, limit, order):
    pruned = prune(rows, limit, order)
    assert len(pruned) <= limit
    pool = list(rows)
    for row in pruned:  # multiset containment
        pool.remove(row)


@given(rows=row_lists, limit=limits, order=orders)
def test_prune_output_is_sorted(rows, limit, order):
    pruned = prune(rows, limit, order)
    for a, b in zip(pruned, pruned[1:]):
        if order == ORDER_COUNT_DESC:
            assert (-a.count, a.key) <= (-b.count, b.key)
        else:
            assert (a.key, -a.count) <= (b.key, -b.count)
