"""The cover search behind exact_unc, against the plain index-order loop
it replaces, and exact_unc against a cover search over every maximal set."""

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import small_connected_corpus

from uncrossed.graphs import make_complete
from uncrossed.oracle import (
    SearchLimits,
    _find_cover,
    exact_unc,
    feasible,
    maximal_feasible_sets,
    verify_certificate,
)


def reference_find_cover(masks: list[int], full: int, k: int) -> list[int] | None:
    """First (in index order) cover of `full` using at most k masks."""
    max_bits = max(bin(m).count("1") for m in masks)

    def dfs(covered: int, chosen: list[int]) -> list[int] | None:
        if covered == full:
            return chosen
        if len(chosen) == k:
            return None
        missing = full & ~covered
        if bin(missing).count("1") > (k - len(chosen)) * max_bits:
            return None
        low = missing & -missing  # branch on the lowest uncovered edge
        for i, mask in enumerate(masks):
            if mask & low:
                got = dfs(covered | mask, chosen + [i])
                if got is not None:
                    return got
        return None

    return dfs(0, [])


@st.composite
def _cover_problems(draw):
    width = draw(st.integers(1, 9))
    full = (1 << width) - 1
    pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=5))
    # drawing from a small pool makes duplicate masks common
    masks = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(0, full)),
                          min_size=1, max_size=14))
    return masks, full, draw(st.integers(0, 5))


@settings(max_examples=400, deadline=None)
@given(problem=_cover_problems())
@example(problem=([0b011, 0b110, 0b111], 0b111, 1))  # k = 1
@example(problem=([0b011, 0b011, 0b110, 0b110], 0b111, 2))  # duplicates
@example(problem=([0b0011, 0b0110, 0b0011], 0b1111, 3))  # bit 3 in no mask
@example(problem=([0b0101, 0b1010], 0b1111, 1))  # a cover exists, but not by one
@example(problem=([0b1], 0, 0))  # nothing to cover
def test_find_cover_matches_loop_search(problem):
    masks, full, k = problem
    # bit i of column j is set when mask i holds bit j
    columns = [sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1)
               for j in range(full.bit_length())]
    assert _find_cover(masks, columns, full, k) == reference_find_cover(masks, full, k)


def reference_exact_unc(g):
    """exact_unc as a cover search over every maximal feasible set, from
    ceil(m / h) up, each picked set drawn on the kernel's first hit."""
    sets = maximal_feasible_sets(g)
    if g.m == 0:
        return 1, [feasible(g, sets[0])]
    index = {e: i for i, e in enumerate(g.edges)}
    masks = [sum(1 << index[e] for e in hedges) for hedges in sets]
    for k in range(-(-g.m // len(sets[0])), len(sets) + 1):
        picked = reference_find_cover(masks, (1 << g.m) - 1, k)
        if picked is not None:
            return k, [feasible(g, sets[i]) for i in picked]
    raise AssertionError("the union of the maximal sets covers E")


def test_exact_unc_matches_full_cover_search():
    # stopping at the first size level that holds a ceil(m/h)-cover gives
    # the same value and the same drawings on every connected graph with
    # n <= 6
    graphs = small_connected_corpus(6)
    assert len(graphs) == 143
    for g in graphs:
        value, cover = exact_unc(g)
        ref_value, ref_cover = reference_exact_unc(g)
        assert value == ref_value, g
        assert [c.to_json_dict() for c in cover] == [c.to_json_dict() for c in ref_cover], g


@pytest.mark.slow
def test_exact_unc_k7_under_raised_budget():
    # no formula covers n = 7 (exact_unc_complete starts at n = 8); a
    # 2-cover fails on all 14,280 maximal sets, so the walk runs to the end
    k7 = make_complete(7)
    value, cover = exact_unc(k7, SearchLimits(max_n=7, max_rotation_budget=10**9))
    assert value == 3 == len(cover)
    assert all(verify_certificate(c) for c in cover)
    assert set().union(*(c.uncrossed for c in cover)) == set(k7.edges)
