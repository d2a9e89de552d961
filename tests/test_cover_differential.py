"""The set-cover search with its data reduction against the plain backtracker.

`exact._can_cover` first cuts the masks down to the bits left to cover and
drops empty, duplicate and contained masks.  Its reference is the search as
it was before that reduction: the same most-constrained-bit backtracking
over every mask of masks[first:].  Both must give the same answer for any
masks within `full`, `covered`, `first` and slot count.  (That `_first_cover`
still returns the first covering combination in lexicographic order is
checked in test_exact.py.)
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from revgreedy import cli, exact
from revgreedy.exact import OracleCapError, _BudgetExhausted, _can_cover, exact_opt
from revgreedy.metric import random_metric

COMMON = dict(deadline=None, derandomize=True)


def can_cover_unreduced(masks, full, slots, covered=0, first=0):
    """Backtracking on the uncovered bit with the fewest candidate masks,
    over every mask of masks[first:] as given."""
    candidates = range(first, len(masks))
    coverers = {}
    rest = full & ~covered
    while rest:
        bit = rest & -rest
        coverers[bit] = [c for c in candidates if masks[c] & bit]
        rest ^= bit

    def search(covered, slots):
        if covered == full:
            return True
        if slots == 0:
            return False
        best = None
        for bit, options in coverers.items():
            if not covered & bit and (best is None or len(options) < len(best)):
                best = options
                if not options:
                    return False
        return any(search(covered | masks[c], slots - 1) for c in best)

    return search(covered, slots)


@st.composite
def mask_sets(draw):
    """Random masks within `full`, with duplicates and nested masks likely.
    (The unreduced search needs masks and `covered` inside `full`; every
    caller passes such.)"""
    full = (1 << draw(st.integers(1, 12))) - 1
    bits = st.integers(0, full)
    pool = draw(st.lists(bits, min_size=1, max_size=6))
    masks = []
    for _ in range(draw(st.integers(0, 14))):
        base = draw(st.sampled_from(pool))
        # Subsets of pool masks: nested and duplicate masks.
        masks.append(base & draw(bits) if draw(st.booleans()) else base)
    covered = draw(bits) if draw(st.booleans()) else 0
    first = draw(st.integers(0, len(masks)))
    slots = draw(st.integers(0, 5))
    return masks, full, slots, covered, first


@settings(max_examples=600, **COMMON)
@given(case=mask_sets())
@example(case=([], 1, 1, 0, 0))
@example(case=([0, 0], 3, 2, 0, 0))
@example(case=([3, 3, 1, 2], 3, 1, 0, 1))
@example(case=([1, 2, 4], 7, 2, 1, 0))
@example(case=([1, 2], 3, 0, 3, 0))
@example(case=([], 1, 1, 1, 0))
def test_reduced_search_answers_like_the_unreduced_one(case):
    masks, full, slots, covered, first = case
    assert (_can_cover(masks, full, slots, covered, first)
            == can_cover_unreduced(masks, full, slots, covered, first))


def test_budget_counts_branching_nodes_of_the_reduced_search():
    full = (1 << 6) - 1
    # Every mask but the last lies inside it, so the reduced search keeps
    # one mask and branches once; the masks as given would branch twice.
    assert _can_cover([1 << b for b in range(6)] + [full], full, 2, budget=1)
    # 0b100 lies inside 0b1111: kept, it would cost the search a third node.
    assert _can_cover([0b111000, 0b101011, 0b1111, 0b100], full, 3, budget=2)
    with pytest.raises(_BudgetExhausted):
        _can_cover([1 << b for b in range(6)], full, 6, budget=1)


def test_oracle_budget_exhausted_raises_cap_error(monkeypatch):
    m = random_metric("random-graph", 32, 1)
    unlimited = exact_opt(m, 5, cap=40)
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    with pytest.raises(OracleCapError, match="more than 1 backtrack nodes"):
        exact_opt(m, 5, cap=40)
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 10**9)
    assert exact_opt(m, 5, cap=40) == unlimited


def test_oracle_budget_refusal_is_incomplete_in_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", 1)
    assert cli.main(["verify", "upper", "--n", "32", "--k", "5", "--trials", "1",
                     "--exact-cap", "40"]) == 3
    assert "more than 1 backtrack nodes" in capsys.readouterr().err
    inst = tmp_path / "rand.json"
    assert cli.main(["gen", "random", "--kind", "random-graph", "--n", "32",
                     "--seed", "1", "--k", "5", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--instance", str(inst), "--exact-cap", "40"]) == 0
    out = capsys.readouterr().out
    assert "ratio omitted" in out and "more than 1 backtrack nodes" in out
