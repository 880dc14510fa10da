import re

import pytest

from gwfloor.degrees import (
    DegreeSpec, InvalidDegree, end_spec, leak_budget, n_delta, parse_degree,
    white_spec,
)

ALL_FAMILIES = ["p2:3", "p1xp1:2,3", "bl1:4,2", "bl2:4,2,1", "bl3:4,1,1,2"]
FORCED_BUDGETS = ["bl1:3,3", "bl3:2,1,1,1", "bl3:4,2,2,2", "bl3:4,1,1,3"]


def test_parse_grammar():
    assert parse_degree("p2:3") == DegreeSpec("p2", (3,))
    assert parse_degree("p1xp1:2,3") == DegreeSpec("p1xp1", (2, 3))
    assert parse_degree("bl3:3,1,1,1") == DegreeSpec("bl3", (3, 1, 1, 1))


@pytest.mark.parametrize("bad", [
    "p3:1", "p2:", "p2:0", "p1xp1:2", "bl1:2,3", "bl2:4,1,2", "bl2:3,2,2",
    "bl3:3,1,2,1", "bl3:4,2,1,3", "nonsense", "bl1:3,4", "bl2:4,3,2", "bl3:4,2,2,3",
    "bl3:3,2,2,2", "p1xp1:0,1", "bl1:3,0",
    # ASCII digits only, though int() takes each of these
    "p2:0_4", "p2:+3", "p2:٣", "p1xp1:2,+3", "p2: 3",
    # n does not fit an index
    "p2:" + "9" * 29,
])
def test_invalid_rejected(bad):
    with pytest.raises(InvalidDegree):
        parse_degree(bad)


@pytest.mark.parametrize("bad,condition", [
    ("bl1:3,4", "bl1 needs a1 <= d"),
    ("bl2:4,1,2", "bl2 needs a1 >= a2"),
    ("bl2:4,3,2", "bl2 needs a1 + a2 <= d"),
    ("bl3:4,2,1,3", "bl3 needs a1 + a3 <= d"),
    ("bl3:4,2,2,3", "bl3 needs a1 + a3 <= d"),
    ("p1xp1:2", "p1xp1 takes (a1, a2)"),
    ("bl3:4,1,1", "bl3 takes (d, a1, a2, a3)"),
])
def test_invalid_names_family_and_condition(bad, condition):
    with pytest.raises(InvalidDegree, match=re.escape(condition)):
        parse_degree(bad)


@pytest.mark.parametrize("family,params", [
    ("p2", [3]), ("p1xp1", [2, 2]), ("p2", 3), ("p2", "3"), ("p2", ("3",)),
    ("p2", (3.0,)), ("p2", (True,)), ("p1xp1", (2, None)),
])
def test_params_not_a_tuple_of_ints_rejected(family, params):
    # refused when built, not as a TypeError there or in a later cache
    with pytest.raises(InvalidDegree, match="must be a tuple of ints"):
        DegreeSpec(family, params)
    with pytest.raises(InvalidDegree, match="must be a tuple of ints"):
        DegreeSpec("p2", (3,))._replace(family=family, params=params)


def test_n_delta_values():
    assert n_delta(parse_degree("p2:3")) == 8
    assert n_delta(parse_degree("p1xp1:2,3")) == 9
    assert n_delta(parse_degree("bl3:3,1,1,1")) == 5
    assert n_delta(parse_degree("p2:4")) == 11
    assert n_delta(parse_degree("bl2:4,2,1")) == 8
    assert n_delta(parse_degree("bl1:3,3")) == 5
    assert n_delta(parse_degree("bl3:2,1,1,1")) == 2
    assert n_delta(parse_degree("bl3:4,2,2,2")) == 5
    assert n_delta(parse_degree("bl3:4,1,1,3")) == 6


def test_white_spec_values():
    assert white_spec(parse_degree("p2:3")) == (3, (1, 1, 1))
    assert white_spec(parse_degree("p1xp1:2,3")) == (2, (0, 0))
    assert white_spec(parse_degree("bl3:3,1,1,1")) == (2, (-1, 1))
    assert white_spec(parse_degree("bl1:4,2")) == (4, (0, 0, 1, 1))
    assert white_spec(parse_degree("bl2:4,2,1")) == (4, (-1, 0, 1, 1))
    # budgets that force a leak (or its absence) on every floor
    assert white_spec(parse_degree("bl1:3,3")) == (3, (0, 0, 0))
    assert white_spec(parse_degree("bl3:2,1,1,1")) == (1, (-1,))
    assert white_spec(parse_degree("bl3:4,2,2,2")) == (2, (-1, -1))
    assert white_spec(parse_degree("bl3:4,1,1,3")) == (1, (-1,))


def test_end_spec_values():
    assert end_spec(parse_degree("p2:4")) == (4, 0)
    assert end_spec(parse_degree("p1xp1:2,3")) == (3, 3)
    assert end_spec(parse_degree("bl3:4,1,1,2")) == (2, 2)
    assert end_spec(parse_degree("bl2:4,2,2")) == (0, 0)
    assert end_spec(parse_degree("bl1:3,3")) == (0, 0)
    assert end_spec(parse_degree("bl3:2,1,1,1")) == (0, 1)
    assert end_spec(parse_degree("bl3:4,2,2,2")) == (0, 2)
    assert end_spec(parse_degree("bl3:4,1,1,3")) == (2, 3)


@pytest.mark.parametrize("spec_str", ALL_FAMILIES + FORCED_BUDGETS + ["p2:1"])
def test_tree_euler_count(spec_str):
    # blacks = (whites - 1) splices + one per end
    spec = parse_degree(spec_str)
    whites, leaks = white_spec(spec)
    inc, out = end_spec(spec)
    assert len(leaks) == whites
    assert n_delta(spec) - whites == (whites - 1) + inc + out


@pytest.mark.parametrize("spec_str", ALL_FAMILIES + FORCED_BUDGETS)
def test_leak_budget_matches_multiset(spec_str):
    spec = parse_degree(spec_str)
    _, leaks = white_spec(spec)
    assert leak_budget(spec) == (leaks.count(-1), leaks.count(1))
