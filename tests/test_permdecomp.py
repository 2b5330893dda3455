import itertools
import random

import pytest

from quasigray.core import Domain, Tape, measure_counter
from quasigray.core import dat_read_complexity, dat_write_complexity
from quasigray.permdecomp import (DecompositionPlan, RFunction, build_plan,
                                  cycle_isolation_check, decompose_boundary,
                                  decompose_indicator, make_alpha, min_width,
                                  odd_counter, plan_size, rfunction_to_dat)


def test_rfunction_validation():
    with pytest.raises(ValueError):
        RFunction(3, 4, (0, 0), 1, {})  # duplicate source
    with pytest.raises(ValueError):
        RFunction(3, 4, (0,), 0, {})  # target among sources
    with pytest.raises(ValueError):
        RFunction(3, 4, (0,), 4, {})  # out of range
    with pytest.raises(ValueError):
        RFunction(3, 4, (0,), 1, {(0, 1): 1})  # key arity
    with pytest.raises(ValueError):
        RFunction(3, 4, (0,), 1, {(3,): 1})  # key value range


def test_rfunction_drops_zero_entries():
    f = RFunction(3, 4, (0,), 1, {(0,): 3, (1,): 2})
    assert f.table == {(1,): 2}
    assert f.value((0,)) == 0 and f.value((1,)) == 2


def test_rfunction_apply_and_inverse():
    f = RFunction.indicator(3, 4, (0, 1), 2, (0, 0), 1)
    assert f.apply((0, 0, 1, 0)) == (0, 0, 2, 0)
    assert f.apply((1, 0, 1, 0)) == (1, 0, 1, 0)
    g = f.inverse()
    for w in itertools.product(range(3), repeat=4):
        assert g.apply(f.apply(w)) == w


def test_rfunction_tape_costs():
    f = RFunction.indicator(3, 4, (0, 1), 2, (0, 0), 1)
    t = Tape((1, 0, 1, 0))
    f.apply_tape(t)
    # reads both sources plus the target, writes the target even on a miss
    assert (len(t.reads), t.writes) == (3, 1)
    assert t.word() == (1, 0, 1, 0)


def test_rfunction_product():
    f = RFunction.product(5, 3, 0, 1, 2)
    assert f.apply((2, 3, 0)) == (2, 3, 1)  # 2*3 mod 5
    assert f.apply((2, 0, 4)) == (2, 0, 4)


def test_make_alpha():
    a1 = make_alpha(1, 3, 4)
    assert a1.sources == () and a1.target == 0
    assert a1.apply((2, 1, 0, 0)) == (0, 1, 0, 0)
    a3 = make_alpha(3, 3, 4)
    assert a3.apply((0, 0, 1, 2)) == (0, 0, 2, 2)
    assert a3.apply((1, 0, 1, 2)) == (1, 0, 1, 2)
    with pytest.raises(ValueError):
        make_alpha(5, 3, 4)


def _apply_list(fs, w):
    for f in fs:
        w = f.apply(w)
    return w


@pytest.mark.parametrize("m,n", [(3, 2), (3, 4), (5, 3), (7, 2), (3, 6)])
def test_alpha_composition_is_full_cycle(m, n):
    alphas = [make_alpha(i, m, n) for i in range(1, n + 1)]
    w = (0,) * n
    seen = {w}
    for _ in range(m ** n - 1):
        w = _apply_list(alphas, w)
        assert w not in seen
        seen.add(w)
    assert _apply_list(alphas, w) == (0,) * n


def test_rfunction_to_dat():
    f = make_alpha(3, 3, 4)
    tree = rfunction_to_dat(f)
    assert dat_read_complexity(tree) == 3
    assert dat_write_complexity(tree) == 1


def _perm_of(fs, m, n):
    """Whole-domain permutation table of a function list."""
    return {w: _apply_list(fs, w) for w in itertools.product(range(m), repeat=n)}


@pytest.mark.parametrize("m,r,n", [(3, 3, 7), (3, 4, 8), (5, 3, 7)])
def test_decompose_indicator_equality(m, r, n):
    f = RFunction.indicator(m, n, tuple(range(r)), r, (0,) * r, 1)
    fs = decompose_indicator(f)
    assert all(g.is_two_function for g in fs)
    assert len(fs) <= 4 * r * r - 3
    assert _perm_of(fs, m, n) == _perm_of([f], m, n)


def test_decompose_indicator_frozen_sizes():
    f3 = RFunction.indicator(3, 7, (0, 1, 2), 3, (0, 0, 0), 1)
    f4 = RFunction.indicator(3, 8, (0, 1, 2, 3), 4, (0, 0, 0, 0), 1)
    assert len(decompose_indicator(f3)) == 8
    assert len(decompose_indicator(f4)) == 8
    f7 = RFunction.indicator(3, 11, tuple(range(7)), 7, (0,) * 7, 1)
    assert len(decompose_indicator(f7)) == 4 + 2 * 8 + 2 * 8


def test_decompose_indicator_passthrough_and_errors():
    small = RFunction.indicator(3, 5, (0, 1), 2, (0, 0), 1)
    assert decompose_indicator(small) == [small]
    with pytest.raises(ValueError):
        # two-point table is not a scaled indicator
        decompose_indicator(RFunction(3, 9, (0, 1, 2), 3,
                                      {(0, 0, 0): 1, (1, 1, 1): 1}))
    with pytest.raises(ValueError):
        # width 5 leaves a single spare cell, one short of the two needed
        decompose_indicator(RFunction.indicator(3, 5, (0, 1, 2), 3,
                                                (0, 0, 0), 1))


def test_decompose_indicator_of_an_empty_table():
    # a zero increment needs no scratch cells: one function of no sources
    (g,) = decompose_indicator(RFunction(3, 5, (0, 1, 2), 3, {}))
    assert (g.m, g.n, g.sources, g.target, g.table) == (3, 5, (), 3, {})


def test_cycle_isolation_identity():
    sigma = {0: 1, 1: 2, 2: 0}
    tau = {0: 3, 3: 4, 4: 0}
    assert cycle_isolation_check(sigma, tau, 3)


def test_cycle_isolation_random_cycles():
    rng = random.Random(7)
    for ell in (3, 5, 7):
        for _ in range(10):
            pts = list(range(1, 2 * ell))
            rng.shuffle(pts)
            a = [0] + pts[:ell - 1]
            b = [0] + pts[ell - 1:2 * ell - 2]
            sigma = {a[i]: a[(i + 1) % ell] for i in range(ell)}
            tau = {b[i]: b[(i + 1) % ell] for i in range(ell)}
            assert cycle_isolation_check(sigma, tau, ell)


def test_cycle_isolation_preconditions():
    sigma = {0: 1, 1: 2, 2: 0}
    with pytest.raises(ValueError):
        cycle_isolation_check(sigma, {3: 4, 4: 3}, 3)  # wrong cycle length
    with pytest.raises(ValueError):
        cycle_isolation_check(sigma, {3: 4, 4: 5, 5: 3}, 3)  # disjoint
    with pytest.raises(ValueError):
        cycle_isolation_check(sigma, {0: 1, 1: 3, 3: 0}, 3)  # two shared


def test_cycle_isolation_rejects_split_and_non_permutations():
    split = {0: 1, 1: 0, 2: 3, 3: 4, 4: 2}  # a 2-cycle and a 3-cycle
    five = {0: 5, 5: 6, 6: 7, 7: 8, 8: 0}
    assert cycle_isolation_check(five, {0: 9, 9: 10, 10: 11, 11: 12, 12: 0}, 5)
    with pytest.raises(ValueError, match="single 5-cycle"):
        cycle_isolation_check(split, five, 5)
    with pytest.raises(ValueError, match="single 5-cycle"):
        cycle_isolation_check(five, split, 5)
    with pytest.raises(ValueError, match="not a permutation of its support"):
        cycle_isolation_check({0: 1, 1: 2}, {0: 3, 3: 0}, 2)


@pytest.mark.parametrize("m,i,size", [(3, 5, 54), (3, 6, 96),
                                      (5, 5, 90), (5, 6, 160)])
def test_decompose_boundary_sizes(m, i, size):
    fs = decompose_boundary(i, m, 6)
    assert len(fs) == size
    assert all(g.is_two_function for g in fs)


@pytest.mark.parametrize("m,i", [(3, 5), (3, 6)])
def test_decompose_boundary_equality(m, i):
    fs = decompose_boundary(i, m, 6)
    direct = make_alpha(i, m, 6)
    assert _perm_of(fs, m, 6) == _perm_of([direct], m, 6)


def test_decompose_boundary_errors():
    with pytest.raises(ValueError):
        decompose_boundary(5, 4, 6)  # even radix
    with pytest.raises(ValueError):
        decompose_boundary(5, 3, 5)  # too narrow
    with pytest.raises(ValueError):
        decompose_boundary(3, 3, 6)  # not a boundary index


def test_build_plan_counts():
    plan = build_plan(3, 6)
    assert plan.counts == [1, 1, 1, 8, 54, 96]
    assert plan.k == 161 == plan_size(3, 6)
    assert all(f.is_two_function for f in plan.steps)


def test_plan_advances_by_one():
    plan = build_plan(3, 6)
    w = (0, 1, 2, 0, 1, 2)
    alphas = [make_alpha(i, 3, 6) for i in range(1, 7)]
    assert _apply_list(plan.steps, w) == _apply_list(alphas, w)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_plan_size_growth(m):
    assert plan_size(m, 6) < plan_size(m, 7) < plan_size(m, 12)
    with pytest.raises(ValueError):
        plan_size(m, 5)
    with pytest.raises(ValueError):
        plan_size(4, 8)


def test_min_width_frozen():
    assert min_width(3) == 11
    assert min_width(5) == 10
    # the widths the README lists for the odd counter
    want = {7: 10, **{m: 9 for m in range(9, 50, 2)},
            **{m: 8 for m in range(51, 102, 2)}}
    assert {m: min_width(m) for m in want} == want


def test_odd_counter_full_domain():
    c = odd_counter(3, 11)
    assert c.recipe["pointer"] == 5
    assert c.claimed_length == 3 ** 11
    rep = measure_counter(c)
    assert rep.closed and rep.distinct
    assert rep.observed_length == 3 ** 11
    assert rep.max_reads <= c.claimed_reads == 8
    assert rep.max_writes <= c.claimed_writes == 2


def test_odd_counter_prev_roundtrip():
    c = odd_counter(3, 11)
    w = c.start
    for _ in range(300):
        nxt, _ = c.next(w)
        back, _ = c.prev(nxt)
        assert back == w
        w = nxt


def test_odd_counter_errors():
    with pytest.raises(ValueError):
        odd_counter(4, 12)
    with pytest.raises(ValueError):
        odd_counter(2, 12)
    with pytest.raises(ValueError) as e:
        odd_counter(3, 10)
    assert "smallest supported is 11" in str(e.value)


def test_odd_pointer_widths_frozen():
    # the smallest pointer whose cycle covers the plan, at and past each
    # radix's min_width, and the error one width below it
    want = {(3, 11): 5, (3, 12): 5, (3, 14): 6, (5, 10): 4, (5, 13): 5, (7, 10): 4,
            (7, 13): 4, (9, 9): 3, (9, 12): 4, (11, 9): 3, (11, 12): 4}
    assert {k: odd_counter(*k).recipe["pointer"] for k in want} == want
    for m, n in ((3, 11), (5, 10), (9, 9)):
        with pytest.raises(ValueError, match=f"^width {n - 1} too small for radix {m}; "
                                             f"the smallest supported is {n}$"):
            odd_counter(m, n - 1)
