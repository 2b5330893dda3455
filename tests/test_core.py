import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasigray.core import (Assign, BoundExceeded, Counter, Domain, Query,
                            StepStats, Tape, OffsetTape, dat_count_nodes,
                            dat_eval, dat_from_json, dat_read_complexity,
                            dat_to_json, dat_validate, dat_write_complexity,
                            materialize, measure_counter, word_format,
                            word_parse)
from quasigray.compose import (general_counter, multiplicative_order,
                               stitch_radix)
from quasigray.graycode import gray_counter, gray_unrank
from quasigray.linear import (AddRow, Field, Poly, Scale, companion_counter,
                              companion_matrix, find_primitive, is_primitive,
                              linear_counter, prime_factors)
from quasigray.permdecomp import (RFunction, build_plan, decompose_boundary,
                                  make_alpha, odd_counter, plan_size)
from quasigray.verify import audit, cycle_isolation_check, densify, search_hierarchical


def test_domain_basics():
    d = Domain((3, 2, 5))
    assert d.n == 3
    assert d.size == 30
    assert d.rank((0, 0, 0)) == 0
    assert d.rank((2, 1, 4)) == 29
    assert d.unrank(29) == (2, 1, 4)
    # coordinate 1 is most significant
    assert d.rank((1, 0, 0)) == 10
    words = list(d.words())
    assert len(words) == 30
    assert [d.rank(w) for w in words] == list(range(30))


def test_domain_rejects_bad_radices():
    with pytest.raises(ValueError):
        Domain(())
    with pytest.raises(ValueError):
        Domain((3, 1))


def test_domain_validate():
    d = Domain.uniform(3, 2)
    d.validate((2, 2))
    with pytest.raises(ValueError):
        d.validate((3, 0))
    with pytest.raises(ValueError):
        d.validate((0, 0, 0))


def test_domain_takes_only_integer_radices_and_digits():
    # a float radix or digit is a ValueError at the boundary, not a
    # TypeError deep in an audit; numpy integers pass as integers
    for radices in ((2.5,), (3, 2.0), ("3",)):
        with pytest.raises(ValueError, match="radix must be an integer"):
            Domain(radices)
    d = Domain((2, 2))
    for word in ((1.5, 0), (0, 0.0), (None, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            d.validate(word)
    with pytest.raises(ValueError, match="coordinate 2 must be an integer"):
        d.validate((1, 1.0))
    with pytest.raises(ValueError, match="must be an integer"):
        Counter(d, lambda t: None, lambda t: None, 4, (0.0, 0))
    n = Domain((np.int64(3), np.int32(2)))
    assert n.size == 6
    n.validate((np.int64(2), np.uint8(1)))
    n.validate(np.array([2, 1]))


def test_counter_takes_only_integer_claims():
    # a length must be an integer of at least 1 and each cost bound None or
    # an integer of at least 0, else ValueError when the counter is built;
    # before, 8.5 was taken and audit then failed a correct 9-word cycle
    g = gray_counter(3, 2)

    def build(length=9, **bounds):
        return Counter(g.domain, g.next_tape, g.prev_tape, length, g.start, **bounds)

    for length in (8.5, "9", None, 9.0, 0.0):
        with pytest.raises(ValueError, match="claimed_length must be an integer"):
            build(length)
    for length in (0, -9):
        with pytest.raises(ValueError, match="claimed_length must be at least 1"):
            build(length)
    for name in ("claimed_reads", "claimed_writes"):
        for bad in ("1", 1.0, 2.5, 0.0, ""):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                build(**{name: bad})
        with pytest.raises(ValueError, match=f"{name} must be at least 0"):
            build(**{name: -1})
    c = build(np.int64(9), claimed_reads=0, claimed_writes=np.int32(1))
    assert (c.claimed_length, c.claimed_reads, c.claimed_writes) == (9, 0, 1)
    assert {type(x) for x in (c.claimed_length, c.claimed_reads, c.claimed_writes)} == {int}
    assert not audit(c).ok
    c = build(claimed_reads=None, claimed_writes=None)
    assert audit(c).ok and audit(build(claimed_reads=2, claimed_writes=1)).ok


_G32 = gray_counter(3, 2)


@pytest.mark.parametrize("make,what", [
    (lambda to: Field(to(2)), "field order"),
    (lambda to: Field(to(4)), "field order"),
    (lambda to: gray_unrank(to(1), 3, 2), "rank"),
    (lambda to: RFunction(3, 2, (0,), to(1), {}), "target"),
    (lambda to: RFunction(to(3), 2, (0,), 1, {(1,): 1}), "radix"),
    (lambda to: Poly(Field(2), (1, to(1))), "coefficient"),
    (lambda to: gray_counter(3, to(2)), "r"),
    (lambda to: linear_counter(Field(2), to(3)), "vector width"),
    (lambda to: companion_counter(Field(2), to(3)), "degree"),
    (lambda to: odd_counter(to(3), 11), "radix"),
    (lambda to: general_counter(to(4), 8), "radix"),
    (lambda to: build_plan(3, to(6)), "inner width"),
    (lambda to: search_hierarchical((to(2), 2, 3)), "radix"),
    (lambda to: stitch_radix(to(2), linear_counter(Field(2), 3)), "block size"),
    (lambda to: Domain((3, to(2))), "radix"),
    pytest.param(lambda to: Domain((3, 2)).unrank(to(1)), "rank", id="unrank-rank"),
    (lambda to: Domain.uniform(3, to(2)), "width"),
    (lambda to: Field(3).pow(2, to(2)), "exponent"),
    (lambda to: RFunction(3, 2, (0,), 1, {(1,): to(2)}), "table value"),
    (lambda to: RFunction(3, 2, (0,), 1, {(to(1),): 2}), "table key digit"),
    (lambda to: RFunction.indicator(3, 3, (0,), 1, (0,), to(1)), "table value"),
    pytest.param(lambda to: find_primitive(Field(2), to(3)), "degree",
                 id="find_primitive-degree"),
    (lambda to: Scale(Field(3), to(1), 2), "row"),
    (lambda to: Scale(Field(3), 1, to(2)), "scale factor"),
    (lambda to: AddRow(Field(3), to(1), 0, 2), "row"),
    (lambda to: AddRow(Field(3), 1, to(0), 2), "source row"),
    (lambda to: AddRow(Field(3), 1, 0, to(2)), "multiplier"),
    (lambda to: prime_factors(to(12)), "n"),
    (lambda to: linear_counter(Field(2), 3, to(3)), "pointer width"),
    (lambda to: odd_counter(3, to(11)), "width"),
    (lambda to: plan_size(to(3), 6), "radix"),
    pytest.param(lambda to: plan_size(3, to(6)), "inner width", id="plan_size-inner width"),
    (lambda to: build_plan(to(3), 6), "radix"),
    (lambda to: decompose_boundary(to(6), 3, 6), "increment"),
    (lambda to: decompose_boundary(6, to(3), 6), "radix"),
    pytest.param(lambda to: decompose_boundary(6, 3, to(6)), "inner width",
                 id="decompose_boundary-inner width"),
    (lambda to: make_alpha(to(1), 3, 3), "coordinate"),
    (lambda to: cycle_isolation_check({0: 1, 1: 0}, {1: 2, 2: 1}, to(2)), "cycle length"),
    (lambda to: general_counter(4, to(8)), "width"),
    (lambda to: multiplicative_order(to(3)), "modulus"),
    (lambda to: search_hierarchical((2, 2, 3), node_budget=to(9)), "node_budget"),
    (lambda to: materialize(_G32.next_tape, _G32.domain, node_budget=to(9)), "node_budget"),
    (lambda to: measure_counter(_G32, max_steps=to(2)), "max_steps"),
    (lambda to: audit(_G32, max_steps=to(2)), "max_steps"),
    (lambda to: audit(_G32, sample_cap=to(1)), "sample_cap"),
    (lambda to: dat_from_json({"query": to(1), "children": []}), "query coordinate"),
    (lambda to: dat_from_json({"assign": [[to(1), 0]]}), "assignment coordinate"),
    (lambda to: dat_from_json({"assign": [[1, to(0)]]}), "assigned value"),
])
def test_constructors_take_only_integer_sizes(make, what):
    # make(to) passes to(k) where the integer k would do. A later case
    # whose name matches a single earlier one gets an explicit id, so
    # pytest does not renumber the earlier case's id. A float, str or
    # bool size, order, coordinate, coefficient, table entry or budget
    # raises ValueError naming it, even when it equals k; before, some were
    # taken (Field(2.0).mul(1, 1) gave 1.0, max_steps=2.5 walked 3 steps,
    # gray_counter(3, True) built a counter) and others raised TypeError or
    # AttributeError deep inside
    for to in (float, str, bool):
        with pytest.raises(ValueError, match=f"^{what} must be an integer"):
            make(to)


@pytest.mark.parametrize("make,error,message", [
    (lambda: Domain((2, 2, 2)).unrank(8), ValueError, "rank 8 out of range"),
    (lambda: dat_validate(Query(2, (Assign(()), Assign(()))), Domain((2, 2))),
     ValueError, "query coordinate 3 out of range"),
    (lambda: dat_validate(Query(0, (Assign(((2, 0),)), Assign(()))), Domain((2, 2))),
     ValueError, "assignment coordinate 3 out of range"),
    (lambda: dat_validate("leaf", Domain((2, 2))), ValueError, "not a tree node: 'leaf'"),
    (lambda: dat_eval("leaf", (0, 0)), ValueError, "not a tree node: 'leaf'"),
    (lambda: dat_to_json("leaf"), ValueError, "not a tree node: 'leaf'"),
    (lambda: dat_from_json([1]), ValueError, "tree node must be an object"),
    (lambda: Field(5).inv(0), ZeroDivisionError, "0 has no inverse"),
    (lambda: Poly(Field(2), ()), ValueError, "empty coefficient list"),
    (lambda: Poly(Field(2), (0, 2)), ValueError, "coefficient out of range"),
    (lambda: is_primitive(Poly(Field(3), (1, 2))), ValueError, "polynomial must be monic"),
    (lambda: companion_matrix(Poly(Field(2), (1,))), ValueError,
     "need a monic polynomial of positive degree"),
    (lambda: companion_matrix(Poly(Field(3), (1, 2))), ValueError,
     "need a monic polynomial of positive degree"),
    (lambda: AddRow(Field(3), 0, 1, 0), ValueError, "multiplier must be a nonzero field element"),
    (lambda: densify(RFunction(3, 2, (0,), 1, {}), Domain((3, 3, 3))), ValueError,
     "domain does not match the function"),
])
def test_boundary_checks_raise(make, error, message):
    # each case reaches a raise that no other test runs
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@given(st.data())
def test_rank_unrank_roundtrip(data):
    radices = tuple(data.draw(st.lists(st.integers(2, 7), min_size=1, max_size=5)))
    d = Domain(radices)
    i = data.draw(st.integers(0, d.size - 1))
    assert d.rank(d.unrank(i)) == i


def test_tape_counts_distinct_reads():
    t = Tape((4, 5, 6))
    assert t.read(1) == 5
    assert t.read(1) == 5
    assert t.stats() == StepStats(1, 0)


def test_tape_write_then_read_is_free():
    t = Tape((0, 0))
    t.write(0, 7)
    assert t.read(0) == 7
    assert t.stats() == StepStats(0, 1)
    # rewriting the same value still counts
    t.write(0, 7)
    assert t.stats() == StepStats(0, 2)


def test_offset_tape():
    t = Tape((1, 2, 3, 4))
    view = OffsetTape(t, 2)
    assert view.read(0) == 3
    view.write(1, 9)
    assert t.word() == (1, 2, 3, 9)
    assert t.stats() == StepStats(1, 1)


FLIP = Query(0, (Assign(((0, 1),)), Assign(((0, 0),))))


def test_dat_eval_bit_flip():
    out, st_ = dat_eval(FLIP, (0,))
    assert out == (1,) and st_ == StepStats(1, 1)
    out, st_ = dat_eval(FLIP, (1,))
    assert out == (0,) and st_ == StepStats(1, 1)


NESTED = Query(0, (Assign(((0, 1),)), Query(1, (Assign(()), Assign(((1, 0),))))))


@pytest.mark.parametrize("tree,word,coord", [
    (FLIP, (-1,), 1), (FLIP, (2,), 1), (FLIP, (), 1),
    (NESTED, (1, -1), 2), (NESTED, (1, 2), 2), (NESTED, (1,), 2)],
    ids=["flip-1", "flip2", "flip-short", "nested-1", "nested2", "nested-short"])
def test_dat_eval_rejects_a_word_with_no_branch(tree, word, coord):
    # a digit -1 once followed the last child; 2 or a short word raised IndexError
    with pytest.raises(ValueError, match=re.escape(
            f"word {word} has no branch at coordinate {coord}")):
        dat_eval(tree, word)


def test_dat_eval_gray_example():
    tree = materialize(gray_counter(3, 2).next_tape, Domain.uniform(3, 2))
    out, st_ = dat_eval(tree, (2, 0))
    assert out == (2, 1)
    assert st_ == StepStats(2, 1)
    assert dat_read_complexity(tree) == 2
    assert dat_write_complexity(tree) == 1


def test_dat_validate_rejects_bad_trees():
    d = Domain.uniform(2, 2)
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(()),)), d)  # missing a child
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Query(0, (Assign(()), Assign(()))), Assign(()))), d)
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(((0, 2),)), Assign(()))), d)  # value range
    with pytest.raises(ValueError):
        dat_validate(Query(0, (Assign(((1, 0),)), Assign(()))), d)  # unread cell


def test_dat_json_roundtrip():
    d = Domain.uniform(2, 2)
    tree = Query(0, (Assign(((0, 1),)), Query(1, (Assign(((0, 0), (1, 1))),
                                                  Assign(((1, 0),))))))
    dat_validate(tree, d)
    obj = dat_to_json(tree)
    assert obj["query"] == 1  # 1-based on the wire
    assert dat_from_json(obj) == tree


def test_dat_from_json_rejects_junk():
    with pytest.raises(ValueError):
        dat_from_json({"nope": 1})
    with pytest.raises(ValueError):
        dat_from_json({"query": 0, "children": []})



@pytest.mark.parametrize("obj", [
    {"query": 1},
    {"query": 1, "children": 5},
    {"query": True, "children": []},
    {"assign": 5},
    {"assign": [5]},
    {"assign": [[1]]},
    {"assign": [[1, "x"]]},
    {"assign": [[1, -1]]},
    {"assign": [[True, 0]]},
    {"query": 1, "children": [{"assign": []}, {"assign": [[1, "x"]]}]},
])
def test_dat_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        dat_from_json(obj)

def test_materialize_budget():
    c = gray_counter(2, 8)
    with pytest.raises(BoundExceeded):
        materialize(c.next_tape, c.domain, node_budget=10)


def test_materialize_node_count():
    c = gray_counter(2, 3)
    tree = materialize(c.next_tape, c.domain)
    # full binary tree of depth 3: 7 queries, 8 leaves
    assert dat_count_nodes(tree) == 15


def _increment_counter(n):
    """Plain binary +1 with wraparound, reading from the top."""
    def next_fn(tape):
        for i in range(n - 1, -1, -1):
            v = tape.read(i)
            tape.write(i, (v + 1) % 2)
            if v == 0:
                return

    def prev_fn(tape):
        for i in range(n - 1, -1, -1):
            v = tape.read(i)
            tape.write(i, (v - 1) % 2)
            if v == 1:
                return

    return Counter(Domain.uniform(2, n), next_fn, prev_fn, 2 ** n, (0,) * n)


def test_measure_counter_full_cycle():
    rep = measure_counter(_increment_counter(3))
    assert rep.observed_length == 8
    assert rep.closed and rep.distinct and not rep.truncated
    assert rep.max_reads == 3 and rep.max_writes == 3


def test_measure_counter_detects_short_cycle():
    base = gray_counter(2, 2)
    liar = Counter(base.domain, base.next_tape, base.prev_tape, 8, base.start)
    rep = measure_counter(liar)
    assert rep.closed and rep.observed_length == 4


def test_measure_counter_truncation():
    c = gray_counter(2, 4)
    rep = measure_counter(c, max_steps=5)
    assert rep.truncated and rep.observed_length == 5


def _unsteppable():
    def refuse(tape):
        raise AssertionError("stepped")
    return Counter(Domain.uniform(2, 2), refuse, refuse, 4, (0, 0))


def test_measure_counter_rejects_a_negative_budget_before_walking():
    with pytest.raises(ValueError, match="max_steps must be at least 0, got -3"):
        measure_counter(_unsteppable(), max_steps=-3)
    rep = measure_counter(_unsteppable(), max_steps=0)
    assert rep.truncated and rep.observed_length == 0


def test_measure_counter_detects_revisit():
    # 0 -> 1 -> 2 -> 1: falls into a loop that skips the start
    c = Counter(Domain.uniform(3, 1),
                lambda t: t.write(0, {0: 1, 1: 2, 2: 1}[t.read(0)]),
                lambda t: None, 3, (0,))
    rep = measure_counter(c)
    assert not rep.distinct


def test_measure_counter_rejects_a_digit_out_of_range():
    # 000 -> 001 -> 002 -> 003: the third step writes 3 into a radix-3
    # cell, and a step back from 000 writes -1
    c = Counter(Domain.uniform(3, 3), lambda t: t.write(2, t.read(2) + 1),
                lambda t: t.write(0, t.read(0) - 1), 9, (0, 0, 0))
    for walk in (measure_counter, audit):
        with pytest.raises(ValueError, match="step 3 wrote 3 at coordinate 3"):
            walk(c)
    with pytest.raises(ValueError, match="step 1 wrote -1 at coordinate 1"):
        measure_counter(c, direction="prev")


def test_measure_counter_rejects_an_unknown_direction():
    with pytest.raises(ValueError, match="direction must be 'next' or 'prev'"):
        measure_counter(gray_counter(3, 2), direction="up")


def test_forced_tracking_above_the_limit_allocates_nothing():
    # a walk above TRACK_LIMIT words tracks nothing and allocates no byte map
    c = Counter(Domain.uniform(2, 28), lambda t: None, lambda t: None, 1, (0,) * 28)
    tracemalloc.start()
    try:
        rep = measure_counter(c, max_steps=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert rep.closed and rep.visited_ranks is None


def test_word_parse_forms():
    d = Domain.uniform(3, 3)
    assert word_parse("1,0,2", d) == (1, 0, 2)
    assert word_parse("102", d) == (1, 0, 2)
    assert word_format((1, 0, 2), d) == "102"
    big = Domain.uniform(12, 2)
    assert word_parse("11,3", big) == (11, 3)
    assert word_format((11, 3), big) == "11,3"


def test_word_parse_errors():
    d = Domain.uniform(3, 2)
    with pytest.raises(ValueError):
        word_parse("3,0", d)
    with pytest.raises(ValueError):
        word_parse("000", d)
    with pytest.raises(ValueError):
        word_parse("xy", d)
    with pytest.raises(ValueError):
        word_parse("102", Domain.uniform(12, 3))


@given(st.data())
def test_word_format_parse_roundtrip(data):
    radices = tuple(data.draw(st.lists(st.integers(2, 16), min_size=1, max_size=4)))
    d = Domain(radices)
    word = tuple(data.draw(st.integers(0, r - 1)) for r in radices)
    assert word_parse(word_format(word, d), d) == word


def test_equal_costs_are_one_shared_value():
    c = gray_counter(3, 2)
    tree = materialize(c.next_tape, c.domain)
    tape = Tape(c.start)
    c.prev_tape(tape)
    costs = [c.next(c.start)[1], c.prev(c.start)[1], tape.stats(),
             dat_eval(tree, c.start)[1], c.next((2, 2))[1]]
    assert all(type(st) is StepStats for st in costs)
    assert costs[0] == StepStats(2, 1)
    assert all(st is costs[0] for st in costs)


def test_large_cost_is_exact():
    c = gray_counter(2, 70)
    w, st = c.next(c.start)
    assert st == StepStats(70, 1) and type(st) is StepStats
    assert c.prev(w) == (c.start, StepStats(70, 1))
    assert c.prev(w)[1] is st
