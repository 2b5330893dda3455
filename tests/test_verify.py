import collections
import copy
import itertools
import math
import random

import numpy as np
import pytest

from quasigray import verify
from quasigray.core import (BoundExceeded, Counter, Domain, dat_eval,
                            dat_to_json, dat_validate)
from quasigray.graycode import gray_counter
from quasigray.linear import Field, Scale, companion_counter, linear_counter
from quasigray.permdecomp import (RFunction, build_plan, decompose_indicator, make_alpha,
                                  odd_counter)
from quasigray.verify import (DensePermutation, SEARCH_DOMAIN_LIMIT, audit,
                              cycle_isolation_check, cycle_lengths, densify,
                              perm_equal, _leaf_map_form, search_hierarchical)


def test_densify_counter():
    perm = densify(gray_counter(3, 2), Domain.uniform(3, 2))
    assert perm.is_bijection()
    assert cycle_lengths(perm) == [9]


def test_densify_rfunction_matches_generic_path():
    d = Domain.uniform(3, 5)
    f = RFunction.indicator(3, 5, (0, 2), 3, (1, 2), 2)
    fast = densify(f, d)
    slow = densify(f.apply, d)  # generic word-function path, no LUT
    assert perm_equal(fast, slow)
    assert fast.is_bijection()


@pytest.mark.parametrize("sources,target,table", [
    ((), 2, {(): 1}),
    ((4,), 1, {(0,): 1, (2,): 2}),
    ((4, 1), 2, {(0, 1): 1, (2, 0): 2, (1, 2): 1}),
], ids=["r0", "r1-source-above-target", "r2-descending-sources"])
def test_densify_rfunction_reads_only_its_sources_and_target(sources, target, table):
    d = Domain.uniform(3, 5)
    f = RFunction(3, 5, sources, target, table)
    assert perm_equal(densify(f, d), densify(f.apply, d))


def test_densify_list_composes_in_order():
    d = Domain.uniform(3, 4)
    f = make_alpha(2, 3, 4)
    g = make_alpha(3, 3, 4)
    both = densify([f, g], d)
    # order matters: f first, then g
    w = (0, 1, 2, 0)
    assert both.apply_rank(d.rank(w)) == d.rank(g.apply(f.apply(w)))
    assert both.is_bijection()


@pytest.mark.parametrize("room", [None, 1, 2])
def test_densify_tabulates_a_repeated_step_once_within_its_cap(monkeypatch, room):
    # an odd plan repeats its step objects; fresh copies give the same
    # permutation. room is how many images the cap keeps (None: the default)
    plan = build_plan(3, 8).steps
    d = Domain.uniform(3, 8)
    occurs = collections.Counter(map(id, plan))
    assert len(occurs) < len(plan)
    want = densify([copy.copy(f) for f in plan], d)
    if room is not None:
        monkeypatch.setattr(verify, "DENSIFY_LIMIT", d.size * room + d.size - 1)
    calls = []
    image = verify._step_image
    monkeypatch.setattr(verify, "_step_image", lambda f, dom: calls.append(f) or image(f, dom))
    assert perm_equal(densify(plan, d), want)
    if room is None:
        assert len(calls) == len(occurs)
    else:
        kept = [k for k in dict.fromkeys(map(id, plan)) if occurs[k] > 1][:room]
        assert len(calls) == len(plan) - sum(occurs[k] - 1 for k in kept)


def test_densify_list_takes_dense_permutations():
    d = Domain.uniform(3, 4)
    f, g = make_alpha(2, 3, 4), make_alpha(3, 3, 4)
    pf, pg = densify(f, d), densify(g, d)
    assert perm_equal(densify([pf, g, pg, f], d), densify([f, g, g, f], d))
    with pytest.raises(ValueError, match="domain does not match the permutation"):
        densify([densify(gray_counter(3, 3), Domain.uniform(3, 3))], d)


def test_cycle_isolation_check_on_long_cycles():
    # 2,001 points: the left side composes 4 * 1001 dense tables
    ell = 1001
    sigma = {i: (i + 1) % ell for i in range(ell)}
    path = [0, *range(ell, 2 * ell - 1)]
    tau = {path[i]: path[(i + 1) % ell] for i in range(ell)}
    assert cycle_isolation_check(sigma, tau, ell)


def test_densify_decomposition_equivalence():
    d = Domain.uniform(3, 7)
    f = RFunction.indicator(3, 7, (0, 1, 2), 3, (0, 0, 0), 1)
    assert perm_equal(densify(decompose_indicator(f), d), densify(f, d))


def test_densify_refuses_large_domains():
    with pytest.raises(BoundExceeded):
        densify(gray_counter(2, 25), Domain.uniform(2, 25))


def test_dense_permutation_rejects_non_bijection():
    d = Domain.uniform(2, 2)
    assert not DensePermutation(d, np.zeros(4, dtype=np.int64)).is_bijection()


def test_perm_equal_requires_same_domain():
    a = densify(gray_counter(2, 2), Domain.uniform(2, 2))
    b = densify(gray_counter(4, 1), Domain.uniform(4, 1))
    assert not perm_equal(a, b)


def test_cycle_lengths_mixed():
    d = Domain.uniform(2, 3)
    # swap two words, fix the rest
    img = np.arange(8, dtype=np.int64)
    img[0], img[5] = 5, 0
    assert cycle_lengths(DensePermutation(d, img)) == [1] * 6 + [2]


def test_audit_honest_counter():
    rep = audit(linear_counter(Field(2), 2, 3))
    assert rep.ok
    assert rep.observed_length == rep.claimed_length == 24
    assert rep.missing_count == 8
    assert len(rep.missing_sample) == 8
    assert all(w[3:] == (0, 0) for w in rep.missing_sample)
    j = rep.to_json()
    assert j["ok"] and j["missing_count"] == 8


def test_audit_space_optimal_counter():
    rep = audit(odd_counter(3, 11))
    assert rep.ok
    assert rep.missing_count == 0 and rep.missing_sample == []


def test_audit_flags_wrong_length():
    base = gray_counter(3, 2)
    liar = Counter(base.domain, base.next_tape, base.prev_tape, 10, base.start,
                   claimed_reads=2, claimed_writes=1)
    rep = audit(liar)
    assert not rep.ok
    assert any("observed length 9" in p for p in rep.problems)


def test_audit_flags_cost_overruns():
    base = gray_counter(3, 2)
    liar = Counter(base.domain, base.next_tape, base.prev_tape, 9, base.start,
                   claimed_reads=1, claimed_writes=0)
    rep = audit(liar)
    assert not rep.ok
    assert any("read" in p for p in rep.problems)
    assert any("wrote" in p for p in rep.problems)


def test_audit_flags_revisit():
    def step(tape):
        tape.write(0, {0: 1, 1: 2, 2: 1}[tape.read(0)])

    c = Counter(Domain.uniform(3, 1), step, step, 3, (0,))
    rep = audit(c)
    assert not rep.ok
    assert any("revisits" in p for p in rep.problems)


def test_audit_truncation():
    rep = audit(gray_counter(2, 4), max_steps=5)
    assert not rep.ok
    assert rep.truncated
    assert any("truncated" in p for p in rep.problems)


def test_audit_rejects_negative_arguments_before_walking():
    def refuse(tape):
        raise AssertionError("stepped")
    c = Counter(Domain.uniform(2, 2), refuse, refuse, 4, (0, 0))
    with pytest.raises(ValueError, match="sample_cap must be at least 0, got -1"):
        audit(c, sample_cap=-1)
    with pytest.raises(ValueError, match="max_steps must be at least 0, got -3"):
        audit(c, max_steps=-3)
    rep = audit(companion_counter(Field(2), 3), sample_cap=0)
    assert rep.ok and rep.missing_count == 1 and rep.missing_sample == []


def _walk_tree(tree, radices):
    d = Domain(tuple(radices))
    w = (0,) * 3
    seen = {w}
    for _ in range(d.size - 1):
        w, stats = dat_eval(tree, w)
        assert stats.reads == 2 and stats.writes == 2
        assert w not in seen
        seen.add(w)
    w, _ = dat_eval(tree, w)
    assert w == (0,) * 3


@pytest.mark.parametrize("radices,exists", [
    ((2, 2, 3), True), ((2, 3, 2), True), ((3, 2, 3), True),
    ((2, 4, 3), True), ((3, 3, 4), True), ((2, 2, 2), False),
    ((2, 3, 3), False), ((3, 2, 4), False), ((2, 4, 4), False),
])
def test_search_hierarchical_existence(radices, exists):
    tree = search_hierarchical(radices)
    if not exists:
        assert tree is None
        return
    dat_validate(tree, Domain(tuple(radices)))
    _walk_tree(tree, radices)


def test_search_existence_matches_coprimality():
    for radices in [(2, 2, 3), (2, 3, 4), (3, 3, 2), (3, 4, 3), (2, 4, 4)]:
        m2, m3 = radices[1], radices[2]
        tree = search_hierarchical(radices)
        assert (tree is not None) == (math.gcd(m2, m3) == 1)


def test_search_count_deterministic():
    t1, c1 = search_hierarchical((2, 2, 3), count_solutions=True)
    t2, c2 = search_hierarchical((2, 2, 3), count_solutions=True)
    assert c1 == c2 == 4
    assert t1 == t2
    _walk_tree(t1, (2, 2, 3))


def _branch(cell, leaves):
    return {"query": cell,
            "children": [{"assign": [[1, a], [cell, c]]} for a, c in leaves]}


@pytest.mark.parametrize("radices,branches", [
    ((2, 2, 3), [(2, [(1, 1), (1, 0)]), (3, [(0, 1), (0, 2), (0, 0)])]),
    ((3, 2, 3), [(2, [(0, 1), (2, 0)]), (2, [(2, 1), (0, 0)]),
                 (3, [(1, 1), (1, 2), (1, 0)])]),
    ((2, 3, 4), [(2, [(1, 1), (1, 2), (1, 0)]),
                 (3, [(0, 1), (0, 2), (0, 3), (0, 0)])]),
    ((3, 4, 5), [(2, [(0, 1), (0, 2), (0, 3), (2, 0)]),
                 (2, [(2, 1), (2, 2), (2, 3), (0, 0)]),
                 (3, [(1, 1), (1, 2), (1, 3), (1, 4), (1, 0)])]),
    ((2, 5, 6), [(2, [(1, 1), (1, 2), (1, 3), (1, 4), (1, 0)]),
                 (3, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 0)])]),
    ((3, 4, 3), [(2, [(0, 1), (0, 2), (0, 3), (2, 0)]),
                 (2, [(2, 1), (2, 2), (2, 3), (0, 0)]),
                 (3, [(1, 1), (1, 2), (1, 0)])]),
    ((3, 3, 4), [(2, [(0, 1), (0, 2), (2, 0)]), (2, [(2, 1), (2, 2), (0, 0)]),
                 (3, [(1, 1), (1, 2), (1, 3), (1, 0)])]),
])
def test_search_returns_pinned_tree(radices, branches):
    tree = search_hierarchical(radices)
    assert dat_to_json(tree) == {
        "query": 1, "children": [_branch(b, leaves) for b, leaves in branches]}


@pytest.mark.parametrize("radices,count", [
    ((2, 2, 5), 48), ((2, 3, 4), 24), ((3, 2, 3), 792),
    ((3, 3, 4), 64800), ((4, 2, 3), 512640), ((4, 3, 2), 512640),
    ((2, 2, 7), 1440), ((2, 3, 5), 96), ((3, 3, 2), 792), ((2, 4, 3), 24),
])
def test_search_solution_counts(radices, count):
    tree, c = search_hierarchical(radices, count_solutions=True)
    assert c == count
    assert tree == search_hierarchical(radices)


def test_search_memo_node_counts():
    # the memo and one cell-1 split per relabeling class visit 127,964 and
    # 30,894 nodes on these none-cases (264,472 and 30,894 with the memo
    # alone), where the plain search visited 8,615,120 and 1,417,698
    assert search_hierarchical((3, 4, 4), node_budget=1_000_000) is None
    assert search_hierarchical((2, 6, 6), node_budget=200_000) is None


def test_search_takes_one_cell1_split_per_class():
    # (3,4,4) has k = 2 or 1 branches reading cell 2, and the relabelings of
    # cell 1 that keep the branch pattern leave 2 + 2 of its 3 + 3 splits
    assert search_hierarchical((3, 4, 4), node_budget=130_000) is None


def _relabel(leaf_map, perm):
    out = [None] * len(leaf_map)
    for u, (a, c) in enumerate(leaf_map):
        out[perm[u]] = (a, perm[c])
    return tuple(out)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("colours", [1, 2])
def test_leaf_map_form_separates_relabeling_classes(m, colours):
    perms = list(itertools.permutations(range(m)))
    edges = list(itertools.product(range(colours), range(m)))
    classes = {}
    for leaf_map in itertools.product(edges, repeat=m):
        least = min(_relabel(leaf_map, p) for p in perms)
        classes.setdefault(_leaf_map_form(leaf_map), set()).add(least)
    # one class per form, and no class under two forms
    assert all(len(c) == 1 for c in classes.values())
    assert len(set().union(*classes.values())) == len(classes)


def test_leaf_map_form_ignores_relabeling_at_eight():
    rng = random.Random(8)
    for _ in range(200):
        leaf_map = [(rng.randrange(2), rng.randrange(8)) for _ in range(8)]
        perm = rng.sample(range(8), 8)
        assert _leaf_map_form(_relabel(leaf_map, perm)) == _leaf_map_form(leaf_map)


def test_search_budget_and_domain_guard():
    with pytest.raises(BoundExceeded):
        search_hierarchical((6, 6, 6))
    assert 6 * 6 * 6 > SEARCH_DOMAIN_LIMIT
    with pytest.raises(BoundExceeded):
        search_hierarchical((2, 2, 3), node_budget=3)
    with pytest.raises(ValueError):
        search_hierarchical((2, 2))
    with pytest.raises(ValueError):
        search_hierarchical((2, 1, 3))


def test_densify_scale_step():
    d = Domain.uniform(5, 2)
    perm = densify(Scale(Field(5), 0, 2), d)
    assert perm.is_bijection()
    assert perm.apply_rank(d.rank((3, 4))) == d.rank((1, 4))
