"""Brute-force oracles: dense permutation tables, orbit audits against claimed
bounds, the exhaustive search over hierarchical step trees, and
cycle_isolation_check, the identity behind the odd boundary increments."""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .core import (Assign, BoundExceeded, Counter, Domain, Query, _at_least,
                   _integer, measure_counter)
from .permdecomp import RFunction

DENSIFY_LIMIT = 2 ** 24


@dataclass
class DensePermutation:
    """Full image table over a domain, indexed and valued by rank."""

    domain: Domain
    image: np.ndarray

    def __len__(self) -> int:
        return len(self.image)

    def is_bijection(self) -> bool:
        return bool(np.array_equal(np.sort(self.image),
                                   np.arange(len(self.image), dtype=self.image.dtype)))

    def apply_rank(self, i: int) -> int:
        return int(self.image[i])


def _rfunction_image(f: RFunction, domain: Domain) -> np.ndarray:
    if domain.radices != (f.m,) * f.n:
        raise ValueError("domain does not match the function")
    m = f.m
    weights = [m ** (f.n - 1 - j) for j in range(f.n)]
    idx = np.arange(domain.size, dtype=np.int64)
    if f.r == 0:
        val = np.full(domain.size, f.table.get((), 0), dtype=np.int64)
    else:
        rank = Domain.uniform(m, f.r).rank  # its Horner sum runs on digit arrays too
        lut = np.zeros(m ** f.r, dtype=np.int64)
        for args, v in f.table.items():
            lut[rank(args)] = v
        # digit arrays of the sources and the target only: the other
        # coordinates stay as they are
        val = lut[rank([idx // weights[s] % m for s in f.sources])]
    dt = idx // weights[f.target] % m
    new = (dt + val) % m
    return idx + (new - dt) * weights[f.target]


def _step_image(step, domain: Domain) -> np.ndarray:
    if isinstance(step, RFunction):
        return _rfunction_image(step, domain)
    if isinstance(step, DensePermutation):
        if step.domain != domain:
            raise ValueError("domain does not match the permutation")
        return step.image
    apply = step.apply if hasattr(step, "apply") else step
    imgs = np.empty(domain.size, dtype=np.int64)
    for idx, w in enumerate(domain.words()):
        imgs[idx] = domain.rank(apply(w))
    return imgs


def densify(obj, domain: Domain) -> DensePermutation:
    """Tabulate a permutation of the domain given as a counter, a single
    step, a word function, or a list of steps (DensePermutations over the
    domain among them) applied first to last. A step object that occurs
    more than once in a list is tabulated once, while the images kept for
    reuse hold at most DENSIFY_LIMIT entries in all; past that, each
    occurrence is tabulated afresh."""
    if domain.size > DENSIFY_LIMIT:
        raise BoundExceeded(f"domain size {domain.size} exceeds 2^24")
    if isinstance(obj, (list, tuple)):
        occurs = collections.Counter(map(id, obj))
        room = DENSIFY_LIMIT // domain.size  # images the kept ones may total
        kept = {}
        total = np.arange(domain.size, dtype=np.int64)
        for step in obj:
            image = kept.get(id(step))
            if image is None:
                image = _step_image(step, domain)
                if occurs[id(step)] > 1 and len(kept) < room:
                    kept[id(step)] = image
            total = image[total]
        return DensePermutation(domain, total)
    if isinstance(obj, Counter):
        step = obj.next
        obj = lambda w: step(w)[0]
    return DensePermutation(domain, _step_image(obj, domain))


def perm_equal(a: DensePermutation, b: DensePermutation) -> bool:
    return (a.domain.radices == b.domain.radices
            and bool(np.array_equal(a.image, b.image)))


def cycle_lengths(perm: DensePermutation) -> list[int]:
    """Sorted lengths of all cycles, fixed points included."""
    image = perm.image
    seen = np.zeros(len(image), dtype=bool)
    out = []
    for s in range(len(image)):
        if seen[s]:
            continue
        ln = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = int(image[x])
            ln += 1
        out.append(ln)
    return sorted(out)


def cycle_isolation_check(sigma: dict, tau: dict, ell: int) -> bool:
    """Verify the interleaving identity for two ell-cycles that share
    exactly one moved point: (sigma tau)^ell (tau sigma)^ell = sigma^2.

    Permutations are dicts over their moved points, densified over one
    cell that ranges over the union of the supports. Raises if either is
    not a permutation of its support or not a single ell-cycle, or the
    supports share more or fewer than one point; returns whether the
    identity held.
    """
    ell = _integer(ell, "cycle length")
    for perm in (sigma, tau):
        if set(perm.values()) != set(perm):
            raise ValueError("not a permutation of its support")
    points = list(dict.fromkeys([*sigma, *tau]))
    index = {x: i for i, x in enumerate(points)}
    domain = Domain((len(points),))
    single = [1] * (len(points) - ell) + [ell]
    perms = []
    for perm, name in ((sigma, "first"), (tau, "second")):
        image = [index[perm.get(x, x)] for x in points]
        perms.append(densify(lambda w, image=image: (image[w[0]],), domain))
        if cycle_lengths(perms[-1]) != single:
            raise ValueError(f"{name} permutation is not a single {ell}-cycle")
    shared = set(sigma) & set(tau)
    if len(shared) != 1:
        raise ValueError(f"supports share {len(shared)} points, need exactly 1")
    s, t = perms
    # densify runs a list first to last, so [s, t] is tau sigma
    return perm_equal(densify([s, t] * ell + [t, s] * ell, domain), densify([s, s], domain))


@dataclass
class AuditReport:
    observed_length: int
    claimed_length: int
    max_reads: int
    max_writes: int
    claimed_reads: Optional[int]
    claimed_writes: Optional[int]
    distinct: bool
    closed: bool
    truncated: bool
    missing_count: Optional[int]
    missing_sample: list
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        out = asdict(self)
        out["missing_sample"] = [list(w) for w in self.missing_sample]
        problems = out.pop("problems")
        return {**out, "ok": self.ok, "problems": problems}


def audit(counter: Counter, max_steps: Optional[int] = None,
          sample_cap: int = 10) -> AuditReport:
    """Walk the whole orbit and compare what happened against the claims.

    Reports the observed cycle length, worst-case step costs, and the
    words the counter never visits: their count always, and the first
    sample_cap of them in rank order whenever the walk tracks the visited
    words (up to TRACK_LIMIT words). A max_steps or sample_cap that is not
    an integer of at least 0 raises ValueError before the walk.
    """
    sample_cap = _at_least(sample_cap, 0, "sample_cap")
    rep = measure_counter(counter, max_steps=max_steps)
    problems = []
    if not rep.distinct:
        problems.append("orbit revisits a word before returning to start")
    if rep.truncated:
        problems.append(f"walk truncated after {rep.observed_length} steps")
    elif rep.closed and rep.observed_length != counter.claimed_length:
        problems.append(
            f"observed length {rep.observed_length} != claimed {counter.claimed_length}")
    if counter.claimed_reads is not None and rep.max_reads > counter.claimed_reads:
        problems.append(
            f"step read {rep.max_reads} cells, claimed at most {counter.claimed_reads}")
    if counter.claimed_writes is not None and rep.max_writes > counter.claimed_writes:
        problems.append(
            f"step wrote {rep.max_writes} cells, claimed at most {counter.claimed_writes}")
    missing_count = None
    missing_sample: list = []
    if rep.closed and rep.distinct:
        missing_count = counter.domain.size - rep.observed_length
        if rep.visited_ranks is not None:
            missing = itertools.islice(rep.visited_ranks.missing(), sample_cap)
            missing_sample = list(map(counter.domain.unrank, missing))
    return AuditReport(rep.observed_length, counter.claimed_length,
                       rep.max_reads, rep.max_writes,
                       counter.claimed_reads, counter.claimed_writes,
                       rep.distinct, rep.closed, rep.truncated,
                       missing_count, missing_sample, problems)


SEARCH_DOMAIN_LIMIT = 200


def search_hierarchical(radices, count_solutions: bool = False,
                        node_budget: int = 10 ** 9):
    """Exhaustive search for a two-level step tree cycling through all of
    Z_m1 x Z_m2 x Z_m3.

    The tree shape is fixed: the root reads cell 1, each root branch reads
    cell 2 or cell 3, and every leaf rewrites exactly the two cells on its
    path. Partial trees are pruned as soon as they close a cycle shorter
    than the domain. Returns the tree (or None); with count_solutions also
    the number of distinct solutions.

    Relabeling the values of cell 1 maps solutions to solutions, so the
    branch vector (which cell each root branch reads) matters only through
    k, the number of branches reading cell 2: the comb(m1, k) vectors with
    that k have equally many solutions. The search visits one per k, the
    pattern (1,)*k + (2,)*(m1-k) for k from m1-1 down to 1, and counts each
    solution comb(m1, k) times. Each pattern is the lexicographically
    smallest vector with its k and the patterns come in lexicographic
    order, so the tree returned is the first one a search of every vector
    in lexicographic order (cell 2 before cell 3) would find. Inside a
    pattern the order is the split of cell-1 output values between the two
    branch types, then leaf assignments lexicographically.

    Two more exact cuts keep the none-cases tractable. A branch type that
    never occurs (k = 0 or m1) leaves one cell unread, hence never
    rewritten, so no full cycle exists there. And in any solution the image
    fibers tile the domain, which forces the branches reading cell 2 and
    those reading cell 3 to use disjoint cell-1 outputs, one output value
    per branch.

    The relabelings of cell 1 that keep the pattern (those permuting
    0..k-1 and k..m1-1 among themselves) carry a split (the k outputs the
    branches reading cell 2 use) onto any split with the same number j of
    values below k, and solutions onto solutions, so the search takes one
    split per j, the first in lexicographic order, (*range(j),
    *range(k, 2k - j)), for j from k down, and counts its solutions
    comb(k, j) * comb(m1 - k, k - j) times over. That split sorts before
    every split with a smaller j, so the first tree found is unchanged.

    The search is memoized where the first branch of each type is fully
    assigned: branch 0 (the first reading cell 2) and branch k (the first
    reading cell 3). The memo key is the canonical form of that branch's
    leaf map up to relabeling the cell's values (_leaf_map_form), the value
    the number of solutions below the node; a hit adds the stored number
    and skips the subtree. This is exact: conjugating a tree by a
    relabeling of cell 2's values keeps var_choice, the cell-1 split and
    every branch reading cell 3, and maps full cycles to full cycles, so
    equivalent restrictions of branch 0 have equally many solutions; the
    same holds for cell 3 once the branches reading cell 2 are fixed, which
    is why the cell-3 memo is cleared whenever the search enters branch k.
    A skipped restriction has an equivalent one searched before it with no
    solution (else the search would have stopped there), so the tree
    returned is the one the plain search returns. node_budget counts the
    nodes (leaf options tried) actually visited, skipped subtrees not
    included.
    """
    radices = tuple([_at_least(v, 2, "radix") for v in radices])
    if len(radices) != 3:
        raise ValueError(f"need three radices, got {len(radices)}")
    node_budget = _at_least(node_budget, 0, "node_budget")
    m1, m2, m3 = radices
    total = m1 * m2 * m3
    if total > SEARCH_DOMAIN_LIMIT:
        raise BoundExceeded(f"domain size {total} exceeds {SEARCH_DOMAIN_LIMIT}")

    def fiber(x1, b, val):
        # ranks with x1 in cell 1 and val in cell b + 1, the other cell free
        if b == 1:
            return [x1 * m2 * m3 + val * m3 + t for t in range(m3)]
        return [x1 * m2 * m3 + t * m3 + val for t in range(m2)]

    found = None
    count = 0
    nodes = 0

    for k in range(m1 - 1, 0, -1):
        var_choice = (1,) * k + (2,) * (m1 - k)
        # branch k, the first reading cell 3, takes leaves first3 onwards
        first3 = k * m2
        for j in range(k, max(0, 2 * k - m1) - 1, -1):
            a_set = (*range(j), *range(k, 2 * k - j))
            solutions = 0
            # a_set holds the cell-1 outputs reserved for branches reading
            # cell 2; the rest go to branches reading cell 3. Every leaf of
            # one branch type may take the same image fibers, each with a
            # bitmask for O(1) collision tests.
            options = {1: [], 2: []}
            for b, outs in ((1, a_set), (2, [a for a in range(m1) if a not in a_set])):
                for a in outs:
                    for c in range(radices[b]):
                        dst = fiber(a, b, c)
                        options[b].append((dst, sum(1 << d for d in dst), a, c))
            leaves = [(fiber(v, b, u), options[b])
                      for v, b in enumerate(var_choice) for u in range(radices[b])]
            # incremental path tracking: begin[x] is valid while x ends a
            # path, end[x] while x starts one; trivial paths to begin with
            begin = list(range(total))
            end = list(range(total))
            used_mask = 0
            placed = 0
            choices: list[tuple[int, int]] = []
            memo3: dict = {}
            # depth at which a first branch is complete -> (memo, its first leaf)
            memos = {m2: ({}, 0), first3 + m3: (memo3, first3)}

            def try_leaf(li: int) -> bool:
                nonlocal placed, used_mask, found, solutions, nodes
                if li == len(leaves):
                    # no short cycle ever closed, so the last edge closed
                    # the full one: a single cycle over the whole domain
                    solutions += 1
                    if found is None:
                        found = _build_tree(radices, var_choice, choices)
                    return not count_solutions
                if li == first3:
                    memo3.clear()
                entry = memos.get(li)
                if entry is not None:
                    memo, lo = entry
                    key = _leaf_map_form(choices[lo:li])
                    hit = memo.get(key)
                    if hit is not None:
                        solutions += hit
                        return False
                    before = solutions
                src, opts = leaves[li]
                for dst, dmask, a, c in opts:
                    nodes += 1
                    if nodes > node_budget:
                        raise BoundExceeded(f"search exceeded {node_budget} nodes")
                    if used_mask & dmask:
                        continue
                    undo = []
                    ok = True
                    for s, d in zip(src, dst):
                        s_begin = begin[s]
                        if s_begin == d:
                            # closes a cycle; legal only as the last edge
                            if placed + len(undo) + 1 == total:
                                undo.append((s, d, True))
                            else:
                                ok = False
                                break
                        else:
                            d_end = end[d]
                            begin[d_end] = s_begin
                            end[s_begin] = d_end
                            undo.append((s, d, False))
                    if ok:
                        used_mask |= dmask
                        placed += len(undo)
                        choices.append((a, c))
                        stop = try_leaf(li + 1)
                        choices.pop()
                        placed -= len(undo)
                        used_mask &= ~dmask
                        if stop:
                            return True
                    for s, d, closed in reversed(undo):
                        # reverse order keeps begin[s] and end[d] valid here
                        if not closed:
                            s_begin = begin[s]
                            d_end = end[d]
                            begin[d_end] = d
                            end[s_begin] = s
                if entry is not None:
                    memo[key] = solutions - before
                return False

            if try_leaf(0):
                return found
            count += (math.comb(m1, k) * math.comb(k, j) * math.comb(m1 - k, k - j)
                      * solutions)

    return (found, count) if count_solutions else found


def _leaf_map_form(leaf_map) -> tuple:
    """Canonical form of a branch's leaf map u -> (a, c) up to relabeling
    the values u and c of the branch's cell together.

    The map is a functional graph u -> c with each edge coloured a. Each
    node gets a code (its edge colour, the sorted codes of the nodes off
    its cycle that map to it); each cycle is the least rotation of its
    nodes' codes, and the form is the sorted tuple of cycles. Two maps get
    the same form exactly when some permutation of the values carries one
    onto the other.
    """
    m = len(leaf_map)
    preds: list[list[int]] = [[] for _ in range(m)]
    for u, (_, c) in enumerate(leaf_map):
        preds[c].append(u)
    # peel the nodes with no predecessor left; what stays lies on cycles
    indeg = [len(p) for p in preds]
    on_cycle = [True] * m
    stack = [u for u in range(m) if not indeg[u]]
    while stack:
        u = stack.pop()
        on_cycle[u] = False
        c = leaf_map[u][1]
        indeg[c] -= 1
        if not indeg[c]:
            stack.append(c)

    def code(x):
        return (leaf_map[x][0],
                tuple(sorted(code(y) for y in preds[x] if not on_cycle[y])))

    cycles = []
    seen = [False] * m
    for s in range(m):
        if on_cycle[s] and not seen[s]:
            codes = []
            x = s
            while not seen[x]:
                seen[x] = True
                codes.append(code(x))
                x = leaf_map[x][1]
            cycles.append(min(tuple(codes[i:] + codes[:i]) for i in range(len(codes))))
    return tuple(sorted(cycles))


def _build_tree(radices, var_choice, choices):
    m1 = radices[0]
    branches = []
    li = 0
    for v in range(m1):
        b = var_choice[v]
        kids = []
        for u in range(radices[b]):
            a, c = choices[li]
            li += 1
            kids.append(Assign(((0, a), (b, c))))
        branches.append(Query(b, tuple(kids)))
    return Query(0, tuple(branches))
