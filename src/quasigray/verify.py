"""Brute-force oracles: dense permutation tables, orbit audits against
claimed bounds, and the exhaustive search over hierarchical step trees."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (Assign, BoundExceeded, Counter, Domain, Query, _integer,
                   measure_counter)
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


def _coordinate_digits(domain: Domain):
    """Per-coordinate digit arrays for every rank, most significant first."""
    weights = []
    w = 1
    for r in reversed(domain.radices):
        weights.append(w)
        w *= r
    weights.reverse()
    idx = np.arange(domain.size, dtype=np.int64)
    return [(idx // weights[j]) % domain.radices[j] for j in range(domain.n)], weights


def _rfunction_image(f: RFunction, domain: Domain) -> np.ndarray:
    if domain.radices != (f.m,) * f.n:
        raise ValueError("domain does not match the function")
    digits, weights = _coordinate_digits(domain)
    m = f.m
    if f.r == 0:
        val = np.full(domain.size, f.table.get((), 0), dtype=np.int64)
    else:
        key = np.zeros(domain.size, dtype=np.int64)
        for s in f.sources:
            key = key * m + digits[s]
        lut = np.zeros(m ** f.r, dtype=np.int64)
        for args, v in f.table.items():
            flat = 0
            for a in args:
                flat = flat * m + a
            lut[flat] = v
        val = lut[key]
    dt = digits[f.target]
    new = (dt + val) % m
    return np.arange(domain.size, dtype=np.int64) + (new - dt) * weights[f.target]


def _step_image(step, domain: Domain) -> np.ndarray:
    if isinstance(step, RFunction):
        return _rfunction_image(step, domain)
    apply = step.apply if hasattr(step, "apply") else step
    imgs = np.empty(domain.size, dtype=np.int64)
    for idx, w in enumerate(domain.words()):
        imgs[idx] = domain.rank(apply(w))
    return imgs


def densify(obj, domain: Domain) -> DensePermutation:
    """Tabulate a permutation of the domain given as a counter, a single
    step, a word function, or a list of steps applied first to last."""
    if domain.size > DENSIFY_LIMIT:
        raise BoundExceeded(f"domain size {domain.size} exceeds 2^24")
    if isinstance(obj, (list, tuple)):
        total = np.arange(domain.size, dtype=np.int64)
        for step in obj:
            total = _step_image(step, domain)[total]
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
        return {
            "observed_length": self.observed_length,
            "claimed_length": self.claimed_length,
            "max_reads": self.max_reads,
            "max_writes": self.max_writes,
            "claimed_reads": self.claimed_reads,
            "claimed_writes": self.claimed_writes,
            "distinct": self.distinct,
            "closed": self.closed,
            "truncated": self.truncated,
            "missing_count": self.missing_count,
            "missing_sample": [list(w) for w in self.missing_sample],
            "ok": self.ok,
            "problems": list(self.problems),
        }


def audit(counter: Counter, max_steps: Optional[int] = None,
          sample_cap: int = 10) -> AuditReport:
    """Walk the whole orbit and compare what happened against the claims.

    Reports the observed cycle length, worst-case step costs, and the
    words the counter never visits: their count always, and the first
    sample_cap of them in rank order whenever the walk tracks the visited
    words (up to TRACK_LIMIT words). A negative max_steps or sample_cap
    raises ValueError before the walk.
    """
    if sample_cap < 0:
        raise ValueError(f"sample_cap must be nonnegative, got {sample_cap}")
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
    """
    radices = tuple([_integer(v, "radix") for v in radices])
    if len(radices) != 3 or any(v < 2 for v in radices):
        raise ValueError("need three radices, each at least 2")
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
        weight = math.comb(m1, k)
        for a_set in itertools.combinations(range(m1), k):
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

            def try_leaf(li: int) -> bool:
                nonlocal placed, used_mask, found, count, nodes
                if li == len(leaves):
                    # no short cycle ever closed, so the last edge closed
                    # the full one: a single cycle over the whole domain
                    count += weight
                    if found is None:
                        found = _build_tree(radices, var_choice, choices)
                    return not count_solutions
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
                return False

            if try_leaf(0):
                return found

    return (found, count) if count_solutions else found


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
