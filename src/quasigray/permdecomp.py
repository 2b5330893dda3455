"""Conditional-increment permutations and their 2-function decomposition.

The building block alpha_i adds 1 to coordinate i when all earlier
coordinates are zero; composing alpha_1 through alpha_n walks the whole of
Z_m^n in a single cycle. For odd m every alpha_i factors into functions
that read at most two cells and write one, and feeding the flattened list
to a pointer gives a space-optimal counter that writes at most 2 cells per
step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from .compose import StepList, cycle_compose
from .core import Counter, Domain, _Primitive, _at_least, _integer, materialize


class RFunction(_Primitive):
    """Adds table(sources) to the target coordinate, modulo m.

    Missing table entries mean add 0. Only the target cell ever changes and
    addition is invertible, so these are bijections regardless of the
    table. A step reads and writes as every _Primitive does, even when the
    increment is zero."""

    __slots__ = ("m", "n", "sources", "target", "table", "_fn")

    def __init__(self, m: int, n: int, sources, target: int, table: dict):
        sources = tuple([_integer(s, "source") for s in sources])
        m, n, target = _at_least(m, 2, "radix"), _integer(n, "width"), _integer(target, "target")
        coords = (*sources, target)
        if any(not 0 <= c < n for c in coords):
            raise ValueError("coordinate out of range")
        if len(set(sources)) != len(sources):
            raise ValueError("duplicate source coordinate")
        if target in sources:
            raise ValueError("target cannot be one of the sources")
        clean = {}
        for args, v in table.items():
            args = tuple([_integer(a, "table key digit") for a in args])
            if len(args) != len(sources):
                raise ValueError("table key arity mismatch")
            if any(not 0 <= a < m for a in args):
                raise ValueError("table key out of range")
            v = _integer(v, "table value") % m
            if v:
                clean[args] = v
        self.m = m
        self.n = n
        self.sources = sources
        self.target = target
        self.table = clean

    @property
    def r(self) -> int:
        return len(self.sources)

    @property
    def is_two_function(self) -> bool:
        return self.r <= 2

    @classmethod
    def indicator(cls, m: int, n: int, sources, target: int, at, value: int) -> "RFunction":
        """Add value exactly when the sources spell out the tuple at."""
        return cls(m, n, sources, target, {tuple(at): value})

    @classmethod
    def product(cls, m: int, n: int, j1: int, j2: int, target: int) -> "RFunction":
        """Add the product of two cells to the target."""
        table = {(x, y): x * y % m for x in range(m) for y in range(m)}
        return cls(m, n, (j1, j2), target, table)

    def value(self, args) -> int:
        return self.table.get(tuple(args), 0)

    def _form(self) -> Callable[[list], None]:
        get, m, t, src = self.table.get, self.m, self.target, self.sources
        if len(src) == 1:
            (a,) = src

            def f(c: list) -> None:
                c[t] = (get((c[a],), 0) + c[t]) % m
        elif len(src) == 2:
            a, b = src

            def f(c: list) -> None:
                c[t] = (get((c[a], c[b]), 0) + c[t]) % m
        else:
            def f(c: list) -> None:
                c[t] = (get(tuple([c[s] for s in src]), 0) + c[t]) % m
        return f

    def shifted(self, d: int, inverse: bool = False) -> "RFunction":
        """This function, or its inverse, on coordinates d higher in a
        domain d cells wider. A valid function's shift and inverse are
        valid, so the copy is built without re-checking its table."""
        out = RFunction.__new__(RFunction)
        out.m = m = self.m
        out.n = self.n + d
        out.sources = tuple([s + d for s in self.sources])
        out.target = self.target + d
        out.table = ({k: m - v for k, v in self.table.items()} if inverse
                     else self.table)
        return out

    def __repr__(self) -> str:
        src = ",".join(f"x{s + 1}" for s in self.sources)
        return f"RFunction(x{self.target + 1} += f({src}), {len(self.table)} entries)"


def _odd_radix(m) -> int:
    """m as an int, or ValueError unless it is odd and at least 3."""
    if (m := _at_least(m, 3, "radix")) % 2 == 0:
        raise ValueError(f"radix must be odd, got {m}")
    return m


def make_alpha(i: int, m: int, n: int) -> RFunction:
    """Increment coordinate i (1-based) when coordinates 1..i-1 are all zero."""
    if not 1 <= _integer(i, "coordinate") <= n:
        raise ValueError(f"coordinate {i} out of range")
    return RFunction.indicator(m, n, tuple(range(i - 1)), i - 1, (0,) * (i - 1), 1)


def rfunction_to_dat(f: RFunction):
    """Explicit decision tree for one application of f."""
    return materialize(f.apply_tape, Domain.uniform(f.m, f.n))


def decompose_indicator(f: RFunction) -> list[RFunction]:
    """Factor a one-point table into functions reading at most two cells.

    Uses two spare coordinates u, v as scratch: with tauA adding b times the
    indicator of the first half of the match to u, tauB adding the indicator
    of the second half to v, and gamma adding u*v to the target, the
    sequence gamma, tauA, gamma', tauB, gamma, tauA', gamma', tauB' (primes
    meaning inverses) adds exactly b times the full indicator and restores
    the scratch cells. The recursion bottoms out at two sources and emits at
    most 4r^2 - 3 functions.
    """
    if f.r <= 2:
        return [f]
    if len(f.table) > 1:
        raise ValueError("table must be a scaled point indicator")
    if not f.table:
        # zero increment: nothing to route through scratch cells
        return [RFunction(f.m, f.n, (), f.target, {})]
    ((at, b),) = f.table.items()
    taken = set(f.sources) | {f.target}
    spares = [j for j in range(f.n) if j not in taken]
    if len(spares) < 2:
        raise ValueError("need two spare coordinates beyond the sources and target")
    u, v = spares[:2]
    half = f.r // 2
    tau_a = RFunction.indicator(f.m, f.n, f.sources[:half], u, at[:half], b)
    tau_b = RFunction.indicator(f.m, f.n, f.sources[half:], v, at[half:], 1)
    gamma = RFunction.product(f.m, f.n, u, v, f.target)
    gamma_inv = gamma.inverse()
    la = decompose_indicator(tau_a)
    lb = decompose_indicator(tau_b)
    la_inv = [g.inverse() for g in reversed(la)]
    lb_inv = [g.inverse() for g in reversed(lb)]
    return [gamma, *la, gamma_inv, *lb, gamma, *la_inv, gamma_inv, *lb_inv]


def decompose_boundary(i: int, m: int, n_inner: int) -> list[RFunction]:
    """2-function list for the top two conditional increments.

    Those two have no spare cells left, so they are built instead from two
    overlapping families of m-cycles: one conditions on the low cells and
    bumps a high cell by t = (m+1)/2, the other conditions on high cells and
    bumps the first by t. Interleaving the two families m times each way
    squares the t-bump into the wanted +1, and only the pairs that meet in
    the all-zeros region survive.
    """
    m, n_inner = _odd_radix(m), _at_least(n_inner, 6, "inner width")
    if _integer(i, "increment") not in (n_inner - 1, n_inner):
        raise ValueError("this path only builds the top two increments")
    t = (m + 1) // 2
    low, high = tuple(range(n_inner - 3)), tuple(range(n_inner - 3, i))
    sigma = RFunction.indicator(m, n_inner, low, i - 1, (0,) * len(low), t)
    tau = RFunction.indicator(m, n_inner, high, 0, (0,) * len(high), t)
    ds = decompose_indicator(sigma)
    dt = decompose_indicator(tau)
    return (ds + dt) * m + (dt + ds) * m


@functools.lru_cache(maxsize=None)
def _indicator_size(r: int) -> int:
    """Length of the list decompose_indicator emits for r sources."""
    if r <= 2:
        return 1
    return 4 + 2 * _indicator_size(r // 2) + 2 * _indicator_size(r - r // 2)


def _increment_size(i: int, m: int, n_inner: int) -> int:
    """Length of build_plan's list for alpha_i, by the branch that builds it."""
    if i <= n_inner - 2:
        return _indicator_size(i - 1)
    return 2 * m * (_indicator_size(n_inner - 3) + _indicator_size(i - n_inner + 3))


def plan_size(m: int, n_inner: int) -> int:
    """Length of the flattened step list build_plan would produce."""
    m, n_inner = _odd_radix(m), _at_least(n_inner, 6, "inner width")
    return sum(_increment_size(i, m, n_inner) for i in range(1, n_inner + 1))


@dataclass
class DecompositionPlan:
    """2-function lists realizing the increments alpha_1..alpha_n in order."""

    m: int
    n_inner: int
    per_index: list[list[RFunction]]

    @property
    def counts(self) -> list[int]:
        return [len(fs) for fs in self.per_index]

    @property
    def k(self) -> int:
        return sum(self.counts)

    @property
    def steps(self) -> list[RFunction]:
        return [f for fs in self.per_index for f in fs]


def build_plan(m: int, n_inner: int) -> DecompositionPlan:
    m, n_inner = _odd_radix(m), _at_least(n_inner, 6, "inner width")
    per = [decompose_indicator(make_alpha(i, m, n_inner)) if i <= n_inner - 2
           else decompose_boundary(i, m, n_inner) for i in range(1, n_inner + 1)]
    plan = DecompositionPlan(m, n_inner, per)
    assert plan.k == plan_size(m, n_inner)
    return plan


def _pointer_width(m: int, n: int):
    """Smallest r in 1 .. n-6 with m^r >= plan_size(m, n - r), or None."""
    return next((r for r in range(1, n - 5) if m ** r >= plan_size(m, n - r)), None)


def min_width(m: int) -> int:
    """Smallest total width the odd-radix counter accepts."""
    return next(n for n in itertools.count(7) if _pointer_width(m, n))


def odd_counter(m: int, n: int) -> Counter:
    """Space-optimal counter over Z_m^n for odd m, writing at most 2 cells.

    The first r cells are a Gray pointer over the flattened 2-function
    plan for the remaining n-r cells; r is the smallest width whose pointer
    cycle covers the plan. One pointer revolution advances the data part
    once through the full m^(n-r) cycle.
    """
    m, n = _odd_radix(m), _integer(n, "width")
    r = _pointer_width(m, n)
    if r is None:
        raise ValueError(
            f"width {n} too small for radix {m}; the smallest supported is {min_width(m)}")
    n_inner = n - r
    plan = build_plan(m, n_inner)
    sl = StepList(plan.steps, Domain.uniform(m, n_inner), m ** n_inner)
    return cycle_compose(sl, m, r, (0,) * n_inner, claimed_reads=r + 3, claimed_writes=2,
                         recipe={"kind": "odd", "m": m, "n": n,
                                 "pointer": r, "two_functions": plan.k})
