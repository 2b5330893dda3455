"""Cyclic m-ary Gray codes with closed-form rank and unrank.

The word of rank i has digit j equal to b_j - b_{j+1} (mod m), where the b_j
are the base-m digits of i, least significant first. Consecutive ranks then
differ in exactly one coordinate and that coordinate increases by 1 mod m,
so a step reads r cells and writes one.

Which coordinate is the carry rule of base-m counting: adding 1 to the rank
increments the lowest b_j that is not m-1 and zeroes the ones below it, so
in the Gray word only digit j moves, by +1. Subtracting 1 decrements the
lowest b_j that is not 0, so only that digit moves, by -1. When every b_j is
m-1 (or 0) the rank wraps and the top digit r-1 moves instead.

gray_scan_read finds both digits in the same pass that computes the rank.
It reads each pointer cell once, top down, from cell r-1 to cell 0, through
a callable: tape.read in gray_counter and in cycle_compose over a wide
pointer, list indexing in gray_scan. Over a pointer of at most
compose._TABLE_BOUND words, cycle_compose reads the pointer word first, in
the same order, with one tape.read_cells call, and runs gray_scan_read on
that word only the first time it sees it, not on every step. That read
order is the query order of every materialized pointer-driven counter tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Counter, Domain


def _base_digits(i: int, m: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        i, d = divmod(i, m)
        out.append(d)
    return out


def gray_unrank(i: int, m: int, r: int) -> tuple[int, ...]:
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    if not 0 <= i < m ** r:
        raise ValueError(f"rank {i} out of range for m={m}, r={r}")
    b = _base_digits(i, m, r) + [0]
    return tuple((b[j] - b[j + 1]) % m for j in range(r))


def gray_rank(word, m: int, r: int) -> int:
    if len(word) != r:
        raise ValueError(f"expected {r} digits, got {len(word)}")
    return gray_scan(word, m)[0]


def gray_scan_read(read, cells, m: int) -> tuple[int, int, int, int, int]:
    """(rank, up, g_up, down, g_down) of the Gray word read(j) for j in cells.

    cells are the pointer's cells, top digit first, e.g. range(r - 1, -1, -1);
    each is read exactly once, in that order. up is the cell a +1 rank step
    increments and down the cell a -1 step decrements, both the top cell
    when the step wraps the rank; g_up and g_down are their current digits.
    """
    top = m - 1
    up = down = cells[0]
    # on a wrap every b_j is m-1 (up) or 0 (down), and so is the top digit
    g_up = top
    g_down = b = rank = 0
    # digits telescope: b_j = g_j + b_{j+1}, recovered from the top down
    for j in cells:
        g = read(j)
        b = (g + b) % m
        rank = rank * m + b
        if b != top:
            up = j
            g_up = g
        if b:
            down = j
            g_down = g
    return rank, up, g_up, down, g_down


def gray_scan(ptr, m: int) -> tuple[int, int, int]:
    """(rank, up, down) of a Gray word whose digits the caller has read;
    see gray_scan_read."""
    rank, up, _, down, _ = gray_scan_read(ptr.__getitem__,
                                          range(len(ptr) - 1, -1, -1), m)
    return rank, up, down


def _gray_step(word, m: int, r: int, delta: int) -> tuple[int, ...]:
    if m < 2 or r < 1:
        raise ValueError("need m >= 2 and r >= 1")
    if len(word) != r:
        raise ValueError(f"expected {r} digits, got {len(word)}")
    w = [x % m for x in word]  # digits count mod m, as in gray_rank
    _, up, down = gray_scan(w, m)
    j = up if delta > 0 else down
    w[j] = (w[j] + delta) % m
    return tuple(w)


def gray_next(word, m: int, r: int) -> tuple[int, ...]:
    return _gray_step(word, m, r, 1)


def gray_prev(word, m: int, r: int) -> tuple[int, ...]:
    return _gray_step(word, m, r, -1)


@dataclass(frozen=True)
class BaseGrayCode:
    """The length-m^r cyclic Gray code over Z_m^r."""

    m: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.r < 1:
            raise ValueError("need m >= 2 and r >= 1")

    @property
    def length(self) -> int:
        return self.m ** self.r

    def unrank(self, i: int) -> tuple[int, ...]:
        return gray_unrank(i, self.m, self.r)

    def rank(self, word) -> int:
        return gray_rank(word, self.m, self.r)

    def next(self, word) -> tuple[int, ...]:
        return gray_next(word, self.m, self.r)

    def prev(self, word) -> tuple[int, ...]:
        return gray_prev(word, self.m, self.r)


def gray_counter(m: int, r: int) -> Counter:
    """Instrumented counter for the full Gray cycle on Z_m^r."""
    code = BaseGrayCode(m, r)
    cells = range(r - 1, -1, -1)

    def next_fn(tape) -> None:
        _, up, g, _, _ = gray_scan_read(tape.read, cells, m)
        tape.write(up, (g + 1) % m)

    def prev_fn(tape) -> None:
        _, _, _, down, g = gray_scan_read(tape.read, cells, m)
        tape.write(down, (g - 1) % m)

    return Counter(Domain.uniform(m, r), next_fn, prev_fn,
                   code.length, gray_unrank(0, m, r),
                   claimed_reads=r, claimed_writes=1,
                   recipe={"kind": "base", "m": m, "n": r})
