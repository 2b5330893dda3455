"""Cyclic m-ary Gray codes with closed-form rank and unrank.

The code over Z_m^r is named by the pair (m, r) alone: every function
below takes it as two arguments, and so does compose.cycle_compose for its
pointer.

The word of rank i has digit j equal to b_j - b_{j+1} (mod m), where the b_j
are the base-m digits of i, least significant first. Consecutive ranks then
differ in exactly one coordinate and that coordinate increases by 1 mod m,
so a step reads r cells and writes one.

Which coordinate is the carry rule of base-m counting: adding 1 to the rank
increments the lowest b_j that is not m-1 and zeroes the ones below it, so
in the Gray word only digit j moves, by +1. Subtracting 1 decrements the
lowest b_j that is not 0, so only that digit moves, by -1. When every b_j is
m-1 (or 0) the rank wraps and the top digit r-1 moves instead.

gray_counter reads its whole word, top down from cell r-1 to cell 0, with
one tape.read_cells call, then finds the digit to move from the bottom up
(_gray_move): b_0 is the digit sum mod m, and b_{j+1} is b_j less digit
j, mod m. The walk stops at the first b_j that is not m-1 (or 0), after
about 1 + 1/(m-1) cells on average. That is its Tape path, which audits
and materialize run. Counter.next and prev take its word path instead:
the same _gray_move on a plain list, returning the cost every step has,
r reads and 1 write. gray_next and gray_prev run that word path on the
digits mod m. Counter.walk steps the rank's base-m digits as an odometer
instead, after one gray_scan per call.

gray_scan is the one Gray decode: one pass over the digits, top down,
gives the rank and the cells a +1 and a -1 rank step move. gray_rank and
gray_counter's walk run it, and so does each direction of a
compose.cycle_compose step on a pointer word its table for that direction
has not stored, after reading the word top down from cell r-1 to cell 0
with one tape.read_cells call. That read order is the query order of
every materialized base and pointer-driven counter tree, crt products
included.
"""

from __future__ import annotations

from .core import Counter, Domain, _cost, _integer


def _check(m: int, r: int, word=None) -> None:
    if _integer(m, "m") < 2 or _integer(r, "r") < 1:
        raise ValueError("need m >= 2 and r >= 1")
    if word is not None and len(word) != r:
        raise ValueError(f"expected {r} digits, got {len(word)}")
    for j, x in enumerate(() if word is None else word):  # any int counts mod m
        _integer(x, f"digit {j}")


def gray_unrank(i: int, m: int, r: int) -> tuple[int, ...]:
    _check(m, r)
    b = (*reversed(Domain.uniform(m, r).unrank(i)), 0)  # base-m digits, lowest first
    return tuple((b[j] - b[j + 1]) % m for j in range(r))


def gray_rank(word, m: int, r: int) -> int:
    _check(m, r, word)
    return gray_scan(word, m)[0]


def gray_scan(ptr, m: int) -> tuple[int, int, int]:
    """(rank, up, down) of the Gray word ptr, digit j at ptr[j].

    up is the cell a +1 rank step increments and down the cell a -1 step
    decrements, both the top cell when the step wraps the rank. The digits
    are walked once, top cell first.
    """
    top = m - 1
    up = down = j = len(ptr) - 1
    b = rank = 0
    # digits telescope: b_j = g_j + b_{j+1}, recovered from the top down;
    # on a wrap every b_j is m-1 (up) or 0 (down), and the top cell moves
    for g in reversed(ptr):
        b = (g + b) % m
        rank = rank * m + b
        if b != top:
            up = j
        if b:
            down = j
        j -= 1
    return rank, up, down


def _gray_move(digits, m: int, stop: int) -> int:
    """Index in digits, a Gray word listed top cell first, of the digit a
    step moves: the lowest cell j whose b_j is not stop, else the top cell.

    stop is m - 1 for a +1 rank step and 0 for a -1 step. b_0 is the digit
    sum mod m and b_{j+1} is b_j less digit j, mod m, so each cell the walk
    passes costs one subtraction.
    """
    s = sum(digits)
    i = len(digits) - 1  # cell 0
    while i and s % m == stop:
        s -= digits[i]
        i -= 1
    return i


def _gray_step(word, m: int, r: int, delta: int) -> tuple[int, ...]:
    _check(m, r, word)
    # digits count mod m, as in gray_rank
    step = _gray_tape_step(m, r, m - 1 if delta > 0 else 0, delta).word_step
    return step([x % m for x in word])[0]


def gray_next(word, m: int, r: int) -> tuple[int, ...]:
    return _gray_step(word, m, r, 1)


def gray_prev(word, m: int, r: int) -> tuple[int, ...]:
    return _gray_step(word, m, r, -1)


def gray_counter(m: int, r: int) -> Counter:
    """Instrumented counter for the full Gray cycle on Z_m^r.

    On the Tape path a step reads all r cells with one read_cells call, top
    down from cell r-1 to cell 0, and writes the one digit _gray_move
    picks. The word path (Counter.next and prev) moves the same digit of a
    plain list and returns StepStats(r, 1), the cost of every Tape step.
    Counter.walk (so gen) decodes the word's rank once and keeps its base-m
    digits as an odometer, moving the digit _gray_move would pick.
    """
    start = gray_unrank(0, m, r)  # checks m and r
    return Counter(Domain.uniform(m, r), _gray_tape_step(m, r, m - 1, 1),
                   _gray_tape_step(m, r, 0, -1), m ** r, start,
                   claimed_reads=r, claimed_writes=1,
                   recipe={"kind": "base", "m": m, "n": r})


def _gray_tape_step(m: int, r: int, stop: int, delta: int):
    """gray_counter's step in one direction (stop m - 1 and delta +1 for
    next, 0 and -1 for prev): a tape step function whose word_step
    attribute is its word path."""
    cells = range(r - 1, -1, -1)
    cost = _cost(r, 1)

    def tape_fn(tape) -> None:
        w = tape.read_cells(cells)
        i = _gray_move(w, m, stop)
        tape.write(r - 1 - i, (w[i] + delta) % m)

    def word_step(word):
        w = list(word)
        j = r - 1 - _gray_move(word[::-1], m, stop)
        w[j] = (w[j] + delta) % m
        return tuple(w), cost

    def word_walk(word, count):
        # the rank's base-m digits b_j, lowest first, as an odometer: a step
        # resets the b_j equal to stop below the lowest other one, moves that
        # one by delta, and so moves Gray digit j by delta; on a wrap every
        # b_j resets and the top cell moves, as in _gray_move
        b = [*reversed(Domain.uniform(m, r).unrank(gray_scan(word, m)[0]))]
        reset = m - 1 - stop
        cells = list(word)
        out = []
        for _ in range(count):
            j = 0
            while j < r and b[j] == stop:
                b[j] = reset
                j += 1
            if j == r:
                j = r - 1
            else:
                b[j] += delta
            cells[j] = (cells[j] + delta) % m
            out.append(tuple(cells))
        return out

    tape_fn.word_step = word_step
    tape_fn.word_walk = word_walk
    return tape_fn
