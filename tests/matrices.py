"""Matrix arithmetic over a Field, for the tests only: the oracle that
companion matrices, row operations and counter steps are checked against,
written independently of the row-operation lists the library applies.
Test modules import it as `matrices`; pytest does not collect it."""

from quasigray.linear import Field, mat_identity


def mat_mul(field: Field, a, b) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            v = a[i][t]
            if v == 0:
                continue
            row = b[t]
            oi = out[i]
            for j in range(n):
                if row[j]:
                    oi[j] = field.add(oi[j], field.mul(v, row[j]))
    return out


def mat_vec(field: Field, a, x) -> list[int]:
    out = []
    for row in a:
        v = 0
        for c, xi in zip(row, x):
            if c and xi:
                v = field.add(v, field.mul(c, xi))
        out.append(v)
    return out


def mat_inverse(field: Field, a) -> list[list[int]]:
    n = len(a)
    work = [row[:] + ident[:] for row, ident in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = field.inv(work[col][col])
        work[col] = [field.mul(pv, v) for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                c = work[r][col]
                work[r] = [field.sub(v, field.mul(c, w))
                           for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]

