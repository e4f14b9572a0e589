"""Exact linear systems over Q in sparse rows."""

from fractions import Fraction

from .poly import _accumulate


def coefficient_rows(kind, known, ops):
    """One (kind, row) per coefficient of known + sum_G x_G ops[G], as solve reads it."""
    cells = {}
    for g, op in [(None, known), *ops.items()]:
        for key, poly in op.terms.items():
            for exps, c in poly.terms.items():
                cells.setdefault((key, exps), {})[g] = c
    return [(kind, row) for row in cells.values()]


def solve(rows, unknowns):
    """Gauss-Jordan elimination over Q of the rows sum_G row[G] x_G + row[None]
    = 0, each pivot the row's first nonzero unknown in `unknowns` order; a
    pivot row is 0 in every other pivot column.  Returns (rank, consistent,
    values, null): values puts the free unknowns at 0, and null maps each
    free unknown to the homogeneous solution, 1 on it and 0 on the others."""
    col = {g: j for j, g in enumerate(unknowns)}
    width = len(unknowns)  # the constant's column
    pivots, consistent = {}, True
    for _, row in rows:
        r = {width if g is None else col[g]: Fraction(c) for g, c in row.items() if c}
        for j, f in [(j, f) for j, f in r.items() if j in pivots]:
            for k, b in pivots[j].items():
                _accumulate(r, k, -f * b)
        lead = min(r, default=width)
        if lead == width:
            consistent = consistent and not r
            continue
        r = {k: a / r[lead] for k, a in r.items()}
        for p, f in [(p, p[lead]) for p in pivots.values() if lead in p]:
            for k, b in r.items():
                _accumulate(p, k, -f * b)
        pivots[lead] = r

    def solution(f):  # x_f = 1 and the other free unknowns 0; f = width gives values
        return {g: -pivots[j].get(f, Fraction(0)) if j in pivots else Fraction(j == f)
                for g, j in col.items()}
    return (len(pivots), consistent, solution(width),
            {g: solution(f) for g, f in col.items() if f not in pivots})
