"""Exact Gaussian elimination over a field of FieldElements, and the
Q-basis of a list of field elements."""

from __future__ import annotations

from .fields import RATFUNC, FieldElement, FieldSpec, QuadRat


def _eliminate(rows: list[list[FieldElement]], ncols: int) -> list[int]:
    """Forward elimination in place on the first ``ncols`` columns, with
    deterministic pivoting on the first nonzero entry.  Returns the pivot
    columns; the rows past their count are zero in those columns."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col].is_zero():
                continue
            factor = rows[i][col] / pivot
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix: list[list[FieldElement]]) -> int:
    """Rank by row reduction."""
    if not matrix:
        return 0
    return len(_eliminate([list(row) for row in matrix], len(matrix[0])))


def solve(matrix: list[list[FieldElement]], rhs: list[FieldElement]):
    """Solve M c = rhs exactly, by back substitution on the reduced
    augmented matrix.

    Returns a solution vector (free variables set to zero) or None when
    the system is inconsistent.
    """
    if not matrix:
        return []
    n = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _eliminate(aug, n)
    if any(not row[n].is_zero() for row in aug[len(pivots):]):
        return None
    solution = [rhs[0].spec.zero()] * n
    for r in reversed(range(len(pivots))):
        row, col = aug[r], pivots[r]
        value = row[n]
        for later in pivots[r + 1:]:
            value = value - row[later] * solution[later]
        solution[col] = value / row[col]
    return solution


def q_basis(elements: list[FieldElement]):
    """The greedy Q-basis of the rational span of ``elements``: in order,
    an element is kept unless it is a rational combination of the ones
    kept before it, so zeros go and the first nonzero element stays.
    Returns the basis and, for each element left out, the pair of the
    element and its ``Fraction`` coefficients on the first basis
    elements.  Coordinates over Q come from one injective Q-linear map:
    the value, its two parts over Q(sqrt d), and over a function field
    the parts of each coefficient of the element times the product of
    the elements' distinct denominators."""
    spec = elements[0].spec
    d = spec.radicand
    rows = [[e.payload] for e in elements]
    if spec.kind == RATFUNC:
        dens = list(dict.fromkeys(e.payload[1] for e in elements))
        polys = []
        for e in elements:
            num, den = e.payload
            for other in dens:
                if other != den:
                    num = num * other
            polys.append(num.terms)
        keys = sorted(set().union(*polys))
        rows = [[p.get(key, 0) for key in keys] for p in polys]
    rationals = FieldSpec.rationals()
    basis, columns, dropped = [], [], []
    for e, row in zip(elements, rows):
        vector = [rationals.from_fraction(x) for c in row for x in
                  ((c,) if d is None else (c.a, c.b) if type(c) is QuadRat else (c, 0))]
        solution = solve([[column[i] for column in columns] for i in range(len(vector))], vector)
        if solution is None:
            basis.append(e)
            columns.append(vector)
        else:
            dropped.append((e, tuple(c.payload for c in solution)))
    return basis, dropped
