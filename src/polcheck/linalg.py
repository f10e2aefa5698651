"""Exact Gaussian elimination over a field of FieldElements."""

from __future__ import annotations

from .fields import FieldElement


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
