"""Dense exact linear algebra over F_p, sized for the small systems this
package solves (rows are plain lists of ints): reduced row echelon forms, equal
exactly when two families span one row space, and right-nullspace bases."""

from __future__ import annotations


def rref(matrix, p: int):
    """Reduced row echelon form mod p.

    Returns (rows, pivots): the nonzero rows with leading entry 1, and the
    pivot column of each row, scanning columns left to right.
    """
    rows = [[v % p for v in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [(vi - factor * vr) % p for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_basis(matrix, ncols: int, p: int):
    """A canonical basis of the right nullspace {v : matrix @ v = 0 mod p}.

    The free-variable vectors are row-reduced once more so the output is in
    reduced echelon form with pivots in increasing column order.
    """
    reduced, pivots = rref(matrix, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return rref(basis, p)[0]
