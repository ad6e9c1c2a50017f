"""Finite field arithmetic for storage codes.

Supports prime fields GF(p) and binary extension fields GF(2^m) for
m <= 16.  Elements are plain ints: residues for prime fields, bit
representations of polynomials for binary fields.  Other prime powers
are rejected.
"""

from __future__ import annotations

from .errors import InvalidInputError

# reduction polynomials for GF(2^m), bit m set; standard low-weight choices
_REDUCTION = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    def __init__(self, p: int):
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def inv(self, a):
        if a % self.order == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.order - 2, self.order)

    def coerce(self, a: int) -> int:
        return a % self.order


class BinaryField:
    def __init__(self, m: int):
        if m not in _REDUCTION:
            raise InvalidInputError(f"GF(2^{m}) unsupported, need 1 <= m <= 16")
        self.m = m
        self.order = 1 << m
        self.modulus = _REDUCTION[m]
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a ^ b

    sub = add  # characteristic 2

    def neg(self, a):
        return a

    def mul(self, a, b):
        # carry-less multiply with on-the-fly reduction
        r = 0
        top = self.order
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return r

    def pow(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.pow(a, self.order - 2)

    def coerce(self, a: int) -> int:
        if 0 <= a < self.order:
            return a
        raise InvalidInputError(f"{a} is not an element of GF(2^{self.m})")


def field(order: int):
    """Field for the given order: prime, or a power of two up to 2^16."""
    if order < 2:
        raise InvalidInputError(f"field order must be at least 2, got {order}")
    if is_prime(order):
        return PrimeField(order)
    if order & (order - 1) == 0:
        return BinaryField(order.bit_length() - 1)
    raise InvalidInputError(
        f"unsupported field order {order}: only primes and powers of two are implemented"
    )


# ---------------------------------------------------------------------------
# Linear algebra over a field


def rref(f, rows: list[list[int]]):
    """Reduced row echelon form in place; returns (pivot_columns, transform).

    ``transform`` is the square matrix of accumulated row operations, so
    ``transform @ original == rref``.
    """
    k = len(rows)
    width = len(rows[0]) if k else 0
    transform = [[f.one if i == j else f.zero for j in range(k)] for i in range(k)]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, k) if rows[i][col] != f.zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        transform[r], transform[pivot] = transform[pivot], transform[r]
        scale = f.inv(rows[r][col])
        rows[r] = [f.mul(scale, x) for x in rows[r]]
        transform[r] = [f.mul(scale, x) for x in transform[r]]
        for i in range(k):
            if i == r or rows[i][col] == f.zero:
                continue
            factor = rows[i][col]
            rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
            transform[i] = [
                f.sub(x, f.mul(factor, y)) for x, y in zip(transform[i], transform[r])
            ]
        pivots.append(col)
        r += 1
        if r == k:
            break
    return pivots, transform


def matrix_rank(f, matrix) -> int:
    rows = [[f.coerce(x) for x in row] for row in matrix]
    if not rows:
        return 0
    pivots, _ = rref(f, rows)
    return len(pivots)


def solution_space(f, matrix):
    """For a full-row-rank k x n matrix G, solve G x = e_j for every j.

    Returns ``(particulars, null_basis)`` where ``particulars[j]`` is one
    solution of G x = e_j (free variables zero) and ``null_basis`` spans
    the kernel of G, so every solution is a particular plus a kernel
    combination.
    """
    rows = [[f.coerce(x) for x in row] for row in matrix]
    k = len(rows)
    n = len(rows[0]) if k else 0
    pivots, transform = rref(f, rows)
    if len(pivots) < k:
        raise InvalidInputError("generator matrix is rank deficient")
    particulars = []
    for j in range(k):
        x = [f.zero] * n
        for i, col in enumerate(pivots):
            x[col] = transform[i][j]
        particulars.append(tuple(x))
    free_cols = [c for c in range(n) if c not in pivots]
    null_basis = []
    for fc in free_cols:
        y = [f.zero] * n
        y[fc] = f.one
        for i, col in enumerate(pivots):
            y[col] = f.neg(rows[i][fc])
        null_basis.append(tuple(y))
    return particulars, null_basis


def cauchy_matrix(f, xs, ys):
    """Cauchy matrix 1/(x_i + y_j); any square submatrix is invertible."""
    seen = set(xs) | {f.neg(y) for y in ys}
    if len(seen) != len(xs) + len(ys):
        raise InvalidInputError("cauchy construction needs x_i and -y_j pairwise distinct")
    return tuple(tuple(f.inv(f.add(x, y)) for y in ys) for x in xs)
