"""Finite field arithmetic for storage codes.

Supports prime fields GF(p) for p < 2^64 and binary extension fields
GF(2^m) for m <= 16.  Elements are plain ints: residues for prime
fields, bit representations of polynomials for binary fields.  Other
prime powers are rejected.  Primality is decided by a deterministic
Miller-Rabin test, so a large prime order costs microseconds.

A binary field multiplies, inverts and scales rows through one pair of
log/antilog tables per field order: the powers of x, which is primitive
modulo each of the reduction polynomials below, so x^i runs through
every nonzero element.  A field order's tables are built on the first
product or inverse taken in it, not at import or when ``field`` makes
a field, and are shared by every field object of that order for the
rest of the process.  GF(2^16)'s take about 20 ms and 5.8 MB.

The linear algebra is one elimination, ``_eliminate``, on a k-row
matrix given as its columns of field elements in the order to walk: it
keeps each column independent of those kept before it and stops at the
k-th, one whole-row operation (``sub_scaled``, one per field class) at
a time.  ``solution_space`` solves G x = e_j on the kept columns; it
does not coerce.  The evaluator passes each node's coerced generator
row, its column, in (RTT, node index) order, so the solve stops at the
k-th independent column in that order.
"""

from __future__ import annotations

from functools import cached_property

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
#: ``(log, exp)`` per binary field degree m, filled by ``_log_tables``
_TABLES: dict[int, tuple[list[int], list[int]]] = {}


#: Miller-Rabin with these bases is exact below 318665857834031151167461
#: (Sorenson and Webster 2015), which is more than 2^64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: prime field orders must be below this
PRIME_ORDER_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n >= PRIME_ORDER_LIMIT:
        raise ValueError("is_prime is exact only below 2^64")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    def sub_scaled(self, x, a, y):
        """The row x - a*y."""
        p = self.order
        return [(u - a * w) % p for u, w in zip(x, y)]


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

    @cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        return _TABLES.get(self.m) or _log_tables(self.m)

    def mul(self, a, b):
        if a and b:
            log, exp = self._tables
            return exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        log, exp = self._tables
        return exp[self.order - 1 - log[a]]

    def coerce(self, a: int) -> int:
        if 0 <= a < self.order:
            return a
        raise InvalidInputError(f"{a} is not an element of GF(2^{self.m})")

    def sub_scaled(self, x, a, y):
        """The row x - a*y, which is x + a*y in characteristic 2, for a
        nonzero ``a`` (``log[0]`` is no logarithm); ``_eliminate``
        passes no other."""
        log, exp = self._tables
        la = log[a]
        return [u ^ exp[la + log[w]] if w else u for u, w in zip(x, y)]


def _log_tables(m: int) -> tuple[list[int], list[int]]:
    """Build and cache GF(2^m)'s ``(log, exp)``: ``exp[i]`` is x^i for
    0 <= i < 2(q - 1), so a sum of two logs needs no reduction, and
    ``log[a]`` is the i < q - 1 with x^i = a for nonzero a.  Each power
    is the one before shifted left and reduced.  Raises unless x runs
    through all q - 1 nonzero elements."""
    q = 1 << m
    modulus = _REDUCTION[m]
    log = [0] * q
    exp = [0] * (q - 1)
    a = 1
    for i in range(q - 1):
        exp[i] = a
        log[a] = i
        a <<= 1
        if a & q:
            a ^= modulus
    # each of 2..q-1 got a log in q - 1 steps only if the powers are distinct
    if 0 in log[2:]:
        raise ValueError(f"x is not primitive modulo the GF(2^{m}) reduction polynomial")
    exp += exp
    _TABLES[m] = log, exp
    return log, exp


def field(order: int):
    """Field for the given order: a prime below 2^64, or a power of two up
    to 2^16."""
    if order < 2:
        raise InvalidInputError(f"field order must be at least 2, got {order}")
    if order > 2 and order & (order - 1) == 0:
        return BinaryField(order.bit_length() - 1)
    if order >= PRIME_ORDER_LIMIT:
        raise InvalidInputError(
            f"unsupported field order of {len(str(order))} digits: prime orders must be below 2^64"
        )
    if is_prime(order):
        return PrimeField(order)
    raise InvalidInputError(
        f"unsupported field order {order}: only primes and powers of two are implemented"
    )


# ---------------------------------------------------------------------------
# Linear algebra over a field


def _eliminate(f, columns, k: int):
    """Walk k-entry ``columns`` in order, keeping each one independent of
    the columns kept before it, and stop at the k-th kept column.

    Returns ``(kept, basis)``: ``kept`` lists the kept positions in
    increasing order, the pivot columns a row reduction would find, and
    ``basis`` maps each pivot row r to a row whose first k entries are
    the reduced column and whose last k entries are its coefficients
    over the kept columns, slot i for ``kept[i]``.  The basis stays
    fully reduced, so at rank k the reduced columns are the unit vectors
    and ``basis[r][k:]`` solves ``G x = e_r`` on the kept columns.
    """
    basis: dict[int, list[int]] = {}
    kept: list[int] = []
    zeros = [f.zero] * (2 * k)
    for c, column in enumerate(columns):
        v = [*column, *zeros[:k]]
        v[k + len(kept)] = f.one
        for r, b in basis.items():
            if v[r]:
                v = f.sub_scaled(v, v[r], b)
        pivot = next(filter(v.__getitem__, range(k)), None)
        if pivot is None:
            continue
        if v[pivot] != f.one:
            # v / v[pivot], written as 0 - (-1 / v[pivot]) * v
            v = f.sub_scaled(zeros, f.neg(f.inv(v[pivot])), v)
        for r, b in basis.items():
            if b[pivot]:
                basis[r] = f.sub_scaled(b, b[pivot], v)
        basis[pivot] = v
        kept.append(c)
        if len(kept) == k:
            break
    return kept, basis


def solution_space(f, columns, k: int):
    """For a rank-k matrix G given by its k-entry ``columns`` of field
    elements, solve G x = e_j for every j.

    Returns ``(kept, coefficients)``: ``kept`` lists the positions of
    the first k independent columns, the pivot columns of G's row
    reduction, in increasing order, and ``coefficients[j][i]`` is the
    entry at ``kept[i]`` of the solution of G x = e_j; every other
    entry, each free variable, is zero.  The elimination stops at the
    k-th independent column, so columns after it are never reduced.
    """
    kept, basis = _eliminate(f, columns, k)
    if len(kept) < k:
        raise InvalidInputError("generator matrix is rank deficient")
    return kept, [basis[j][k:] for j in range(k)]


def cauchy_matrix(f, xs, ys):
    """Cauchy matrix 1/(x_i + y_j); any square submatrix is invertible."""
    seen = set(xs) | {f.neg(y) for y in ys}
    if len(seen) != len(xs) + len(ys):
        raise InvalidInputError("cauchy construction needs x_i and -y_j pairwise distinct")
    return tuple(tuple(f.inv(f.add(x, y)) for y in ys) for x in xs)
