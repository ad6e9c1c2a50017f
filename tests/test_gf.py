"""Finite field arithmetic and the small linear-algebra kit."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from crosscheck import (
    carry_less_inv,
    carry_less_mul,
    matrix_rank,
    rref_matrix_rank,
    rref_solution_space,
)
from geoplan import gf
from geoplan.errors import InvalidInputError
from geoplan.gf import (
    BinaryField,
    PrimeField,
    cauchy_matrix,
    field,
    is_prime,
    solution_space,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 101, 65537]
    composites = [1, 0, 4, 6, 9, 15, 91, 65536]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_a_sieve_below_200000():
    limit = 200_000
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


# the least strong pseudoprime to the first t prime bases, t = 1, ..., 11
# (OEIS A014233, repeats dropped), and Carmichael numbers
STRONG_PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]


def test_is_prime_is_exact_on_pseudoprimes_and_large_primes():
    assert not any(map(is_prime, STRONG_PSEUDOPRIMES + CARMICHAEL))
    assert all(map(is_prime, (10**16 + 61, 2**61 - 1, 4611686018427387847, 2**64 - 59)))
    assert not is_prime(4294967291**2) and not is_prime(1000000007 * 998244353)
    with pytest.raises(ValueError):
        is_prime(2**64 + 13)


def test_field_orders_from_2_to_the_64_are_refused_by_digit_count():
    assert isinstance(field(2**64 - 59), PrimeField)
    for q, digits in ((2**64 + 1, 20), (10**999 + 7, 1000)):
        with pytest.raises(InvalidInputError, match=f"field order of {digits} digits"):
            field(q)


def test_field_dispatch():
    assert isinstance(field(7), PrimeField)
    assert isinstance(field(2), PrimeField)
    assert isinstance(field(4), BinaryField)
    assert isinstance(field(1 << 16), BinaryField)
    for bad in (1, 6, 9, 12, 1 << 17):
        with pytest.raises(InvalidInputError):
            field(bad)


def test_prime_field_inverses():
    f = field(13)
    for a in range(1, 13):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_binary_field_known_products():
    f = field(8)  # x^3 + x + 1
    assert f.mul(0b010, 0b100) == 0b011  # x * x^2 = x + 1
    assert f.add(0b101, 0b101) == 0
    assert f.neg(0b110) == 0b110
    assert f.sub(0b011, 0b101) == 0b110


def test_binary_field_inverses_exhaustive():
    """a * inv(a) = 1, and ``mul`` and ``inv`` agree with the bit-by-bit
    reference: on every pair up to GF(2^8), on seeded pairs above."""
    for order in (4, 8, 256):
        f = field(order)
        for a in range(1, order):
            assert f.mul(a, f.inv(a)) == 1
    rng = random.Random(16)
    for m in range(1, 17):
        f = BinaryField(m)
        q = f.order
        if m <= 8:
            pairs = product(range(q), repeat=2)
            nonzero = range(1, q)
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
            pairs += [(0, rng.randrange(q)), (rng.randrange(q), 0), (1, q - 1), (q - 1, q - 1)]
            nonzero = [1, q - 1, *(rng.randrange(1, q) for _ in range(200))]
        assert all(f.mul(a, b) == carry_less_mul(f, a, b) for a, b in pairs), m
        assert all(f.inv(a) == carry_less_inv(f, a) for a in nonzero), m
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_binary_field_tables_are_built_on_first_use_only():
    """Importing geoplan and making GF(2^16) builds no table; the first
    product builds that order's tables once for every field object."""
    script = (
        "import geoplan, geoplan.gf as gf\n"
        "f = gf.field(1 << 16)\n"
        "print(sorted(gf._TABLES))\n"
        "f.mul(3, 5)\n"
        "tables = gf._TABLES[16]\n"
        "gf.field(1 << 16).inv(7)\n"
        "print(sorted(gf._TABLES), gf._TABLES[16] is tables)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "[16] True"]


@pytest.mark.parametrize("modulus", [0b11111, 0b10101], ids=["x-of-order-5", "reducible"])
def test_binary_field_tables_refuse_a_polynomial_x_does_not_generate(monkeypatch, modulus):
    monkeypatch.setitem(gf._REDUCTION, 4, modulus)
    monkeypatch.setattr(gf, "_TABLES", {})
    with pytest.raises(ValueError, match="not primitive"):
        BinaryField(4).mul(2, 3)
    assert gf._TABLES == {}


def test_coerce():
    f = field(7)
    assert f.coerce(9) == 2
    assert f.coerce(-1) == 6
    g = field(8)
    assert g.coerce(5) == 5
    with pytest.raises(InvalidInputError):
        g.coerce(8)


def _mat_mul(f, left, right):
    rows = len(left)
    cols = len(right[0])
    inner = len(right)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = f.add(acc, f.mul(left[i][t], right[t][j]))
            out[i][j] = acc
    return out


def _columns(f, rows):
    """The columns of a row-major matrix, coerced row by row as a code
    file's generator is."""
    return list(zip(*[[f.coerce(x) for x in row] for row in rows]))


def _rank(f, rows):
    return matrix_rank(f, _columns(f, rows), len(rows))


def _solve(f, rows):
    """``solution_space`` on a row-major matrix, each solution spread
    over all n entries as the reference returns it."""
    columns = _columns(f, rows)
    kept, coefficients = solution_space(f, columns, len(rows))
    particulars = []
    for y in coefficients:
        x = [f.zero] * len(columns)
        for c, a in zip(kept, y):
            x[c] = a
        particulars.append(tuple(x))
    return particulars


def test_matrix_rank():
    f = field(3)
    assert _rank(f, [[1, 2], [2, 2]]) == 2
    # det(((1,2),(2,1))) = -3, zero mod 3, so the rows collapse
    assert _rank(f, [[1, 2], [2, 1]]) == 1
    assert _rank(f, [[1, 2], [2, 4]]) == 1
    assert _rank(f, []) == 0


def test_solution_space_solves_each_unit_vector():
    f = field(2)
    matrix = [[1, 0, 1], [0, 1, 1]]
    particulars = _solve(f, matrix)
    assert len(particulars) == 2
    for j, x in enumerate(particulars):
        col = _mat_mul(f, matrix, [[e] for e in x])
        expect = [[1] if i == j else [0] for i in range(2)]
        assert col == expect


def test_solution_space_rank_deficient():
    f = field(3)
    with pytest.raises(InvalidInputError):
        _solve(f, [[1, 2, 0], [2, 4, 0]])


def _outcome(solve, f, matrix):
    try:
        return solve(f, matrix)
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 11, 256, 65536, 65537])
def test_elimination_matches_the_row_reduction(q):
    """Same particulars, ranks and errors as a full-width RREF on seeded
    matrices with zero, repeated and dependent columns and cells past q."""
    f = field(q)
    rng = random.Random(q)
    deficient = 0
    for k in range(1, 6):
        for n in range(k, 13):
            for _ in range(4):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                shape = rng.randrange(5)
                if shape == 1:  # a zero column
                    c = rng.randrange(n)
                    for row in rows:
                        row[c] = 0
                elif shape == 2 and n > 1:  # a repeated column
                    a, b = rng.sample(range(n), 2)
                    for row in rows:
                        row[b] = row[a]
                elif shape == 3 and k > 1:  # a dependent row: rank k - 1 at most
                    rows[-1] = [f.mul(rng.randrange(q), x) for x in rows[0]]
                elif shape == 4:  # a cell past q: reduced mod p, refused in GF(2^m)
                    rows[rng.randrange(k)][rng.randrange(n)] = q + rng.randrange(q)
                expect = _outcome(rref_solution_space, f, rows)
                assert _outcome(_solve, f, rows) == expect
                assert _outcome(_rank, f, rows) == _outcome(rref_matrix_rank, f, rows)
                deficient += expect == "generator matrix is rank deficient"
    assert deficient > 0


def test_cauchy_matrix_submatrices_invertible():
    f = field(11)
    matrix = cauchy_matrix(f, [0, 1, 2, 3], [f.neg(4), f.neg(5), f.neg(6)])
    rng = random.Random(5)
    for size in (1, 2, 3):
        for _ in range(10):
            rows = rng.sample(range(4), size)
            cols = rng.sample(range(3), size)
            sub = [[matrix[r][c] for c in cols] for r in rows]
            assert _rank(f, sub) == size


def test_cauchy_matrix_rejects_collisions():
    f = field(5)
    with pytest.raises(InvalidInputError):
        cauchy_matrix(f, [0, 1], [f.neg(1), f.neg(3)])
