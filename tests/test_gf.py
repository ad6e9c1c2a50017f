"""Finite field arithmetic and the small linear-algebra kit."""

from __future__ import annotations

import random

import pytest

from geoplan.errors import InvalidInputError
from geoplan.gf import (
    BinaryField,
    PrimeField,
    cauchy_matrix,
    field,
    is_prime,
    matrix_rank,
    rref,
    solution_space,
)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 101, 65537]
    composites = [1, 0, 4, 6, 9, 15, 91, 65536]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


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
    for order in (4, 8, 256):
        f = field(order)
        for a in range(1, order):
            assert f.mul(a, f.inv(a)) == 1


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


def test_rref_transform_reproduces_result():
    f = field(5)
    original = [[1, 2, 3], [4, 0, 1]]
    rows = [row[:] for row in original]
    pivots, transform = rref(f, rows)
    assert len(pivots) == 2
    assert _mat_mul(f, transform, original) == rows
    for i, col in enumerate(pivots):
        assert rows[i][col] == 1


def test_matrix_rank():
    f = field(3)
    assert matrix_rank(f, [[1, 2], [2, 2]]) == 2
    # det(((1,2),(2,1))) = -3, zero mod 3, so the rows collapse
    assert matrix_rank(f, [[1, 2], [2, 1]]) == 1
    assert matrix_rank(f, [[1, 2], [2, 4]]) == 1
    assert matrix_rank(f, []) == 0


def test_solution_space_solves_each_unit_vector():
    f = field(2)
    matrix = [[1, 0, 1], [0, 1, 1]]
    particulars = solution_space(f, matrix)
    assert len(particulars) == 2
    for j, x in enumerate(particulars):
        col = _mat_mul(f, matrix, [[e] for e in x])
        expect = [[1] if i == j else [0] for i in range(2)]
        assert col == expect


def test_solution_space_rank_deficient():
    f = field(3)
    with pytest.raises(InvalidInputError):
        solution_space(f, [[1, 2, 0], [2, 4, 0]])


def test_cauchy_matrix_submatrices_invertible():
    f = field(11)
    matrix = cauchy_matrix(f, [0, 1, 2, 3], [f.neg(4), f.neg(5), f.neg(6)])
    rng = random.Random(5)
    for size in (1, 2, 3):
        for _ in range(10):
            rows = rng.sample(range(4), size)
            cols = rng.sample(range(3), size)
            sub = [[matrix[r][c] for c in cols] for r in rows]
            assert matrix_rank(f, sub) == size


def test_cauchy_matrix_rejects_collisions():
    f = field(5)
    with pytest.raises(InvalidInputError):
        cauchy_matrix(f, [0, 1], [f.neg(1), f.neg(3)])
