"""Scalar ``Mat2`` arithmetic, which runs on ``Ring._matmul``,
``Ring._dot`` and the ring's interned rows, against two independent
routes: the bulk gather kernel (``MatrixSpace.matmul``/``det_indices``/
``trace_indices`` and ``PairTables``) and the digit route
(``Ring._digit_add``/``_digit_mul``/``_digit_neg``); past the table
limit, against integer and polynomial arithmetic on the element indices;
and the refusal to mix rings."""

import operator

import numpy as np
import pytest

from nilquat.chain_ring import Ring, parse_ring_spec, ring_from_string
from nilquat.mat2 import Mat2, identity, matrix_space

_PAIRS = 2000


def _idx(entries):
    return tuple(e.idx for e in entries)


def _digit_dot(ring, a, b, c, d):
    return ring._digit_add(ring._digit_mul(a, b), ring._digit_mul(c, d))


def _digit_matmul(ring, A, B):
    a11, a12, a21, a22 = A.entries()
    b11, b12, b21, b22 = B.entries()
    return (_digit_dot(ring, a11, b11, a12, b21),
            _digit_dot(ring, a11, b12, a12, b22),
            _digit_dot(ring, a21, b11, a22, b21),
            _digit_dot(ring, a21, b12, a22, b22))


def _digit_det(ring, A):
    return ring._digit_add(ring._digit_mul(A.a11, A.a22),
                           ring._digit_neg(ring._digit_mul(A.a12, A.a21)))


def _matrices(ring, x):
    return [Mat2(*(ring.from_index(int(i)) for i in col)) for col in x.T]


@pytest.fixture(scope="module", params=["zmod:3^2", "polyq:3^2^1"])
def sample(request):
    """_PAIRS random pairs (A, B) as index rows x[:4], x[4:] and as Mat2
    lists; B = A in every tenth pair, so == meets equal pairs too."""
    ring = ring_from_string(request.param)
    x = np.random.default_rng(16).integers(0, ring.size, size=(8, _PAIRS))
    x[4:, ::10] = x[:4, ::10]
    return ring, x, _matrices(ring, x[:4]), _matrices(ring, x[4:])


def test_product_matches_bulk_and_digit_routes(sample):
    ring, x, A, B = sample
    bulk = np.stack(matrix_space(ring).matmul(tuple(x[:4]), tuple(x[4:])))
    scalar = [_idx((M * N).entries()) for M, N in zip(A, B)]
    assert scalar == [tuple(col) for col in bulk.T.tolist()]
    assert scalar == [_idx(_digit_matmul(ring, M, N)) for M, N in zip(A, B)]


@pytest.mark.parametrize("spec", ["zmod:3^2", "zmod:3^7"])
def test_fused_matmul_matches_the_digit_route(spec):
    """Ring._matmul on its own, on a dense ring and on one past
    TABLE_SIZE_LIMIT: each of its four entries is a digit-route sum of
    two digit-route products."""
    ring = ring_from_string(spec)
    x = np.random.default_rng(26).integers(0, ring.size, size=(8, 200))
    for M, N in zip(_matrices(ring, x[:4]), _matrices(ring, x[4:])):
        got = ring._matmul(*M.entries(), *N.entries())
        assert _idx(got) == _idx(_digit_matmul(ring, M, N))


def test_det_and_trace_match_bulk_and_digit_routes(sample):
    ring, x, A, _ = sample
    space = matrix_space(ring)
    det = [M.det().idx for M in A]
    trace = [M.trace().idx for M in A]
    assert det == space.det_indices(tuple(x[:4])).tolist()
    assert trace == space.trace_indices(tuple(x[:4])).tolist()
    assert det == [_digit_det(ring, M).idx for M in A]
    assert trace == [ring._digit_add(M.a11, M.a22).idx for M in A]


def test_sum_difference_and_negation_match_bulk_and_digit_routes(sample):
    ring, x, A, B = sample
    t = ring.pair_tables
    a, b = t.narrow(tuple(x[:4])), t.narrow(tuple(x[4:]))
    for op, kernel, digit in (
            (operator.add, t.add, ring._digit_add),
            (operator.sub, t.sub,
             lambda u, v: ring._digit_add(u, ring._digit_neg(v)))):
        scalar = [_idx(op(M, N).entries()) for M, N in zip(A, B)]
        bulk = np.stack([kernel(u, v) for u, v in zip(a, b)])
        assert scalar == [tuple(col) for col in bulk.T.tolist()]
        assert scalar == [tuple(digit(u, v).idx for u, v in
                                zip(M.entries(), N.entries()))
                          for M, N in zip(A, B)]
    scalar = [_idx((-M).entries()) for M in A]
    bulk = np.stack([t.neg(u) for u in a])
    assert scalar == [tuple(col) for col in bulk.T.tolist()]
    assert scalar == [tuple(ring._digit_neg(u).idx for u in M.entries())
                      for M in A]


def test_inverse_matches_bulk_and_digit_routes(sample):
    ring, x, A, _ = sample
    t = ring.pair_tables
    inverse, idet = t.inverse(t.narrow(tuple(x[:4])))
    inverse = np.stack(inverse)
    invertible = [M.is_invertible() for M in A]
    assert invertible == (idet >= 0).tolist()
    assert 0 < sum(invertible) < len(A)
    for k, M in enumerate(A):
        if not invertible[k]:
            with pytest.raises(ValueError, match="not invertible"):
                M.inverse()
            continue
        scalar = _idx(M.inverse().entries())
        assert scalar == tuple(inverse[:, k].tolist())
        di = ring._digit_inverse(_digit_det(ring, M))
        minus = ring._digit_neg(di)
        assert scalar == (ring._digit_mul(di, M.a22).idx,
                          ring._digit_mul(minus, M.a12).idx,
                          ring._digit_mul(minus, M.a21).idx,
                          ring._digit_mul(di, M.a11).idx)


def test_equality_and_nilpotency_match_the_indices(sample):
    ring, x, A, B = sample
    space = matrix_space(ring)
    same = (x[:4] == x[4:]).all(axis=0).tolist()
    assert [M == N for M, N in zip(A, B)] == same
    assert [M != N for M, N in zip(A, B)] == [not s for s in same]
    assert sum(same) >= _PAIRS // 10
    # a copy whose entries are fresh digit-route elements, not interned
    for M in A[:200]:
        assert M == Mat2(*(ring._digit_add(e, ring.zero) for e in
                           M.entries()))
    packed = space.pack(*x[:4])
    assert [M.is_nilpotent() for M in A] == \
        np.isin(packed, space.nilpotent_indices).tolist()


def _poly_index_mul(ring, a, b):
    """a * b in GF(p)[t]/(t^n) (r = 1) by convolving the base-p digits of
    the two indices: a route that shares nothing with the ring's code."""
    p, n = ring.p, ring.n
    da = [a // p ** k % p for k in range(n)]
    db = [b // p ** k % p for k in range(n)]
    out = [sum(da[i] * db[m - i] for i in range(m + 1)) % p for m in range(n)]
    return sum(c * p ** k for k, c in enumerate(out))


def _index_dot(ring, a, b, c, d):
    if ring.spec.family == "zmod":
        return (a * b + c * d) % ring.size
    p, n = ring.p, ring.n
    u, v = _poly_index_mul(ring, a, b), _poly_index_mul(ring, c, d)
    return sum((u // p ** k + v // p ** k) % p * p ** k for k in range(n))


@pytest.mark.parametrize("spec", ["zmod:3^7", "polyq:3^1^7"])
def test_products_past_the_table_limit(spec):
    """2187 elements, past TABLE_SIZE_LIMIT: the digit branches of
    _matmul and _dot."""
    ring = ring_from_string(spec)
    assert not ring._dense
    x = np.random.default_rng(7).integers(0, ring.size, size=(8, 40))
    A, B = _matrices(ring, x[:4]), _matrices(ring, x[4:])
    for M, N in zip(A, B):
        (a11, a12, a21, a22), (b11, b12, b21, b22) = (
            _idx(M.entries()), _idx(N.entries()))
        expected = (_index_dot(ring, a11, b11, a12, b21),
                    _index_dot(ring, a11, b12, a12, b22),
                    _index_dot(ring, a21, b11, a22, b21),
                    _index_dot(ring, a21, b12, a22, b22))
        assert _idx((M * N).entries()) == expected
        assert _idx(_digit_matmul(ring, M, N)) == expected
        assert M.det() == _digit_det(ring, M)
        if M.is_invertible():
            assert M * M.inverse() == identity(ring)
            assert M.inverse() * M == identity(ring)


@pytest.mark.parametrize("specs", [("zmod:3^2", "polyq:3^1^2"),
                                   ("zmod:3^7", "polyq:3^1^7")])
def test_matrices_of_equal_size_rings_do_not_mix(specs):
    r, s = (ring_from_string(spec) for spec in specs)
    assert r.size == s.size
    A = Mat2(*(r.from_index(i) for i in (1, 2, 3, 4)))
    B = Mat2(*(s.from_index(i) for i in (1, 2, 3, 4)))
    for op in (operator.mul, operator.add, operator.sub):
        for left, right in ((A, B), (B, A)):
            with pytest.raises(ValueError, match="different rings"):
                op(left, right)
    assert not A == B and A != B


@pytest.mark.parametrize("spec", ["zmod:3^2", "zmod:3^7"])
def test_matrices_of_two_handles_of_one_ring_mix(spec):
    r1, r2 = (Ring(parse_ring_spec(spec)) for _ in range(2))
    assert r1 is not r2
    A1, A2 = (Mat2(*(r.from_index(i) for i in (1, 5, 7, 3))) for r in (r1, r2))
    B2 = Mat2(*(r2.from_index(i) for i in (2, 4, 8, 6)))
    assert A1 == A2
    for op in (operator.mul, operator.add, operator.sub):
        assert op(A1, B2) == op(A2, B2)
        assert op(B2, A1) == op(B2, A2)
