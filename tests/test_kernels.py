"""The shared gather kernel (``chain_ring.PairTables``) against scalar
``RingElem``, ``Mat2`` and ``Quaternion`` arithmetic, on both sides of its
int16/int32 switch and at the dense table limit."""

import copy
import itertools

import numpy as np
import pytest

from nilquat.chain_ring import ring_from_string
from nilquat.mat2 import Mat2, matrix_space, split_packed
from nilquat.quaternion import Quaternion, build_iso, coeff_product_bulk

_INPUTS = 5000


@pytest.fixture(scope="module", params=[
    ("zmod:13^2", np.int16),    # Q^2 = 28561 <= 2^15
    ("zmod:3^5", np.int32),     # Q^2 = 59049
    ("polyq:3^6^1", np.int32),  # Q = 729, at the 1024-element limit
])
def case(request):
    spec, dtype = request.param
    ring = ring_from_string(spec)
    x = np.random.default_rng(12).integers(0, ring.size, size=(8, _INPUTS))
    # the largest pair index, (Q - 1) Q + Q - 1, in every position
    x[:, -1] = ring.size - 1
    return ring, dtype, x


def _elements(ring, row):
    return [ring.from_index(int(i)) for i in row]


def _idx(values):
    return [v.idx for v in values]


def test_pair_tables_take_the_narrowest_type(case):
    ring, dtype, _ = case
    t = ring.pair_tables
    assert t.dtype == dtype
    assert t.add_flat.dtype == t.mul_flat.dtype == dtype
    assert t.neg_table.dtype == t.inv_table.dtype == dtype
    assert np.array_equal(t.add_flat, ring.add_table.ravel())
    assert np.array_equal(t.mul_flat, ring.mul_table.ravel())
    assert np.array_equal(t.inv_table, ring.inv_table)


def test_element_kernels_match_scalar_arithmetic(case):
    ring, _, x = case
    t = ring.pair_tables
    a, b = _elements(ring, x[0]), _elements(ring, x[1])
    x0, x1 = t.narrow(x[0]), t.narrow(x[1])
    assert t.add(x0, x1).tolist() == _idx(s + u for s, u in zip(a, b))
    assert t.mul(x0, x1).tolist() == _idx(s * u for s, u in zip(a, b))
    assert t.neg(x0).tolist() == _idx(-s for s in a)


def test_matrix_kernels_match_mat2(case):
    ring, _, x = case
    t = ring.pair_tables
    A = [Mat2(*e) for e in zip(*(_elements(ring, r) for r in x[:4]))]
    B = [Mat2(*e) for e in zip(*(_elements(ring, r) for r in x[4:]))]
    a, b = t.narrow(tuple(x[:4])), t.narrow(tuple(x[4:]))
    prod = np.stack(t.matmul(a, b))
    assert prod.T.tolist() == [_idx((M * N).entries()) for M, N in zip(A, B)]
    assert t.trace(a).tolist() == _idx(M.trace() for M in A)
    assert t.det(a).tolist() == _idx(M.det() for M in A)
    inverse, idet = t.inverse(a)
    inverse = np.stack(t.wide(inverse))
    assert (idet >= 0).tolist() == [M.is_invertible() for M in A]
    assert [inverse[:, k].tolist() for k, M in enumerate(A)
            if M.is_invertible()] == \
        [_idx(M.inverse().entries()) for M in A if M.is_invertible()]


def test_quaternion_kernels_match_scalar_arithmetic(case):
    ring, _, x = case
    X = [Quaternion(*c) for c in zip(*(_elements(ring, r) for r in x[:4]))]
    Y = [Quaternion(*c) for c in zip(*(_elements(ring, r) for r in x[4:]))]
    prod = np.stack(coeff_product_bulk(ring, tuple(x[:4]), tuple(x[4:])))
    assert prod.T.tolist() == [_idx((p * q).coefficients())
                               for p, q in zip(X, Y)]
    iso = build_iso(ring)
    entries = np.stack(iso.matrix_entries_bulk(tuple(x[:4])))
    assert entries.T.tolist() == [_idx(iso.to_mat(p).entries()) for p in X]
    A = [Mat2(*e) for e in zip(*(_elements(ring, r) for r in x[4:]))]
    coeffs = np.stack(iso.coefficients_bulk(tuple(x[4:])))
    assert coeffs.T.tolist() == [_idx(iso.from_mat(M).coefficients())
                                 for M in A]


class _NoGather:
    """A table stand-in whose gathers raise: what a kernel call answers
    with it in place made no gather."""

    def take(self, *args):
        raise AssertionError("gathered")

    def __getitem__(self, key):
        return self


def test_constant_operands_agree_with_the_tables(case):
    ring, _, x = case
    t = ring.pair_tables
    x0 = t.narrow(x[0])
    add, mul = ring.add_table, ring.mul_table
    for k, c in ((0, t.zero), (1, t.one)):
        assert t.narrow(k) is c and t.narrow(np.int64(k)) is c
        assert t.narrow((k, x[0]))[0] is c
        for got, want in ((t.add(c, x0), add[k, x[0]]),
                          (t.add(x0, c), add[x[0], k]),
                          (t.mul(c, x0), mul[k, x[0]]),
                          (t.mul(x0, c), mul[x[0], k]),
                          (t.mul_by(k, x0), mul[k, x[0]]),
                          (t.neg(c), ring.neg_table[k])):
            assert np.array_equal(np.broadcast_to(got, np.shape(want)), want)
        for j, d in ((0, t.zero), (1, t.one), (7, t.narrow(7))):
            assert int(t.add(c, d)) == add[k, j]
            assert int(t.mul(c, d)) == int(t.mul(d, c)) == mul[k, j]
            assert int(t.mul_by(j, c)) == int(t.mul_by(k, d)) == mul[k, j]
    assert int(t.det((t.one, x0[0], t.zero, t.one))) == 1


def test_constant_operands_make_no_gather(case):
    ring, _, x = case
    t = copy.copy(ring.pair_tables)
    t.add_flat = t.mul_flat = t.neg_table = t.inv_table = _NoGather()
    x0 = t.narrow(x[0])
    zero, one = t.zero, t.one
    assert t.add(zero, x0) is x0 and t.add(x0, zero) is x0
    assert t.mul(zero, x0) is zero and t.mul(x0, zero) is zero
    assert t.mul(one, x0) is x0 and t.mul(x0, one) is x0
    assert t.mul_by(0, x0) is zero and t.mul_by(1, x0) is x0
    assert t.mul_by(5, zero) is zero and int(t.mul_by(5, one)) == 5
    assert t.neg(zero) is zero and t.sub(x0, zero) is x0
    inverse, idet = t.inverse((one, zero, zero, one))
    assert idet is one
    assert all(e is c for e, c in zip(inverse, (one, zero, zero, one)))
    for call in (lambda: t.add(x0, x0), lambda: t.mul(x0, one + x0),
                 lambda: t.mul_by(5, x0), lambda: t.neg(one)):
        with pytest.raises(AssertionError, match="gathered"):
            call()


def test_returned_constants_are_read_only(case):
    ring, _, x = case
    t = ring.pair_tables
    x0 = t.narrow(x[0])
    for result in (t.mul(t.zero, x0), t.mul_by(0, x0), t.neg(t.zero),
                   t.narrow(1), t.add(t.zero, t.one)):
        assert result.ndim == 0
        with pytest.raises(ValueError, match="read-only"):
            result[...] = 2
        with pytest.raises(ValueError, match="read-only"):
            result += 1
    assert int(t.zero) == 0 and int(t.one) == 1


def _agrees_with_full_constants(f, *args):
    """f with each entry of each 4-tuple argument in turn a scalar 0 or 1:
    every result is int64, has the arguments' broadcast shape, and equals
    f with that entry an array full of the constant, which takes no
    constant operand's short cut."""
    shape = np.broadcast_shapes(*(np.shape(e) for a in args for e in a))
    for i, k, c in itertools.product(range(len(args)), range(4), (0, 1)):
        scalar, full = ([list(a) for a in args] for _ in range(2))
        scalar[i][k], full[i][k] = c, np.full(shape, c)
        got, want = f(*map(tuple, scalar)), f(*map(tuple, full))
        if not isinstance(got, tuple):
            got, want = (got,), (want,)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == shape
            assert np.array_equal(g, w)


def test_public_bulk_functions_return_int64(case):
    ring, _, x = case
    narrow = ring.pair_tables.narrow(x)
    A, B = tuple(narrow[:4]), tuple(narrow[4:])
    iso = build_iso(ring)
    outputs = [*coeff_product_bulk(ring, A, B),
               *iso.matrix_entries_bulk(A), *iso.coefficients_bulk(B)]
    assert {o.dtype for o in outputs} == {np.dtype(np.int64)}
    _agrees_with_full_constants(
        lambda X, Y: coeff_product_bulk(ring, X, Y), A, B)
    _agrees_with_full_constants(iso.matrix_entries_bulk, A)
    _agrees_with_full_constants(iso.coefficients_bulk, B)


def test_space_bulk_functions_return_int64():
    ring = ring_from_string("polyq:3^1^2")
    space = matrix_space(ring)
    packed = np.arange(0, space.count, 7, dtype=np.int32)
    A = space.unpack(packed)
    B = space.unpack(packed[::-1])
    outputs = [*A, *split_packed(packed, space.Q), *space.matmul(A, B),
               space.trace_indices(A), space.det_indices(A),
               build_iso(ring).packed_matrices_of_all(),
               space.conjugates_of(space.matrix_from_packed(5))]
    assert {o.dtype for o in outputs} == {np.dtype(np.int64)}
    assert np.array_equal(space.pack(*A), packed)
    _agrees_with_full_constants(space.matmul, A, B)
    _agrees_with_full_constants(space.trace_indices, A)
    _agrees_with_full_constants(space.det_indices, A)
    # every product with the zero matrix reads only constants
    for entry in space.matmul((0, 0, 0, 0), B):
        assert entry.shape == B[0].shape and not entry.any()
        entry += 1  # a new array, not the kernel's read-only zero


@pytest.mark.parametrize("bad", [
    (0, 0, 0, 9),                                   # spills into row 1
    (-1, 0, 0, 0),                                  # wraps to the end
    (np.array([0, 2 ** 16]), 0, 0, 0),              # wraps in int16
])
def test_bulk_entry_points_refuse_out_of_range_indices(bad):
    ring = ring_from_string("zmod:3^2")
    space, iso, ok = matrix_space(ring), build_iso(ring), (0, 1, 2, 8)
    calls = [lambda: space.trace_indices(bad), lambda: space.det_indices(bad),
             lambda: space.matmul(bad, ok), lambda: space.matmul(ok, bad),
             lambda: iso.matrix_entries_bulk(bad),
             lambda: iso.coefficients_bulk(bad),
             lambda: coeff_product_bulk(ring, ok, bad)]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()
    assert space.trace_indices(ok) == 8 and space.det_indices(ok) == 7
