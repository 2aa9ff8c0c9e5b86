"""The shared gather kernel (``chain_ring.PairTables``) against scalar
``RingElem``, ``Mat2`` and ``Quaternion`` arithmetic, on both sides of its
int16/int32 switch and at the dense table limit."""

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


def test_public_bulk_functions_return_int64(case):
    ring, _, x = case
    narrow = ring.pair_tables.narrow(x)
    A, B = tuple(narrow[:4]), tuple(narrow[4:])
    iso = build_iso(ring)
    outputs = [*coeff_product_bulk(ring, A, B),
               *iso.matrix_entries_bulk(A), *iso.coefficients_bulk(B)]
    assert {o.dtype for o in outputs} == {np.dtype(np.int64)}


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
