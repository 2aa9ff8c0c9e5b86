import tracemalloc

import numpy as np
import pytest

from nilquat.chain_ring import ring_from_string
from nilquat.mat2 import (Mat2, MatrixSpace, identity, matrix_space,
                          parse_matrix, top_row)
from nilquat.nilfactor import decompose
from nilquat.orbits import (conjugate, load_union_bitset,
                            locate_in_orbit_union, orbit_of, orbit_union,
                            save_union_bitset, shear, union_summary,
                            unit_diag)


@pytest.fixture(scope="module")
def gf3_space():
    return matrix_space(ring_from_string("polyq:3^1^1"))


@pytest.fixture(scope="module")
def z9_space():
    return matrix_space(ring_from_string("zmod:3^2"))


def test_conjugate_requires_invertible(gf3_space):
    r = gf3_space.ring
    A = top_row(r.one, r.zero)
    with pytest.raises(ValueError, match="not invertible"):
        conjugate(A, top_row(r.one, r.one))
    P = shear(r, r.from_int(2))
    assert conjugate(A, P).trace() == A.trace()


def test_shear_and_unit_diag(gf3_space):
    r = gf3_space.ring
    t = r.from_int(2)
    assert shear(r, t).det() == r.one
    assert unit_diag(r, t).is_invertible()
    with pytest.raises(ValueError, match="unit"):
        unit_diag(r, r.zero)


def test_orbit_sizes_gf3(gf3_space):
    r = gf3_space.ring
    assert orbit_of(gf3_space, top_row(r.zero, r.zero)).size == 1
    # all nonzero square-zero matrices over a field are conjugate
    assert orbit_of(gf3_space, top_row(r.zero, r.one)).size == 8
    # q(q + 1) for a unit-trace representative
    assert orbit_of(gf3_space, top_row(r.one, r.zero)).size == 12
    assert orbit_of(gf3_space, top_row(r.from_int(2), r.one)).size == 12


def test_union_sizes_frozen():
    expected = {"polyq:3^1^1": 33, "zmod:5^1": 145, "zmod:3^2": 897,
                "polyq:3^1^2": 897, "polyq:3^2^1": 801}
    for text, size in expected.items():
        sp = matrix_space(ring_from_string(text))
        assert int(orbit_union(sp).sum()) == size


def test_sweep_equals_rank1():
    for text in ("polyq:3^1^1", "zmod:5^1", "zmod:3^2", "polyq:3^1^2"):
        sp = matrix_space(ring_from_string(text))
        assert np.array_equal(orbit_union(sp, "sweep"),
                              orbit_union(sp, "rank1"))


def test_union_method_validation(gf3_space):
    for method in ("magic", "auto"):
        with pytest.raises(ValueError, match="union method"):
            orbit_union(gf3_space, method)


def test_union_summary(gf3_space):
    info = union_summary(gf3_space)
    assert info["ring"] == "polyq:3^1^1"
    assert info["union_size"] == 33
    # zero, the square-zero class, one class per nonzero trace: 1+8+12+12
    assert info["orbit_count"] == 4


def test_smallest_witness_for_lower_triangular(gf3_space):
    r = gf3_space.ring
    A = parse_matrix(r, "[[0,0],[1,0]]")
    cert = locate_in_orbit_union(gf3_space, A)
    assert cert is not None
    assert (cert.a.idx, cert.b.idx) == (0, 1)
    assert cert.conjugator == parse_matrix(r, "[[0,1],[1,0]]")
    assert conjugate(top_row(cert.a, cert.b), cert.conjugator) == A


def test_witness_for_representative_is_identity(gf3_space):
    r = gf3_space.ring
    A = top_row(r.one, r.zero)
    cert = locate_in_orbit_union(gf3_space, A)
    assert cert.conjugator == identity(r)
    assert (cert.a.idx, cert.b.idx) == (1, 0)


def test_trace_forces_first_witness_coordinate(z9_space):
    r = z9_space.ring
    rng = np.random.default_rng(41)
    members = np.flatnonzero(orbit_union(z9_space))
    for k in rng.choice(members, size=25, replace=False):
        A = z9_space.matrix_from_packed(int(k))
        cert = locate_in_orbit_union(z9_space, A)
        assert cert.a == A.trace()
        assert conjugate(top_row(cert.a, cert.b), cert.conjugator) == A


def test_locate_outside_union_returns_none(z9_space):
    r = z9_space.ring
    assert locate_in_orbit_union(z9_space, identity(r)) is None
    # both radical columns nonzero: provably outside every top-row orbit
    A = parse_matrix(r, "[[0,3],[3,0]]")
    assert locate_in_orbit_union(z9_space, A) is None


def test_second_column_radical_shape_is_inside(z9_space):
    r = z9_space.ring
    assert locate_in_orbit_union(z9_space,
                                 parse_matrix(r, "[[0,3],[0,3]]")) is not None
    assert locate_in_orbit_union(z9_space,
                                 parse_matrix(r, "[[0,3],[0,6]]")) is not None


def _check_witness(sp, k, in_union):
    A = sp.matrix_from_packed(int(k))
    cert = locate_in_orbit_union(sp, A)
    assert (cert is not None) == bool(in_union), k
    if cert is not None:
        assert cert.a == A.trace()
        assert conjugate(top_row(cert.a, cert.b), cert.conjugator) == A


@pytest.mark.parametrize("text", ("polyq:3^1^1", "zmod:5^1", "zmod:3^2",
                                  "polyq:3^1^2"))
def test_closed_form_witness_matches_sweep_exhaustively(text):
    sp = matrix_space(ring_from_string(text))
    sweep = orbit_union(sp, "sweep")
    for k in range(sp.count):
        _check_witness(sp, k, sweep[k])


@pytest.mark.parametrize("text", ("zmod:5^2", "zmod:3^3", "polyq:3^1^3"))
def test_closed_form_witness_matches_rank1_sampled(text):
    sp = matrix_space(ring_from_string(text))
    mask = orbit_union(sp, "rank1")
    rng = np.random.default_rng(8)
    members = np.flatnonzero(mask)
    picks = np.concatenate([rng.choice(members, size=1000),
                            rng.integers(0, sp.count, size=1000)])
    for k in picks:
        _check_witness(sp, k, mask[k])


def test_witness_and_decompose_build_no_space_data(monkeypatch):
    # GL2 is never cached, so watch its build, the unequal residue fill
    fills, fill = [], MatrixSpace._residue_indices

    def spy(space, diag, off, equal):
        fills.append(equal)
        return fill(space, diag, off, equal)

    monkeypatch.setattr(MatrixSpace, "_residue_indices", spy)
    sp = MatrixSpace(ring_from_string("zmod:3^3"))
    A = parse_matrix(sp.ring, "[[2,6],[5,15]]")
    assert locate_in_orbit_union(sp, A) is not None
    assert len(decompose(sp, A, 4).factors) == 4
    assert False not in fills
    assert not sp._union_cache
    sp.invertible_indices
    assert fills[-1] is False


def test_union_bitset_save_load(tmp_path, z9_space):
    mask = orbit_union(z9_space)
    path = tmp_path / "union.bits"
    save_union_bitset(z9_space, path)
    spec_text, loaded = load_union_bitset(path)
    assert spec_text == "zmod:3^2"
    assert np.array_equal(loaded, mask)
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == b"zmod:3^2 6561"


def _bitset_bytes(tmp_path, z9_space):
    path = tmp_path / "union.bits"
    save_union_bitset(z9_space, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    return path, header, payload


def test_union_bitset_truncated_payload_rejected(tmp_path, z9_space):
    # 6561 bits need 821 bytes; a short payload used to load zero-padded
    path, header, payload = _bitset_bytes(tmp_path, z9_space)
    path.write_bytes(header + b"\n" + payload[:-3])
    with pytest.raises(ValueError, match="payload"):
        load_union_bitset(path)
    path.write_bytes(header + b"\n" + payload + b"\0")
    with pytest.raises(ValueError, match="payload"):
        load_union_bitset(path)


def test_union_bitset_huge_bit_count_rejected_before_allocating(
        tmp_path, z9_space):
    # this header used to ask unpackbits for a 93 GiB mask
    path, _, payload = _bitset_bytes(tmp_path, z9_space)
    path.write_bytes(b"zmod:3^2 99999999999\n" + payload)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            load_union_bitset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("header", (
    b"zmod:3^2",                 # one field
    b"zmod:3^2 6561 extra",      # three fields
    b"zmod:3^2 -6561",           # not a count
    b"zmod:3 6561",              # spec does not parse
    b"zmod:9^1 6561",            # 9 is not prime
    b"zmod:3^2 6560",            # count is not Q^4
    b"polyq:3^1^2 6561" + b" " * 300,  # header line too long
))
def test_union_bitset_bad_headers_rejected(tmp_path, z9_space, header):
    path, _, payload = _bitset_bytes(tmp_path, z9_space)
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(ValueError):
        load_union_bitset(path)

