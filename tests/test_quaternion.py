import os
import subprocess
import sys

import numpy as np
import pytest

import nilquat

from nilquat.chain_ring import ring_from_string
from nilquat.mat2 import Mat2, identity, matrix_space, zero_matrix
from nilquat.quaternion import (Quaternion, QuaternionIso, basis, build_iso,
                                coeff_product_bulk, format_quaternion,
                                parse_quaternion)


@pytest.fixture(scope="module", params=["zmod:3^2", "polyq:3^2^1", "zmod:5^1"])
def ring(request):
    return ring_from_string(request.param)


def test_basis_relations(ring):
    one, i, j, k = basis(ring)
    minus_one = -one
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert i * j == k
    assert j * i == -k
    assert i * j * k == minus_one
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j


def test_parse_format_round_trip():
    r = ring_from_string("zmod:3^2")
    x = parse_quaternion(r, "1+2*i+0*j+5*k")
    assert x.coefficients() == (r.one, r.from_int(2), r.zero, r.from_int(5))
    assert format_quaternion(x) == "(1,0)+(2,0)*i+(0,0)*j+(2,1)*k"
    assert parse_quaternion(r, format_quaternion(x)) == x
    with pytest.raises(ValueError):
        parse_quaternion(r, "1+2*i")
    with pytest.raises(ValueError):
        parse_quaternion(r, "1+2*i+3*q+4*k")


def test_iso_matrix_relations(ring):
    iso = build_iso(ring)
    _, i, j, k = basis(ring)
    I2 = identity(ring)
    assert iso.to_mat(i) * iso.to_mat(i) == -I2
    assert iso.to_mat(j) * iso.to_mat(j) == -I2
    assert iso.to_mat(k) == iso.to_mat(i) * iso.to_mat(j)
    assert iso.to_mat(i) * iso.to_mat(j) == -(iso.to_mat(j) * iso.to_mat(i))


def test_iso_round_trip_exhaustive_gf3():
    r = ring_from_string("polyq:3^1^1")
    iso = build_iso(r)
    seen = set()
    for idx in range(r.size ** 4):
        c = [r.from_index((idx // r.size ** t) % r.size) for t in range(4)]
        x = Quaternion(*c)
        A = iso.to_mat(x)
        assert iso.from_mat(A) == x
        seen.add(A.packed)
    assert len(seen) == r.size ** 4  # bijective


def test_iso_is_ring_homomorphism(ring):
    rng = np.random.default_rng(23)
    iso = build_iso(ring)
    for _ in range(40):
        xs = [ring.from_index(int(t))
              for t in rng.integers(0, ring.size, size=4)]
        ys = [ring.from_index(int(t))
              for t in rng.integers(0, ring.size, size=4)]
        x, y = Quaternion(*xs), Quaternion(*ys)
        assert iso.to_mat(x * y) == iso.to_mat(x) * iso.to_mat(y)
        assert iso.to_mat(x + y) == iso.to_mat(x) + iso.to_mat(y)
    assert iso.to_mat(parse_quaternion(ring, "1+0*i+0*j+0*k")) == \
        identity(ring)


def test_bulk_hamilton_product_matches_scalar(ring):
    rng = np.random.default_rng(29)
    xs = tuple(rng.integers(0, ring.size, size=25) for _ in range(4))
    ys = tuple(rng.integers(0, ring.size, size=25) for _ in range(4))
    out = coeff_product_bulk(ring, xs, ys)
    for t in range(25):
        x = Quaternion(*[ring.from_index(int(c[t])) for c in xs])
        y = Quaternion(*[ring.from_index(int(c[t])) for c in ys])
        got = tuple(int(c[t]) for c in out)
        assert got == tuple(e.idx for e in (x * y).coefficients())


def test_nilpotent_quaternion_count_gf3():
    r = ring_from_string("polyq:3^1^1")
    iso = build_iso(r)
    count = 0
    for idx in range(r.size ** 4):
        c = [r.from_index((idx // r.size ** t) % r.size) for t in range(4)]
        if iso.is_nilpotent(Quaternion(*c)):
            count += 1
    assert count == 9  # same as the matrix-side census


def test_nilpotent_check_agrees_with_matrix_power(ring):
    iso = build_iso(ring)
    rng = np.random.default_rng(31)
    n = ring.n
    for _ in range(60):
        c = [ring.from_index(int(t))
             for t in rng.integers(0, ring.size, size=4)]
        x = Quaternion(*c)
        A = iso.to_mat(x)
        assert iso.is_nilpotent(x) == (A ** (2 * n) == zero_matrix(ring))


def test_packed_matrices_of_all_is_injective():
    r = ring_from_string("polyq:3^1^1")
    packed = build_iso(r).packed_matrices_of_all()
    assert len(np.unique(packed)) == r.size ** 4


@pytest.mark.parametrize("spec, samples", [
    ("polyq:3^1^1", None), ("zmod:3^1", None), ("zmod:3^2", 2000),
    ("polyq:3^2^1", 2000), ("polyq:5^2^1", 2000), ("polyq:3^1^3", 2000)])
def test_bulk_maps_match_the_scalar_maps(spec, samples):
    # None: every one of the Q^4 index 4-tuples
    r = ring_from_string(spec)
    iso = build_iso(r)
    if samples is None:
        t = np.arange(r.size ** 4)
        cols = np.stack([(t // r.size ** k) % r.size for k in range(4)])
    else:
        cols = np.random.default_rng(37).integers(0, r.size,
                                                  size=(4, samples))
    entries = np.stack(iso.matrix_entries_bulk(tuple(cols)))
    coeffs = np.stack(iso.coefficients_bulk(tuple(cols)))
    want_entries, want_coeffs = [], []
    for t in range(cols.shape[1]):
        els = [r.from_index(int(c)) for c in cols[:, t]]
        want_entries.append([e.idx for e in iso.to_mat(Quaternion(*els))
                             .entries()])
        want_coeffs.append([c.idx for c in iso.from_mat(Mat2(*els))
                            .coefficients()])
    assert np.array_equal(entries, np.array(want_entries).T)
    assert np.array_equal(coeffs, np.array(want_coeffs).T)
    assert np.array_equal(np.stack(iso.coefficients_bulk(tuple(entries))),
                          cols)
    assert np.array_equal(np.stack(iso.matrix_entries_bulk(tuple(coeffs))),
                          cols)


@pytest.mark.parametrize("spec", ["zmod:3^2", "polyq:3^1^3", "zmod:5^2"])
def test_packed_matrices_of_all_matches_the_unpacked_route(spec):
    r = ring_from_string(spec)
    iso = build_iso(r)
    Q = r.size
    e = np.arange(Q ** 4, dtype=np.int64)
    a11, a12, a21, a22 = iso.matrix_entries_bulk(
        (e % Q, (e // Q) % Q, (e // (Q * Q)) % Q, e // Q ** 3))
    want = a11 + a12 * Q + a21 * Q * Q + a22 * Q ** 3
    assert np.array_equal(iso.packed_matrices_of_all(), want)


def test_explicit_pair_must_satisfy_the_equation():
    r = ring_from_string("zmod:3^2")
    QuaternionIso(r, (r.from_int(4), r.from_int(1)))
    QuaternionIso(r, (r.from_int(2), r.from_int(2)))  # 4 + 4 = -1 mod 9
    with pytest.raises(ValueError):
        QuaternionIso(r, (r.from_int(2), r.from_int(1)))
    with pytest.raises(ValueError):
        QuaternionIso(r, (r.from_int(3), r.from_int(1)))


@pytest.mark.parametrize("spec", ["zmod:3^2", "polyq:3^2^1", "polyq:5^2^1",
                                  "polyq:3^6^1", "zmod:3^7"])
def test_stored_rows_are_mutually_inverse_and_maps_round_trip(spec):
    # zmod:3^7 has no dense tables, so its maps run on digit arithmetic
    r = ring_from_string(spec)
    iso = build_iso(r)
    E, C = iso.entry_rows, iso.coefficient_rows
    for X, Y in ((E, C), (C, E)):
        for i in range(4):
            for j in range(4):
                acc = r.zero
                for k in range(4):
                    acc = acc + X[i][k] * Y[k][j]
                assert acc == (r.one if i == j else r.zero)
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = Quaternion(*(r.from_index(int(t))
                         for t in rng.integers(0, r.size, size=4)))
        assert iso.from_mat(iso.to_mat(x)) == x
        A = Mat2(*(r.from_index(int(t))
                   for t in rng.integers(0, r.size, size=4)))
        assert iso.to_mat(iso.from_mat(A)) == A


def test_construction_refusals_survive_optimize_flag():
    # a bad pair and rows that do not invert each other refuse with
    # ValueError under -O too, where a bare assert would pass silently
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "import nilquat.quaternion as qu\n"
        "from nilquat.chain_ring import ring_from_string\n"
        "def probe(fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
        "    else:\n"
        "        print('built')\n"
        "r = ring_from_string('zmod:3^2')\n"
        "f = ring_from_string('zmod:5^1')\n"
        "# 4 + 1 != -1 mod 9; 0 + 4 = -1 mod 5 but 0 is not a unit\n"
        "probe(lambda: qu.QuaternionIso(r, (r.from_int(2), r.one)))\n"
        "probe(lambda: qu.QuaternionIso(f, (f.zero, f.from_int(2))))\n"
        "qu._linear_map = lambda rows, vec: tuple(vec)\n"
        "probe(lambda: qu.QuaternionIso(r))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 3


def test_build_iso_over_a_degree_40_residue_field():
    # the pair comes from a square root in GF(3^40); a list of the
    # squares of all 3^40 residues would not fit in memory
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "from nilquat.chain_ring import ring_from_string\n"
        "from nilquat.quaternion import build_iso\n"
        "r = ring_from_string('polyq:3^40^1')\n"
        "iso = build_iso(r)\n"
        "print((iso.a * iso.a + iso.b * iso.b + r.one).is_zero())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]
