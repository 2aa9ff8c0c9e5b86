import os
import subprocess
import sys

import numpy as np
import pytest

import nilquat
from nilquat.chain_ring import Ring, parse_ring_spec, ring_from_string
from nilquat.mat2 import (Mat2, MatrixSpace, companion_conjugator,
                          gl2_count, identity, matrix_space, parse_matrix,
                          top_row, zero_matrix)
from nilquat.nilfactor import (DEFAULT_SEED, NilFactorization,
                               NotInOrbitUnionError, NotNilpotentError,
                               TraceObstructionError, _chain_step,
                               _top_row_factors,
                               census_formula_only, census_orbit_union,
                               census_set_product, decompose, formula_count,
                               nilpotent_count_check, pair_products,
                               product_set,
                               rank1_union_count, sharpness_example,
                               stable_product_count,
                               valuation_obstruction_scan)
from nilquat.orbits import orbit_union


def _multiply_sets(space, left, right):
    """Sorted packed indices of {L * R : L in left, R in right}: the
    brute-force product oracle, every pair multiplied with no class
    reduction."""
    mask = np.zeros(space.count, dtype=bool)
    for _, packed in pair_products(space, left, right):
        mask[packed] = True
    return np.flatnonzero(mask)


@pytest.fixture(scope="module")
def gf3():
    return matrix_space(ring_from_string("polyq:3^1^1"))


@pytest.fixture(scope="module")
def z9():
    return matrix_space(ring_from_string("zmod:3^2"))


# --------------------------------------------------------------------------
# closed-form counts
# --------------------------------------------------------------------------

def test_formula_count_frozen_values():
    assert formula_count(3, 1, 1) == 9
    assert formula_count(3, 1, 2) == 25
    assert formula_count(3, 1, 3) == 33
    assert formula_count(3, 1, 4) == 33
    assert formula_count(5, 1, 1) == 25
    assert formula_count(5, 1, 2) == 121
    assert formula_count(5, 1, 3) == 145
    assert formula_count(3, 2, 3) == 897
    assert formula_count(9, 1, 3) == 801
    assert formula_count(3, 3, 5) == 23361


def test_formula_count_validation():
    with pytest.raises(ValueError, match="s >= 2n - 1"):
        formula_count(3, 2, 2)
    with pytest.raises(ValueError):
        formula_count(4, 1, 3)  # even
    with pytest.raises(ValueError):
        formula_count(6, 1, 3)  # not a prime power
    with pytest.raises(ValueError):
        formula_count(3, 0, 3)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_formula_divisibility_sweep(p):
    for r in (1, 2, 3):
        q = p ** r
        for n in range(1, 7):
            for s in (2 * n - 1, max(2 * n - 1, 3), 2 * n + 1):
                value = formula_count(q, n, s)
                assert isinstance(value, int) and value > 0


def test_stable_product_count():
    assert stable_product_count(1) == 3
    assert stable_product_count(2) == 3
    assert stable_product_count(3) == 5


def test_default_seed_frozen():
    assert DEFAULT_SEED == 218184014


def test_gl2_count_frozen():
    assert gl2_count(3, 1) == 48
    assert gl2_count(5, 1) == 480
    assert gl2_count(3, 2) == 3888
    assert gl2_count(9, 1) == 5760


def test_nilpotent_count_check(z9):
    assert nilpotent_count_check(z9) == (729, 729, True)


# --------------------------------------------------------------------------
# exact product sets
# --------------------------------------------------------------------------

def test_product_set_counts_gf3(gf3):
    assert [len(product_set(gf3, s)) for s in (1, 2, 3, 4)] == [9, 25, 33, 33]


def test_product_set_counts_z9(z9):
    assert len(product_set(z9, 1)) == 729
    assert len(product_set(z9, 2)) == 711
    assert len(product_set(z9, 3)) == 897
    assert len(product_set(z9, 4)) == 897
    assert len(product_set(z9, 5)) == 897


def test_product_set_thread_determinism(z9):
    a = product_set(z9, 3, threads=1)
    b = product_set(z9, 3, threads=4)
    assert np.array_equal(a, b)


def test_product_set_validation(gf3):
    with pytest.raises(ValueError):
        product_set(gf3, 0)


def test_stabilised_set_equals_union_as_bitset(z9):
    got = product_set(z9, 3)
    mask = np.zeros(z9.count, dtype=bool)
    mask[got] = True
    assert np.array_equal(mask, orbit_union(z9))


# --------------------------------------------------------------------------
# censuses
# --------------------------------------------------------------------------

def test_census_set_product_report(z9):
    rep = census_set_product(z9, 3)
    assert (rep.ring, rep.q, rep.n, rep.s) == ("zmod:3^2", 3, 2, 3)
    assert rep.brute_count == 897
    assert rep.formula_count == 897
    assert rep.match is True
    assert rep.method == "set-product"
    d = rep.to_dict()
    assert "elapsed_ms" in d
    assert "elapsed_ms" not in rep.to_dict(stable=True)


def test_census_below_formula_floor(z9):
    rep = census_set_product(z9, 2)
    assert rep.brute_count == 711
    assert rep.formula_count is None and rep.match is None


def test_census_orbit_union(z9):
    rep = census_orbit_union(z9)
    assert rep.brute_count == 897 and rep.match is True
    assert rep.method == "orbit-union"
    with pytest.raises(ValueError, match="s >="):
        census_orbit_union(z9, s=2)


def test_census_formula_only():
    rep = census_formula_only(ring_from_string("zmod:3^2"), 3)
    assert rep.brute_count is None
    assert rep.formula_count == 897
    assert rep.match is None
    assert rep.method == "formula-only"


# --------------------------------------------------------------------------
# certified factorizations
# --------------------------------------------------------------------------

def _reproduct(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def test_direct_two_factor_identity_gf3(gf3):
    # M(a, b) = ((0,1),(0,0)) * ((-b, -b^2/a),(a, b)) for a unit a
    r = gf3.ring
    a, b = r.one, r.one
    E = top_row(r.zero, r.one)
    N = Mat2(-b, -(a.inverse() * b * b), a, b)
    assert E.is_nilpotent() and N.is_nilpotent()
    assert E * N == top_row(a, b)


def test_decompose_two_unit_trace(gf3):
    r = gf3.ring
    A = top_row(r.one, r.one)
    fact = decompose(gf3, A, 2)
    assert len(fact.factors) == 2
    assert _reproduct(fact.factors) == A
    assert all(N.is_nilpotent() for N in fact.factors)


def test_decompose_two_trace_obstruction(gf3):
    r = gf3.ring
    with pytest.raises(TraceObstructionError, match="trace obstruction"):
        decompose(gf3, top_row(r.zero, r.one), 2)


def test_decompose_zero_matrix(gf3):
    r = gf3.ring
    fact = decompose(gf3, top_row(r.zero, r.zero), 2)
    assert _reproduct(fact.factors) == top_row(r.zero, r.zero)


def test_decompose_single_factor(gf3):
    r = gf3.ring
    A = top_row(r.zero, r.one)
    fact = decompose(gf3, A, 1)
    assert fact.factors == (A,)
    with pytest.raises(NotNilpotentError, match="not nilpotent"):
        decompose(gf3, identity(r), 1)


@pytest.mark.parametrize("s", (1, 2, 3))
def test_decompose_refuses_a_target_over_another_ring(s):
    # every route checks A's ring against the space's before it reads A;
    # a second handle of the space's ring is the same ring
    sp = matrix_space(ring_from_string("zmod:3^2"))
    A = parse_matrix(ring_from_string("zmod:5^2"), "[[5,0],[0,20]]")
    with pytest.raises(ValueError, match="different rings"):
        decompose(sp, A, s)
    twin = Ring(parse_ring_spec("zmod:3^2"))
    T = parse_matrix(twin, "[[3,3],[0,0]]")
    fact = decompose(sp, T, s)
    assert fact.target is T and _reproduct(fact.factors) == T


def test_identity_conjugator_routes_invert_nothing(monkeypatch):
    # s = 1 and the zero matrix answer with the identity as conjugator,
    # so there is no conjugation to undo and nothing to invert
    sp = matrix_space(ring_from_string("zmod:5^2"))
    r = sp.ring

    def refuse(self):
        raise AssertionError("Mat2.inverse called")

    monkeypatch.setattr(Mat2, "inverse", refuse)
    A, Z = top_row(r.zero, r.one), zero_matrix(r)
    for target, s, factors in ((A, 1, (A,)), (Z, 2, (A, A))):
        fact = decompose(sp, target, s)
        assert fact.factors == factors
        assert fact.conjugator == identity(r)


# s = 2 lookup targets on zmod:5^2, off the orbit union, one for each
# shape of their companion conjugator [v | B v]: v = e1 (b21 a unit), e2
# (b12 a unit, b21 not) and e1 + e2 (neither)
LOOKUP_SHAPES = {"e1": "[[5,0],[5,10]]", "e2": "[[5,10],[0,15]]",
                 "e1+e2": "[[5,0],[0,10]]"}


def _companion_shape(P):
    """Which v of e1, e2 and e1 + e2 the conjugator P = [v | B v] took."""
    return {(1, 0): "e1", (0, 1): "e2", (1, 1): "e1+e2"}[(P.a11.idx,
                                                           P.a21.idx)]


def _warm_lookup_targets(sp):
    """(shape, T) for each LOOKUP_SHAPES target T, each T's class looked
    up first through another member V T V^-1, so that T's own lookup is
    warm."""
    r = sp.ring
    V = parse_matrix(r, "[[1,1],[0,1]]")
    out = []
    for shape, text in LOOKUP_SHAPES.items():
        T = parse_matrix(r, text)
        A = V * T * V.inverse()
        assert A != T and not orbit_union(sp)[T.packed]
        assert sp.class_code_table[A.packed] == sp.class_code_table[T.packed]
        assert _companion_shape(companion_conjugator(T)[0]) == shape
        decompose(sp, A, 2)
        out.append((shape, T))
    return out


def test_union_and_warm_lookup_routes_invert_only_the_target_conjugator(
        monkeypatch):
    # the union route takes P^-1 from its orbit witness, and S_2's class
    # record keeps conj^-1 beside conj, so the union route inverts nothing;
    # a warm lookup computes only the target's companion conjugator and
    # its inverse, in closed form for each of the three shapes, so no
    # route calls Mat2.inverse
    from nilquat import mat2, nilfactor
    sp = MatrixSpace(ring_from_string("zmod:5^2"))
    targets = _warm_lookup_targets(sp)
    inverse = Mat2.inverse

    def refuse(self):
        raise AssertionError("Mat2.inverse called")

    monkeypatch.setattr(Mat2, "inverse", refuse)
    members = np.flatnonzero(orbit_union(sp))
    for k in np.random.default_rng(2600).choice(members, 60, replace=False):
        T = sp.matrix_from_packed(int(k))
        for s in range(2, 7):
            try:
                fact = decompose(sp, T, s)
            except TraceObstructionError:
                assert s == 2
                continue
            assert len(fact.factors) == s
            assert _reproduct(fact.factors) == T
    pairs = []

    def spy(A):
        pairs.append((A, mat2.companion_conjugator(A)))
        return pairs[-1][1]

    monkeypatch.setattr(nilfactor, "companion_conjugator", spy)
    for shape, T in targets:
        fact = decompose(sp, T, 2)
        assert _reproduct(fact.factors) == T
        (A, (P, Pinv)), = pairs
        assert A is T
        assert _companion_shape(P) == shape
        assert Pinv == inverse(P)
        pairs.clear()


@pytest.mark.parametrize("s", (3, 4, 5, 6))
def test_decompose_every_union_member_gf3(gf3, s):
    members = np.flatnonzero(orbit_union(gf3))
    for k in members:
        A = gf3.matrix_from_packed(int(k))
        fact = decompose(gf3, A, s)
        assert len(fact.factors) == s
        assert _reproduct(fact.factors) == A
        assert all(N.is_nilpotent() for N in fact.factors)


def test_decompose_sampled_union_members_z9(z9):
    rng = np.random.default_rng(43)
    members = np.flatnonzero(orbit_union(z9))
    for k in rng.choice(members, size=30, replace=False):
        A = z9.matrix_from_packed(int(k))
        fact = decompose(z9, A, 3)
        assert _reproduct(fact.factors) == A


def test_decompose_outside_union_refuses(z9):
    r = z9.ring
    A = parse_matrix(r, "[[0,3],[3,0]]")
    with pytest.raises(NotInOrbitUnionError, match="not in orbit union"):
        decompose(z9, A, 3)
    with pytest.raises(NotNilpotentError):
        decompose(z9, identity(r), 1)


def test_factorization_to_dict(gf3):
    r = gf3.ring
    fact = decompose(gf3, top_row(r.one, r.zero), 3)
    d = fact.to_dict()
    assert d["verified"] is True
    assert len(d["factors"]) == 3
    assert isinstance(d["target"], str)


# --------------------------------------------------------------------------
# the boundary example and the valuation scan
# --------------------------------------------------------------------------

@pytest.mark.parametrize("text", ("zmod:3^2", "polyq:3^1^2", "zmod:3^4",
                                  "polyq:3^1^4"))
def test_sharpness_example(text):
    # n - 1 is a unit at n = 2 and not at n = 4 over F_3
    sp = matrix_space(ring_from_string(text))
    r = sp.ring
    n = r.n
    cert = sharpness_example(sp)
    assert len(cert.factorization.factors) == 2 * n - 2
    assert cert.in_orbit_union is False
    xp = r.uniformizer ** (n - 1)
    target = cert.factorization.target
    assert target == Mat2(xp, xp, r.zero, xp)
    assert _reproduct(cert.factorization.factors) == target
    with pytest.raises(NotInOrbitUnionError, match="not in orbit union"):
        decompose(sp, target, 2 * n - 1)
    d = cert.to_dict()
    assert d == {**cert.factorization.to_dict(), "in_orbit_union": False,
                 "factor_count": 2 * n - 2}
    if n > 2:
        return
    f1, f2 = cert.factorization.factors
    assert f1 == parse_matrix(r, "[[(0,1),(1,0)],[(0,1),(0,0)]]")
    assert f2 == parse_matrix(r, "[[(0,0),(1,0)],[(0,1),(0,0)]]")
    assert target == parse_matrix(r, "[[(0,1),(0,1)],[(0,0),(0,1)]]")
    # yet two factors do suffice for this very matrix
    fact = decompose(sp, target, 2)
    assert _reproduct(fact.factors) == target


def test_sharpness_inapplicable_for_fields(gf3):
    with pytest.raises(ValueError, match="inapplicable"):
        sharpness_example(gf3)


def test_valuation_scan_vacuous_below_n3(z9):
    rep = valuation_obstruction_scan(z9, 1000)
    assert rep.samples == 0
    assert "unsatisfiable" in rep.note
    assert rep.passed


def test_valuation_scan_gf3_t3():
    sp = matrix_space(ring_from_string("polyq:3^1^3"))
    rep = valuation_obstruction_scan(sp, 20000, seed=99)
    assert rep.samples == 20000
    assert rep.matched > 0
    assert rep.violations == []
    assert rep.passed
    d = rep.to_dict()
    assert d["matched"] == rep.matched


_CHAIN_RINGS = ("polyq:3^1^1", "zmod:5^1", "zmod:3^2", "polyq:3^2^1",
                "polyq:3^1^2")


@pytest.mark.parametrize("text", _CHAIN_RINGS)
def test_class_reduced_chain_matches_brute_chain(text):
    sp = matrix_space(ring_from_string(text))
    nil = sp.nilpotent_indices
    brute = nil
    for s in range(1, 6):
        if s > 1:
            brute = _multiply_sets(sp, brute, nil)
        assert np.array_equal(product_set(sp, s), brute), s


def test_product_set_n3_equals_union():
    # the packed S_s against the rank-1 union mask, member for member, at
    # the stable point and one past it: the suites compare class witnesses
    # only, so this is where the two routes meet bit for bit
    for spec in ("zmod:3^3", "polyq:3^1^3"):
        sp = matrix_space(ring_from_string(spec))
        union = np.flatnonzero(orbit_union(sp))
        assert len(union) == 24225
        for s in (5, 6):
            assert np.array_equal(product_set(sp, s), union), (spec, s)


def test_certified_rejects_bad_factorizations(gf3):
    r = gf3.ring
    E = top_row(r.zero, r.one)
    with pytest.raises(ValueError, match="at least one factor"):
        NilFactorization.certified(E, [], identity(r))
    with pytest.raises(ValueError, match="nilpotent"):
        NilFactorization.certified(identity(r), [identity(r)], identity(r))
    with pytest.raises(ValueError, match="multiply to the target"):
        NilFactorization.certified(zero_matrix(r), [E], identity(r))


def test_certified_checks_survive_optimize_flag():
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "import nilquat.nilfactor as nf, nilquat.orbits as orb\n"
        "import nilquat.quaternion as qu\n"
        "from nilquat import *\n"
        "def probe(kind, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except kind:\n"
        "        print('refused')\n"
        "    else:\n"
        "        print('verified')\n"
        "r = ring_from_string('zmod:3^1')\n"
        "I = identity(r)\n"
        "probe(ValueError,\n"
        "      lambda: NilFactorization.certified(zero_matrix(r), [I], I))\n"
        "probe(ValueError, lambda: nf._top_row_factors(r, r.one, r.one, 1))\n"
        "# building S_1 from a Nil that misses one member of a class\n"
        "short = MatrixSpace(ring_from_string('zmod:3^2'))\n"
        "short.nilpotent_indices = short.nilpotent_indices[:-1]\n"
        "probe(ValueError, lambda: nf._chain_step(short, 1))\n"
        "sp = matrix_space(ring_from_string('zmod:3^2'))\n"
        "# a witness that fails its own check, a union claim for the\n"
        "# sharpness target, and quaternion relations that fail\n"
        "orb.top_row = lambda a, b: zero_matrix(a.ring)\n"
        "probe(AssertionError, lambda: locate_in_orbit_union(\n"
        "    sp, top_row(sp.ring.one, sp.ring.zero)))\n"
        "nf.locate_in_orbit_union = lambda space, A: object()\n"
        "probe(AssertionError, lambda: sharpness_example(sp))\n"
        "qu.identity = lambda ring: identity(ring) + identity(ring)\n"
        "probe(ValueError, lambda: qu.QuaternionIso(r))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 6


def test_decompose_checks_survive_optimize_flag():
    # the checks of decompose's closed forms, each forced to fail under
    # python -O: certified's product check and its refusal of mixed rings,
    # the orbit witness's P P^-1 = I check, and the companion conjugator's
    # invertibility check
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "import nilquat.chain_ring as cr, nilquat.orbits as orb\n"
        "from nilquat import *\n"
        "from nilquat.mat2 import companion_conjugator\n"
        "def probe(kind, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except kind as exc:\n"
        "        print(str(exc).replace(' ', '_'))\n"
        "    else:\n"
        "        print('verified')\n"
        "r = ring_from_string('zmod:3^2')\n"
        "other = ring_from_string('polyq:3^1^2')\n"
        "E, F = top_row(r.zero, r.one), top_row(other.zero, other.one)\n"
        "I = identity(r)\n"
        "probe(ValueError, lambda: NilFactorization.certified(E, [E, E], I))\n"
        "probe(ValueError, lambda: NilFactorization.certified(E, [E, F], I))\n"
        "orb.identity = lambda ring: zero_matrix(ring)\n"
        "probe(AssertionError, lambda: locate_in_orbit_union(\n"
        "    matrix_space(r), top_row(r.one, r.zero)))\n"
        "cr.RingElem.is_unit = lambda self: False\n"
        "probe(AssertionError, lambda: companion_conjugator(\n"
        "    Mat2(r.one, r.zero, r.zero, r.zero)))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "factors_must_multiply_to_the_target",
        "matrices_from_different_rings",
        "orbit_witness_P^-1_is_not_the_inverse_of_P",
        "a_non-scalar_residue_has_a_cyclic_vector_among_e1,_e2_and_e1_+_e2"]


@pytest.mark.parametrize("text", ("zmod:3^2", "polyq:3^1^2"))
def test_decompose_two_decides_brute_s2(text):
    sp = matrix_space(ring_from_string(text))
    nil = sp.nilpotent_indices
    s2 = np.zeros(sp.count, dtype=bool)
    s2[_multiply_sets(sp, nil, nil)] = True
    for k in range(sp.count):
        A = sp.matrix_from_packed(k)
        try:
            fact = decompose(sp, A, 2)
        except TraceObstructionError:
            assert not s2[k], k
        else:
            assert s2[k], k
            assert _reproduct(fact.factors) == A


def test_decompose_two_search_zmod25():
    sp = matrix_space(ring_from_string("zmod:5^2"))
    r = sp.ring
    # 5 A' with A' in GL2(F_5) of split characteristic polynomial: a
    # product of two nilpotents outside the orbit union
    for text in ("[[5,10],[0,15]]", "[[5,5],[10,0]]"):
        A = parse_matrix(r, text)
        assert not orbit_union(sp)[A.packed]
        fact = decompose(sp, A, 2)
        assert _reproduct(fact.factors) == A
        assert all(N.is_nilpotent() for N in fact.factors)
        assert fact.conjugator.is_invertible()
    with pytest.raises(TraceObstructionError, match="determinant obstruction"):
        decompose(sp, parse_matrix(r, "[[1,2],[0,1]]"), 2)
    # det 2 * 25 = 0 passes both obstructions: x^2 - x + 2 has no root
    # mod 5, so the search itself refuses
    with pytest.raises(TraceObstructionError, match="exhaustive search"):
        decompose(sp, parse_matrix(r, "[[5,10],[5,20]]"), 2)


def _search_targets(sp):
    """Every matrix off the orbit union with det in J^2: the targets that
    the two-factor lookup decides, after the trace obstruction."""
    e = sp.unpack(np.arange(sp.count))
    det_val = sp.ring.val_table[sp.det_indices(e)]
    return np.flatnonzero((det_val >= min(2, sp.ring.n)) & ~orbit_union(sp))


def _check_decompose_two(sp, s2, targets):
    found = 0
    for k in targets:
        A = sp.matrix_from_packed(int(k))
        try:
            fact = decompose(sp, A, 2)
        except TraceObstructionError:
            assert not s2[k], k
        else:
            assert s2[k], k
            assert _reproduct(fact.factors) == A
            found += 1
    return found


def test_decompose_two_lookup_decides_chain_s2_zmod25():
    sp = matrix_space(ring_from_string("zmod:5^2"))
    s2 = np.zeros(sp.count, dtype=bool)
    s2[product_set(sp, 2)] = True
    targets = _search_targets(sp)
    assert len(targets) == 480
    assert 0 < _check_decompose_two(sp, s2, targets) < len(targets)


def test_decompose_two_lookup_decides_chain_s2_zmod27():
    sp = matrix_space(ring_from_string("zmod:3^3"))
    s2 = np.zeros(sp.count, dtype=bool)
    s2[product_set(sp, 2)] = True
    targets = _search_targets(sp)
    assert len(targets) == 52320
    first = _chain_step(sp, 2).first
    assert np.array_equal(first[sp.class_code_table[targets]] >= 0,
                          s2[targets])
    picks = np.random.default_rng(500).choice(targets, 500, replace=False)
    assert 0 < _check_decompose_two(sp, s2, picks) < len(picks)


def test_decompose_two_keeps_each_class_witness(monkeypatch):
    # a second target of a class already looked up reads the class's
    # witness matrices and companion conjugator from S_2's step, and its
    # class from the code table: it computes only its own companion
    # conjugator, once, whichever of the three shapes that takes
    from nilquat import nilfactor
    sp = MatrixSpace(ring_from_string("zmod:5^2"))
    targets = _warm_lookup_targets(sp)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nilfactor, "companion_conjugator",
                        counted("companion_conjugator",
                                nilfactor.companion_conjugator))
    for name in ("matrix_from_packed", "_class_code"):
        monkeypatch.setattr(MatrixSpace, name,
                            counted(name, getattr(MatrixSpace, name)))
    for _, T in targets:
        fact = decompose(sp, T, 2)
        assert _reproduct(fact.factors) == T
        assert calls == [("companion_conjugator", T)]
        calls.clear()


def _cold_decompose_two(sp, A):
    """decompose(sp, A, 2) with S_2's witness record emptied first, so the
    answer is rebuilt from the first-pair record as on a fresh space."""
    _chain_step(sp, 2).witnesses.clear()
    return decompose(sp, A, 2)


@pytest.mark.parametrize("text", ("zmod:5^2", "zmod:3^3"))
def test_decompose_two_warm_record_gives_the_cold_answer(text):
    ring = ring_from_string(text)
    warm, cold = MatrixSpace(ring), MatrixSpace(ring)
    targets = _search_targets(warm)
    if text == "zmod:3^3":
        targets = np.random.default_rng(2100).choice(targets, 200,
                                                     replace=False)
    hits = 0
    for k in targets:
        A = warm.matrix_from_packed(int(k))
        try:
            got = decompose(warm, A, 2)
        except TraceObstructionError:
            with pytest.raises(TraceObstructionError):
                _cold_decompose_two(cold, A)
            continue
        want = _cold_decompose_two(cold, A)
        assert (got.factors, got.conjugator) == (want.factors,
                                                 want.conjugator), k
        hits += 1
    # the targets repeat classes, so most hits read a kept record
    assert 0 < len(_chain_step(warm, 2).witnesses) < hits


def test_decompose_two_refusal_keeps_no_record():
    sp = MatrixSpace(ring_from_string("zmod:5^2"))
    A = parse_matrix(sp.ring, "[[5,10],[5,20]]")
    for _ in range(3):
        with pytest.raises(TraceObstructionError, match="exhaustive search"):
            decompose(sp, A, 2)
    assert _chain_step(sp, 2).witnesses == {}


def _two_factor_oracle(sp, reps):
    """For each class code, the first pair index i |Nil| + j whose
    product reps[i] Nil[j] has that code, by np.unique over each row of
    pair products from the int64 matmul, or -1."""
    nil = sp.nilpotent_indices
    right = sp.unpack(nil)
    want = np.full(sp.class_count, -1, dtype=np.int64)
    for i, rep in enumerate(reps):
        codes = sp.class_code(sp.matmul(sp.unpack(rep), right))
        found, j = np.unique(codes, return_index=True)
        new = want[found] < 0
        want[found[new]] = i * len(nil) + j[new]
    return want


@pytest.mark.parametrize("text", ("zmod:5^2", "zmod:3^3"))
def test_two_factor_table_matches_unique_oracle(text):
    # the s = 2 lookup reads the record of the chain's S_2 step, whose left
    # factors are S_1's: the smallest member of each Nil class
    sp = MatrixSpace(ring_from_string(text))
    first = _chain_step(sp, 2).first
    nil = sp.nilpotent_indices
    _, lowest = np.unique(sp.class_code_table[nil], return_index=True)
    minima = np.sort(nil[lowest])
    assert np.array_equal(_chain_step(sp, 1).factors, minima)
    assert np.array_equal(first, _two_factor_oracle(sp, minima))


_CHAIN_COUNTS = {
    "zmod:3^2": [729, 711, 897],
    "polyq:3^2^1": [81, 721, 801],
    "zmod:5^2": [15625, 15425, 18145],
    "zmod:3^3": [59049, 57591, 26001, 24273, 24225],
    "polyq:5^2^1": [625, 15601, 16225],
}


@pytest.mark.parametrize("wide", (False, True), ids=("default", "int64"))
@pytest.mark.parametrize("text", sorted(_CHAIN_COUNTS))
def test_product_chain_sets_are_in_index_type(text, wide, monkeypatch):
    # int64 stands for a space past 2^31 packed matrices, out of reach here
    if wide:
        monkeypatch.setattr(MatrixSpace, "index_type",
                            property(lambda self: np.int64))
    sp = MatrixSpace(ring_from_string(text))
    counts = _CHAIN_COUNTS[text]
    reports = [census_set_product(sp, s) for s in range(1, len(counts) + 2)]
    assert [r.brute_count for r in reports] == counts + counts[-1:]
    # S_0 = {I}, S_1 .. S_k and the closing step, which repeats S_k
    assert len(sp._product_chain) == len(counts) + 2
    for s, count in enumerate(counts, 1):
        got = product_set(sp, s)
        assert got.dtype == sp.index_type == (np.int64 if wide else np.int32)
        assert len(got) == count and (np.diff(got) > 0).all()


def test_search_hit_builds_no_gl2_data(monkeypatch):
    # GL2 is never cached, so watch its build, the unequal residue fill
    fills, fill = [], MatrixSpace._residue_indices

    def spy(space, diag, off, equal):
        fills.append(equal)
        return fill(space, diag, off, equal)

    monkeypatch.setattr(MatrixSpace, "_residue_indices", spy)
    sp = MatrixSpace(ring_from_string("zmod:5^2"))
    A = parse_matrix(sp.ring, "[[5,10],[0,15]]")
    assert len(decompose(sp, A, 2).factors) == 2
    assert False not in fills
    sp.gl_packed
    assert fills[-1] is False


@pytest.mark.xfail(strict=True, raises=NotInOrbitUnionError,
                   reason="below s = 2n - 1 decompose reaches only the orbit "
                          "union, a proper subset of S_s")
def test_decompose_covers_s3_below_the_stable_point():
    # on zmod:3^3, 1776 of the 26001 members of S_3 lie outside the union
    sp = matrix_space(ring_from_string("zmod:3^3"))
    A = parse_matrix(sp.ring, "[[0,9],[3,0]]")
    assert np.isin(A.packed, product_set(sp, 3))
    fact = decompose(sp, A, 3)
    assert len(fact.factors) == 3
    assert fact.factors[0] * fact.factors[1] * fact.factors[2] == A


@pytest.mark.parametrize("text, want", (
    ("polyq:3^1^1", 33), ("zmod:3^2", 897), ("polyq:5^2^1", 16225),
    ("zmod:5^2", 18145), ("zmod:3^3", 24225), ("polyq:3^1^3", 24225)))
def test_rank1_union_count_matches_union(text, want):
    sp = matrix_space(ring_from_string(text))
    ring = sp.ring
    assert rank1_union_count(ring.q, ring.n) == want
    assert int(orbit_union(sp).sum()) == want


def test_rank1_union_count_validation():
    with pytest.raises(ValueError):
        rank1_union_count(4, 1)
    with pytest.raises(ValueError):
        rank1_union_count(3, 0)


# --------------------------------------------------------------------------
# the census closed form past the stable point
# --------------------------------------------------------------------------

@pytest.mark.parametrize("q", (3, 5, 7, 9, 25, 27))
def test_rank1_minus_formula_gap_identity(q):
    for n in range(1, 7):
        qn = q ** n
        num = (qn - 1) * (qn - q) * (qn - q * q)
        assert num % (q * q + q + 1) == 0
        gap = rank1_union_count(q, n) - formula_count(q, n, max(2 * n - 1, 3))
        assert gap == num // (q * q + q + 1)
        assert (gap == 0) == (n <= 2)


def test_census_compares_with_rank1_count_past_stable_point():
    z27 = ring_from_string("zmod:3^3")
    for s in (5, 6, 9):
        assert census_formula_only(z27, s).formula_count == 24225
    assert census_formula_only(z27, 4).formula_count is None
    gf3 = ring_from_string("polyq:3^1^1")
    # n = 1 keeps the transcribed values below the stable point
    assert [census_formula_only(gf3, s).formula_count
            for s in (1, 2, 3, 4)] == [9, 25, 33, 33]


# --------------------------------------------------------------------------
# the cached product chain and the column-table pair kernel
# --------------------------------------------------------------------------

def _count_kernel_calls(monkeypatch):
    from nilquat import nilfactor
    calls = []
    kernel = nilfactor.pair_products

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(nilfactor, "pair_products", counted)
    return calls


def test_product_chain_is_cached_and_read_only(monkeypatch):
    sp = MatrixSpace(ring_from_string("zmod:3^2"))
    first = product_set(sp, 3)
    calls = _count_kernel_calls(monkeypatch)
    again = product_set(sp, 3)
    assert again is first and calls == []
    assert census_set_product(sp, 2).brute_count == 711 and calls == []
    for s in (1, 3):
        with pytest.raises(ValueError):
            product_set(sp, s)[0] = 0
    assert sp.nilpotent_indices.flags.writeable


def test_decompose_two_and_census_share_the_chain_step(monkeypatch):
    # the s = 2 lookup and the census read one S_2 step: neither
    # multiplies reps(Nil) x Nil again after the other
    ring = ring_from_string("zmod:5^2")
    A = parse_matrix(ring, "[[5,10],[0,15]]")  # a lookup hit off the union
    calls = _count_kernel_calls(monkeypatch)
    sp = MatrixSpace(ring)
    assert census_set_product(sp, 2).brute_count == 15425
    del calls[:]
    assert len(decompose(sp, A, 2).factors) == 2 and calls == []
    sp = MatrixSpace(ring)
    assert len(decompose(sp, A, 2).factors) == 2
    del calls[:]
    assert census_set_product(sp, 2).brute_count == 15425 and calls == []


def test_census_chain_steps_stay_below_the_q4_size():
    import tracemalloc
    sp = MatrixSpace(ring_from_string("polyq:7^2^1"))
    sp.nilpotent_indices, sp.class_code_table, sp.class_sizes
    tracemalloc.start()
    try:
        counts = [census_set_product(sp, s).brute_count for s in (2, 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [117601, 120001]
    # a Q^4 bool alone is 5.8 MB here, the packed S_2 0.5 MB
    assert peak < 4 * 2 ** 20, peak


def test_product_chain_stops_at_fixed_point(monkeypatch):
    sp = MatrixSpace(ring_from_string("zmod:3^2"))
    calls = _count_kernel_calls(monkeypatch)
    got = product_set(sp, 50)
    # S_1, S_2 and S_3 are new, and the step to S_4 finds the repeat
    assert len(calls) == 4
    assert len(got) == 897
    assert np.array_equal(product_set(sp, 4), got) and len(calls) == 4
    # the closing step S_4 shares S_3's packed set
    assert product_set(sp, 3) is got


@pytest.mark.parametrize("text", ("zmod:3^2", "polyq:3^2^1", "zmod:3^3"))
def test_chain_records_form_a_witness_tree_down_to_s0(text):
    # following first[c] = i |Nil| + j down the chain, to the class of left
    # factor i one step lower each time, factors the witness of class c at
    # every step up to the closing one into s nilpotents, ending at I
    sp = MatrixSpace(ring_from_string(text))
    nil = sp.nilpotent_indices
    codes = sp.class_code_table
    chain = sp._product_chain
    assert _chain_step(sp, 50) is chain[-1]
    assert [step.closing for step in chain] == [False] * (len(chain) - 1) \
        + [True]
    assert chain[0].size == 1 and chain[0].first is None
    I = identity(sp.ring)
    for s, step in enumerate(chain[1:], 1):
        witness = dict(zip(codes[step.factors].tolist(), step.factors))
        assert len(witness) == len(step.factors) == step.classes.sum()
        for c in np.flatnonzero(step.classes):
            factors, code = [], c
            for k in range(s, 0, -1):
                i, j = divmod(int(chain[k].first[code]), len(nil))
                factors.append(sp.matrix_from_packed(int(nil[j])))
                code = codes[chain[k - 1].factors[i]]
            assert chain[0].factors[i] == I.packed
            assert all(N.is_nilpotent() for N in factors)
            assert _reproduct(factors[::-1]).packed == witness[c], (s, c)


@pytest.mark.parametrize("text", ("zmod:3^2", "polyq:3^2^1"))
def test_top_row_factors_reach_every_top_row_at_s2(text):
    # s factors reach ((a, b), (0, 0)) for every s >= 3; two do unless a
    # is in J and b a unit, a nonzero residue of trace zero, which
    # decompose refuses earlier.  s = 3..7 meets both parities of every
    # base chain, with and without (E F) padding
    ring = ring_from_string(text)
    elems = [ring.from_index(k) for k in range(ring.size)]
    for s in range(2, 8):
        for a in elems:
            for b in elems:
                if s == 2 and not a.is_unit() and b.is_unit():
                    with pytest.raises(ValueError, match="trace zero"):
                        _top_row_factors(ring, a, b, s)
                    continue
                factors = _top_row_factors(ring, a, b, s)
                assert len(factors) == s
                assert all(N.is_nilpotent() for N in factors)
                assert _reproduct(factors) == top_row(a, b), (s, a, b)


@pytest.mark.parametrize("text", _CHAIN_RINGS)
def test_chain_requested_out_of_order_matches_brute(text):
    sp = MatrixSpace(ring_from_string(text))
    nil = sp.nilpotent_indices
    brute = [nil]
    for _ in range(5):
        brute.append(_multiply_sets(sp, brute[-1], nil))
    for s in (6, 1, 4, 2):
        assert np.array_equal(product_set(sp, s), brute[s - 1]), s


@pytest.mark.parametrize("text", ("zmod:3^3", "zmod:5^2", "polyq:3^2^1",
                                  "polyq:7^2^1"))
def test_pair_products_equals_matmul(text):
    sp = matrix_space(ring_from_string(text))
    rng = np.random.default_rng(2000)
    left = rng.integers(0, sp.count, size=40)
    right = rng.integers(0, sp.count, size=50)
    l = tuple(x[:, None] for x in sp.unpack(left))
    r = tuple(x[None, :] for x in sp.unpack(right))
    want = sp.pack(*sp.matmul(l, r))
    blocks = list(pair_products(sp, left, right))
    assert [start for start, _ in blocks] == [0]
    assert np.array_equal(blocks[0][1], want)


def test_pair_products_block_bounds_table_memory():
    import tracemalloc
    sp = matrix_space(ring_from_string("zmod:5^2"))
    left = np.random.default_rng(1).integers(0, sp.count, size=200_000)
    right = sp.nilpotent_indices[:1]
    want = sp.pack(*sp.matmul(sp.unpack(left), sp.unpack(right)))
    tracemalloc.start()
    try:
        rows = 0
        for start, packed in pair_products(sp, left, right):
            assert start == rows and packed.shape[1] == 1
            assert np.array_equal(packed[:, 0], want[start:start + len(packed)])
            rows += len(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == len(left)
    assert peak < 64 * 2 ** 20, peak
