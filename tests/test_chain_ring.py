import itertools
import random
import time

import numpy as np
import pytest

from nilquat.chain_ring import (_PRIME_BOUND, GFq, Ring, _digits_of,
                                _is_odd_prime_power, _is_prime,
                                _poly_is_irreducible, _poly_rem,
                                _power_at_most, make_ring, parse_element,
                                parse_ring_spec, format_element,
                                format_ring_spec, ring_from_string,
                                smallest_irreducible)
from nilquat.mat2 import CapExceededError, matrix_space
from nilquat.cli import main
from nilquat.nilfactor import rank1_union_count


def test_parse_ring_spec_round_trip():
    for text in ("zmod:3^2", "zmod:7^1", "polyq:3^2^1", "polyq:5^1^3"):
        assert format_ring_spec(parse_ring_spec(text)) == text


def test_parse_ring_spec_rejects_garbage():
    for text in ("zmod:3", "zmod:3^", "poly:3^1^1", "zmod:3^2^1", "3^2",
                 "polyq:3^2", ""):
        with pytest.raises(ValueError):
            parse_ring_spec(text)


def test_even_and_composite_characteristic_rejected():
    with pytest.raises(ValueError, match="odd"):
        ring_from_string("zmod:2^3")
    with pytest.raises(ValueError, match="prime"):
        ring_from_string("zmod:9^1")
    with pytest.raises(ValueError, match="prime"):
        ring_from_string("polyq:6^1^1")


def test_prime_tests_agree_with_trial_division():
    primes = []
    for m in range(2, 10 ** 5):
        if all(m % p for p in itertools.takewhile(lambda p: p * p <= m,
                                                  primes)):
            primes.append(m)
    prime_set = set(primes)
    powers = {p ** k for p in primes[1:] for k in range(1, 11)
              if p ** k < 10 ** 5}
    for m in range(-2, 10 ** 5):
        assert _is_prime(m) == (m in prime_set), m
        assert _is_odd_prime_power(m) == (m in powers), m


def test_prime_tests_at_their_edges():
    # the least strong pseudoprimes to the first k prime bases, k = 1..12
    for m in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(m) and not _is_odd_prime_power(m), m
    for p in (10 ** 18 + 3, 2 ** 61 - 1):
        assert _is_prime(p) and _is_odd_prime_power(p)
    for q in ((2 ** 61 - 1) ** 2, 3 ** 1000, 43 ** 5):
        assert _is_odd_prime_power(q)
    assert not _is_odd_prime_power(43 ** 5 * 47)
    q = 2 ** 61 - 1
    assert rank1_union_count(q, 1) == 1 + (q + 1) ** 2 * (q - 1)
    assert Ring(parse_ring_spec("zmod:1000000000000000003^1")).q == \
        10 ** 18 + 3
    # from the bound on, primality is refused, not guessed
    with pytest.raises(ValueError, match="decided only below"):
        _is_prime(_PRIME_BOUND)
    with pytest.raises(ValueError, match="decided only below"):
        Ring(parse_ring_spec(f"zmod:{_PRIME_BOUND}^1"))
    assert main(["census", "--ring", f"zmod:{_PRIME_BOUND}^1",
                 "--s", "2"]) == 1


def test_zmod_basic_arithmetic():
    r = ring_from_string("zmod:3^2")
    assert r.q == 3 and r.n == 2 and r.size == 9
    two = r.from_int(2)
    assert (two + two).idx == r.from_int(4).idx
    assert (two * two * two).idx == r.from_int(8).idx
    assert r.inverse(two) == r.from_int(5)
    assert (-r.one) == r.from_int(8)


def test_zmod_valuations_and_ideal():
    r = ring_from_string("zmod:3^2")
    assert [r.from_int(k).valuation() for k in range(9)] == \
        [2, 0, 0, 1, 0, 0, 1, 0, 0]
    assert [e.idx for e in r.enumerate_ideal(1)] == [0, 3, 6]
    assert [e.idx for e in r.enumerate_ideal(2)] == [0]
    assert len(r.units()) == 6
    assert r.uniformizer.idx == 3


def test_valuation_of_zero_is_n():
    for text in ("zmod:3^2", "polyq:3^1^3", "polyq:3^2^1"):
        r = ring_from_string(text)
        assert r.zero.valuation() == r.n


def test_smallest_irreducible_frozen():
    # ascending little-endian integer order over GF(p)
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(3, 3) == (1, 2, 0, 1)
    assert smallest_irreducible(5, 2) == (2, 0, 1)
    # a ring's residue field always reduces by it; the ring key omits it
    r = ring_from_string("polyq:3^3^2")
    assert r.residue_field.modulus == (1, 2, 0, 1)
    assert r._key == (3, 3, 2, "polyq")


def test_gf9_generator_square():
    r = ring_from_string("polyq:3^2^1")
    y = r.from_index(3)
    assert (y * y).idx == 2  # y^2 = -1 under the y^2 + 1 modulus


def test_truncated_polynomial_inverse():
    r = ring_from_string("polyq:3^1^2")
    one_plus_t = r.from_index(4)  # digits (1, 1)
    inv = r.inverse(one_plus_t)
    assert inv.idx == 7  # digits (1, 2), i.e. 1 - t
    assert (one_plus_t * inv) == r.one
    with pytest.raises(ZeroDivisionError):
        r.inverse(r.zero)
    with pytest.raises(ZeroDivisionError):
        r.inverse(r.uniformizer)


def test_element_parse_format():
    r = ring_from_string("zmod:3^2")
    e = parse_element(r, "(2,1)")
    assert e.idx == 5
    assert parse_element(r, "5") == e
    assert format_element(e) == "(2,1)"
    with pytest.raises(ValueError):
        parse_element(r, "(3,1)")
    with pytest.raises(ValueError):
        parse_element(r, "(1,1,1)")


def test_cross_ring_operations_rejected():
    a = ring_from_string("zmod:3^2").one
    b = ring_from_string("polyq:3^1^2").one
    with pytest.raises(ValueError):
        a + b


def test_tables_match_scalar_ops():
    rng = np.random.default_rng(7)
    for text in ("zmod:3^2", "polyq:3^2^1", "zmod:5^2", "polyq:3^1^3"):
        r = ring_from_string(text)
        add, mul, neg, val = (r.add_table, r.mul_table, r.neg_table,
                              r.val_table)
        for _ in range(200):
            i, j = (int(t) for t in rng.integers(0, r.size, size=2))
            x, y = r.from_index(i), r.from_index(j)
            assert add[i, j] == (x + y).idx
            assert mul[i, j] == (x * y).idx
            assert neg[i] == (-x).idx
            assert val[i] == x.valuation()


def test_inverse_table_sentinels():
    r = ring_from_string("zmod:3^2")
    inv = r.inv_table
    for i in range(9):
        x = r.from_index(i)
        if x.is_unit():
            assert (x * r.from_index(int(inv[i]))) == r.one
        else:
            assert inv[i] == -1


def test_sum_of_squares_frozen_pairs():
    a, b = ring_from_string("zmod:3^2").solve_sum_of_squares()
    assert (a.idx, b.idx) == (4, 1)  # 4^2 + 1^2 = 17 = -1 mod 9
    a, b = ring_from_string("polyq:3^1^1").solve_sum_of_squares()
    assert (a.idx, b.idx) == (1, 1)
    a, b = ring_from_string("zmod:5^1").solve_sum_of_squares()
    assert (a.idx, b.idx) == (2, 0)


SQUARES_SWEEP = [
    "zmod:3^1", "zmod:3^2", "zmod:3^3", "zmod:3^4", "zmod:3^5", "zmod:3^6",
    "zmod:5^1", "zmod:5^2", "zmod:5^3", "zmod:5^4",
    "zmod:7^1", "zmod:7^2", "zmod:7^3",
    "zmod:11^1", "zmod:11^2", "zmod:13^1", "zmod:13^2",
    "polyq:3^2^1", "polyq:3^3^1", "polyq:3^2^2", "polyq:3^2^3",
    "polyq:5^2^1", "polyq:5^2^2", "polyq:7^2^1", "polyq:3^1^5",
    "polyq:11^2^1", "polyq:13^2^1",
]


@pytest.mark.parametrize("text", SQUARES_SWEEP)
def test_sum_of_squares_invariant_sweep(text):
    r = ring_from_string(text)
    a, b = r.solve_sum_of_squares()
    assert a.is_unit()
    assert (a * a + b * b + r.one).is_zero()


def _scanned_sum_of_squares(r):
    # the reference scan: the squares of all of GF(q) listed, the first fa
    # with -1 - fa^2 among them, and Newton steps on a
    f = r.residue_field
    sqrt_of = {}
    for x in range(f.q):
        sqrt_of.setdefault(f.mul(x, x), x)
    fa, fb = next((fa, sqrt_of[c]) for fa in range(1, f.q)
                  if (c := f.sub(f.neg(1), f.mul(fa, fa))) in sqrt_of)
    a, b = r.lift(fa), r.lift(fb)
    for _ in range(r.n + 2):
        defect = a * a + b * b + r.one
        if defect.is_zero():
            return a, b
        a = a - defect * (a + a).inverse()
    raise AssertionError("Newton steps did not converge")


_ODD_PRIME_POWERS_BELOW_200 = [
    (p, k) for p in range(3, 200) if _is_prime(p)
    for k in range(1, 8) if p ** k < 200]


@pytest.mark.parametrize(
    "text", SQUARES_SWEEP + [f"polyq:{p}^{k}^1"
                             for p, k in _ODD_PRIME_POWERS_BELOW_200])
def test_sum_of_squares_equals_the_field_scan(text):
    r = ring_from_string(text)
    assert ([x.idx for x in r.solve_sum_of_squares()]
            == [x.idx for x in _scanned_sum_of_squares(r)])


def test_enumerate_ring_is_index_order():
    r = ring_from_string("polyq:3^2^1")
    assert [e.idx for e in r.enumerate_ring()] == list(range(9))
    assert all(r.from_index(k).idx == k for k in range(9))


def test_ring_cache_reuses_instances():
    assert make_ring(parse_ring_spec("zmod:3^2")) is \
        make_ring(parse_ring_spec("zmod:3^2"))


def test_repr_uses_digit_tuples():
    r = ring_from_string("zmod:3^2")
    assert repr(r.from_int(5)) == "(2,1)"


@pytest.mark.parametrize("text", ("zmod:3^3", "polyq:3^2^2"))
def test_from_int_is_the_k_fold_sum_of_one(text):
    r = ring_from_string(text)
    total = r.zero
    for k in range(31):
        # the digit route, so the sums do not read the dense tables
        assert r.from_int(k) == total
        assert r.from_int(-k) == r._digit_neg(total)
        total = r._digit_add(total, r.one)


# -- the dense tables against the digit route -------------------------------

def _check_against_digit_route(r: Ring, pairs) -> None:
    add, mul, neg, val, inv = (r.add_table, r.mul_table, r.neg_table,
                               r.val_table, r.inv_table)
    els = r.enumerate_ring()
    for i, j in pairs:
        x, y = els[i], els[j]
        assert add[i, j] == r._digit_add(x, y).idx
        assert mul[i, j] == r._digit_mul(x, y).idx
    for i in sorted({i for i, _ in pairs}):
        x = els[i]
        assert neg[i] == r._digit_neg(x).idx
        assert val[i] == r.valuation(x)
        if x.is_unit():
            assert inv[i] == r._digit_inverse(x).idx
        else:
            assert inv[i] == -1


# polyq:3^2^2 is the one case with both r >= 2 and n >= 2, where the pi and
# t structure constants mix
@pytest.mark.parametrize("text", ("zmod:3^2", "polyq:3^2^1", "zmod:5^2",
                                  "polyq:3^1^3", "polyq:7^2^1",
                                  "polyq:3^2^2"))
def test_tables_equal_digit_route_on_every_pair(text):
    r = Ring(parse_ring_spec(text))
    _check_against_digit_route(
        r, [(i, j) for i in range(r.size) for j in range(r.size)])


# GF(17^2) has no dense tables of its own, yet polyq:17^2^1's tables are
# built from its structure constants
@pytest.mark.parametrize("text", ("zmod:3^6", "polyq:3^2^3", "zmod:5^4",
                                  "polyq:17^2^1"))
def test_tables_equal_digit_route_on_sampled_pairs(text):
    r = Ring(parse_ring_spec(text))
    rng = np.random.default_rng(11)
    _check_against_digit_route(
        r, [(int(i), int(j))
            for i, j in rng.integers(0, r.size, size=(2000, 2))])


@pytest.mark.parametrize("p, r", ((3, 1), (3, 2), (5, 2), (3, 3), (7, 2),
                                  (3, 5), (13, 1)))
def test_residue_field_tables_equal_scalar_ops(p, r):
    f = GFq(p, r)
    for x in range(f.q):
        assert f.neg_table[x] == f.neg(x)
        for y in range(f.q):
            assert f.mul_table[x, y] == f.mul(x, y)
    for x in range(1, f.q):
        # the table inverse against the square-and-multiply route
        assert f.inv(x) == f.pow(x, f.q - 2)


def test_negative_powers_are_refused():
    # GF(q) and the ring share one square-and-multiply, which refuses k < 0
    f = GFq(3, 2)
    r = ring_from_string("zmod:3^2")
    for power in (lambda: f.pow(2, -1), lambda: r.pow(r.one, -1),
                  lambda: r.one ** -1):
        with pytest.raises(ValueError, match="negative powers"):
            power()
    assert f.pow(5, 0) == 1 and f.pow(5, 3) == f.mul(f.mul(5, 5), 5)


def test_residue_field_modulus_is_searched_on_first_use():
    # the search for a degree-40 modulus over GF(3) would not finish
    assert "modulus" not in vars(GFq(3, 40))
    f = GFq(3, 3)
    assert f.modulus == (1, 2, 0, 1) and "modulus" in vars(f)


def test_large_residue_field_inverts_without_a_table():
    f = GFq(17, 3)
    with pytest.raises(ValueError):
        f.inv_table
    for x in (1, 2, 18, 288, 4912):
        assert f.mul(x, f.inv(x)) == 1


@pytest.mark.parametrize("p, r", ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                                  (11, 2), (5, 3), (3, 5), (7, 3), (3, 6)))
def test_residue_field_inverse_equals_the_table(p, r):
    # one route, Euclid, at every size: the table is only its oracle here
    f = GFq(p, r)
    assert [f.inv(x) for x in range(1, f.q)] == f.inv_table[1:].tolist()


@pytest.mark.parametrize("p, r", ((17, 3), (3, 40)))
def test_residue_field_inverse_past_the_table(p, r):
    f = GFq(p, r)
    rng = random.Random(5)  # 3^40 is past int64
    xs = [1, 2, p, f.q - 1] + [rng.randrange(1, f.q) for _ in range(12)]
    for x in xs:
        y = f.inv(x)
        assert f.mul(x, y) == 1
        assert y == f.pow(x, f.q - 2)


@pytest.mark.parametrize("p, r", ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                  (13, 1), (5, 2), (3, 3), (7, 2), (5, 3)))
def test_residue_field_sqrt_equals_a_brute_table(p, r):
    # the smaller root by index, and None exactly off the squares
    f = GFq(p, r)
    roots = {}
    for x in range(f.q):
        roots.setdefault(f.mul(x, x), x)
    assert [f.sqrt(y) for y in range(f.q)] == [roots.get(y)
                                               for y in range(f.q)]


def test_table_build_makes_no_digit_route_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("digit route called")

    for name in ("_digit_add", "_digit_neg", "_digit_mul", "_digit_inverse"):
        monkeypatch.setattr(Ring, name, refuse)
    for name in ("add", "neg", "sub", "mul", "pow"):
        monkeypatch.setattr(GFq, name, refuse)
    r = Ring(parse_ring_spec("polyq:3^2^3"))
    for table in (r.add_table, r.mul_table, r.neg_table, r.val_table,
                  r.inv_table):
        assert table.shape[0] == r.size
    x, y = r.from_index(100), r.from_index(728)
    add, mul, neg = r.add_table, r.mul_table, r.neg_table
    assert (x * y + x - y) is r.from_index(
        int(add[add[mul[100, 728], 100], neg[728]]))
    assert x ** 3 is r.from_index(int(mul[mul[100, 100], 100]))
    assert (y * y.inverse()) is r.one
    assert r.from_int(-1) is -r.one


def test_ring_above_table_limit_uses_the_digit_route(capsys):
    r = ring_from_string("zmod:3^7")
    assert r.size == 2187
    a, b = r.solve_sum_of_squares()
    assert (a * a + b * b + r.one).is_zero()
    x = r.from_int(1000)
    assert x * x.inverse() == r.one
    assert main(["decompose", "--ring", "zmod:3^7", "--matrix",
                 "[[1,1],[0,0]]", "--s", "3"]) == 0
    assert '"verified": true' in capsys.readouterr().out
    for name in ("add_table", "mul_table", "neg_table", "inv_table",
                 "_add_rows", "_mul_rows", "_neg_list", "_inv_list"):
        assert name not in vars(r)
    with pytest.raises(ValueError, match="dense table limit"):
        r.mul_table


def test_elements_are_interned():
    r = Ring(parse_ring_spec("polyq:3^1^3"))
    x, y = r.from_index(5), r.from_index(13)
    assert r.from_index(5) is x
    assert r.enumerate_ring()[5] is x
    assert r.element((2, 1, 0)) is x
    assert (x + y) is r.from_index(int(r.add_table[5, 13]))
    assert (x - y) is r.from_index(int(r.add_table[5, r.neg_table[13]]))
    assert (x * y) is r.from_index(int(r.mul_table[5, 13]))
    assert (-x) is r.from_index(int(r.neg_table[5]))
    assert x.inverse() is r.from_index(int(r.inv_table[5]))
    assert x ** 0 is r.one is r.from_index(1)
    assert r.zero is r.from_index(0)
    assert r.uniformizer is r.from_index(3)
    assert r.lift(2) is r.from_int(2) is r.from_index(2)
    # a second handle with the same parameters mixes, answering from its own
    twin = Ring(parse_ring_spec("polyq:3^1^3"))
    assert twin.add(x, y) is twin.from_index(int(r.add_table[5, 13]))
    other = ring_from_string("zmod:3^3")
    for op in (r.add, r.sub, r.mul):
        with pytest.raises(ValueError, match="different rings"):
            op(x, other.one)
    with pytest.raises(ValueError, match="different rings"):
        r.neg(other.one)
    with pytest.raises(ValueError, match="different rings"):
        r.inverse(other.one)


def test_power_at_most_agrees_with_the_power():
    for q in (1, 2, 3, 5, 9, 25, 1000003):
        for m in range(0, 12):
            power = q ** m
            for bound in {-2, -1, 0, 1, power - 1, power, power + 1,
                          2 * power, 10 ** 6, 2 ** 63}:
                assert _power_at_most(q, m, bound) == (power <= bound), \
                    (q, m, bound)


def test_power_at_most_builds_no_power_past_the_bound():
    # 3^(10^12) has about 1.6 * 10^12 bits; the bit lengths answer first
    start = time.perf_counter()
    assert not _power_at_most(3, 10 ** 12, 2 ** 24)
    assert not _power_at_most(3, 10 ** 12, 10 ** 4300)
    assert time.perf_counter() - start < 0.1


def test_huge_ring_refuses_at_the_cap_without_its_size():
    # q^n = 3^30000000 alone takes seconds to build; nothing reads it
    start = time.perf_counter()
    ring = Ring(parse_ring_spec("zmod:3^30000000"))
    space = matrix_space(ring)
    with pytest.raises(CapExceededError, match=r"q\^\(4n\) = 3\^120000000 "):
        space.require_enumerable()
    assert space.index_type is np.int64
    assert not ring._dense
    assert "size" not in vars(ring)
    assert time.perf_counter() - start < 1


def _trial_irreducible(m, p):
    """Whether no monic polynomial of degree 1..deg(m)/2 divides m."""
    deg = len(m) - 1
    return deg >= 1 and all(
        _poly_rem(m, list(_digits_of(k, p, d)) + [1], p)
        for d in range(1, deg // 2 + 1) for k in range(p ** d))


@pytest.mark.parametrize("p, top", [(3, 5), (5, 5), (7, 4)])
def test_rabin_test_agrees_with_trial_division(p, top):
    for r in range(0, top + 1):
        for k in range(p ** r):
            m = list(_digits_of(k, p, r)) + [1]
            assert _poly_is_irreducible(m, p) == _trial_irreducible(m, p), m


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_smallest_irreducible_matches_trial_division(p):
    for r in range(1, 7):
        want = next(tuple(m) for m in (list(_digits_of(k, p, r)) + [1]
                                       for k in range(p ** r))
                    if _trial_irreducible(m, p))
        assert smallest_irreducible(p, r) == want, (p, r)


def test_degree_40_modulus_is_found_in_bounded_time():
    start = time.perf_counter()
    m = smallest_irreducible(3, 40)
    assert time.perf_counter() - start < 2
    assert m == (2, 1) + (0,) * 38 + (1,)
    f = GFq(3, 40)
    x = 3 ** 39 + 5
    assert f.mul(x, f.inv(x)) == 1
