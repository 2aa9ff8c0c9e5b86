"""Structured verification suites over one ring.

Each suite re-derives one structural fact from scratch (exhaustively on
small rings, by seeded sampling otherwise) and reports how many checks ran
and how many failed.  The suite tokens are part of the CLI contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .chain_ring import Ring, _power, _power_at_most, format_ring_spec
from .mat2 import (DEFAULT_ENUMERATION_CAP, Mat2, block_slices,
                   classify_nilpotent, classify_nilpotent_bulk, matrix_space,
                   split_packed, top_row)
from .nilfactor import (DEFAULT_SEED, DecompositionError, NotInOrbitUnionError,
                        _chain_step, census_orbit_union, census_set_product,
                        decompose, formula_count, nilpotent_count_check,
                        pair_products, rank1_union_count, sharpness_example,
                        stable_product_count, valuation_obstruction_scan)
from .orbits import conjugate, orbit_union, shear, unit_diag
from .quaternion import Quaternion, build_iso, coeff_product_narrow

# Exhaustive thresholds; beyond them the suites fall back to seeded samples.
_TRIPLE_LIMIT = 81
_MATRIX_LIMIT = 20000
_FILTRATION_LIMIT = 4096


@dataclass
class SuiteResult:
    suite: str
    ring: str
    checks: int
    violations: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {"suite": self.suite, "ring": self.ring, "checks": self.checks,
                "violations": self.violations, "passed": self.passed,
                "note": self.note}


def _result(name: str, ring: Ring, checks, violations, note="") -> SuiteResult:
    return SuiteResult(suite=name, ring=format_ring_spec(ring.spec),
                       checks=int(checks), violations=int(violations),
                       note=note)


# ---------------------------------------------------------------------------
# axioms: ring laws, valuation, filtration, sum of squares, the iso
# ---------------------------------------------------------------------------

def _draw(rng, size, q: int, m: int, c: int = 1) -> np.ndarray:
    """``size`` integers drawn uniformly from [0, c q^m): exactly
    ``rng.integers(0, c q^m, size)`` where c q^m is at most 2^63, the
    int64 bound that call takes; past it Python ints in an object array,
    each read from random bytes cut to the bit length of c q^m, and drawn
    again where it is not below c q^m (at most one time in two)."""
    if _power_at_most(q, m, 2 ** 63 // c):
        return rng.integers(0, c * q ** m, size=size)
    high = c * q ** m
    bits = high.bit_length()
    out = np.empty(size, dtype=object)
    for i in np.ndindex(out.shape):
        v = high
        while v >= high:
            v = int.from_bytes(rng.bytes(-(-bits // 8)), "little") >> -bits % 8
        out[i] = v
    return out


def _elements(ring: Ring, rng, k: int) -> list:
    """k elements of ``ring`` drawn uniformly by ``_draw``."""
    return [ring.from_index(int(t)) for t in _draw(rng, k, ring.q, ring.n)]


def _ring_law_checks(ring: Ring, rng) -> tuple[int, int, str]:
    checks = viol = 0
    if _power_at_most(ring.q, ring.n, _TRIPLE_LIMIT):
        S = ring.size
        add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
        i = np.arange(S, dtype=np.int64)
        a, b, c = i[:, None, None], i[None, :, None], i[None, None, :]
        for lhs, rhs in (
                (add[add[a, b], c], add[a, add[b, c]]),
                (mul[mul[a, b], c], mul[a, mul[b, c]]),
                (mul[a, add[b, c]], add[mul[a, b], mul[a, c]]),
                (mul[add[a, b], c], add[mul[a, c], mul[b, c]])):
            checks += lhs.size
            viol += int((lhs != rhs).sum())
        pa, pb = i[:, None], i[None, :]
        for lhs, rhs in ((add[pa, pb], add[pb, pa]), (mul[pa, pb], mul[pb, pa])):
            checks += lhs.size
            viol += int((lhs != rhs).sum())
        checks += 3 * S
        viol += int((add[i, 0] != i).sum())
        viol += int((mul[i, 1] != i).sum())
        viol += int((add[i, neg[i]] != 0).sum())
        return checks, viol, "exhaustive laws"
    for _ in range(10_000):
        x, y, z = _elements(ring, rng, 3)
        checks += 4
        viol += (x + y) + z != x + (y + z)
        viol += (x * y) * z != x * (y * z)
        viol += x * (y + z) != x * y + x * z
        viol += x * y != y * x
    return checks, viol, "sampled 10000 triples"


def _valuation_checks(ring: Ring, rng) -> tuple[int, int]:
    checks = viol = 0
    n = ring.n
    if ring._dense:
        S = ring.size
        val = ring.val_table
        va, vb = val[:, None], val[None, :]
        prod_v, sum_v = val[ring.mul_table], val[ring.add_table]
        checks += 3 * S * S
        viol += int((prod_v != np.minimum(va + vb, n)).sum())
        viol += int((sum_v < np.minimum(va, vb)).sum())
        # a unit plus a radical element stays a unit
        viol += int((((va == 0) & (vb >= 1)) & (sum_v != 0)).sum())
        return checks, viol
    for _ in range(5000):
        x, y = _elements(ring, rng, 2)
        checks += 2
        viol += (x * y).valuation() != min(x.valuation() + y.valuation(), n)
        viol += (x + y).valuation() < min(x.valuation(), y.valuation())
    return checks, viol


def _filtration_checks(ring: Ring, rng) -> tuple[int, int]:
    """Two checks of J^k for each k = 0..n.  An ideal of at most
    ``_FILTRATION_LIMIT`` members is listed: it has q^(n-k) of them, and
    it holds pi^k x for every element x on a ring of at most that many
    elements, else for 200 drawn ones.  A larger ideal is not listed but
    drawn, 200 members as digit vectors, k zeros below a drawn x's low
    digits: each has the index m q^k that ``enumerate_ideal`` lists it
    at, and pi^k x has valuation at least k."""
    checks = viol = 0
    q, n = ring.q, ring.n
    every = _power_at_most(q, n, _FILTRATION_LIMIT)
    for k in range(n + 1):
        pik = ring.pow(ring.uniformizer, k)
        checks += 2
        if _power_at_most(q, n - k, _FILTRATION_LIMIT):
            ideal = ring.enumerate_ideal(k)
            viol += len(ideal) != q ** (n - k)
            want = [e.idx for e in ideal]
            if every:
                got = sorted({(pik * e).idx for e in ring.enumerate_ring()})
                viol += got != want
            else:
                members = set(want)
                viol += not all((pik * x).idx in members
                                for x in _elements(ring, rng, 200))
        else:
            xs = _elements(ring, rng, 200)
            step, width = q ** k, q ** (n - k)
            viol += not all(ring.element((0,) * k + x.digits[:n - k]).idx
                            == x.idx % width * step for x in xs)
            viol += not all((pik * x).valuation() >= k for x in xs)
    return checks, viol


def _iso_checks(ring: Ring, rng, samples: int) -> tuple[int, int]:
    checks = viol = 0
    iso = build_iso(ring)  # construction itself asserts the relations
    if ring._dense:
        S = ring.size
        count = S ** 4
        if _power_at_most(ring.q, 4 * ring.n, 1_000_000):
            # Q^4 images of Q^4 quaternions: a bijection iff every matrix
            # is hit; the images are scattered one c4 slice of Q^3 at a time
            hit = np.zeros(count, dtype=bool)
            for c4 in range(S):
                hit[iso.packed_matrices_of_slice(c4)] = True
            checks += 1
            viol += not hit.all()
        rounds = min(2000, count)
        t = ring.pair_tables
        (xs, ys), _ = _grid_or_draw((count, count), 1_000_000, samples,
                                    rng)
        phi = iso.matrix_entries_narrow
        checks += len(xs) * 2
        for block in block_slices(len(xs)):
            # narrowed once a block; every map below stays in the
            # kernel's type
            x, y = (t.narrow(split_packed(z[block], S)) for z in (xs, ys))
            ax, by = phi(x), phi(y)
            viol += _entry_mismatches(phi(coeff_product_narrow(t, x, y)),
                                      t.matmul(ax, by))
            viol += _entry_mismatches(phi(tuple(map(t.add, x, y))),
                                      tuple(map(t.add, ax, by)))
        # round trips, one violation per sample that does not come back
        cs = rng.integers(0, S, size=(4, rounds))
        back = iso.coefficients_bulk(iso.matrix_entries_bulk(tuple(cs)))
        ms = rng.integers(0, S, size=(4, rounds))
        forth = iso.matrix_entries_bulk(iso.coefficients_bulk(tuple(ms)))
        checks += 2 * rounds
        viol += int((np.stack(back) != cs).any(axis=0).sum())
        viol += int((np.stack(forth) != ms).any(axis=0).sum())
    else:
        # min(2000, S^4) rounds, as above, is 2000 past the dense limit
        for _ in range(2000):
            x = Quaternion(*_elements(ring, rng, 4))
            checks += 2
            viol += iso.from_mat(iso.to_mat(x)) != x
            A = Mat2(*_elements(ring, rng, 4))
            viol += iso.to_mat(iso.from_mat(A)) != A
        for _ in range(200):
            x = Quaternion(*_elements(ring, rng, 4))
            y = Quaternion(*_elements(ring, rng, 4))
            checks += 2
            viol += iso.to_mat(x * y) != iso.to_mat(x) * iso.to_mat(y)
            viol += iso.to_mat(x + y) != iso.to_mat(x) + iso.to_mat(y)
    return checks, viol


def _grid_or_draw(axes, limit: int, samples: int, seed):
    """(points, sampled): one array per axis, together every point of the
    axes' product in row-major order if there are at most ``limit``, else
    min(samples, 100,000) points drawn by one ``integers`` call per axis,
    in axis order, from ``np.random.default_rng(seed)``, built only then
    (a Generator ``seed`` is used as it is).  An axis is an array of
    values or a size n standing for range(n), which is never built."""
    sizes = [len(a) if isinstance(a, np.ndarray) else a for a in axes]
    total = math.prod(sizes)
    sampled = total > limit
    if sampled:
        rng = np.random.default_rng(seed)
        m = min(samples, 100_000)
        points = [rng.integers(0, n, size=m) for n in sizes]
    else:
        points = np.unravel_index(np.arange(total), sizes)
    return tuple(a[i] if isinstance(a, np.ndarray) else i
                 for a, i in zip(axes, points)), sampled


def _entry_mismatches(X, Y) -> int:
    """How many entries differ between two 4-tuples of index arrays."""
    return sum(int(np.count_nonzero(x != y)) for x, y in zip(X, Y))


def _axioms(ring, space, samples, seed):
    rng = np.random.default_rng(seed)
    checks, viol, note = _ring_law_checks(ring, rng)
    c, v = _valuation_checks(ring, rng)
    checks += c
    viol += v
    c, v = _filtration_checks(ring, rng)
    checks += c
    viol += v
    a, b = ring.solve_sum_of_squares()
    checks += 2
    viol += (a * a + b * b + ring.one).idx != 0
    viol += not a.is_unit()
    c, v = _iso_checks(ring, rng, samples)
    checks += c
    viol += v
    return _result("axioms", ring, checks, viol, note)


# ---------------------------------------------------------------------------
# the nilpotency equivalences
# ---------------------------------------------------------------------------

def _lemma33_criteria(ring, t, ent):
    """(crit, disagreements) for the matrices ``ent``, a 4-tuple of entry
    arrays in the kernel's type: crit is the nilpotency criterion (trace
    and det in J), and each of the two independent routes, A^(2n) = 0 and
    the residue shape, counts one disagreement per matrix where it differs
    from crit."""
    n, q = ring.n, ring.q
    val = ring.val_table
    crit = ((np.take(val, t.trace(ent)) >= 1)
            & (np.take(val, t.det(ent)) >= 1))
    power = _power(t.matmul, (t.one, t.zero, t.zero, t.one), ent, 2 * n)
    powmask = ((power[0] == 0) & (power[1] == 0) & (power[2] == 0)
               & (power[3] == 0))
    # independent residue-shape route over GF(q)
    f = ring.residue_field
    mt, it, nt = f.mul_table, f.inv_table, f.neg_table
    r11, r12, r21, r22 = (x % q for x in ent)
    zero_sh = (r11 == 0) & (r12 == 0) & (r21 == 0) & (r22 == 0)
    upper = (r11 == 0) & (r12 != 0) & (r21 == 0) & (r22 == 0)
    lower = (r11 == 0) & (r12 == 0) & (r21 != 0) & (r22 == 0)
    u, v = r11, nt[r12]
    shape4 = ((r11 != 0) & (r12 != 0) & (r22 == nt[r11])
              & (r21 == mt[mt[it[v], u], u]))
    shape = zero_sh | upper | lower | shape4
    return crit, (int(np.count_nonzero(crit != powmask))
                  + int(np.count_nonzero(crit != shape)))


def _lemma33(ring, space, samples, seed):
    space.require_enumerable()
    (e,), sampled = _grid_or_draw((space.count,), _MATRIX_LIMIT, samples,
                                  seed)
    note = "exhaustive"
    if sampled:
        drawn = np.zeros(space.count, dtype=bool)
        drawn[e] = True
        e = np.flatnonzero(drawn)
        note = f"sampled {len(e)}"
    t = ring.pair_tables
    # the criteria one block of samples at a time, in the kernel's type
    crit = np.empty(len(e), dtype=bool)
    checks, viol = 2 * len(e), 0
    for block in block_slices(len(e)):
        crit[block], v = _lemma33_criteria(ring, t,
                                           t.narrow(space.unpack(e[block])))
        viol += v
    # classification must reproduce its input exactly, one check a sample
    pick = np.flatnonzero(crit)
    pick = pick[::max(1, len(pick) // 1500)]
    A = t.narrow(space.unpack(e[pick]))
    cls = classify_nilpotent_bulk(ring, A)
    bad = np.zeros(len(pick), dtype=bool)
    for x, y in zip(cls.matrix(), A):
        bad |= x != y
    # the scalar classifier agrees with the bulk one on up to 150 samples
    for i in range(0, len(pick), max(1, -(-len(pick) // 150))):
        got = classify_nilpotent(space.matrix_from_packed(int(e[pick[i]])))
        bad[i] |= ((got.tag.value,
                    *(-1 if w is None else w.idx for w in (got.u, got.v)),
                    *(x.idx for x in got.perturbation.entries()))
                   != (cls.tag[i], cls.u[i], cls.v[i],
                       *(x[i] for x in cls.perturbation)))
    checks += len(pick)
    viol += int(bad.sum())
    if note == "exhaustive":
        enumerated, formula, ok = nilpotent_count_check(space)
        checks += 1
        viol += not ok
    return _result("lemma33", ring, checks, viol, note)


def _lemma34(ring, space, samples, seed):
    n, val = ring.n, ring.val_table
    mask = orbit_union(space)
    checks = viol = 0
    jn1 = np.flatnonzero(val >= n - 1)
    for k in range(n):
        ts = np.flatnonzero(val == k)
        for l in range(k + 1, n + 1):
            j1s = np.flatnonzero(val == l)
            grid = space.pack(ts[:, None, None], j1s[None, :, None],
                              jn1[None, None, :], 0).ravel()
            checks += grid.size
            viol += int((~mask[grid]).sum())
    grid2 = space.pack(0, jn1[:, None], 0, jn1[None, :]).ravel()
    checks += grid2.size
    viol += int((~mask[grid2]).sum())
    return _result("lemma34", ring, checks, viol)


def _lemma35(ring, space, samples, seed):
    """Three identities, each one check per input: a shear t conjugates
    ((a, b), (0, 0)) to ((a, b + a t), (0, 0)) for every t, not only units;
    the shear v u^-1 conjugates ((u, -v), (w, -u)), w = v^-1 u^2, to
    ((0, 0), (w, 0)) for units u, v; and diag(1, alpha) is invertible for
    a unit alpha.  Inputs are element indices, drawn alike on both routes:
    bulk on rings with dense tables, ``Mat2`` arithmetic past them.  The
    seeded generator is built at the first draw, so the exhaustive route
    never imports ``numpy.random``.  The units are read in closed form,
    never listed: of the (q - 1) q^(n-1), the k-th is the k-th index
    prime to q, (k // (q - 1)) q + k % (q - 1) + 1."""
    rng = cache(lambda: np.random.default_rng(seed))
    q, n = ring.q, ring.n
    if _power_at_most(q, 3 * n, 729):
        els = np.arange(ring.size, dtype=np.int64)
        triples = tuple(x.ravel() for x in np.meshgrid(els, els, els,
                                                       indexing="ij"))
        note = "exhaustive"
    else:
        triples = tuple(_draw(rng(), (2000, 3), q, n).T)
        note = "sampled 2000 triples"

    def unit(k):
        # in Python ints past the dense limit, where q^n may pass int64
        k = k if ring._dense else k.astype(object)
        return k // (q - 1) * q + k % (q - 1) + 1

    # the first 100 units, or all of them where there are fewer
    few = _power_at_most(q, n - 1, 100 // (q - 1))
    alphas = unit(np.arange((q - 1) * q ** (n - 1) if few else 100))
    if len(alphas) <= 20:  # so at most 400 pairs
        pairs = tuple(x.ravel() for x in np.meshgrid(alphas, alphas,
                                                     indexing="ij"))
    else:
        pairs = tuple(unit(_draw(rng(), (400, 2), q, n - 1, q - 1)).T)
    check = _lemma35_bulk if ring._dense else _lemma35_scalar
    checks = len(triples[0]) + len(pairs[0]) + len(alphas)
    return _result("lemma35", ring, checks,
                   check(ring, triples, pairs, alphas), note)


def _lemma35_scalar(ring, triples, pairs, alphas) -> int:
    el = ring.from_index
    z = ring.zero
    viol = 0
    for a, b, t in zip(*triples):
        a, b, t = el(int(a)), el(int(b)), el(int(t))
        viol += conjugate(top_row(a, b), shear(ring, t)) != top_row(a, b + a * t)
    for u, v in zip(*pairs):
        u, v = el(int(u)), el(int(v))
        w = v.inverse() * (u * u)
        A = Mat2(u, -v, w, -u)
        viol += conjugate(A, shear(ring, v * u.inverse())) != Mat2(z, z, w, z)
    for alpha in alphas:
        viol += not unit_diag(ring, el(int(alpha))).is_invertible()
    return viol


def _mismatches(X, Y) -> int:
    """How many matrices differ between two 4-tuples of index arrays."""
    bad = np.zeros((), dtype=bool)
    for x, y in zip(X, Y):
        bad = bad | (x != y)
    return int(np.count_nonzero(bad))


def _lemma35_bulk(ring, triples, pairs, alphas) -> int:
    t = ring.pair_tables
    zero, one = t.narrow(ring.zero.idx), t.narrow(ring.one.idx)
    a, b, s = t.narrow(triples)
    u, v = t.narrow(pairs)
    inv_u, inv_v = np.take(t.inv_table, u), np.take(t.inv_table, v)
    w = t.mul(inv_v, t.mul(u, u))
    # P^-1 A P as ``orbits.conjugate`` computes it, for shears and pairs
    sheared, idet = t.conjugate((a, b, zero, zero), (one, s, zero, one))
    split, idet_u = t.conjugate((u, t.neg(v), w, t.neg(u)),
                                (one, t.mul(v, inv_u), zero, one))
    if (idet < 0).any() or (idet_u < 0).any():
        raise ValueError("conjugator is not invertible")
    viol = _mismatches(sheared, (a, t.add(b, t.mul(a, s)), zero, zero))
    viol += _mismatches(split, (zero, zero, w, zero))
    det = t.det((one, zero, zero, t.narrow(alphas)))
    viol += int((np.take(t.inv_table, det) < 0).sum())
    return viol


def _lemma36(ring, space, samples, seed):
    """A member of the orbit union times any matrix stays in the union:
    every (member, matrix) pair when there are at most 10^6 of them, pair
    i being (members[i // Q^4], i % Q^4), else up to 100,000 sampled
    pairs.  The pairs are unpacked, multiplied on the narrow kernel and
    looked up in the union mask one block at a time; only ``pack``
    widens to int64."""
    mask = orbit_union(space)
    (a, b), sampled = _grid_or_draw((np.flatnonzero(mask), space.count),
                                    1_000_000, samples, seed)
    m = len(a)
    note = f"sampled {m}" if sampled else "exhaustive"
    t = ring.pair_tables
    viol = 0
    for block in block_slices(m):
        prod = t.matmul(t.narrow(space.unpack(a[block])),
                        t.narrow(space.unpack(b[block])))
        viol += int(np.count_nonzero(~mask[space.pack(*prod)]))
    return _result("lemma36", ring, m, viol, note)


def _lemma37(ring, space, samples, seed):
    report = valuation_obstruction_scan(space, min(samples, 100_000), seed)
    note = report.note or f"matched hypothesis {report.matched} times"
    return _result("lemma37", ring, report.samples, len(report.violations),
                   note)


def _lemma311(ring, space, samples, seed):
    if ring.n != 1:
        return _result("lemma311", ring, 0, 0, "requires a field (n = 1)")
    nil = space.nilpotent_indices
    Q = space.Q
    t = ring.pair_tables
    viol = 0
    for _, packed in pair_products(space, nil, nil):
        # the trace reads only a11 and a22: two floor divisions, no unpack
        a11 = packed - packed // Q * Q
        tr = t.add(t.narrow(a11), t.narrow(packed // Q ** 3))
        viol += int(((packed != 0) & (tr == 0)).sum())
    return _result("lemma311", ring, len(nil) ** 2, viol, "exhaustive pairs")


def _thm38(ring, space, samples, seed):
    """S_s lies in the union for s = 2n - 1 .. 2n + 2: both are closed
    under conjugation, so one witness per class of S_s decides the class.
    Past the stable s0, S_s keeps S_s0's classes; as the chain stops only
    at two equal steps in a row, that shows it closed by s0."""
    n = ring.n
    s0 = stable_product_count(n)
    mask = orbit_union(space)
    steps = {s: _chain_step(space, s) for s in range(2 * n - 1, 2 * n + 3)}
    later = [step for s, step in steps.items() if s > s0]
    viol = sum(not mask[step.factors].all() for step in steps.values())
    viol += sum(not np.array_equal(step.classes, steps[s0].classes)
                for step in later)
    return _result("thm38", ring, len(steps) + len(later), viol)


def _cor310(ring, space, samples, seed):
    """S_s0 is the union: its class witnesses lie in it, as in thm38, and
    the sizes agree.  25 sampled members decompose into s0 nilpotents."""
    s0 = stable_product_count(ring.n)
    step = _chain_step(space, s0)
    mask = orbit_union(space)
    same = step.size == np.count_nonzero(mask) and mask[step.factors].all()
    checks, viol = 1, int(not same)
    rng = np.random.default_rng(seed)
    members = np.flatnonzero(mask)
    for idx in members[rng.integers(0, len(members), size=25)]:
        A = space.matrix_from_packed(int(idx))
        checks += 1
        try:
            decompose(space, A, s0)
        except DecompositionError:
            viol += 1
    return _result("cor310", ring, checks, viol)


def _example39(ring, space, samples, seed):
    n = ring.n
    if n < 2:
        return _result("example39", ring, 0, 0, "inapplicable: needs n >= 2")
    cert = sharpness_example(space)
    checks = viol = 0
    checks += 1
    viol += len(cert.factorization.factors) != 2 * n - 2
    checks += 1
    viol += cert.in_orbit_union
    checks += 1
    try:
        decompose(space, cert.target, 2 * n - 1)
        viol += 1
    except NotInOrbitUnionError:
        pass
    return _result("example39", ring, checks, viol)


def _thm312(ring, space, samples, seed):
    n = ring.n
    stable = stable_product_count(n)
    union_count = rank1_union_count(ring.q, n)
    checks = viol = 0
    for s in range(2 * n - 1, 2 * n + 3):
        # brute count = the count census compares against, which past the
        # stable point is the rank-1 union count
        rep = census_set_product(space, s)
        checks += 1
        viol += not (rep.match is True
                     and (s < stable or rep.formula_count == union_count))
    rep = census_orbit_union(space)
    checks += 1
    viol += rep.match is not True
    sign = "=" if rep.match else "!="
    note = f"census {rep.brute_count} {sign} {rep.formula_count}"
    # exact divisibility of the closed form across the small parameter grid
    for p in (3, 5, 7, 11, 13):
        for r in (1, 2, 3):
            for m in range(1, 7):
                checks += 1
                try:
                    formula_count(p ** r, m, max(2 * m - 1, 3))
                except ValueError:
                    viol += 1
    return _result("thm312", ring, checks, viol, note)


_RUNNERS = {
    "axioms": _axioms,
    "lemma33": _lemma33,
    "lemma34": _lemma34,
    "lemma35": _lemma35,
    "lemma36": _lemma36,
    "lemma37": _lemma37,
    "lemma311": _lemma311,
    "thm38": _thm38,
    "cor310": _cor310,
    "example39": _example39,
    "thm312": _thm312,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suites(ring: Ring, names=("all",), *,
               cap: int = DEFAULT_ENUMERATION_CAP, samples: int = 100_000,
               seed: int = DEFAULT_SEED, threads: int = 1) -> list[SuiteResult]:
    """Run the named suites (or all of them) against one ring.

    The suites share one space.  Past its cap, ``axioms``, ``lemma35``,
    ``example39``, ``lemma311`` at n >= 2 and ``lemma37`` at n <= 2 read
    no Q^4 data and run; the first suite that does raises
    CapExceededError, which ends the run.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if isinstance(names, str):
        names = (names,)
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in _RUNNERS:
            expanded.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)}, all")
    if not expanded:
        raise ValueError("no suites given")
    space = matrix_space(ring, cap)
    return [_RUNNERS[name](ring, space, samples, seed) for name in expanded]
