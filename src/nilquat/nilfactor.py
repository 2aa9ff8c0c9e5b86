"""Products of nilpotent 2x2 matrices: censuses, counting formula,
certified decompositions, sharpness witnesses.

The census routes are independent by construction: the product chain
builds the exact sets of s-fold products bottom-up, as GL2 conjugacy
classes with one witness pair each, while ``rank1_union_count`` and
``formula_count`` evaluate closed-form counts and ``orbit_union``
measures the conjugation-orbit union.  Agreement between them is what the
verification suites assert; nothing here short-circuits one route through
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .chain_ring import (Ring, RingElem, _is_odd_prime_power, format_element,
                         format_ring_spec)
from .mat2 import (Mat2, MatrixSpace, _mat, block_slices,
                   companion_conjugator, format_matrix, identity,
                   pair_products)
from .orbits import _orbit_witness, locate_in_orbit_union, orbit_union

# Any fixed constant works; this one is frozen so seeded runs reproduce.
DEFAULT_SEED = 218184014


class DecompositionError(ValueError):
    """Base class for structured decomposition refusals."""


class TraceObstructionError(DecompositionError):
    """No product of two nilpotents can reach the target."""


class NotInOrbitUnionError(DecompositionError):
    """The target is outside the top-row orbit union."""


class NotNilpotentError(DecompositionError):
    """A single-factor decomposition needs a nilpotent target."""


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def rank1_union_count(q: int, n: int) -> int:
    """Closed-form size of the top-row orbit union {u w^T : u a unimodular
    column, w in R^2} for residue field GF(q) and nilpotency degree n:
    1 + (q + 1)^2 (q^(3n) - 1) / (q^2 + q + 1).

    The division is exact, since q^2 + q + 1 divides q^3 - 1 and so
    q^(3n) - 1.  It is the count a census compares against from the
    stable point on.  Kept apart from ``formula_count``, which it equals
    for n <= 2 and not for n >= 3.
    """
    if not _is_odd_prime_power(q):
        raise ValueError(f"q must be an odd prime power, got {q}")
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1 + (q + 1) ** 2 * (q ** (3 * n) - 1) // (q * q + q + 1)


def formula_count(q: int, n: int, s: int) -> int:
    """The transcribed closed form for the number of s-fold nilpotent
    products in M2(R), residue field GF(q) and nilpotency degree n, for
    s >= 2n - 1.  It equals ``rank1_union_count`` for n <= 2 and falls
    short of it by (q^n - 1)(q^n - q)(q^n - q^2) / (q^2 + q + 1) for
    n >= 3, where the brute chain gives the rank-1 count.  A ValueError
    guards the divisibility of the general branch.
    """
    if not _is_odd_prime_power(q):
        raise ValueError(f"q must be an odd prime power, got {q}")
    if n < 1 or s < 1:
        raise ValueError("n and s must both be at least 1")
    if s < 2 * n - 1:
        raise ValueError(f"formula needs s >= 2n - 1 = {2 * n - 1}")
    if n == 1 and s == 1:
        return q * q
    if n == 1 and s == 2:
        return q ** 3 - q + 1
    num = (q + 2) * q ** (3 * n + 1) + q ** 3 + q ** 2 + 1
    den = q * q + q + 1
    if num % den:
        raise ValueError(f"closed form is not integral for q={q}, n={n}")
    return q ** (2 * n) - q ** (n + 1) + num // den - 1


def _formula_or_none(q: int, n: int, s: int) -> int | None:
    """The closed form a census compares against: none below 2n - 1, the
    rank-1 union count from the stable point on, and ``formula_count`` in
    between (n = 1, s in {1, 2}).  Past the stable point the two closed
    forms agree for n <= 2 and differ by (q^n - 1)(q^n - q)(q^n - q^2) /
    (q^2 + q + 1) for n >= 3, where the brute chain gives the rank-1
    count."""
    if s < 2 * n - 1:
        return None
    if s >= stable_product_count(n):
        return rank1_union_count(q, n)
    return formula_count(q, n, s)


def nilpotent_count_check(space: MatrixSpace) -> tuple[int, int, bool]:
    """(|nilpotent_indices|, q^(2(2n-1)), agreement flag)."""
    enumerated = len(space.nilpotent_indices)
    q, n = space.ring.q, space.ring.n
    formula = q ** (2 * (2 * n - 1))
    return enumerated, formula, enumerated == formula


# ---------------------------------------------------------------------------
# exact product sets
# ---------------------------------------------------------------------------

def _read_only(indices: np.ndarray) -> np.ndarray:
    view = indices.view()
    view.setflags(write=False)
    return view


@dataclass
class _ChainStep:
    """S_s as classes: ``classes`` marks their codes, ``size`` is |S_s|,
    ``packed`` is S_s once requested, and ``factors`` holds one packed
    member of each class, sorted: the next step's left factors.  S_0 is
    {I}; each later member is left[i] Nil[j], i |Nil| + j being
    ``first``[code], so following ``first`` down to S_0 factors it into
    s nilpotents.  ``closing`` marks the step whose classes repeat the
    step before, the chain's last.  ``witnesses`` maps a code to its pair
    as matrices (n, N), the companion conjugator of n N and its inverse;
    S_2's step fills it as ``decompose`` looks classes up, and no other
    step reads it."""

    classes: np.ndarray
    size: int
    factors: np.ndarray
    packed: np.ndarray | None = None
    first: np.ndarray | None = None
    closing: bool = False
    witnesses: dict[int, tuple[Mat2, Mat2, Mat2, Mat2]] = field(
        default_factory=dict)


def _chain_step(space: MatrixSpace, s: int) -> _ChainStep:
    """S_s from the product chain cached on ``space``, extended as far as s
    or its closing step.  The chain starts at S_0 = {I}, and S_s = S_{s-1}
    * Nil is closed under conjugation, so it is the closure of L * Nil, L
    one member per class of S_{s-1}.  A step records each class's first
    pair (-1 if none) in one pass of ``pair_products`` by
    ``np.minimum.at``.  Equal classes twice in a row force every later
    set, so the step that repeats its predecessor's classes closes the
    chain and answers every s past it.  Building S_1 raises ValueError
    unless Nil meets each of its classes in full, as a set closed under
    conjugation does."""
    if s < 1:
        raise ValueError("s must be at least 1")
    chain = space._product_chain
    nil = space.nilpotent_indices
    codes = space.class_code_table
    if not chain:
        # S_1 = Nil: each class it meets must lie in it whole
        counts = np.bincount(codes[nil], minlength=space.class_count)
        if (counts != np.where(counts > 0, space.class_sizes, 0)).any():
            raise ValueError("the nilpotent indices must be closed under "
                             "conjugation")
        one = np.array([identity(space.ring).packed], dtype=np.int64)
        classes = np.zeros(space.class_count, dtype=bool)
        classes[codes[one]] = True
        chain.append(_ChainStep(classes, 1, one))
    while len(chain) <= s and not chain[-1].closing:
        left = chain[-1].factors
        pairs = len(left) * len(nil)
        first = np.full(space.class_count, pairs, dtype=np.int64)
        for start, packed in pair_products(space, left, nil):
            np.minimum.at(first, codes[packed.ravel()],
                          start * len(nil) + np.arange(packed.size))
        classes = first < pairs
        first[~classes] = -1
        i, j = np.divmod(first[classes], len(nil))
        factors = np.sort(space.pack(*space.matmul(space.unpack(left[i]),
                                                   space.unpack(nil[j]))))
        chain.append(_ChainStep(
            classes, int(space.class_sizes[classes].sum()), factors,
            first=first, closing=np.array_equal(classes, chain[-1].classes)))
    return chain[min(s, len(chain) - 1)]


def product_set(space: MatrixSpace, s: int, threads: int = 1) -> np.ndarray:
    """Sorted packed indices, in ``space.index_type``, of every product of
    exactly s nilpotents: filled from S_s's classes in the cached product
    chain on the first request, one a22 slice at a time, and cached with
    them, so it is returned read-only.  The closing step repeats the set
    before it and shares that step's array.  ``threads`` has no effect."""
    step = _chain_step(space, s)
    if step.closing:
        step = space._product_chain[-2]
    if step.packed is None:
        marked = step.classes[space.class_code_table].reshape(space.Q, -1)
        step.packed = _read_only(space._fill_slices(
            [np.count_nonzero(m) for m in marked], marked))
    return step.packed


@dataclass
class CensusReport:
    ring: str
    q: int
    n: int
    s: int
    brute_count: int | None
    formula_count: int | None
    match: bool | None
    method: str
    elapsed_ms: float

    def to_dict(self, stable: bool = False) -> dict:
        d = {"ring": self.ring, "q": self.q, "n": self.n, "s": self.s,
             "brute_count": self.brute_count,
             "formula_count": self.formula_count,
             "match": self.match, "method": self.method}
        if not stable:
            d["elapsed_ms"] = round(self.elapsed_ms, 3)
        return d


def _census_report(ring: Ring, s: int, brute: int | None, method: str,
                   elapsed_ms: float = 0.0) -> CensusReport:
    """A census of ``brute`` against the closed form for (ring, s); the
    match is None when either count is absent."""
    formula = _formula_or_none(ring.q, ring.n, s)
    match = None if brute is None or formula is None else brute == formula
    return CensusReport(ring=format_ring_spec(ring.spec), q=ring.q, n=ring.n,
                        s=s, brute_count=brute, formula_count=formula,
                        match=match, method=method, elapsed_ms=elapsed_ms)


def census_set_product(space: MatrixSpace, s: int,
                       threads: int = 1) -> CensusReport:
    """Count s-fold nilpotent products exactly and compare with the
    closed-form count (absent when s < 2n - 1).

    The count is the class-size sum kept with S_s in the product chain
    cached on ``space``, so ``elapsed_ms`` is the cost of this call: the
    chain steps it had to add, or a lookup; no packed set is built.
    """
    t0 = perf_counter()
    brute = _chain_step(space, s).size
    return _census_report(space.ring, s, brute, "set-product",
                          (perf_counter() - t0) * 1000.0)


def stable_product_count(n: int) -> int:
    """Smallest s at which the product sets have provably stabilised."""
    return 2 * n - 1 if n >= 2 else 3


def census_orbit_union(space: MatrixSpace,
                       s: int | None = None) -> CensusReport:
    """Count the orbit union, which equals the s-fold product set for every
    s past the stabilisation point."""
    ring = space.ring
    floor = stable_product_count(ring.n)
    if s is None:
        s = floor
    if s < floor:
        raise ValueError(
            f"orbit-union census needs s >= {floor} for this ring")
    t0 = perf_counter()
    brute = int(orbit_union(space).sum())
    return _census_report(ring, s, brute, "orbit-union",
                          (perf_counter() - t0) * 1000.0)


def census_formula_only(ring: Ring, s: int) -> CensusReport:
    return _census_report(ring, s, None, "formula-only")


# ---------------------------------------------------------------------------
# certified factorizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NilFactorization:
    """A checked equation: target equals the ordered product of factors.

    ``certified`` refuses to construct an unverified instance, so holding
    one is proof the factors are nilpotent and multiply out correctly.
    """

    target: Mat2
    factors: tuple[Mat2, ...]
    conjugator: Mat2

    @classmethod
    def certified(cls, target: Mat2, factors, conjugator: Mat2):
        """Check every factor nilpotent and their product equal to the
        target, else ValueError, as for factors from different rings."""
        factors = tuple(factors)
        if not factors:
            raise ValueError("a factorization needs at least one factor")
        for N in factors:
            if not N.is_nilpotent():
                raise ValueError("every factor must be nilpotent")
        prod = factors[0]
        for N in factors[1:]:
            prod = prod * N
        if prod != target:
            raise ValueError("factors must multiply to the target")
        return cls(target, factors, conjugator)

    def to_dict(self) -> dict:
        return {"target": format_matrix(self.target),
                "factors": [format_matrix(N) for N in self.factors],
                "conjugator": format_matrix(self.conjugator),
                "verified": True}


def _parity_filler(ring: Ring) -> Mat2:
    # a rank-one nilpotent with all-unit entries, used to shift parity
    one = ring.one
    minus_one = -one
    return _mat(ring, (minus_one, one, minus_one, one))


def _top_row_factors(ring: Ring, a: RingElem, b: RingElem,
                     s: int) -> list[Mat2]:
    """s >= 2 nilpotent factors multiplying to ((a, b), (0, 0)).

    s = 2 is E times a nilpotent with bottom row (a, b), which exists
    unless a is in J and b a unit: ValueError there, as two factors cannot
    reach a nonzero residue of trace zero.  For s >= 3 the cases split on
    which of a, b is a unit; each case has one odd-length and one
    even-length base chain, of which only the one of s's parity is built,
    padded in front by (E F) pairs that act as the idempotent e11 on the
    chain's product.  Repeated factors are one object each.
    """
    z, one = ring.zero, ring.one
    E = _mat(ring, (z, one, z, z))
    if s == 2:
        if a.is_unit():
            return [E, _mat(ring, (-b, -(a.inverse() * (b * b)), a, b))]
        if b.is_unit():
            raise ValueError("two factors cannot reach a nonzero residue of "
                             "trace zero")
        return [E, _mat(ring, (z, z, a, b))]
    F = _mat(ring, (z, z, one, z))
    odd = s % 2 == 1
    if not a.is_unit():
        top = _mat(ring, (a, b, z, z))
        chain = [top] if odd else [E, _parity_filler(ring), F, top]
    elif not b.is_unit():
        last = _mat(ring, (z, z, a, b))
        chain = ([E, _parity_filler(ring), last] if odd
                 else [E, F, _parity_filler(ring), last])
    else:
        K = _mat(ring, (one, a.inverse() * b, -(b.inverse() * a), -one))
        chain = ([E, _mat(ring, (z, z, a, z)), K] if odd
                 else [E, _mat(ring, (z, z, -b, z)), E, K])
    if s < len(chain):
        raise ValueError(f"this top row needs at least {len(chain)} factors")
    return [E, F] * ((s - len(chain)) // 2) + chain


def decompose(space: MatrixSpace, A: Mat2, s: int) -> NilFactorization:
    """Express A as an ordered product of exactly s nilpotent factors.

    s = 1 needs A itself nilpotent.  Every s >= 2 takes members of the
    top-row orbit union through the constructive factor chains of
    ``_top_row_factors``, and refuses the rest for s >= 3.  s = 2 is
    decided exactly, in this order: the zero matrix; the trace obstruction
    (a nonzero residue of trace zero); orbit-union members; the
    determinant obstruction (det A outside J^2); then the lookup of A's
    class in the first-pair record of the chain's S_2 step, whose failure
    is an exhaustive refusal: if A = N1 N2 and N1 = P^-1 n P, then
    P A P^-1 = n (P N2 P^-1), so S_2 is a union of classes, each reached
    by a pair (n, N), n one of S_1's factors.  The pair's matrices and the
    companion conjugator of n N, with its inverse, depend on the class
    alone, so the step keeps them from the class's first hit on; refusals
    keep nothing.  The zero and trace tests read A's entry indices and
    residues, and build no matrix.

    s = 1 and the zero matrix answer as they stand, conjugator I; every
    other route yields factors of P A P^-1 for a conjugator P and answers
    with their conjugates P^-1 N P, one per distinct factor.  Each route
    hands over P^-1 with P, written in closed form: by the union route's
    orbit witness, and by the lookup for A's companion conjugator in each
    of its three shapes (``companion_conjugator``), so no route calls
    ``Mat2.inverse``.  Every answer is certified.  Only the lookup reads
    the space's Q^4 data, and raises CapExceededError past the space's
    cap; every other route uses ``space.ring`` alone.  A target over
    another ring than the space's raises ValueError.
    """
    ring = space.ring
    if A.ring is not ring and not ring.same_ring(A.ring):
        raise ValueError("target and space are over different rings")
    if s < 1:
        raise ValueError("s must be at least 1")
    if s == 1:
        if not A.is_nilpotent():
            raise NotNilpotentError("target is not nilpotent")
        return NilFactorization.certified(A, [A], identity(ring))
    if s == 2:
        a11, a12, a21, a22 = A.a11, A.a12, A.a21, A.a22
        if not (a11.idx or a12.idx or a21.idx or a22.idx):
            z = ring.zero
            E = _mat(ring, (z, ring.one, z, z))
            return NilFactorization.certified(A, [E, E], identity(ring))
        if ((a11.digits[0] or a12.digits[0] or a21.digits[0]
             or a22.digits[0]) and not A.trace().digits[0]):
            # the residue would be a nonzero trace-zero product of two
            # nilpotent residues, which cannot exist over a field
            raise TraceObstructionError(
                "trace obstruction: no two nilpotent factors exist")
    witness = _orbit_witness(A)
    if witness is not None:
        a, b, P, Pinv = witness
        factors = _top_row_factors(ring, a, b, s)
    elif s > 2:
        raise NotInOrbitUnionError(
            "not in orbit union: no conjugate of a top-row matrix matches")
    else:
        det = A.det()
        if det.valuation() < min(2, ring.n):
            # det is multiplicative and every nilpotent has det in J
            raise TraceObstructionError(
                f"determinant obstruction: det = {format_element(det)} "
                f"is not in J^2, so no two nilpotent factors exist")
        step = _chain_step(space, 2)
        code = int(space.class_code_table[A.packed])
        record = step.witnesses.get(code)
        if record is None:
            pair = int(step.first[code])
            if pair < 0:
                raise TraceObstructionError(
                    "no product of two nilpotent matrices equals this "
                    "matrix (exhaustive search)")
            nil = space.nilpotent_indices
            left = _chain_step(space, 1).factors[pair // len(nil)]
            n = space.matrix_from_packed(int(left))
            N = space.matrix_from_packed(int(nil[pair % len(nil)]))
            record = (n, N) + companion_conjugator(n * N)
            step.witnesses[code] = record
        n, N, conj, conj_inv = record
        factors = [n, N]
        # n N shares A's class, so both reach one companion form, and
        # P = P_(nN) P_A^-1 gives P A P^-1 = n N
        conj_A, conj_A_inv = companion_conjugator(A)
        P, Pinv = conj * conj_A_inv, conj_A * conj_inv
    # a factor repeated in the list is one object, conjugated once
    back = {}
    for N in factors:
        if id(N) not in back:
            back[id(N)] = Pinv * N * P
    return NilFactorization.certified(A, [back[id(N)] for N in factors], P)


# ---------------------------------------------------------------------------
# sharpness of the 2n - 1 bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessCertificate:
    """A (2n - 2)-fold product that escapes the orbit union, witnessing
    that the 2n - 1 bound cannot be lowered."""

    target: Mat2
    factorization: NilFactorization
    in_orbit_union: bool

    def to_dict(self) -> dict:
        d = self.factorization.to_dict()
        d["in_orbit_union"] = self.in_orbit_union
        d["factor_count"] = len(self.factorization.factors)
        return d


def sharpness_example(space: MatrixSpace) -> SharpnessCertificate:
    """The canonical escape example, checked end to end.

    The target x^(n-1) (I + E12) is the product of n - 1 pairs N1_k N2_k
    with N1_k = ((x, 1), (d_k^-1 x, 0)) and N2_k = ((0, d_k), (x, 0)) for
    units d_k summing to 1, since each pair multiplies to x ((1, d_k),
    (0, 1)).  Where n - 1 is a unit every d_k is (n - 1)^-1, the paper's
    factors; otherwise the units are 1 followed by (1, -1) pairs, or 2, -1
    and then (1, -1) pairs, by the parity of n - 1.  Needs n >= 2; a field
    raises ValueError.
    """
    ring = space.ring
    n = ring.n
    if n < 2:
        raise ValueError("example inapplicable: needs n >= 2")
    m = n - 1
    nm1 = ring.from_int(m)
    if nm1.is_unit():
        units = [nm1.inverse()] * m
    else:
        head = [1] if m % 2 else [2, -1]
        units = [ring.from_int(d)
                 for d in head + [1, -1] * ((m - len(head)) // 2)]
    x, zero, one = ring.uniformizer, ring.zero, ring.one
    factors = []
    for d in units:
        factors += [Mat2(x, one, d.inverse() * x, zero),
                    Mat2(zero, d, x, zero)]
    xp = x ** m
    target = Mat2(xp, xp, zero, xp)
    fact = NilFactorization.certified(target, factors, identity(ring))
    if locate_in_orbit_union(space, target) is not None:
        raise AssertionError("sharpness target must avoid every top-row "
                             "orbit")
    return SharpnessCertificate(target=target, factorization=fact,
                                in_orbit_union=False)


# ---------------------------------------------------------------------------
# sampled valuation obstruction scan
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    ring: str
    samples: int
    matched: int
    violations: list[int]
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"ring": self.ring, "samples": self.samples,
                "matched": self.matched, "violations": self.violations,
                "note": self.note}


def valuation_obstruction_scan(space: MatrixSpace, samples: int,
                               seed: int = DEFAULT_SEED) -> ScanReport:
    """Sample (2n - 3)-fold nilpotent products and check the valuation
    obstruction: if v(x21) >= n-1, v(x22) >= n-1 and v(x11) < v(x12) <= n-2
    then x22 must vanish exactly.

    The factors of every sample are drawn in one call; the products are
    then taken one block of samples at a time on the narrow kernel, and
    each block packs only its violating products.  ``violations`` is
    their sorted distinct packed indices.

    The hypothesis needs 2n - 3 >= 1 and a valuation gap below n - 1, so
    the scan is vacuous for n <= 2.
    """
    ring = space.ring
    name = format_ring_spec(ring.spec)
    n = ring.n
    if n < 3:
        return ScanReport(ring=name, samples=0, matched=0, violations=[],
                          note=f"hypothesis unsatisfiable for n={n}")
    if samples <= 0:
        return ScanReport(ring=name, samples=0, matched=0, violations=[])
    k = 2 * n - 3
    rng = np.random.default_rng(seed)
    nil = space.nilpotent_indices
    picks = nil[rng.integers(0, len(nil), size=(samples, k))]
    t = ring.pair_tables
    val = ring.val_table
    matched = 0
    bad = []
    for block in block_slices(samples):
        rows = picks[block]
        cur = t.narrow(space.unpack(rows[:, 0]))
        for j in range(1, k):
            cur = t.matmul(cur, t.narrow(space.unpack(rows[:, j])))
        v11, v12, v21, v22 = (np.take(val, c) for c in cur)
        hyp = (v21 >= n - 1) & (v22 >= n - 1) & (v11 < v12) & (v12 <= n - 2)
        matched += int(np.count_nonzero(hyp))
        hit = hyp & (cur[3] != 0)
        bad.append(space.pack(*(c[hit] for c in cur)))
    return ScanReport(ring=name, samples=samples, matched=matched,
                      violations=[int(v)
                                  for v in np.unique(np.concatenate(bad))])
