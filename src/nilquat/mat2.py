"""2x2 matrices over a chain ring: arithmetic, invertibility, nilpotency.

A scalar matrix, ``Mat2``, is a value object over one ring's elements.
Its arithmetic is one call into the ring per product and per entry of
everything else: a product is one call of the fused 2x2 primitive
``Ring._matmul``, a determinant one call of ``Ring._dot`` (a*b + c*d),
and sums, negation and the inverse's scaling one ``Ring.add``/``neg``/
``mul`` each.  On a ring with dense tables these are table steps on the
interned elements; the choice between the tables and the digit route
stays in ``Ring``.  The counting work runs over
a packed integer encoding instead: a matrix is the integer

    idx(a11) + idx(a12)*Q + idx(a21)*Q^2 + idx(a22)*Q^3,   Q = q^n,

and MatrixSpace provides vectorised kernels over whole packed ranges.
Products, traces and determinants over index arrays are thin callers of
the ring's shared gather kernel, ``chain_ring.PairTables``, through its
one int64 adapter ``Ring._bulk``; the same kernel serves the quaternion
maps and the verify suites.
Nilpotency uses the chain-ring criterion trace, det in J(R), on a scalar
matrix one call of the fused residue test ``Ring._is_nilpotent``; the
2n-th power oracle it is equivalent to lives in the test suites.  The
four-class taxonomy of nilpotents has a scalar form, classify_nilpotent,
and one over index arrays, classify_nilpotent_bulk.  GL2 is the
invertible set, det a unit.  Both tests read only residues, so each is a
comparison broadcast from a Q x Q table of residues of products; the
index sets are filled from it, and the class code table swept, one a22
slice of Q^3 matrices at a time.  Only the conjugation orbits of the
"sweep" reference route read GL2, so it is built on each request and
never held by the space.
GL2 conjugacy classes have a closed-form dense code,
``MatrixSpace.class_code``, and ``companion_conjugator`` takes a matrix
to its class's companion form, in closed form with its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .chain_ring import PairTables, Ring, RingElem, format_ring_spec

DEFAULT_ENUMERATION_CAP = 2 ** 24


class CapExceededError(ValueError):
    """A packed enumeration would exceed the configured cap."""


class Mat2:
    """An immutable 2x2 matrix with entries in one chain ring.

    The constructor checks that all four entries share one ring.  The
    arithmetic checks the operands' ring once per matrix and builds its
    result with ``_mat``, since every entry it computes comes from that
    ring's own tables or digit route."""

    __slots__ = ("ring", "a11", "a12", "a21", "a22")

    def __init__(self, a11: RingElem, a12: RingElem, a21: RingElem,
                 a22: RingElem):
        ring = a11.ring
        for e in (a12, a21, a22):
            if e.ring is not ring and not ring.same_ring(e.ring):
                raise ValueError("matrix entries from different rings")
        self.ring = ring
        self.a11 = a11
        self.a12 = a12
        self.a21 = a21
        self.a22 = a22

    def entries(self) -> tuple[RingElem, RingElem, RingElem, RingElem]:
        return (self.a11, self.a12, self.a21, self.a22)

    def _ring_with(self, other: "Mat2") -> Ring:
        """The ring of both operands; ValueError if they differ."""
        ring = self.ring
        if not ring.same_ring(other.ring):
            raise ValueError("matrices from different rings")
        return ring

    def __add__(self, other: "Mat2") -> "Mat2":
        ring = self._ring_with(other)
        add = ring.add
        return _mat(ring, (add(self.a11, other.a11),
                           add(self.a12, other.a12),
                           add(self.a21, other.a21),
                           add(self.a22, other.a22)))

    def __sub__(self, other: "Mat2") -> "Mat2":
        ring = self._ring_with(other)
        sub = ring.sub
        return _mat(ring, (sub(self.a11, other.a11),
                           sub(self.a12, other.a12),
                           sub(self.a21, other.a21),
                           sub(self.a22, other.a22)))

    def __neg__(self) -> "Mat2":
        ring = self.ring
        neg = ring.neg
        return _mat(ring, (neg(self.a11), neg(self.a12), neg(self.a21),
                           neg(self.a22)))

    def __mul__(self, other: "Mat2") -> "Mat2":
        ring = self.ring
        if other.ring is not ring:
            # the product is the hot path: one identity test, and the
            # parameter comparison only for two handles of a ring
            self._ring_with(other)
        return _mat(ring, ring._matmul(self.a11, self.a12, self.a21,
                                       self.a22, other.a11, other.a12,
                                       other.a21, other.a22))

    def __pow__(self, k: int) -> "Mat2":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        out = identity(self.ring)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Mat2)
                and (self.ring is other.ring
                     or self.ring.same_ring(other.ring))
                and self.a11.idx == other.a11.idx
                and self.a12.idx == other.a12.idx
                and self.a21.idx == other.a21.idx
                and self.a22.idx == other.a22.idx)

    def __hash__(self):
        return hash((self.ring._key, self.packed))

    def __repr__(self):
        return (f"[[{self.a11!r},{self.a12!r}],"
                f"[{self.a21!r},{self.a22!r}]]")

    @property
    def packed(self) -> int:
        Q = self.ring.size
        return ((self.a22.idx * Q + self.a21.idx) * Q + self.a12.idx) * Q \
            + self.a11.idx

    def trace(self) -> RingElem:
        return self.ring.add(self.a11, self.a22)

    def det(self) -> RingElem:
        ring = self.ring
        return ring._dot(self.a11, self.a22, ring.neg(self.a12), self.a21)

    def is_invertible(self) -> bool:
        return self.det().is_unit()

    def inverse(self) -> "Mat2":
        """The adjugate scaled by det^-1; ValueError if det is no unit."""
        ring = self.ring
        d = self.det()
        if not d.is_unit():
            raise ValueError("matrix is not invertible")
        di = ring.inverse(d)
        ndi, mul = ring.neg(di), ring.mul
        return _mat(ring, (mul(di, self.a22), mul(ndi, self.a12),
                           mul(ndi, self.a21), mul(di, self.a11)))

    def is_nilpotent(self) -> bool:
        """Chain-ring criterion: both trace and determinant lie in J(R).
        One call of the ring's fused test ``Ring._is_nilpotent``, which
        compares residues, res(a11) + res(a22) = 0 and res(a11 a22) =
        res(a12 a21), with no trace or determinant element built."""
        return self.ring._is_nilpotent(self.a11, self.a12, self.a21, self.a22)


def _mat(ring: Ring, entries: tuple) -> Mat2:
    """A Mat2 over ``ring`` from the entries (a11, a12, a21, a22) its
    arithmetic computed, without the constructor's per-entry ring check."""
    m = object.__new__(Mat2)
    m.ring = ring
    m.a11, m.a12, m.a21, m.a22 = entries
    return m


def gl2_count(q: int, n: int) -> int:
    """|GL2(R)| = q^(4(n-1)) (q^2 - 1)(q^2 - q)."""
    return q ** (4 * (n - 1)) * (q * q - 1) * (q * q - q)


def identity(ring: Ring) -> Mat2:
    one, zero = ring.one, ring.zero
    return _mat(ring, (one, zero, zero, one))


def zero_matrix(ring: Ring) -> Mat2:
    zero = ring.zero
    return _mat(ring, (zero, zero, zero, zero))


def top_row(a: RingElem, b: RingElem) -> Mat2:
    """The matrix ((a, b), (0, 0))."""
    ring = a.ring
    return Mat2(a, b, ring.zero, ring.zero)


# ---------------------------------------------------------------------------
# the four-class taxonomy of nilpotents
# ---------------------------------------------------------------------------

class NilTag(Enum):
    ZERO_ISH = 1
    UPPER_UNIT = 2
    LOWER_UNIT = 3
    UNIT_TRACE = 4


def _class_representative(ring: Ring, tag: NilTag, u, v) -> Mat2:
    z = ring.zero
    if tag is NilTag.ZERO_ISH:
        return zero_matrix(ring)
    if tag is NilTag.UPPER_UNIT:
        return Mat2(z, u, z, z)
    if tag is NilTag.LOWER_UNIT:
        return Mat2(z, z, u, z)
    return Mat2(u, -v, v.inverse() * (u * u), -u)


@dataclass(frozen=True)
class NilClass:
    """Which residue shape a nilpotent matrix has, plus the J-perturbation
    carrying it back to the classified matrix."""

    tag: NilTag
    u: RingElem | None
    v: RingElem | None
    perturbation: Mat2

    def representative(self) -> Mat2:
        return _class_representative(self.perturbation.ring, self.tag,
                                     self.u, self.v)

    def matrix(self) -> Mat2:
        return self.representative() + self.perturbation


def classify_nilpotent(A: Mat2) -> NilClass:
    """Sort a nilpotent matrix into exactly one of the four residue shapes.

    The witnesses are lifts of residues: u = lift(res(a11)) (or of the sole
    unit corner), v = lift(-res(a12)) in the unit-trace shape.
    """
    if not A.is_nilpotent():
        raise ValueError("matrix is not nilpotent")
    ring = A.ring
    f = ring.residue_field
    r11, r12, r21, r22 = (ring.residue(e) for e in A.entries())
    if r11 == 0 and r12 == 0 and r21 == 0 and r22 == 0:
        tag, u, v = NilTag.ZERO_ISH, None, None
    elif r11 == 0 and r21 == 0 and r22 == 0:
        tag, u, v = NilTag.UPPER_UNIT, ring.lift(r12), None
    elif r11 == 0 and r12 == 0 and r22 == 0:
        tag, u, v = NilTag.LOWER_UNIT, ring.lift(r21), None
    else:
        # residue is rank one with zero trace and no zero entry
        if not (r11 and r12 and r21 and r22):
            raise AssertionError("impossible nilpotent residue")
        tag, u, v = NilTag.UNIT_TRACE, ring.lift(r11), ring.lift(f.neg(r12))
    rep = _class_representative(ring, tag, u, v)
    pert = A - rep
    if any(e.is_unit() for e in pert.entries()):
        raise AssertionError("perturbation must lie in M2(J)")
    return NilClass(tag, u, v, pert)


def _class_representatives(t, tag, u, v):
    """_class_representative over arrays of NilTag values and witnesses,
    on the kernel ``t``.  A witness of -1 (None) or a v without inverse
    is read as 0, so every gather stays in range; only rows whose tag
    uses a witness read it."""
    u, v = np.maximum(u, 0), np.maximum(v, 0)
    inv_v = np.maximum(np.take(t.inv_table, v), 0)
    unit = tag == NilTag.UNIT_TRACE.value
    zero = np.zeros_like(u)
    return (np.where(unit, u, zero),
            np.where(unit, t.neg(v),
                     np.where(tag == NilTag.UPPER_UNIT.value, u, zero)),
            np.where(unit, t.mul(inv_v, t.mul(u, u)),
                     np.where(tag == NilTag.LOWER_UNIT.value, u, zero)),
            np.where(unit, t.neg(u), zero))


@dataclass(frozen=True)
class NilClasses:
    """``classify_nilpotent`` over arrays, in the ring kernel's type: the
    NilTag values, the witnesses u and v as element indices with -1 where
    the scalar form has None, and the perturbation as a 4-tuple."""

    ring: Ring
    tag: np.ndarray
    u: np.ndarray
    v: np.ndarray
    perturbation: tuple

    def matrix(self) -> tuple:
        """Representative plus perturbation, with all four entries -1
        where the witnesses do not fit the tag: u is None exactly for
        ZERO_ISH, v is a unit for UNIT_TRACE and None otherwise."""
        t = self.ring.pair_tables
        tag, u, v = self.tag, self.u, self.v
        unit = tag == NilTag.UNIT_TRACE.value
        ok = (((u < 0) == (tag == NilTag.ZERO_ISH.value))
              & np.where(unit, np.take(t.inv_table, np.maximum(v, 0)) >= 0,
                         v < 0))
        rep = _class_representatives(t, tag, u, v)
        return tuple(np.where(ok, t.add(r, p), -1)
                     for r, p in zip(rep, self.perturbation))


def classify_nilpotent_bulk(ring: Ring, entries) -> NilClasses:
    """``classify_nilpotent`` over a 4-tuple of equal-length entry index
    arrays (a11, a12, a21, a22), with the same refusals: ValueError if
    any matrix is not nilpotent, AssertionError on an impossible residue
    or a perturbation outside M2(J).  The digit encoding makes res(x)
    idx mod q and lift(r) the index r."""
    t = ring.pair_tables
    A = t.narrow(tuple(entries))
    val = ring.val_table
    if ((np.take(val, t.trace(A)) < 1) | (np.take(val, t.det(A)) < 1)).any():
        raise ValueError("matrix is not nilpotent")
    r11, r12, r21, r22 = (x % ring.q for x in A)
    z11, z12, z21, z22 = r11 == 0, r12 == 0, r21 == 0, r22 == 0
    zero_ish = z11 & z12 & z21 & z22
    upper = z11 & z21 & z22 & ~z12
    lower = z11 & z12 & z22 & ~z21
    unit = ~(zero_ish | upper | lower)
    if (unit & (z11 | z12 | z21 | z22)).any():
        raise AssertionError("impossible nilpotent residue")
    tag = np.select([zero_ish, upper, lower], [NilTag.ZERO_ISH.value,
                    NilTag.UPPER_UNIT.value, NilTag.LOWER_UNIT.value],
                    NilTag.UNIT_TRACE.value).astype(np.int8)
    u = np.select([upper, lower, unit], [r12, r21, r11], -1).astype(t.dtype)
    neg_r12 = np.take(ring.residue_field.neg_table, r12)
    v = np.where(unit, neg_r12, -1).astype(t.dtype)
    rep = _class_representatives(t, tag, u, v)
    pert = tuple(t.sub(a, r) for a, r in zip(A, rep))
    if any((np.take(val, e) == 0).any() for e in pert):
        raise AssertionError("perturbation must lie in M2(J)")
    return NilClasses(ring, tag, u, v, pert)


# ---------------------------------------------------------------------------
# the packed matrix space
# ---------------------------------------------------------------------------

# Entries per block of the blocked bulk passes: the sampled verify suites,
# the valuation scan and ``conjugates_of``.  Their int64 temporaries are a
# few such blocks, whatever the sample count or |GL2|.
_BLOCK = 1 << 14


def block_slices(total: int):
    """Consecutive slices of range(total), each ``_BLOCK`` long but the
    last: the block loop of the bulk passes."""
    return (slice(start, min(start + _BLOCK, total))
            for start in range(0, total, _BLOCK))


def split_packed(packed, Q: int):
    """The four base-Q digits (x1, x2, x3, x4) of packed indices x1 + x2 Q
    + x3 Q^2 + x4 Q^3, as int64, by three floor divisions; numpy's %
    costs about four times a //."""
    e = np.asarray(packed, dtype=np.int64)
    e1 = e // Q
    e2 = e1 // Q
    x4 = e2 // Q
    return e - e1 * Q, e1 - e2 * Q, e2 - x4 * Q, x4


class MatrixSpace:
    """Vectorised kernels over all Q^4 packed matrices of one ring.

    Construction is cheap on every ring; packing, the bulk arithmetic,
    ``class_code`` and ``class_sizes`` read at most Q x Q tables.  Each
    builder of Q^4-sized data (``nilpotent_indices``,
    ``invertible_indices``, ``class_code_table``, ``orbits.orbit_union``)
    first calls ``require_enumerable``, which refuses q^(4n) past the cap.
    Nilpotency and invertibility compare residues of products,
    res(a11 a22) against res(a12 a21), broadcast from Q x Q tables.  The
    index sets, ``nilpotent_indices``, ``invertible_indices`` and the
    packed S_s of ``nilfactor.product_set``, are ascending packed indices
    in ``index_type``, preallocated from per-slice counts and filled one
    a22 slice of Q^3 matrices at a time, so none of them makes a Q^4-long
    index array or caches a mask.  The class code table is swept a22
    slice by a22 slice too, so its temporaries stay below Q^3 entries.
    GL2 is the invertible set; neither ``invertible_indices`` nor its
    alias ``gl_packed`` caches anything, so no space holds GL2.  A space
    does hold ``nilfactor``'s product chain, S_0 = {I} up to its closing
    step, as class records built on request.
    """

    def __init__(self, ring: Ring, cap: int = DEFAULT_ENUMERATION_CAP):
        self.ring = ring
        self.Q = ring.size
        self.count = ring.size ** 4
        self._cap = cap
        self._union_cache: dict[str, np.ndarray] = {}
        # the product chain S_0 = {I}, S_1 = Nil, S_2, ... as nilfactor's
        # class-level steps, extended on demand up to the closing step, the
        # first whose classes repeat the step before
        self._product_chain: list = []

    def require_enumerable(self) -> None:
        """Raise CapExceededError when the Q^4 packed matrices exceed the
        cap; called before anything of that size is built."""
        if self.count > self._cap:
            raise CapExceededError(
                f"q^(4n) = {self.count} packed matrices exceed the "
                f"enumeration cap {self._cap}")

    def __repr__(self):
        return f"MatrixSpace({format_ring_spec(self.ring.spec)})"

    # -- packing -----------------------------------------------------------

    def unpack(self, packed):
        return split_packed(packed, self.Q)

    def pack(self, a11, a12, a21, a22):
        """The packed index of each matrix, in int64 whatever the entries'
        integer type."""
        Q = self.Q
        return ((np.asarray(a22, dtype=np.int64) * Q + a21) * Q + a12) * Q + a11

    @property
    def index_type(self):
        """The narrowest integer type holding every packed index: int32
        up to 2^31 packed matrices, so under the default cap, else int64.
        The index sets and the blocks of pair products use it."""
        return np.int32 if self.count <= 2 ** 31 else np.int64

    def matrix_from_packed(self, idx: int) -> Mat2:
        if not 0 <= idx < self.count:
            raise ValueError(f"packed index {idx} out of range")
        Q, r = self.Q, self.ring
        parts = []
        for _ in range(4):
            parts.append(r.from_index(idx % Q))
            idx //= Q
        return Mat2(*parts)

    # -- elementwise bulk operations ----------------------------------------

    def matmul(self, A, B):
        """Product of two matrices given as 4-tuples of index arrays
        (broadcasting; scalars allowed)."""
        return self.ring._bulk(PairTables.matmul, A, B)

    def trace_indices(self, entries):
        return self.ring._bulk(PairTables.trace, entries)

    def det_indices(self, entries):
        return self.ring._bulk(PairTables.det, entries)

    # -- arrays over the whole space -----------------------------------------

    def _det_residues(self):
        """The Q x Q table res[x, y] = res(x y), read both as res(a11 a22)
        at [a22, a11] and as res(a12 a21) at [a21, a12].  The residue map
        is a ring homomorphism, so det A lies in J exactly when the two
        are equal.  Its type also holds q, a residue no product has."""
        ring = self.ring
        return (ring.mul_table % ring.q).astype(np.min_scalar_type(ring.q))

    def _nilpotent_residues(self):
        """(diag, off), Q x Q tables over (a22, a11) and (a21, a12), with
        A nilpotent exactly when diag[a22, a11] == off[a21, a12]: diag is
        res(a11 a22), or q where the trace a11 + a22 is a unit."""
        ring = self.ring
        res = self._det_residues()
        trace_in_j = ring.val_table[ring.add_table] >= 1
        return np.where(trace_in_j, res, ring.q), res

    @cached_property
    def nilpotent_indices(self) -> np.ndarray:
        self.require_enumerable()
        return self._residue_indices(*self._nilpotent_residues(), equal=True)

    @property
    def invertible_indices(self) -> np.ndarray:
        """GL2 as ascending packed indices, built on each read and not
        cached: only the orbit sweep needs it, and on polyq:7^2^1 it is
        21.5 MiB of int32.  A caller that needs it twice keeps it."""
        self.require_enumerable()
        res = self._det_residues()
        return self._residue_indices(res, res, equal=False)

    def _residue_indices(self, diag, off, equal: bool) -> np.ndarray:
        """Ascending packed indices of the matrices with diag[a22, a11]
        equal (or, if not ``equal``, unequal) to off[a21, a12].  Each a22
        slice's count is the histogram of off read at that slice's diag
        row; each slice is then compared into one reused Q^3 bool."""
        step = self.Q ** 3
        equal_count = np.bincount(off.ravel(), minlength=self.ring.q + 1)
        counts = equal_count[diag].sum(axis=1)
        if not equal:
            counts = step - counts
        compare = np.equal if equal else np.not_equal
        column = off[:, :, None]
        buf = np.empty((self.Q,) * 3, dtype=bool)
        return self._fill_slices(counts, (compare(row, column, out=buf)
                                          for row in diag))

    def _fill_slices(self, counts, slices) -> np.ndarray:
        """Ascending packed indices, in ``index_type``, of the matrices
        marked in ``slices``: for each a22 in turn, a bool over its slice
        of Q^3 matrices in packed order, marking ``counts[a22]`` of them.
        Each slice is written straight into the preallocated result, so
        no Q^4-long index array is made."""
        step = self.Q ** 3
        out = np.empty(int(np.sum(counts)), dtype=self.index_type)
        low = np.arange(step, dtype=self.index_type)
        end = 0
        for a22, (k, marked) in enumerate(zip(counts, slices)):
            np.add(low[marked.reshape(-1)], a22 * step, out=out[end:end + k])
            end += k
        return out

    @property
    def gl_packed(self) -> np.ndarray:
        """GL2 as ascending packed indices: the invertible set, built on
        each read like it."""
        return self.invertible_indices

    def conjugates_of(self, A: Mat2) -> np.ndarray:
        """Packed P^-1 A P for every P in GL2, in ascending P order; P^-1
        is the adjugate scaled by det^-1.  GL2 is built for this call."""
        # reading GL2 checks the cap before the ring's tables are built
        return self._conjugates_by(self.invertible_indices, A)

    def _conjugates_by(self, gl: np.ndarray, A: Mat2) -> np.ndarray:
        """``conjugates_of`` over the given GL2 set, so that a caller
        conjugating many matrices builds GL2 once.  GL2 is unpacked into
        the kernel's type one block at a time, and each block's products
        are packed into the int64 result."""
        t = self.ring.pair_tables
        a = t.narrow(tuple(x.idx for x in A.entries()))
        out = np.empty(len(gl), dtype=np.int64)
        for block in block_slices(len(gl)):
            conj, idet = t.conjugate(a, t.narrow(self.unpack(gl[block])))
            if (idet < 0).any():
                raise AssertionError("invertible indices must have unit "
                                     "determinants")
            out[block] = self.pack(*conj)
        return out

    # -- similarity classes ---------------------------------------------------

    @cached_property
    def _code_tables(self):
        """What ``class_code`` reads: the first code of each j = 0..n and
        the class count, m = q^(n-j) for each j, and tables indexed by an
        entry pair x + Q y, diagonal (a11, a22) or off-diagonal (a12, a21):
        v(x - y), min(v(x), v(y)), and for each j, with b = idx // q^j,
        offset_j + (d0 m + tr B) m from the diagonal, b_x b_y, -b_x b_y."""
        ring, q, n, Q = self.ring, self.ring.q, self.ring.n, self.Q
        add, mul, neg, val = (ring.add_table, ring.mul_table, ring.neg_table,
                              ring.val_table)
        offsets = np.cumsum([0] + [q ** (2 * n - j) for j in range(n + 1)])
        moduli = q ** np.arange(n, -1, -1)
        y, x = np.divmod(np.arange(Q * Q), Q)
        head, prod = np.empty((2, n + 1, Q * Q), dtype=np.int64)
        for j, m in enumerate(moduli):
            bx, by = x // q ** j, y // q ** j
            head[j] = offsets[j] + ((x % q ** j) * m + add[bx, by] % m) * m
            prod[j] = mul[bx, by]
        return (offsets, moduli, val[add[x, neg[y]]],
                np.minimum(val[x], val[y]), head, prod, neg[prod])

    @property
    def class_count(self) -> int:
        """The number of GL2 conjugacy classes, sum_{j<=n} q^(2n-j)."""
        return int(self._code_tables[0][-1])

    def class_code(self, entries) -> np.ndarray:
        """The dense code in range(class_count) of the GL2 conjugacy class
        of each matrix given as a 4-tuple of index arrays (broadcasting).

        Let j = min(v(a12), v(a21), v(a11 - a22)) and d0 = idx(a11) mod
        q^j, so A = d0 I + pi^j B with B defined mod pi^(n-j).  B's residue
        is not scalar, so B is cyclic and its class is fixed by tr B and
        det B mod pi^(n-j) (Avni-Onn-Prasad-Vaserstein, Comm. Algebra 37,
        2009).  The code packs (j, d0, tr B, det B); a scalar has j = n and
        code offset_n + idx(a11).  The digit encoding makes division by
        pi^j idx // q^j and reduction mod pi^m idx mod q^m.  Every entry
        must lie in [0, Q), else ValueError: the tables are read at
        a11 + Q a22 and a12 + Q a21, where an out-of-range entry would
        read another pair's code.
        """
        entries = tuple(entries)
        self.ring._require_indices(entries)
        return self._class_code(entries)

    def _class_code(self, entries) -> np.ndarray:
        """``class_code`` without the range check, for entries in range."""
        a11, a12, a21, a22 = (np.asarray(x, dtype=np.int64) for x in entries)
        diag, off = a11 + self.Q * a22, a12 + self.Q * a21
        _, moduli, diag_val, off_val, head, prod, neg_prod = self._code_tables
        j = np.minimum(diag_val[diag], off_val[off])
        det = self.ring.add_table[prod[j, diag], neg_prod[j, off]] % moduli[j]
        return head[j, diag] + det

    @cached_property
    def class_code_table(self) -> np.ndarray:
        """``class_code`` of every packed index in the narrowest signed
        type that holds ``class_count`` (int8 or int16 on every ring under
        the default cap), built one a22 slice of Q^3 matrices at a time,
        with a21, a12 and a11 along the slice's three axes in that order."""
        self.require_enumerable()
        x = np.arange(self.Q)
        out = np.empty((self.Q,) * 4,
                       dtype=np.min_scalar_type(-self.class_count))
        for a22 in range(self.Q):
            out[a22] = self._class_code((x, x[:, None], x[:, None, None],
                                         a22))
        return out.reshape(-1)

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """|GL2| / |C(A)| for each class code: 1 for a scalar, and for
        j < n, |C(A)| = q^(4j) q^(2(n-j)) u / q^2 with u the centraliser
        order of B's residue in GL2(F_q), (q-1)^2, q^2 - 1 or q (q-1) as
        tr^2 - 4 det is a nonzero square, a non-square or 0."""
        ring, q, n = self.ring, self.ring.q, self.ring.n
        add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
        offsets, moduli = self._code_tables[:2]
        square = np.zeros(q, dtype=bool)
        square[mul[np.arange(q), np.arange(q)] % q] = True
        sizes = np.ones(self.class_count, dtype=np.int64)
        for j, m in enumerate(moduli[:n]):
            tr, det = np.divmod(np.arange(q ** j * m * m) % (m * m), m)
            disc = add[mul[tr, tr], neg[mul[ring.from_int(4).idx, det]]] % q
            u = np.select([disc == 0, square[disc]],
                          [q * (q - 1), (q - 1) ** 2], q * q - 1)
            sizes[offsets[j]:offsets[j + 1]] = (
                gl2_count(q, n) // (q ** (2 * n + 2 * j - 2) * u))
        return sizes


def companion_conjugator(A: Mat2) -> tuple[Mat2, Mat2]:
    """(P, P^-1) for an invertible P with P^-1 A P = d0 I + pi^j C, C =
    ((0, -det B), (1, tr B)), for A = d0 I + pi^j B as in
    ``MatrixSpace.class_code``: P = [v | B v] for the first v of e1, e2
    and e1 + e2 that makes P invertible (B's non-scalar residue has at
    most two eigenlines), and B P = P C by Cayley-Hamilton.  Both are
    written in closed form by which of b21 and b12 is a unit, det [v | B v]
    being b21, -b12 and (b21 + b22) - (b11 + b12) for the three v:
    P = ((1, b11), (0, b21)) with P^-1 = ((1, -b11 b21^-1), (0, b21^-1)),
    else P = ((0, b12), (1, b22)) with P^-1 = ((-b12^-1 b22, 1),
    (b12^-1, 0)), else P = ((1, c), (1, d)), c = b11 + b12, d = b21 + b22,
    whose invertibility is checked (AssertionError, under ``python -O``
    too) and whose P^-1 is the adjugate ((d, -c), (-1, 1)) over d - c.
    No shape calls ``Mat2.inverse``.  (I, I) for a scalar A."""
    ring = A.ring
    val = ring.valuation
    a11, a12, a21, a22 = A.a11, A.a12, A.a21, A.a22
    j = min(val(a12), val(a21), val(ring.sub(a11, a22)))
    if j == ring.n:
        eye = identity(ring)
        return eye, eye
    step, element = ring.q ** j, ring.from_index
    b11, b12 = element(a11.idx // step), element(a12.idx // step)
    b21, b22 = element(a21.idx // step), element(a22.idx // step)
    one, zero = ring.one, ring.zero
    if b21.is_unit():
        inv = ring.inverse(b21)
        return (_mat(ring, (one, b11, zero, b21)),
                _mat(ring, (one, ring.neg(ring.mul(b11, inv)), zero, inv)))
    if b12.is_unit():
        inv = ring.inverse(b12)
        return (_mat(ring, (zero, b12, one, b22)),
                _mat(ring, (ring.neg(ring.mul(inv, b22)), one, inv, zero)))
    c, d = ring.add(b11, b12), ring.add(b21, b22)
    det = ring.sub(d, c)
    if not det.is_unit():
        raise AssertionError("a non-scalar residue has a cyclic vector "
                             "among e1, e2 and e1 + e2")
    inv = ring.inverse(det)
    return (_mat(ring, (one, c, one, d)),
            _mat(ring, (ring.mul(inv, d), ring.neg(ring.mul(inv, c)),
                        ring.neg(inv), inv)))


_SPACE_CACHE: dict[tuple, MatrixSpace] = {}


def matrix_space(ring: Ring, cap: int = DEFAULT_ENUMERATION_CAP) -> MatrixSpace:
    key = (ring._key, cap)
    sp = _SPACE_CACHE.get(key)
    if sp is None:
        sp = MatrixSpace(ring, cap)
        _SPACE_CACHE[key] = sp
    return sp


# ---------------------------------------------------------------------------
# text and file forms
# ---------------------------------------------------------------------------

def _split_top_commas(s: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_matrix(ring: Ring, text: str) -> Mat2:
    """Parse '[[a,b],[c,d]]'; entries are digit tuples like (2,1) or plain
    integers taken as images of Z."""
    from .chain_ring import parse_element

    s = "".join(text.split())
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError("matrix text must look like [[a,b],[c,d]]")
    rows = s[1:-1].split("],[")
    if len(rows) != 2:
        raise ValueError("matrix text must have exactly two rows")
    toks = (_split_top_commas(rows[0].lstrip("["))
            + _split_top_commas(rows[1].rstrip("]")))
    if len(toks) != 4:
        raise ValueError("matrix text must have exactly four entries")
    return Mat2(*(parse_element(ring, t) for t in toks))


def format_matrix(A: Mat2) -> str:
    return repr(A)


_PACKED_LIMIT = 2 ** 63


def save_packed(path, indices, binary: bool = False):
    """Write packed matrix indices, one unsigned integer per matrix, as
    decimal text lines or little-endian 64-bit binary.  Every index must
    lie in [0, 2^63), so it loads back as int64; otherwise ValueError names
    the line or byte offset it would have had, and nothing is written."""
    arr = np.asarray(indices).reshape(-1)
    if arr.size and arr.dtype.kind not in "iuO":
        raise ValueError(f"packed indices must be integers, not {arr.dtype}")
    bad = np.flatnonzero((arr < 0) | (arr >= _PACKED_LIMIT))
    if len(bad):
        k = int(bad[0])
        where = f"byte offset {8 * k}" if binary else f"line {k + 1}"
        raise ValueError(f"packed index {arr[k]} for {where} is outside "
                         f"[0, 2^63)")
    arr = arr.astype("<u8")
    if binary:
        with open(path, "wb") as fh:
            fh.write(arr.tobytes())
    else:
        with open(path, "w") as fh:
            fh.writelines(f"{int(v)}\n" for v in arr)


def load_packed(path, binary: bool = False) -> np.ndarray:
    """Read what ``save_packed`` writes, as int64.  A value outside
    [0, 2^63), a text line that is not an integer or a binary payload that
    is not a whole number of 8-byte values raises ValueError naming its
    line or byte offset."""
    if binary:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) % 8:
            raise ValueError(f"{path}: binary payload of {len(data)} bytes "
                             f"ends in a partial value at byte offset "
                             f"{len(data) - len(data) % 8}")
        arr = np.frombuffer(data, dtype="<u8")
        bad = np.flatnonzero(arr >= _PACKED_LIMIT)
        if len(bad):
            k = int(bad[0])
            raise ValueError(f"{path}: value {arr[k]} at byte offset {8 * k} "
                             f"is outside [0, 2^63)")
        return arr.astype(np.int64)
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                v = int(line)
            except ValueError:
                raise ValueError(f"{path}: line {lineno} is not an integer: "
                                 f"{line.strip()!r}") from None
            if not 0 <= v < _PACKED_LIMIT:
                raise ValueError(f"{path}: line {lineno}: {v} is outside "
                                 f"[0, 2^63)")
            values.append(v)
    return np.array(values, dtype=np.int64)
