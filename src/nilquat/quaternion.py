"""The quaternion ring H(R) over a chain ring and its 2x2 matrix model.

H(R) has basis 1, i, j, k with i^2 = j^2 = k^2 = ijk = -1 and ij = -ji = k.
For odd q the ring is isomorphic to M2(R); the isomorphism is built from
any pair (a, b) with a^2 + b^2 = -1 and a a unit via

    phi(i) = ((a, b), (b, -a)),   phi(j) = ((0, 1), (-1, 0)),
    phi(k) = phi(i) phi(j) = ((-b, a), (a, b)),

extended R-linearly, so the entries (m11, m12, m21, m22) of phi(r1 + r2 i
+ r3 j + r4 k) have the rows (1, a, 0, -b), (0, b, 1, a), (0, b, -1, a)
and (1, -a, 0, b).  Since 2 is a unit, the inverse is closed too: with
h = 1/2, x = h(m11 - m22) and y = h(m12 + m21),

    phi^-1(M) = (h(m11 + m22), -(a x + b y), h(m12 - m21), b x - a y).

QuaternionIso holds both as constant 4x4 matrices of ring elements and
checks at construction time that the basis images satisfy the quaternion
relations and that the two matrices multiply to the identity.

Both directions also have bulk forms on index arrays, for rings with dense
tables: matrix_entries_bulk maps coefficients to entries and
coefficients_bulk, the bulk inverse, maps entries back to coefficients.
Each applies the same constant rows as its scalar form, by the narrow core
_linear_map_narrow on the ring's shared gather kernel,
``chain_ring.PairTables``.  The cores (matrix_entries_narrow,
coeff_product_narrow) keep the kernel's type; the public bulk maps and
coeff_product_bulk wrap them in ``Ring._bulk`` and return int64.
packed_matrices_of_slice is matrix_entries_narrow on three broadcast
coordinate axes and a fixed fourth coordinate, packed in int64, and
packed_matrices_of_all joins the Q slices.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .chain_ring import PairTables, Ring, RingElem, parse_element
from .mat2 import Mat2, identity


class Quaternion:
    """An element r1 + r2*i + r3*j + r4*k with coefficients in one ring."""

    __slots__ = ("ring", "r1", "r2", "r3", "r4")

    def __init__(self, r1: RingElem, r2: RingElem, r3: RingElem,
                 r4: RingElem):
        ring = r1.ring
        for e in (r2, r3, r4):
            if not ring.same_ring(e.ring):
                raise ValueError("coefficients from different rings")
        self.ring = ring
        self.r1 = r1
        self.r2 = r2
        self.r3 = r3
        self.r4 = r4

    def coefficients(self) -> tuple[RingElem, ...]:
        return (self.r1, self.r2, self.r3, self.r4)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(x + y for x, y in
                            zip(self.coefficients(), other.coefficients())))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*(x - y for x, y in
                            zip(self.coefficients(), other.coefficients())))

    def __neg__(self) -> "Quaternion":
        return Quaternion(*(-x for x in self.coefficients()))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        x1, x2, x3, x4 = self.coefficients()
        y1, y2, y3, y4 = other.coefficients()
        return Quaternion(
            x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4,
            x1 * y2 + x2 * y1 + x3 * y4 - x4 * y3,
            x1 * y3 - x2 * y4 + x3 * y1 + x4 * y2,
            x1 * y4 + x2 * y3 - x3 * y2 + x4 * y1)

    def __eq__(self, other):
        return (isinstance(other, Quaternion)
                and self.ring.same_ring(other.ring)
                and all(x.idx == y.idx for x, y in
                        zip(self.coefficients(), other.coefficients())))

    def __hash__(self):
        return hash((self.ring._key,
                     tuple(x.idx for x in self.coefficients())))

    def __repr__(self):
        r1, r2, r3, r4 = self.coefficients()
        return f"{r1!r}+{r2!r}*i+{r3!r}*j+{r4!r}*k"


def basis(ring: Ring) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """(1, i, j, k) as quaternions over the given ring."""
    z, o = ring.zero, ring.one
    return (Quaternion(o, z, z, z), Quaternion(z, o, z, z),
            Quaternion(z, z, o, z), Quaternion(z, z, z, o))


def parse_quaternion(ring: Ring, text: str) -> Quaternion:
    """Parse 'r1+r2*i+r3*j+r4*k' with digit-tuple or integer coefficients."""
    s = "".join(text.split())
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and cur:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    if len(parts) != 4:
        raise ValueError("quaternion text must look like r1+r2*i+r3*j+r4*k")
    coeffs = []
    for part, mark in zip(parts, ("", "*i", "*j", "*k")):
        if mark and not part.endswith(mark):
            raise ValueError(f"expected a coefficient ending in {mark!r}")
        coeffs.append(parse_element(ring, part[:len(part) - len(mark)]))
    return Quaternion(*coeffs)


def format_quaternion(x: Quaternion) -> str:
    return repr(x)


def coeff_product_bulk(ring: Ring, x, y):
    """Hamilton product on 4-tuples of coefficient index arrays."""
    return ring._bulk(coeff_product_narrow, x, y)


def coeff_product_narrow(t: PairTables, x, y):
    """coeff_product_bulk on arrays in the kernel's type, returning it."""
    add, mul, sub = t.add, t.mul, t.sub
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    t1 = sub(sub(sub(mul(x1, y1), mul(x2, y2)), mul(x3, y3)), mul(x4, y4))
    t2 = sub(add(add(mul(x1, y2), mul(x2, y1)), mul(x3, y4)), mul(x4, y3))
    t3 = add(add(sub(mul(x1, y3), mul(x2, y4)), mul(x3, y1)), mul(x4, y2))
    t4 = add(sub(add(mul(x1, y4), mul(x2, y3)), mul(x3, y2)), mul(x4, y1))
    return t1, t2, t3, t4


class QuaternionIso:
    """A concrete isomorphism H(R) -> M2(R) for one solved pair (a, b).

    Both directions are constant 4x4 matrices of ring elements:
    ``entry_rows`` maps the coefficients of 1, i, j, k to the entries
    (a11, a12, a21, a22), and ``coefficient_rows`` maps them back."""

    def __init__(self, ring: Ring, pair: tuple[RingElem, RingElem] | None = None):
        if pair is None:
            pair = ring.solve_sum_of_squares()
        a, b = pair
        if not a.is_unit():
            raise ValueError("the pair's first coordinate must be a unit")
        if (a * a + b * b + ring.one).idx != 0:
            raise ValueError("pair does not satisfy a^2 + b^2 = -1")
        self.ring = ring
        self.a = a
        self.b = b
        z, o = ring.zero, ring.one
        self.entry_rows = ((o, a, z, -b), (z, b, o, a), (z, b, -o, a),
                           (o, -a, z, b))
        h = ring.from_int(2).inverse()
        ha, hb = h * a, h * b
        self.coefficient_rows = ((h, z, z, h), (-ha, -hb, -hb, ha),
                                 (z, h, -h, z), (hb, -ha, -ha, -hb))
        one, phi_i, phi_j, phi_k = (Mat2(*(row[t] for row in self.entry_rows))
                                    for t in range(4))
        minus_id = -identity(ring)
        if not (one == identity(ring) and phi_i * phi_i == minus_id
                and phi_j * phi_j == minus_id and phi_i * phi_j == phi_k
                and phi_j * phi_i == -phi_k):
            raise ValueError("basis images violate the quaternion relations")
        # phi after phi^-1, one column at a time, must be the identity
        for t, column in enumerate(zip(*self.coefficient_rows)):
            if ([e.idx for e in _linear_map(self.entry_rows, column)]
                    != [int(s == t) for s in range(4)]):
                raise ValueError("the two maps are not mutually inverse")

    # -- scalar maps ---------------------------------------------------------

    def to_mat(self, x: Quaternion) -> Mat2:
        return Mat2(*_linear_map(self.entry_rows, x.coefficients()))

    def from_mat(self, A: Mat2) -> Quaternion:
        return Quaternion(*_linear_map(self.coefficient_rows, A.entries()))

    def is_nilpotent(self, x: Quaternion) -> bool:
        return self.to_mat(x).is_nilpotent()

    # -- bulk maps -------------------------------------------------------------

    def matrix_entries_bulk(self, coeffs):
        """Map 4-tuples of coefficient index arrays to entry index arrays."""
        return _linear_map_bulk(self.ring, self.entry_rows, coeffs)

    def matrix_entries_narrow(self, coeffs):
        """matrix_entries_bulk on arrays in the kernel's type, returning
        it: the form the verify suites chain without widening."""
        return _linear_map_narrow(self.ring.pair_tables, self.entry_rows,
                                  coeffs)

    def coefficients_bulk(self, entries):
        """Map 4-tuples of entry index arrays (a11, a12, a21, a22) back to
        coefficient index arrays: the bulk form of from_mat."""
        return _linear_map_bulk(self.ring, self.coefficient_rows, entries)

    def packed_matrices_of_all(self) -> np.ndarray:
        """Packed matrix image of every quaternion, indexed by the packed
        quaternion coordinate c1 + c2*Q + c3*Q^2 + c4*Q^3."""
        return np.concatenate([self.packed_matrices_of_slice(c4)
                               for c4 in range(self.ring.size)])

    def packed_matrices_of_slice(self, c4: int) -> np.ndarray:
        """Packed matrix image, as int64, of the Q^3 quaternions with last
        coordinate c4, indexed by c1 + c2*Q + c3*Q^2."""
        t = self.ring.pair_tables
        Q = self.ring.size
        c = np.arange(Q, dtype=t.dtype)
        # axis 2 holds c1 and axis 0 holds c3, so the C-order ravel puts c1
        # fastest; each entry broadcasts only over the axes its row reads
        axes = tuple(c.reshape([Q if d == 2 - k else 1 for d in range(3)])
                     for k in range(3)) + (t.narrow(c4),)
        packed = np.zeros((Q,) * 3, dtype=np.int64)
        for pos, entry in enumerate(self.matrix_entries_narrow(axes)):
            # widen before scaling: Q^pos times an entry overflows int16
            packed += entry.astype(np.int64) * Q ** pos
        return packed.ravel()


def _linear_map(rows, vec):
    """Apply a 4x4 matrix of constant ring elements to a 4-tuple of
    elements: the scalar form of _linear_map_bulk."""
    out = []
    for row in rows:
        acc = row[0] * vec[0]
        for c, v in zip(row[1:], vec[1:]):
            acc = acc + c * v
        out.append(acc)
    return tuple(out)


def _linear_map_bulk(ring: Ring, rows, vec):
    """Apply a 4x4 matrix of constant ring elements to a 4-tuple of index
    arrays, returning int64."""
    return ring._bulk(lambda t, v: _linear_map_narrow(t, rows, v), vec)


def _linear_map_narrow(t: PairTables, rows, vec):
    """_linear_map_bulk on arrays in the kernel's type, returning it.  Each
    product with a constant c is ``t.mul_by``, a gather from row c of mul;
    by the kernel's constant rule a 0 term costs no gather and adds
    nothing, and a 1 term passes its array through."""
    return tuple(reduce(t.add, [t.mul_by(c.idx, v) for c, v in zip(row, vec)])
                 for row in rows)


def build_iso(ring: Ring, pair=None) -> QuaternionIso:
    return QuaternionIso(ring, pair)
