"""Exact arithmetic in finite chain rings (commutative local principal rings).

Two families are implemented, ``zmod`` for r = 1 and ``polyq`` for every r:

* ``zmod``:  the integers modulo p^n for an odd prime p,
* ``polyq``: the truncated polynomial ring GF(p^r)[t]/(t^n).

They are not every chain ring of a given (q, n): the Galois rings
GR(p^a, r) with a, r >= 2, and the ramified rings with ramification index
1 < e < n, have the same q and n, and neither family builds them.

Elements are canonical little-endian digit vectors over the residue field
GF(q), q = p^r.  The digit encoding gives constant-time valuation and a
stable bijection onto [0, q^n) (the element "index"), which the packed
matrix kernels rely on for bitset work.  Everything here is an immutable
value; rings and elements can be shared freely across threads.

Scalar arithmetic has two routes.  On a ring of at most
``TABLE_SIZE_LIMIT`` elements every element is interned, one ``RingElem``
per index, and ``add``, ``neg``, ``sub``, ``mul`` and ``inverse`` are one
lookup in the ring's dense tables, held as Python lists of the interned
elements.  One builder, ``_pair_table``, makes them for both families and
for GF(q): the base-p^a digits of an index are its coordinates over Z/p^a
(zmod: one, mod p^n; polyq: n r, mod p), which multiply by fixed structure
constants.  Larger rings, which have no dense tables, compute on digits
one operation at a time; that digit route is also the tests' oracle for
the tables.

Bulk arithmetic over index arrays runs through one gather kernel,
``PairTables``: add and mul raveled to length Q^2 in int16 (int32 once
Q^2 passes 2^15), so a pair (a, b) is one 1-D take at a*Q + b.  The
kernel has one constant rule: 0 * x = 0, 1 * x = x, 0 + x = x, -0 = 0
and 1^-1 = 1 hold exactly in every ring, so it makes no gather where an
operand is the constant 0 or 1.  Those constants are two interned 0-d
arrays, which ``narrow`` hands out for a scalar 0 or 1 and the kernel
recognises by identity, an O(1) test.  Callers that hand int64 results
out get them from ``Ring._bulk``, the one narrow -> kernel -> int64
adapter, which broadcasts each result to its arguments' shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ZMOD = "zmod"
POLYQ = "polyq"

# Dense per-ring operation tables are only built for rings this small;
# on those rings scalar arithmetic reads them.
TABLE_SIZE_LIMIT = 1024
# The public dense tables of a residue field are only built up to this q.
_GF_TABLE_LIMIT = 256


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _digits_of(value: int, base: int, count: int) -> tuple[int, ...]:
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return tuple(out)


# ---------------------------------------------------------------------------
# the table builder: coordinates over Z/b and structure constants
# ---------------------------------------------------------------------------

def _coordinate_array(base: int, width: int) -> np.ndarray:
    """Row x: the ``width`` base-``base`` digits of x, lowest first, for
    every x in [0, base^width), in uint32."""
    x = np.arange(base ** width, dtype=np.uint32)
    return x[:, None] // base ** np.arange(width, dtype=np.uint32) % base


def _negation_table(base: int, width: int) -> np.ndarray:
    """-x for every x in [0, base^width), coordinate by coordinate."""
    return ((base - _coordinate_array(base, width)) % base
            @ base ** np.arange(width, dtype=np.int64))


def _pair_table(base: int, constants: np.ndarray,
                multiply: bool) -> np.ndarray:
    """x + y, or x * y if ``multiply``, for every pair of elements whose
    coordinates over Z/base are the base-``base`` digits of their index:
    a sum coordinate by coordinate, and coordinate k of a product
    sum_(i,j) C[i, j, k] x_i y_j, C being ``constants``, both mod base.

    Each coordinate is one Q x Q pass, added in by Horner's rule.  A
    product's pass is the broadcast sum of two small tables, x's high and
    its low coordinates against every y: x's index runs over every (high,
    low) pair in order.  The arithmetic is uint32, so width * base^2 must
    stay below 2^32.
    """
    width = len(constants)
    size, h = base ** width, width // 2
    x = _coordinate_array(base, width)
    low, high = x[:base ** h, :h], x[::base ** h, h:]
    out = np.zeros((size, size), dtype=np.int64)
    part = np.empty((size, size), dtype=np.min_scalar_type(2 * base))
    for k in reversed(range(width)):
        if multiply:
            # row y, column i: sum_j C[i, j, k] y_j
            y = x @ constants[:, :, k].T.astype(np.uint32) % base
            np.add((np.einsum("ai,yi->ay", high, y[:, h:]) % base)[:, None],
                   (np.einsum("ai,yi->ay", low, y[:, :h]) % base)[None],
                   out=part.reshape(len(high), len(low), size))
        else:
            np.add.outer(x[:, k], x[:, k], out=part)
        # part < 2 base, so part mod base is the smaller of part and
        # part - base, which wraps round (part is unsigned) where part < base
        np.minimum(part, part - base, out=part)
        out *= base
        out += part
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists are little-endian ints
# ---------------------------------------------------------------------------

def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_rem(f: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of f modulo the monic polynomial m."""
    f = list(f)
    dm = len(m) - 1
    while len(f) > dm:
        c = f[-1]
        if c:
            off = len(f) - 1 - dm
            for i in range(dm):
                f[off + i] = (f[off + i] - c * m[i]) % p
        f.pop()
    return _poly_trim(f)


def _poly_is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for k in range(p ** d):
            div = list(_digits_of(k, p, d)) + [1]
            if not _poly_rem(m, div, p):
                return False
    return True


def smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """The first monic irreducible of degree r over GF(p), scanning the
    non-leading coefficient vectors in ascending little-endian value."""
    for k in range(p ** r):
        m = list(_digits_of(k, p, r)) + [1]
        if _poly_is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("irreducible polynomials exist in every degree")


class GFq:
    """The residue field GF(p^r), elements encoded as ints in [0, p^r).

    The encoding is the little-endian base-p value of the coefficient
    vector; arithmetic is polynomial arithmetic modulo ``modulus``.
    """

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        self.q = p ** r
        self.modulus = smallest_irreducible(p, r)

    def _decode(self, x: int) -> list[int]:
        return list(_digits_of(x, self.p, self.r))

    def _encode(self, coeffs: list[int]) -> int:
        out = 0
        for c in reversed(coeffs[: self.r] + [0] * (self.r - len(coeffs))):
            out = out * self.p + c
        return out

    def add(self, x: int, y: int) -> int:
        p = self.p
        if self.r == 1:
            return (x + y) % p
        out, mult = 0, 1
        for _ in range(self.r):
            out += ((x % p) + (y % p)) % p * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x: int) -> int:
        p = self.p
        if self.r == 1:
            return (-x) % p
        out, mult = 0, 1
        for _ in range(self.r):
            out += (-(x % p)) % p * mult
            x //= p
            mult *= p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.r == 1:
            return (x * y) % self.p
        prod = _poly_mul(self._decode(x), self._decode(y), self.p)
        return self._encode(_poly_rem(prod, list(self.modulus), self.p))

    def pow(self, x: int, k: int) -> int:
        out, base = 1, x
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no inverse in GF(q)")
        if self.q <= _GF_TABLE_LIMIT:
            return int(self.inv_table[x])
        if self.r == 1:
            return pow(x, self.p - 2, self.p)
        return self.pow(x, self.q - 2)

    # -- vectorised tables ------------------------------------------------
    # Built by the table builder from the modulus, never from the scalar
    # operations above, so those stay an independent check on them.

    @cached_property
    def _constants(self) -> np.ndarray:
        """C[u, v, w], the coefficient of t^w in t^u t^v: row k of
        ``powers`` is t^k, a shift of t^(k-1) reduced by the modulus."""
        p, r, low = self.p, self.r, np.array(self.modulus[:-1])
        powers = np.zeros((2 * r - 1, r), dtype=np.int32)
        powers[0, 0] = 1
        for k in range(1, 2 * r - 1):
            powers[k, 1:] = powers[k - 1, :-1]
            powers[k] = (powers[k] - powers[k - 1, -1] * low) % p
        return powers[np.arange(r)[:, None] + np.arange(r)]

    # Dense tables for vectorised residue work; only sensible for small q.
    @cached_property
    def mul_table(self) -> np.ndarray:
        if self.q > _GF_TABLE_LIMIT:
            raise ValueError("dense GF tables are only for small fields")
        return _pair_table(self.p, self._constants, multiply=True)

    @cached_property
    def neg_table(self) -> np.ndarray:
        return _negation_table(self.p, self.r)

    @cached_property
    def inv_table(self) -> np.ndarray:
        # [0] is a sentinel 0; callers must mask out the zero element.
        t = np.zeros(self.q, dtype=np.int64)
        units, inverses = np.nonzero(self.mul_table == 1)
        t[units] = inverses
        return t


# ---------------------------------------------------------------------------
# ring specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingSpec:
    """Parameters selecting one chain ring of cardinality (p^r)^n."""

    p: int
    r: int
    n: int
    family: str


def parse_ring_spec(text: str) -> RingSpec:
    m = re.fullmatch(r"zmod:(\d+)\^(\d+)", text.strip())
    if m:
        return RingSpec(p=int(m.group(1)), r=1, n=int(m.group(2)), family=ZMOD)
    m = re.fullmatch(r"polyq:(\d+)\^(\d+)\^(\d+)", text.strip())
    if m:
        return RingSpec(p=int(m.group(1)), r=int(m.group(2)),
                        n=int(m.group(3)), family=POLYQ)
    raise ValueError(
        f"ring spec must match 'zmod:p^n' or 'polyq:p^r^n', got {text!r}")


def format_ring_spec(spec: RingSpec) -> str:
    if spec.family == ZMOD:
        return f"zmod:{spec.p}^{spec.n}"
    return f"polyq:{spec.p}^{spec.r}^{spec.n}"


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class RingElem:
    """A single ring element: little-endian digits in powers of pi."""

    __slots__ = ("ring", "digits", "idx")

    def __init__(self, ring: "Ring", digits):
        digits = tuple(int(d) for d in digits)
        if len(digits) != ring.n:
            raise ValueError(f"expected {ring.n} digits, got {len(digits)}")
        q = ring.q
        for d in digits:
            if not 0 <= d < q:
                raise ValueError(f"digit {d} out of range for GF({q})")
        idx = 0
        for d in reversed(digits):
            idx = idx * q + d
        self.ring = ring
        self.digits = digits
        self.idx = idx

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.sub(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __pow__(self, k: int):
        return self.ring.pow(self, k)

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.idx == other.idx
                and self.ring.same_ring(other.ring))

    def __hash__(self):
        return hash((self.ring._key, self.idx))

    def __repr__(self):
        return "(" + ",".join(str(d) for d in self.digits) + ")"

    def is_zero(self) -> bool:
        return self.idx == 0

    def is_unit(self) -> bool:
        return self.digits[0] != 0

    def valuation(self) -> int:
        return self.ring.valuation(self)

    def inverse(self) -> "RingElem":
        return self.ring.inverse(self)

    def residue(self) -> int:
        return self.digits[0]


def parse_element(ring: "Ring", text: str) -> RingElem:
    """Parse '(d0,d1,...)' digit tuples or plain integer literals."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        parts = [t for t in s[1:-1].split(",") if t.strip() != ""]
        return ring.element(int(t) for t in parts)
    return ring.from_int(int(s))


def format_element(a: RingElem) -> str:
    return repr(a)


# ---------------------------------------------------------------------------
# the bulk gather kernel
# ---------------------------------------------------------------------------

class PairTables:
    """A dense ring's operation tables in one narrow integer type.

    ``add`` and ``mul`` gather from the Q x Q tables raveled to length
    Q^2 at a*Q + b; ``neg`` gathers per element, as does ``inv``, with -1
    for a non-unit.  The type is int16 when every pair index a*Q + b fits,
    that is Q^2 <= 2^15, and int32 otherwise.  The kernels take index
    arrays, scalars or 4-tuples of them (broadcasting) and return arrays
    of that type; narrow them first with ``narrow`` so the pair index is
    computed in it too, and ``wide`` a result to int64 before it leaves
    the kernel's caller.  ``Ring._bulk`` does both.  Every gather is the
    table's own ``take``: ``np.take`` is a Python wrapper around it that
    costs a large share of a gather on arrays of a few thousand entries.

    The constant rule: ``narrow`` turns a scalar 0 or 1 into ``zero`` or
    ``one``, two interned read-only 0-d arrays, and ``add``, ``mul``,
    ``mul_by`` and ``neg`` answer without a gather when an operand is one
    of them (tested by identity): 0 * x = 0, 1 * x = x, 0 + x = x and
    -0 = 0, and ``inverse`` takes 1^-1 = 1.  A result may therefore be an
    operand itself or a 0-d constant, of a smaller shape than the other
    operand; callers broadcast it and never write into a result.
    """

    def __init__(self, ring: "Ring"):
        Q = ring.size
        dtype = np.int16 if Q * Q <= 2 ** 15 else np.int32
        self.Q = Q
        self.dtype = np.dtype(dtype)
        self.add_flat = ring.add_table.astype(dtype).ravel()
        self.mul_flat = ring.mul_table.astype(dtype).ravel()
        self.neg_table = ring.neg_table.astype(dtype)
        self.inv_table = ring.inv_table.astype(dtype)
        self.zero, self.one = np.array(0, dtype), np.array(1, dtype)
        self.zero.flags.writeable = self.one.flags.writeable = False

    def narrow(self, x):
        """x, or each array of a 4-tuple x, in the kernel's type.  A plain
        Python or numpy integer 0 or 1 becomes the interned ``zero`` or
        ``one``, which the kernels recognise by identity."""
        if isinstance(x, tuple):
            return tuple(map(self._narrow, x))
        return self._narrow(x)

    def _narrow(self, x):
        if isinstance(x, (int, np.integer)):
            if x == 0:
                return self.zero
            if x == 1:
                return self.one
        return np.asarray(x, dtype=self.dtype)

    @staticmethod
    def wide(x, shape=None):
        """A kernel's result, or each array of a tuple of them, as a new
        int64 array, broadcast to ``shape`` if one is given."""
        if isinstance(x, tuple):
            return tuple(PairTables.wide(t, shape) for t in x)
        if shape is not None and x.shape != shape:
            x = np.broadcast_to(x, shape)
        return x.astype(np.int64)

    def add(self, a, b):
        if a is self.zero:
            return b
        if b is self.zero:
            return a
        return self.add_flat.take(a * self.Q + b)

    def mul(self, a, b):
        zero = self.zero
        if a is zero or b is zero:
            return zero
        if a is self.one:
            return b
        if b is self.one:
            return a
        return self.mul_flat.take(a * self.Q + b)

    def neg(self, a):
        if a is self.zero:
            return a
        return self.neg_table.take(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul_by(self, c: int, a):
        """c * a for one constant element index c: a gather from row c of
        mul, or none where c or a is 0 or 1."""
        if c == 0 or a is self.zero:
            return self.zero
        if c == 1:
            return a
        if a is self.one:
            return self.narrow(c)
        return self.mul_flat[c * self.Q:(c + 1) * self.Q].take(a)

    def matmul(self, A, B):
        """The product of 2x2 matrices given as 4-tuples (a11, a12, a21,
        a22) of index arrays."""
        add, mul = self.add, self.mul
        a11, a12, a21, a22 = A
        b11, b12, b21, b22 = B
        return (add(mul(a11, b11), mul(a12, b21)),
                add(mul(a11, b12), mul(a12, b22)),
                add(mul(a21, b11), mul(a22, b21)),
                add(mul(a21, b12), mul(a22, b22)))

    def trace(self, A):
        return self.add(A[0], A[3])

    def det(self, A):
        return self.sub(self.mul(A[0], A[3]), self.mul(A[1], A[2]))

    def inverse(self, A):
        """(A^-1, inv[det A]) for 2x2 matrices as 4-tuples of index arrays:
        the adjugate scaled by inv[det A].  Where inv[det A] is -1, det A is
        not a unit and that matrix's entries of A^-1 mean nothing; callers
        refuse those first."""
        det = self.det(A)
        idet = det if det is self.one else self.inv_table.take(det)
        a11, a12, a21, a22 = A
        return (self.mul(idet, a22), self.mul(idet, self.neg(a12)),
                self.mul(idet, self.neg(a21)), self.mul(idet, a11)), idet

    def conjugate(self, A, P):
        """(P^-1 A P, inv[det P]) for 2x2 matrices as 4-tuples of index
        arrays, P^-1 as in ``inverse``; where inv[det P] is -1 the
        conjugate means nothing, and callers refuse it."""
        inverse, idet = self.inverse(P)
        return self.matmul(self.matmul(inverse, A), P), idet


# ---------------------------------------------------------------------------
# the ring handle
# ---------------------------------------------------------------------------

class Ring:
    """Operation handle for one chain ring.

    Rings compare by construction parameters; elements refuse to mix across
    different parameter sets.  All operations are pure functions of their
    arguments, and the dense numpy tables are read-only once built.  On a
    ring of at most ``TABLE_SIZE_LIMIT`` elements every operation returns
    the ring's interned element for its result index.
    """

    def __init__(self, spec: RingSpec):
        p, r, n = spec.p, spec.r, spec.n
        if p == 2:
            raise ValueError("odd order required")
        if not _is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if r < 1 or n < 1:
            raise ValueError("r and n must both be at least 1")
        if spec.family == ZMOD:
            if r != 1:
                raise ValueError("zmod requires r = 1")
        elif spec.family != POLYQ:
            raise ValueError(f"unknown ring family {spec.family!r}")
        self.spec = spec
        self.p = p
        self.r = r
        self.n = n
        self.q = p ** r
        self.size = self.q ** n
        self.residue_field = GFq(p, r)
        # R is free over Z/p^a on the coordinates pi^i t^u, i < e, u < r
        self.e, self.a = (1, n) if spec.family == ZMOD else (n, 1)
        self._key = (p, r, n, spec.family)
        self._dense = self.size <= TABLE_SIZE_LIMIT

    def __repr__(self):
        return f"Ring({format_ring_spec(self.spec)})"

    def same_ring(self, other: "Ring") -> bool:
        return self is other or self._key == other._key

    def _own(self, a: RingElem):
        if a.ring is not self and a.ring._key != self._key:
            raise ValueError("elements from different rings")

    # -- construction -----------------------------------------------------

    @cached_property
    def zero(self) -> RingElem:
        return self.from_index(0)

    @cached_property
    def one(self) -> RingElem:
        return self.from_index(1)

    @cached_property
    def uniformizer(self) -> RingElem:
        # J(R) = 0 in the field case, so pi = 0 still generates it
        return self.from_index(self.q if self.n >= 2 else 0)

    def element(self, digits) -> RingElem:
        a = RingElem(self, digits)
        return self._all_elements[a.idx] if self._dense else a

    def from_index(self, idx: int) -> RingElem:
        if not 0 <= idx < self.size:
            raise ValueError(f"index {idx} out of range [0, {self.size})")
        if self._dense:
            return self._all_elements[idx]
        return RingElem(self, _digits_of(idx, self.q, self.n))

    def from_int(self, k: int) -> RingElem:
        """Image of the rational integer k under Z -> R."""
        return self.from_index(k % self.p ** self.a)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: RingElem, b: RingElem) -> RingElem:
        if a.ring is not self or b.ring is not self:
            self._own(a)
            self._own(b)
        if self._dense:
            return self._add_rows[a.idx][b.idx]
        return self._digit_add(a, b)

    def neg(self, a: RingElem) -> RingElem:
        if a.ring is not self:
            self._own(a)
        if self._dense:
            return self._neg_list[a.idx]
        return self._digit_neg(a)

    def sub(self, a: RingElem, b: RingElem) -> RingElem:
        return self.add(a, self.neg(b))

    def mul(self, a: RingElem, b: RingElem) -> RingElem:
        if a.ring is not self or b.ring is not self:
            self._own(a)
            self._own(b)
        if self._dense:
            return self._mul_rows[a.idx][b.idx]
        return self._digit_mul(a, b)

    @cached_property
    def _dot(self):
        """The function (a, b, c, d) -> a*b + c*d, the fused step of a 2x2
        determinant and of a product entry on the digit route, with no
        ownership check: ``Mat2`` checks its operands' ring once per
        matrix.  On a dense ring it is one add-table step on the two
        product indices, on a larger one the digit route.  The branch is
        taken once per ring, here, not once per call."""
        if self._dense:
            add, mul = self._add_rows, self._mul_rows

            def dot(a, b, c, d):
                return add[mul[a.idx][b.idx].idx][mul[c.idx][d.idx].idx]
        else:
            digit_add, digit_mul = self._digit_add, self._digit_mul

            def dot(a, b, c, d):
                return digit_add(digit_mul(a, b), digit_mul(c, d))
        return dot

    @cached_property
    def _matmul(self):
        """The function (a11, a12, a21, a22, b11, b12, b21, b22) -> the
        four entries of the 2x2 product A B, with no ownership check, as
        for ``_dot``.  On a dense ring it reads each left entry's mul row
        once and makes four add-table steps; on a larger one it is four
        ``_dot`` calls on the digit route.  ``Mat2`` makes one call of it
        per product."""
        if self._dense:
            add, mul = self._add_rows, self._mul_rows

            def matmul(a11, a12, a21, a22, b11, b12, b21, b22):
                m11, m12 = mul[a11.idx], mul[a12.idx]
                m21, m22 = mul[a21.idx], mul[a22.idx]
                i11, i12, i21, i22 = b11.idx, b12.idx, b21.idx, b22.idx
                return (add[m11[i11].idx][m12[i21].idx],
                        add[m11[i12].idx][m12[i22].idx],
                        add[m21[i11].idx][m22[i21].idx],
                        add[m21[i12].idx][m22[i22].idx])
        else:
            dot = self._dot

            def matmul(a11, a12, a21, a22, b11, b12, b21, b22):
                return (dot(a11, b11, a12, b21), dot(a11, b12, a12, b22),
                        dot(a21, b11, a22, b21), dot(a21, b12, a22, b22))
        return matmul

    @cached_property
    def _is_nilpotent(self):
        """The function (a11, a12, a21, a22) -> whether the 2x2 matrix is
        nilpotent, with no ownership check, as for ``_dot``.  The
        chain-ring criterion, trace and det in J(R), reads only residues:
        res(a11) + res(a22) = 0 and res(a11 a22) = res(a12 a21), the
        residue map being a ring homomorphism onto GF(q).  On a dense ring
        it reads the interned add and mul rows, on a larger one it works
        in GF(q) on the entries' residue digits."""
        if self._dense:
            add, mul = self._add_rows, self._mul_rows

            def is_nilpotent(a11, a12, a21, a22):
                return (not add[a11.idx][a22.idx].digits[0]
                        and mul[a11.idx][a22.idx].digits[0]
                        == mul[a12.idx][a21.idx].digits[0])
        else:
            f = self.residue_field

            def is_nilpotent(a11, a12, a21, a22):
                r11, r22 = a11.digits[0], a22.digits[0]
                return (not f.add(r11, r22)
                        and f.mul(r11, r22) == f.mul(a12.digits[0],
                                                     a21.digits[0]))
        return is_nilpotent

    def pow(self, a: RingElem, k: int) -> RingElem:
        if k < 0:
            raise ValueError("negative powers are not supported")
        out, base = self.one, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    # -- the digit route: rings above the table limit, and the tables' oracle

    def _digit_add(self, a: RingElem, b: RingElem) -> RingElem:
        if self.spec.family == ZMOD:
            return RingElem(self, _digits_of((a.idx + b.idx) % self.size,
                                             self.q, self.n))
        f = self.residue_field
        return RingElem(self, [f.add(x, y) for x, y in zip(a.digits, b.digits)])

    def _digit_neg(self, a: RingElem) -> RingElem:
        if self.spec.family == ZMOD:
            return RingElem(self, _digits_of((-a.idx) % self.size,
                                             self.q, self.n))
        f = self.residue_field
        return RingElem(self, [f.neg(x) for x in a.digits])

    def _digit_mul(self, a: RingElem, b: RingElem) -> RingElem:
        if self.spec.family == ZMOD:
            return RingElem(self, _digits_of((a.idx * b.idx) % self.size,
                                             self.q, self.n))
        f = self.residue_field
        n = self.n
        out = [0] * n
        for i, x in enumerate(a.digits):
            if x:
                for j in range(n - i):
                    y = b.digits[j]
                    if y:
                        out[i + j] = f.add(out[i + j], f.mul(x, y))
        return RingElem(self, out)

    def _digit_inverse(self, a: RingElem) -> RingElem:
        """Newton lift of the residue-field inverse; exact after
        ceil(log2 n) quadratic steps."""
        x = self.lift(self.residue_field.inv(a.digits[0]))
        minus_one = self._digit_neg(self.one)
        for _ in range(self.n.bit_length() + 2):
            err = self._digit_add(self._digit_mul(a, x), minus_one)
            if err.idx == 0:
                return x
            x = self._digit_add(x, self._digit_neg(self._digit_mul(x, err)))
        raise AssertionError("inversion failed to converge")

    # -- structure ----------------------------------------------------------

    def valuation(self, a: RingElem) -> int:
        """Largest k with a in J(R)^k; the zero element reports n."""
        if a.ring is not self:
            self._own(a)
        for k, d in enumerate(a.digits):
            if d:
                return k
        return self.n

    def is_unit(self, a: RingElem) -> bool:
        if a.ring is not self:
            self._own(a)
        return a.digits[0] != 0

    def inverse(self, a: RingElem) -> RingElem:
        if not self.is_unit(a):
            raise ZeroDivisionError("element is not a unit")
        if self._dense:
            return self._inv_list[a.idx]
        return self._digit_inverse(a)

    def residue(self, a: RingElem) -> int:
        if a.ring is not self:
            self._own(a)
        return a.digits[0]

    def lift(self, f: int) -> RingElem:
        if not 0 <= f < self.q:
            raise ValueError(f"residue value {f} out of range for GF({self.q})")
        return self.from_index(f)

    # -- enumeration ----------------------------------------------------------

    @cached_property
    def _all_elements(self) -> tuple[RingElem, ...]:
        q, n = self.q, self.n
        return tuple(RingElem(self, _digits_of(i, q, n))
                     for i in range(self.size))

    def enumerate_ring(self) -> tuple[RingElem, ...]:
        """All q^n elements in ascending canonical index order."""
        return self._all_elements

    def enumerate_ideal(self, k: int) -> list[RingElem]:
        """All elements of J(R)^k, ascending; |J^k| = q^(n-k)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k out of range: need 0 <= k <= {self.n}")
        step = self.q ** k
        return [self.from_index(m * step) for m in range(self.q ** (self.n - k))]

    def units(self) -> list[RingElem]:
        return [a for a in self.enumerate_ring() if a.is_unit()]

    # -- the sum-of-squares solver -------------------------------------------

    def solve_sum_of_squares(self) -> tuple[RingElem, RingElem]:
        """Deterministic (a, b) with a^2 + b^2 = -1 exactly and a a unit.

        A residue solution with unit first coordinate always exists for odd
        q (if only (0, b) solved it, (b, 0) would too), and Newton steps on
        a alone converge because the derivative 2a is a unit.
        """
        f = self.residue_field
        sqrt_of: dict[int, int] = {}
        for x in range(f.q):
            sqrt_of.setdefault(f.mul(x, x), x)
        minus_one = f.neg(1)
        pair = None
        for fa in range(1, f.q):
            fb = sqrt_of.get(f.sub(minus_one, f.mul(fa, fa)))
            if fb is not None:
                pair = (fa, fb)
                break
        if pair is None:
            raise AssertionError("odd residue fields always admit a solution")
        a, b = self.lift(pair[0]), self.lift(pair[1])
        for _ in range(self.n.bit_length() + 2):
            defect = self.add(self.add(self.mul(a, a), self.mul(b, b)), self.one)
            if defect.idx == 0:
                return a, b
            a = self.sub(a, self.mul(defect, self.inverse(self.add(a, a))))
        raise AssertionError("Newton refinement failed to converge")

    # -- dense tables ---------------------------------------------------------

    def _require_dense(self) -> None:
        if not self._dense:
            raise ValueError(
                f"ring of size {self.size} exceeds the dense table limit "
                f"{TABLE_SIZE_LIMIT}")

    @cached_property
    def _constants(self) -> np.ndarray:
        """C[c, c', c''] for coordinate c = i r + u standing for pi^i t^u:
        pi^i pi^j = pi^(i+j), with nothing from pi^e on, times the residue
        field's t^u t^v."""
        i, w = np.arange(self.e), self.e * self.r
        pi = (np.add.outer(i, i)[:, :, None] == i).astype(np.int32)
        t = self.residue_field._constants
        return np.einsum("ijk,uvw->iujvkw", pi, t).reshape(w, w, w)

    @cached_property
    def add_table(self) -> np.ndarray:
        self._require_dense()
        return _pair_table(self.p ** self.a, self._constants, multiply=False)

    @cached_property
    def mul_table(self) -> np.ndarray:
        self._require_dense()
        return _pair_table(self.p ** self.a, self._constants, multiply=True)

    @cached_property
    def neg_table(self) -> np.ndarray:
        return _negation_table(self.p ** self.a, self.e * self.r)

    @cached_property
    def val_table(self) -> np.ndarray:
        nonzero = _coordinate_array(self.q, self.n) != 0
        return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), self.n)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Index of the inverse per element; -1 marks non-units."""
        t = np.full(self.size, -1, dtype=np.int64)
        units, inverses = np.nonzero(self.mul_table == 1)
        t[units] = inverses
        return t

    @cached_property
    def pair_tables(self) -> PairTables:
        """The dense tables in the narrow type of the bulk kernels."""
        self._require_dense()
        return PairTables(self)

    def _require_indices(self, arrays):
        """ValueError unless every element index in ``arrays`` lies in
        [0, size).  A plain int or numpy integer is compared as it is,
        with no array made for it."""
        for a in arrays:
            if isinstance(a, (int, np.integer)):
                bad = not 0 <= a < self.size
            else:
                a = np.asarray(a)
                bad = a.size and (a.min() < 0 or a.max() >= self.size)
            if bad:
                raise ValueError(f"element index out of range "
                                 f"[0, {self.size})")

    def _bulk(self, kernel, *args):
        """kernel(pair_tables, *args) with every argument narrowed to the
        kernel's type and the result widened to int64: the one adapter
        for callers that hand bulk results out.  Arguments are index
        arrays, scalars or 4-tuples (a11, a12, a21, a22) of them, and
        broadcast.  Each result is a new int64 array of the arguments'
        broadcast shape, also where the kernel answered with a 0-d
        constant.  Every index must lie in [0, size), else ValueError:
        the kernels gather at a*Q + b with no bounds of their own, so an
        out-of-range b would read the next row and a negative one wrap."""
        arrays = [a for x in args
                  for a in (x if isinstance(x, tuple) else (x,))]
        self._require_indices(arrays)
        t = self.pair_tables
        shape = np.broadcast(*arrays).shape
        return t.wide(kernel(t, *map(t.narrow, args)), shape)

    # the tables as nested Python lists of interned elements, which the
    # scalar operations index

    def _interned(self, table: np.ndarray) -> list:
        # a trailing None slot, so the -1 of a non-unit becomes None
        els = np.empty(self.size + 1, dtype=object)
        els[:-1] = self._all_elements
        return els[table].tolist()

    @cached_property
    def _add_rows(self) -> list[list[RingElem]]:
        return self._interned(self.add_table)

    @cached_property
    def _mul_rows(self) -> list[list[RingElem]]:
        return self._interned(self.mul_table)

    @cached_property
    def _neg_list(self) -> list[RingElem]:
        return self._interned(self.neg_table)

    @cached_property
    def _inv_list(self) -> list[RingElem | None]:
        return self._interned(self.inv_table)


_RING_CACHE: dict[tuple, Ring] = {}


def make_ring(spec: RingSpec) -> Ring:
    """Validate the spec and return a (cached) ring handle."""
    ring = Ring(spec)
    cached = _RING_CACHE.get(ring._key)
    if cached is not None:
        return cached
    _RING_CACHE[ring._key] = ring
    return ring


def ring_from_string(text: str) -> Ring:
    return make_ring(parse_ring_spec(text))
