"""Exact arithmetic in finite chain rings (commutative local principal rings).

Two constructible families cover every admissible (q, n) pair this engine
needs:

* ``zmod``:  the integers modulo p^n for an odd prime p,
* ``polyq``: the truncated polynomial ring GF(p^r)[t]/(t^n).

Elements are canonical little-endian digit vectors over the residue field
GF(q), q = p^r.  The digit encoding gives constant-time valuation and a
stable bijection onto [0, q^n) (the element "index"), which the packed
matrix kernels rely on for bitset work.  Everything here is an immutable
value; rings and elements can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ZMOD = "zmod"
POLYQ = "polyq"

# Dense per-ring operation tables are only built for rings this small.
TABLE_SIZE_LIMIT = 1024


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

    def __init__(self, p: int, r: int, modulus=None):
        self.p = p
        self.r = r
        self.q = p ** r
        if modulus is None:
            modulus = smallest_irreducible(p, r)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[r] != 1:
                raise ValueError("modulus_poly must be monic of degree r")
            if not _poly_is_irreducible(list(modulus), p):
                raise ValueError("modulus_poly is reducible")
        self.modulus = tuple(modulus)

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
        if self.r == 1:
            return pow(x, self.p - 2, self.p)
        return self.pow(x, self.q - 2)

    # Dense tables for vectorised residue work; only sensible for small q.
    @cached_property
    def mul_table(self) -> np.ndarray:
        if self.q > 256:
            raise ValueError("dense GF tables are only for small fields")
        t = np.empty((self.q, self.q), dtype=np.int64)
        for x in range(self.q):
            for y in range(x, self.q):
                v = self.mul(x, y)
                t[x, y] = v
                t[y, x] = v
        return t

    @cached_property
    def neg_table(self) -> np.ndarray:
        return np.array([self.neg(x) for x in range(self.q)], dtype=np.int64)

    @cached_property
    def inv_table(self) -> np.ndarray:
        # [0] is a sentinel 0; callers must mask out the zero element.
        t = np.zeros(self.q, dtype=np.int64)
        for x in range(1, self.q):
            t[x] = self.inv(x)
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
    modulus_poly: tuple[int, ...] | None = None


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
# the ring handle
# ---------------------------------------------------------------------------

class Ring:
    """Operation handle for one chain ring.

    Rings compare by construction parameters; elements refuse to mix across
    different parameter sets.  All operations are pure functions of their
    arguments, and the dense numpy tables are read-only once built.
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
            if spec.modulus_poly is not None:
                raise ValueError("modulus_poly only applies to polyq")
            field = GFq(p, 1)
            norm_modulus = None
        elif spec.family == POLYQ:
            field = GFq(p, r, spec.modulus_poly)
            norm_modulus = field.modulus
        else:
            raise ValueError(f"unknown ring family {spec.family!r}")
        self.spec = RingSpec(p, r, n, spec.family, norm_modulus)
        self.p = p
        self.r = r
        self.n = n
        self.q = p ** r
        self.size = self.q ** n
        self.residue_field = field
        self._key = (p, r, n, spec.family, norm_modulus)
        self.zero = RingElem(self, (0,) * n)
        self.one = RingElem(self, (1,) + (0,) * (n - 1))
        if n >= 2:
            self.uniformizer = RingElem(self, (0, 1) + (0,) * (n - 2))
        else:
            # J(R) = 0 in the field case, so pi = 0 still generates it
            self.uniformizer = self.zero

    def __repr__(self):
        return f"Ring({format_ring_spec(self.spec)})"

    def same_ring(self, other: "Ring") -> bool:
        return self is other or self._key == other._key

    def _own(self, a: RingElem):
        if a.ring is not self and a.ring._key != self._key:
            raise ValueError("elements from different rings")

    # -- construction -----------------------------------------------------

    def element(self, digits) -> RingElem:
        return RingElem(self, digits)

    def from_index(self, idx: int) -> RingElem:
        if not 0 <= idx < self.size:
            raise ValueError(f"index {idx} out of range [0, {self.size})")
        return RingElem(self, _digits_of(idx, self.q, self.n))

    def from_int(self, k: int) -> RingElem:
        """Image of the rational integer k under Z -> R."""
        if self.spec.family == ZMOD:
            return self.from_index(k % self.size)
        return self.lift(k % self.p)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: RingElem, b: RingElem) -> RingElem:
        self._own(a)
        self._own(b)
        if self.spec.family == ZMOD:
            return self.from_index((a.idx + b.idx) % self.size)
        f = self.residue_field
        return RingElem(self, [f.add(x, y) for x, y in zip(a.digits, b.digits)])

    def neg(self, a: RingElem) -> RingElem:
        self._own(a)
        if self.spec.family == ZMOD:
            return self.from_index((-a.idx) % self.size)
        f = self.residue_field
        return RingElem(self, [f.neg(x) for x in a.digits])

    def sub(self, a: RingElem, b: RingElem) -> RingElem:
        return self.add(a, self.neg(b))

    def mul(self, a: RingElem, b: RingElem) -> RingElem:
        self._own(a)
        self._own(b)
        if self.spec.family == ZMOD:
            return self.from_index((a.idx * b.idx) % self.size)
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

    # -- structure ----------------------------------------------------------

    def valuation(self, a: RingElem) -> int:
        """Largest k with a in J(R)^k; the zero element reports n."""
        self._own(a)
        for k, d in enumerate(a.digits):
            if d:
                return k
        return self.n

    def is_unit(self, a: RingElem) -> bool:
        self._own(a)
        return a.digits[0] != 0

    def inverse(self, a: RingElem) -> RingElem:
        """Newton lift of the residue-field inverse; exact after
        ceil(log2 n) quadratic steps."""
        if not self.is_unit(a):
            raise ZeroDivisionError("element is not a unit")
        x = self.lift(self.residue_field.inv(a.digits[0]))
        for _ in range(self.n.bit_length() + 2):
            err = self.sub(self.mul(a, x), self.one)
            if err.idx == 0:
                return x
            x = self.sub(x, self.mul(x, err))
        raise AssertionError("inversion failed to converge")

    def residue(self, a: RingElem) -> int:
        self._own(a)
        return a.digits[0]

    def lift(self, f: int) -> RingElem:
        if not 0 <= f < self.q:
            raise ValueError(f"residue value {f} out of range for GF({self.q})")
        return RingElem(self, (f,) + (0,) * (self.n - 1))

    # -- enumeration ----------------------------------------------------------

    @cached_property
    def _all_elements(self) -> tuple[RingElem, ...]:
        return tuple(self.from_index(i) for i in range(self.size))

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

    # -- dense tables for the packed kernels ----------------------------------

    def _pair_table(self, op) -> np.ndarray:
        if self.size > TABLE_SIZE_LIMIT:
            raise ValueError(
                f"ring of size {self.size} exceeds the dense table limit "
                f"{TABLE_SIZE_LIMIT}")
        els = self._all_elements
        t = np.empty((self.size, self.size), dtype=np.int64)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                t[i, j] = op(a, b).idx
        return t

    @cached_property
    def add_table(self) -> np.ndarray:
        return self._pair_table(self.add)

    @cached_property
    def mul_table(self) -> np.ndarray:
        return self._pair_table(self.mul)

    @cached_property
    def neg_table(self) -> np.ndarray:
        return np.array([self.neg(a).idx for a in self._all_elements],
                        dtype=np.int64)

    @cached_property
    def val_table(self) -> np.ndarray:
        return np.array([self.valuation(a) for a in self._all_elements],
                        dtype=np.int64)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Index of the inverse per element; -1 marks non-units."""
        t = np.full(self.size, -1, dtype=np.int64)
        for a in self._all_elements:
            if a.is_unit():
                t[a.idx] = self.inverse(a).idx
        return t


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
