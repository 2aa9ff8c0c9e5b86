"""Output checks that do not go through the code under test.

Matrices are 4-tuples of element indices (a11, a12, a21, a22).  All the
arithmetic here uses only the ring's dense addition and multiplication
tables; nilpotency is decided by the power N^(2n) = 0, never by the trace
and determinant criterion the library uses, and factorizations are
multiplied out again instead of trusting ``NilFactorization``.
"""

from __future__ import annotations

import numpy as np

# Counts that at least two independent routes agree on: the brute set
# product, the rank-1 orbit union, the GL2 orbit sweep, the class-reduced
# set product and the closed form 1 + (q+1)^2 (q^(3n) - 1) / (q^2 + q + 1).
# "s2" is |S_2|; |S_s| equals the union for every s >= 2n - 1 (s >= 3 when
# n = 1).  formula_count is deliberately not used: it is wrong at n = 3.
PINNED = {
    "zmod:3^2": {"nil": 729, "s2": 711, "union": 897},
    "polyq:3^2^1": {"nil": 81, "s2": 721, "union": 801},
    "polyq:5^2^1": {"nil": 625, "s2": 15601, "union": 16225},
    "zmod:5^2": {"nil": 15625, "s2": 15425, "union": 18145},
    "zmod:3^3": {"nil": 59049, "union": 24225},
    "polyq:3^1^3": {"nil": 59049, "union": 24225},
    "polyq:7^2^1": {"nil": 2401, "union": 120001},
}


def pinned_product_count(spec: str, n: int, s: int) -> int | None:
    """|S_s| where a pin covers it, else None."""
    pins = PINNED[spec]
    if s == 1:
        return pins.get("nil")
    if s >= max(2 * n - 1, 3):
        return pins.get("union")
    if s == 2:
        return pins.get("s2")
    return None


class Arith:
    """2x2 matrix arithmetic over one ring, from its tables alone."""

    def __init__(self, ring):
        self.q, self.n, self.Q = ring.q, ring.n, ring.size
        self.add = ring.add_table
        self.mul = ring.mul_table
        self.neg = ring.neg_table
        self.val = ring.val_table
        self.inv = ring.inv_table
        self.zero = (0, 0, 0, 0)

    def mul2(self, A, B):
        add, mul = self.add, self.mul
        return (int(add[mul[A[0], B[0]], mul[A[1], B[2]]]),
                int(add[mul[A[0], B[1]], mul[A[1], B[3]]]),
                int(add[mul[A[2], B[0]], mul[A[3], B[2]]]),
                int(add[mul[A[2], B[1]], mul[A[3], B[3]]]))

    def det(self, A) -> int:
        return int(self.add[self.mul[A[0], A[3]],
                            self.neg[self.mul[A[1], A[2]]]])

    def trace(self, A) -> int:
        return int(self.add[A[0], A[3]])

    def is_unit(self, x) -> bool:
        return int(self.val[x]) == 0

    def residue(self, x) -> int:
        # the lowest digit of the little-endian index is the residue
        return int(x) % self.q

    def inverse2(self, P):
        d = int(self.inv[self.det(P)])
        if d < 0:
            raise ValueError("matrix is not invertible")
        mul, neg = self.mul, self.neg
        return (int(mul[d, P[3]]), int(mul[d, neg[P[1]]]),
                int(mul[d, neg[P[2]]]), int(mul[d, P[0]]))

    def conj(self, T, P):
        """P^-1 T P."""
        return self.mul2(self.mul2(self.inverse2(P), T), P)

    def is_nilpotent(self, A) -> bool:
        """N^(2n) = 0: the nilpotency degree over a chain ring of length n
        is at most 2n for 2x2 matrices."""
        acc = A
        for _ in range(2 * self.n - 1):
            acc = self.mul2(acc, A)
        return acc == self.zero

    def packed(self, A) -> int:
        Q = self.Q
        return ((A[3] * Q + A[2]) * Q + A[1]) * Q + A[0]

    def random_invertible(self, rng):
        while True:
            P = tuple(int(x) for x in rng.integers(0, self.Q, size=4))
            if self.is_unit(self.det(P)):
                return P


def entries(M) -> tuple[int, int, int, int]:
    """Index tuple of a library matrix."""
    return tuple(e.idx for e in M.entries())


def factorization_ok(arith: Arith, target, factors) -> bool:
    """Every factor nilpotent by its power, and the product is the target."""
    if not factors:
        return False
    prod = factors[0]
    for N in factors[1:]:
        prod = arith.mul2(prod, N)
    return prod == tuple(target) and all(arith.is_nilpotent(N)
                                         for N in factors)


class ProductOfTwoOracle:
    """Membership in S_2, the set of products of two nilpotents.

    Both factor sets are closed under conjugation, so A is in S_2 exactly
    when some conjugate of A lies in R * Nil for R running over one
    representative per conjugacy class of nilpotents.  This route shares
    no code with the library's pair search.  Building it walks the classes
    of Nil, a few seconds on Q^4 = 390625, so it is built only on demand.
    """

    def __init__(self, arith: Arith):
        self.a = arith
        Q = arith.Q
        add, mul, neg, val = arith.add, arith.mul, arith.neg, arith.val
        e = np.arange(Q ** 4, dtype=np.int64)
        self.e = (e % Q, (e // Q) % Q, (e // (Q * Q)) % Q, e // Q ** 3)
        a11, a12, a21, a22 = self.e
        det = add[mul[a11, a22], neg[mul[a12, a21]]]
        tr = add[a11, a22]
        nil = (val[det] >= 1) & (val[tr] >= 1)
        # nilpotency by the 2n-th power on a handful of members, so the
        # mask does not rest on the trace and determinant criterion alone
        for i in np.flatnonzero(nil)[:: max(1, int(nil.sum()) // 64)]:
            if not arith.is_nilpotent(self._at(i)):
                raise AssertionError("nilpotent mask disagrees with N^(2n)")
        g = np.flatnonzero(val[det] == 0)
        self.P = tuple(x[g] for x in self.e)
        idet = arith.inv[det[g]]
        p11, p12, p21, p22 = self.P
        self.Pinv = (mul[idet, p22], mul[idet, neg[p12]],
                     mul[idet, neg[p21]], mul[idet, p11])
        seen = np.zeros(Q ** 4, dtype=bool)
        self.T = np.zeros(Q ** 4, dtype=bool)
        nil_e = tuple(x[nil] for x in self.e)
        for i in np.flatnonzero(nil):
            if seen[i]:
                continue
            seen[self._orbit(self._at(i))] = True
            self.T[self._pack(self._bulk_mul(self._at(i), nil_e))] = True

    def _at(self, i):
        return tuple(int(x[i]) for x in self.e)

    def _bulk_mul(self, A, B):
        add, mul = self.a.add, self.a.mul
        return (add[mul[A[0], B[0]], mul[A[1], B[2]]],
                add[mul[A[0], B[1]], mul[A[1], B[3]]],
                add[mul[A[2], B[0]], mul[A[3], B[2]]],
                add[mul[A[2], B[1]], mul[A[3], B[3]]])

    def _pack(self, X):
        Q = self.a.Q
        return ((X[3] * Q + X[2]) * Q + X[1]) * Q + X[0]

    def _orbit(self, A):
        """Packed P^-1 A P for every invertible P."""
        add, mul = self.a.add, self.a.mul
        AP = self._bulk_mul(A, self.P)
        Pi = self.Pinv
        return self._pack((add[mul[Pi[0], AP[0]], mul[Pi[1], AP[2]]],
                           add[mul[Pi[0], AP[1]], mul[Pi[1], AP[3]]],
                           add[mul[Pi[2], AP[0]], mul[Pi[3], AP[2]]],
                           add[mul[Pi[2], AP[1]], mul[Pi[3], AP[3]]]))

    def contains(self, A) -> bool:
        return bool(self.T[self._orbit(tuple(A))].any())
