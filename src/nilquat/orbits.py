"""Conjugation orbits of top-row matrices ((a, b), (0, 0)) under GL2(R).

The union of those orbits over all pairs (a, b) is the central object of
the factorization results.  It has the rank-one form

    union = { u * w^T : u a unimodular column, w in R^2 },

since P^-1 ((a, b), (0, 0)) P = (P^-1 e1) ((a, b) P).  ``orbit_union``
has two methods.  ``"rank1"``, the default, marks the union through that
parametrisation, with u over the canonical projective-line
representatives (1, c) and (j, 1), j in J(R).  ``"sweep"`` marks every
conjugate of every top-row matrix by one GL2 set built for the sweep,
the orbits that ``orbit_of`` gives one at a time as sorted packed
indices; it is kept as the reference route, and the test suites check
the two against each other.  ``locate_in_orbit_union`` factors one
matrix as u * w^T in closed form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .chain_ring import (Ring, RingElem, _power_at_most, format_ring_spec,
                         make_ring, parse_ring_spec)
from .mat2 import (Mat2, MatrixSpace, _mat, identity, pair_products,
                   top_row)

# A bitset header is one short text line; longer first lines are rejected.
_BITSET_HEADER_LIMIT = 256


def conjugate(A: Mat2, P: Mat2) -> Mat2:
    """P^-1 A P; the conjugator must be invertible."""
    if not P.is_invertible():
        raise ValueError("conjugator is not invertible")
    return P.inverse() * A * P


def shear(ring: Ring, t: RingElem) -> Mat2:
    """((1, t), (0, 1)); invertible for every t since its det is 1."""
    return Mat2(ring.one, t, ring.zero, ring.one)


def unit_diag(ring: Ring, alpha: RingElem) -> Mat2:
    """((1, 0), (0, alpha)) for a unit alpha."""
    if not alpha.is_unit():
        raise ValueError("alpha must be a unit")
    return Mat2(ring.one, ring.zero, ring.zero, alpha)


def orbit_of(space: MatrixSpace, A: Mat2) -> np.ndarray:
    """The full conjugation orbit of A, as sorted packed indices."""
    return np.unique(space.conjugates_of(A))


def _union_by_sweep(space: MatrixSpace) -> np.ndarray:
    """Mark every conjugate of every top-row matrix, all by one GL2 set
    built here, since the space does not keep it.  A conjugate met twice
    is marked twice, so no orbit is sorted."""
    mask = np.zeros(space.count, dtype=bool)
    gl = space.gl_packed
    elements = space.ring.enumerate_ring()
    for a in elements:
        for b in elements:
            mask[space._conjugates_by(gl, top_row(a, b))] = True
    return mask


def _union_by_rank1(space: MatrixSpace) -> np.ndarray:
    """Mark every product u * w^T with u a canonical unimodular column.

    Canonical representatives (1, c) for all c and (j, 1) for j in J cover
    every unimodular column up to unit scaling, and unit scales of u can be
    absorbed into w, so the union is unchanged.  u * w^T is the matrix
    product ((u1, 0), (u2, 0)) ((w1, w2), (0, 0)), so the union is one
    pass of ``pair_products``; the top rows (w1, w2) are the packed
    indices w1 + Q w2 below Q^2."""
    ring = space.ring
    Q, q, one = ring.size, ring.q, ring.one.idx
    u1 = np.concatenate([np.full(Q, one), np.arange(0, Q, q)])
    u2 = np.concatenate([np.arange(Q), np.full(Q // q, one)])
    mask = np.zeros(space.count, dtype=bool)
    for _, packed in pair_products(space, space.pack(u1, 0, u2, 0),
                                   np.arange(Q * Q)):
        mask[packed] = True
    return mask


def orbit_union(space: MatrixSpace, method: str = "rank1") -> np.ndarray:
    """Boolean membership mask of the orbit union over all packed indices.

    ``"rank1"`` marks every u * w^T; ``"sweep"`` is the reference route
    over every conjugate of every top-row matrix.  The returned array is
    cached on the space; treat it as read-only.  CapExceededError past
    the space's cap.
    """
    if method not in ("sweep", "rank1"):
        raise ValueError(f"unknown union method {method!r}")
    space.require_enumerable()
    cached = space._union_cache.get(method)
    if cached is None:
        cached = (_union_by_sweep(space) if method == "sweep"
                  else _union_by_rank1(space))
        space._union_cache[method] = cached
    return cached


@dataclass(frozen=True)
class OrbitCertificate:
    """A verified witness that P^-1 ((a, b), (0, 0)) P equals the target."""

    a: RingElem
    b: RingElem
    conjugator: Mat2


def locate_in_orbit_union(space: MatrixSpace, A: Mat2) -> OrbitCertificate | None:
    """A witness (a, b, P) putting A in a top-row orbit, or None.

    P^-1 ((a, b), (0, 0)) P = u w^T with u = P^-1 e1 and w^T = (a, b) P,
    so A is in the union exactly when A = u w^T with u unimodular.  The
    first column holding an entry of least valuation k is pi^k u for a
    unimodular u, so w has pi^k there; the row where u has a unit forces
    w's other entry, and one entry of A is left to check.  P^-1 is then
    written down in closed form: ((u1, 0), (u2, 1)) when u1 is a unit,
    else ((u1, 1), (u2, 0)), and P is its adjugate over its determinant
    u1 or -u2; so a = tr A and b = w2, or w1.  Two explicit checks, which
    hold under ``python -O`` too, certify the witness: P P^-1 = I and
    P^-1 ((a, b), (0, 0)) P = A; a failure raises AssertionError.  This
    takes O(1) ring operations and leaves ``space`` unused.  The zero
    matrix gets (0, 0, I).
    """
    witness = _orbit_witness(A)
    if witness is None:
        return None
    a, b, P, _ = witness
    return OrbitCertificate(a=a, b=b, conjugator=P)


def _orbit_witness(A: Mat2) -> tuple[RingElem, RingElem, Mat2, Mat2] | None:
    """(a, b, P, P^-1) for ``locate_in_orbit_union``'s witness, checked
    as its docstring says, or None off the union."""
    ring = A.ring
    zero, one = ring.zero, ring.one
    val = ring.valuation
    a11, a12, a21, a22 = A.a11, A.a12, A.a21, A.a22
    v1, v2 = min(val(a11), val(a21)), min(val(a12), val(a22))
    if v1 <= v2:
        k, j, col, other = v1, 0, (a11, a21), (a12, a22)
    else:
        k, j, col, other = v2, 1, (a12, a22), (a11, a21)
    if k == ring.n:
        eye = identity(ring)
        return zero, zero, eye, eye
    step = ring.q ** k
    u = [ring.from_index(x.idx // step) for x in col]
    i = 0 if u[0].is_unit() else 1
    inv = ring.inverse(u[i])
    w_other = ring.mul(other[i], inv)
    if ring.mul(u[1 - i], w_other).idx != other[1 - i].idx:
        return None
    w = [w_other, w_other]
    w[j] = ring.from_index(step)
    if i == 0:
        P = _mat(ring, (inv, zero, ring.neg(ring.mul(u[1], inv)), one))
        Pinv = _mat(ring, (u[0], zero, u[1], one))
    else:
        P = _mat(ring, (zero, inv, one, ring.neg(ring.mul(u[0], inv))))
        Pinv = _mat(ring, (u[0], one, u[1], zero))
    a, b = A.trace(), w[1 - i]
    if P * Pinv != identity(ring):
        raise AssertionError("orbit witness P^-1 is not the inverse of P")
    if Pinv * top_row(a, b) * P != A:
        raise AssertionError("orbit witness does not conjugate to the target")
    return a, b, P, Pinv


def union_summary(space: MatrixSpace) -> dict:
    """Summary dict {ring, union_size, orbit_count}; orbit_count counts the
    distinct orbits, by class code, among all Q^2 top-row matrices."""
    mask = orbit_union(space)
    b, a = np.divmod(np.arange(space.Q ** 2), space.Q)
    zero = space.ring.zero.idx
    return {"ring": format_ring_spec(space.ring.spec),
            "union_size": int(mask.sum()),
            "orbit_count": len(np.unique(space.class_code((a, b, zero,
                                                           zero))))}


def save_union_bitset(space: MatrixSpace, path):
    """Write the union mask as a bitset file: a text header line
    '<ring-spec> <bit-count>' followed by little-endian packed bits."""
    mask = orbit_union(space)
    with open(path, "wb") as fh:
        fh.write(f"{format_ring_spec(space.ring.spec)} {space.count}\n".encode())
        fh.write(np.packbits(mask, bitorder="little").tobytes())


def _check_bitset_header(spec_text: str, nbits: int) -> None:
    """The spec must name a valid ring whose Q^4 equals nbits.

    Q^4 = p^(4rn) is compared with nbits by the size rule, so an absurd
    spec costs no more than a plausible one."""
    spec = parse_ring_spec(spec_text)
    m = 4 * spec.r * spec.n
    if (spec.p < 2 or not _power_at_most(spec.p, m, nbits)
            or _power_at_most(spec.p, m, nbits - 1)):
        raise ValueError(f"bitset header claims {nbits} bits, which is not "
                         f"the matrix count of {spec_text}")
    make_ring(spec)


def load_union_bitset(path) -> tuple[str, np.ndarray]:
    """Read a bitset file back as (ring spec string, boolean mask).

    The header must hold two fields, a ring spec and a bit count equal to
    Q^4 for that ring, and the payload must be exactly ceil(bits / 8)
    bytes; any other file raises ValueError before the mask is allocated.
    """
    with open(path, "rb") as fh:
        header = fh.readline(_BITSET_HEADER_LIMIT)
        fields = header.decode("ascii", errors="replace").split()
        if (not header.endswith(b"\n") or len(fields) != 2
                or not fields[1].isdigit()):
            raise ValueError("bitset header must be '<ring-spec> <bit-count>'")
        spec_text, nbits = fields[0], int(fields[1])
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != (nbits + 7) // 8:
            raise ValueError(f"bitset payload has {payload} bytes, header "
                             f"claims {nbits} bits")
        _check_bitset_header(spec_text, nbits)
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
        bits = np.unpackbits(raw, count=nbits, bitorder="little")
    return spec_text, bits.astype(bool)
