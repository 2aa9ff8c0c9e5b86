"""The layer ladder: the same per-layer measurements in every traced run.

It walks the layers bottom-up on three small rings, so every traced run,
whatever its workload, reports every per-layer metric in BENCHMARK.json.
Counts marked "computed" come from array sizes and operation counts, not
from hardware counters.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import nilquat as nq
from nilquat.quaternion import coeff_product_bulk
from oracle import (PINNED, Arith, entries, factorization_ok,
                    pinned_product_count)
from workloads import RingSetup, expected_outcome, ring_tag, run_cli, to_mat

LADDER_RINGS = ("zmod:3^2", "polyq:5^2^1", "zmod:5^2")
PRODUCT_STEPS = {"zmod:3^2": range(2, 6), "polyq:5^2^1": range(2, 4)}
MATMUL_PAIRS = 2_000_000
# per pair: 8 multiplications and 4 additions, each one table gather
GATHERS_PER_PAIR = 12
# per gather: one 8-byte table entry read, one 8-byte result written;
# per product-set pair also one mask byte written
BYTES_PER_GATHER = 16
MASK_BYTES_PER_PAIR = 1
REPEATS = 3
LADDER_SEED = 20251218


def _timed(tracer, name, layer, fn, **fields):
    with tracer.span(name, layer, **fields):
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
    return out, dt


def _median_time(tracer, name, layer, fn, repeats=REPEATS, **fields):
    times = []
    out = None
    for _ in range(repeats):
        out, dt = _timed(tracer, name, layer, fn, **fields)
        times.append(dt)
    return out, statistics.median(times)


def space_bytes(space) -> int:
    """Bytes held by the numpy arrays a space caches, computed from sizes."""
    total = 0
    stack = list(vars(space).values())
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return total


class Ladder:
    def __init__(self, tracer):
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks: list[tuple[str, bool]] = []

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def check(self, what, ok):
        self.checks.append((what, bool(ok)))

    def run(self):
        rings = {spec: self._setup(spec) for spec in LADDER_RINGS}
        self._matmul(rings)
        for spec, steps in PRODUCT_STEPS.items():
            self._product_steps(rings[spec], steps)
        self._search(rings)
        for spec in ("zmod:3^2", "zmod:5^2"):
            self._decompose_routes(rings[spec])
        self._quaternion(rings)
        self._verify(rings["zmod:3^2"])
        self._cli()
        return self

    def _setup(self, spec):
        tr, tag = self.tracer, ring_tag(spec)
        t0 = perf_counter()
        with tr.span("chain_ring.ring_build", "chain_ring", ring=tag):
            ring = nq.Ring(nq.parse_ring_spec(spec))
            for _ in (ring.add_table, ring.mul_table, ring.neg_table,
                      ring.val_table, ring.inv_table):
                pass
        self.put(f"chain_ring.ring_build_ms.{tag}",
                 (perf_counter() - t0) * 1e3, "ms")
        space = nq.MatrixSpace(ring)
        for metric, span, attr in (
                ("nilpotent_mask_s", "mat2.nilpotent_mask", "nilpotent_indices"),
                ("invertible_mask_s", "mat2.invertible_mask",
                 "invertible_indices"),
                ("gl_data_s", "mat2.gl_data", "gl_packed")):
            _, dt = _timed(tr, span, "mat2", lambda: getattr(space, attr),
                           ring=tag)
            self.put(f"mat2.{metric}.{tag}", dt, "s")
        union, dt = _timed(tr, "orbits.orbit_union", "orbits",
                           lambda: nq.orbit_union(space, "rank1"), ring=tag)
        self.put(f"orbits.union_rank1_s.{tag}", dt, "s")
        self.check(f"|union| {spec} rank1",
                   int(union.sum()) == PINNED[spec]["union"])
        if spec == "zmod:3^2":
            # the only ladder ring where Q^2 |GL2| is under the sweep limit
            sweep, dt = _timed(tr, "orbits.orbit_union", "orbits",
                               lambda: nq.orbit_union(space, "sweep"),
                               ring=tag)
            self.put(f"orbits.union_sweep_s.{tag}", dt, "s")
            self.check("sweep = rank1 zmod:3^2", np.array_equal(sweep, union))
        self.put(f"mat2.space_bytes.{tag}", space_bytes(space), "bytes")
        rs = RingSetup(spec, ring, space, Arith(ring), union)
        ar = rs.arith
        A = ar.conj((ring.one.idx, ring.one.idx, 0, 0),
                    ar.random_invertible(np.random.default_rng(LADDER_SEED)))
        M = to_mat(rs, A)
        _, dt = _median_time(tr, "mat2.conjugates_of", "mat2",
                             lambda: space.conjugates_of(M), ring=tag)
        self.put(f"mat2.conjugates_of_ms.{tag}", dt * 1e3, "ms")
        for kind in ("cold", "warm"):
            cert, dt = _timed(tr, "orbits.locate_in_orbit_union", "orbits",
                              lambda: nq.locate_in_orbit_union(space, M),
                              ring=tag, kind=kind)
            self.put(f"orbits.locate_ms.{tag}.{kind}", dt * 1e3, "ms")
            self.check(f"locate {spec}", cert is not None and entries(
                nq.conjugate(nq.top_row(cert.a, cert.b), cert.conjugator))
                == A)
        return rs

    def _matmul(self, rings):
        for family, spec in (("zmod", "zmod:5^2"), ("polyq", "polyq:5^2^1")):
            space = rings[spec].space
            nil = space.nilpotent_indices
            rows = MATMUL_PAIRS // len(nil)
            left = np.resize(nil, rows)
            l = tuple(x[:, None] for x in space.unpack(left))
            r = tuple(x[None, :] for x in space.unpack(nil))
            _, dt = _median_time(self.tracer, "mat2.matmul", "mat2",
                                 lambda: space.matmul(l, r), repeats=5,
                                 ring=ring_tag(spec))
            self.put(f"mat2.matmul_mpairs_per_s.{family}",
                     rows * len(nil) / dt / 1e6, "Mpairs/s")
        self.put("mat2.matmul_lookups", MATMUL_PAIRS * GATHERS_PER_PAIR,
                 "count")
        self.put("mat2.matmul_bytes_computed",
                 MATMUL_PAIRS * GATHERS_PER_PAIR * BYTES_PER_GATHER, "bytes")

    def _product_steps(self, rs, steps):
        tag = ring_tag(rs.spec)
        nil = len(rs.space.nilpotent_indices)
        sizes = {1: nil}
        total_pairs = total_s = 0.0
        nominal = 0
        for s in steps:
            got, dt = _timed(self.tracer, "nilfactor.product_set",
                             "nilfactor",
                             lambda: nq.product_set(rs.space, s, 1),
                             ring=tag, s=s)
            sizes[s] = len(got)
            self.check(f"|S_{s}| {rs.spec}", len(got) == pinned_product_count(
                rs.spec, rs.ring.n, s))
            step_pairs = sizes[s - 1] * nil
            # the seed algorithm rebuilds from s = 1 on every call
            nominal = sum(sizes[j] * nil for j in range(1, s))
            total_pairs += nominal
            total_s += dt
            lookups = step_pairs * GATHERS_PER_PAIR
            self.put(f"nilfactor.product_set_s.{tag}.s{s}", dt, "s")
            self.put(f"nilfactor.step_pairs.{tag}.s{s}", step_pairs, "count")
            self.put(f"nilfactor.step_lookups.{tag}.s{s}", lookups, "count")
            self.put(f"nilfactor.step_bytes_computed.{tag}.s{s}",
                     lookups * BYTES_PER_GATHER
                     + step_pairs * MASK_BYTES_PER_PAIR, "bytes")
        self.put(f"nilfactor.nominal_mpairs_per_s.{tag}",
                 total_pairs / total_s / 1e6, "Mpairs/s")
        self.put(f"nilfactor.pair_yield.{tag}", sizes[max(steps)] / nominal,
                 "ratio")

    def _search(self, rings):
        # 5 I over Z/25: outside the union, a product of two nilpotents,
        # found within the search's first two blocks
        z = rings["zmod:5^2"]
        five = z.ring.from_int(5).idx
        hit = (five, 0, 0, five)
        # the identity over GF(25): unit determinant, so never a product
        # of nilpotents; the search scans every pair
        g = rings["polyq:5^2^1"]
        miss = (g.ring.one.idx, 0, 0, g.ring.one.idx)
        for kind, rs, A in (("hit", z, hit), ("miss", g, miss)):
            out, dt = _median_time(
                self.tracer, "nilfactor.decompose", "nilfactor",
                lambda: _call(nq.decompose, rs.space, to_mat(rs, A), 2),
                ring=ring_tag(rs.spec), s=2, route="s2-search")
            self.put(f"nilfactor.search_two_s.{kind}", dt, "s")
            if kind == "hit":
                self.check("search hit", not isinstance(out, Exception)
                           and factorization_ok(rs.arith, A, [
                               entries(N) for N in out.factors]))
            else:
                self.check("search miss",
                           isinstance(out, nq.TraceObstructionError))

    def _decompose_routes(self, rs):
        ar, ring, tag = rs.arith, rs.ring, ring_tag(rs.spec)
        rng = np.random.default_rng(LADDER_SEED)
        pi = ring.uniformizer.idx
        unit = ar.conj((ring.one.idx, pi, 0, 0), ar.random_invertible(rng))
        nil = ar.conj((pi, ring.one.idx, 0, 0), ar.random_invertible(rng))
        outside = ar.random_invertible(rng)
        for route, A, s in (("s1", nil, 1), ("s2-fast", unit, 2),
                            ("s3plus", unit, 4), ("refused", outside, 3)):
            expected = expected_outcome(rs, A, s)
            out, dt = _median_time(
                self.tracer, "nilfactor.decompose", "nilfactor",
                lambda: _call(nq.decompose, rs.space, to_mat(rs, A), s),
                ring=tag, s=s, route=route)
            self.put(f"nilfactor.decompose_ms.{tag}.{route}", dt * 1e3, "ms")
            if isinstance(expected, type):
                ok = isinstance(out, expected)
            else:
                ok = (expected == route and not isinstance(out, Exception)
                      and factorization_ok(ar, A, [entries(N)
                                                   for N in out.factors]))
            self.check(f"decompose {rs.spec} {route}", ok)

    def _quaternion(self, rings):
        for spec in ("zmod:3^2", "polyq:5^2^1"):
            ring = rings[spec].ring
            _, dt = _median_time(self.tracer, "quaternion.build_iso",
                                 "quaternion", lambda: nq.build_iso(ring),
                                 ring=ring_tag(spec))
            self.put(f"quaternion.build_iso_ms.{ring_tag(spec)}", dt * 1e3,
                     "ms")
        ring = rings["polyq:5^2^1"].ring
        rng = np.random.default_rng(LADDER_SEED)
        x = tuple(rng.integers(0, ring.size, size=1_000_000) for _ in range(4))
        y = tuple(rng.integers(0, ring.size, size=1_000_000) for _ in range(4))
        _, dt = _median_time(self.tracer, "quaternion.coeff_product_bulk",
                             "quaternion",
                             lambda: coeff_product_bulk(ring, x, y),
                             ring="polyq-5-2-1")
        self.put("quaternion.bulk_mops_per_s", 1.0 / dt, "Mops/s")

    def _verify(self, rs):
        tag = ring_tag(rs.spec)
        # run_suites takes its space from matrix_space; build that one
        # first so the masks are not charged to the first suite needing them
        with self.tracer.span("verify.space", "mat2", ring=tag):
            nq.orbit_union(nq.matrix_space(rs.ring))
        for suite in nq.SUITE_NAMES:
            res, dt = _timed(self.tracer, "verify.run_suites", "verify",
                             lambda: nq.run_suites(rs.ring, (suite,),
                                                   threads=1),
                             ring=tag, suite=suite)
            self.check(f"verify {suite} {rs.spec}", res[0].violations == 0)
            if res[0].checks:  # lemma37 and lemma311 are vacuous here
                self.put(f"verify.{suite}_s.{tag}", dt, "s")
                self.put(f"verify.{suite}_checks.{tag}", res[0].checks,
                         "count")

    def _cli(self):
        args = ["census", "--ring", "zmod:3^2", "--s", "3", "--method",
                "formula"]
        proc, dt = _median_time(self.tracer, "cli.census", "cli",
                                lambda: run_cli(args), ring="zmod-3-2")
        self.put("cli.startup_s", dt, "s")
        self.check("cli census --method formula", proc.returncode == 0)


def _call(fn, *args):
    try:
        return fn(*args)
    except nq.DecompositionError as exc:
        return exc

