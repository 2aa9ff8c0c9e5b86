"""The four workloads: seeded set-up and operation lists.

Each workload is one closed-loop client: operations run one after another
with threads=1, and at most one CLI child is alive at a time.  The seed
only chooses targets and operation order; the library sees nothing but
the generated inputs.  DESIGN.md says why each workload exists.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import nilquat as nq
from oracle import (PINNED, Arith, ProductOfTwoOracle, entries,
                    factorization_ok, pinned_product_count)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 150


def ring_tag(spec: str) -> str:
    return spec.replace(":", "-").replace("^", "-")


@dataclass
class Op:
    """One public call.  ``check`` judges the result or the raised
    exception; ``route`` names the path a successful call takes.  Calls
    with the same ``request`` make up one user request for the latency
    metrics; by default each call is its own.  A pass runs the call
    ``repeat`` times, at separate places in its order."""

    name: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    fields: dict
    route: str | None = None
    cli: bool = False
    request: str | None = None
    repeat: int = 1
    id: int = -1


@dataclass
class RingSetup:
    spec: str
    ring: object
    space: object
    arith: Arith
    union: np.ndarray


@dataclass
class Prepared:
    """The distinct operations, and the order one pass runs them in."""

    ops: list[Op]
    schedule: list[Op]
    checks: list[tuple[str, bool]] = field(default_factory=list)


def prepared(rng, ops: list[Op], checks) -> Prepared:
    """A seeded pass order.  A pass is ``max(repeat)`` rounds, and round j
    runs every operation whose ``repeat`` exceeds j, so the repeats of a
    call fall in different moments of the pass.  Within a round the calls
    on one ring run together, in seeded order, so a cheap call is not
    timed just after a large ring's sweep has flushed the CPU caches: how
    many such calls a seed happens to place there moved the median."""
    schedule = []
    for j in range(max(op.repeat for op in ops)):
        groups: dict[str, list[Op]] = {}
        for op in ops:
            if op.repeat > j:
                groups.setdefault(op.fields.get("ring", ""), []).append(op)
        blocks = list(groups.values())
        for b in rng.permutation(len(blocks)):
            block = blocks[b]
            schedule += [block[i] for i in rng.permutation(len(block))]
    return Prepared(ops, schedule, checks)


def build_ring(spec, tracer, *, gl=True, cached_space=False) -> RingSetup:
    """Ring tables, then the masks, then GL2, then the union: bottom-up,
    so each layer's first-touch cost lands in its own span."""
    tag = ring_tag(spec)
    with tracer.span("chain_ring.ring_build", "chain_ring", ring=tag):
        ring = nq.Ring(nq.parse_ring_spec(spec))
        for _ in (ring.add_table, ring.mul_table, ring.neg_table,
                  ring.val_table, ring.inv_table):
            pass
    # run_suites looks its space up through matrix_space, so the verify
    # workload forces that cached instance
    space = nq.matrix_space(ring) if cached_space else nq.MatrixSpace(ring)
    with tracer.span("mat2.nilpotent_mask", "mat2", ring=tag):
        space.nilpotent_indices
    with tracer.span("mat2.invertible_mask", "mat2", ring=tag):
        space.invertible_indices
    if gl:
        with tracer.span("mat2.gl_data", "mat2", ring=tag):
            space.gl_packed
    with tracer.span("orbits.orbit_union", "orbits", ring=tag):
        union = nq.orbit_union(space)
    return RingSetup(spec, ring, space, Arith(ring), union)


def pin_checks(rs: RingSetup) -> list[tuple[str, bool]]:
    pins = PINNED[rs.spec]
    return [(f"|Nil| {rs.spec}",
             len(rs.space.nilpotent_indices) == pins["nil"]),
            (f"|union| {rs.spec}", int(rs.union.sum()) == pins["union"])]


def to_mat(rs: RingSetup, A):
    return nq.Mat2(*(rs.ring.from_index(int(x)) for x in A))


# ---------------------------------------------------------------------------
# the CLI as a subprocess
# ---------------------------------------------------------------------------

# Each CLI call runs this often a pass.  cli_s is the fastest cold call of
# a run, and a 0.3-0.6 s call falls wholly inside one of the host's slow
# phases, so the fastest of three or four samples moved by 20% from run to
# run.
CLI_REPEAT = 3


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return run_python(["-m", "nilquat", *args])


def _cli_json(proc):
    """The parsed stdout of a CLI call that exited 0, else None."""
    if isinstance(proc, BaseException) or proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def cli_decompose_op(rs: RingSetup, A, s) -> Op:
    text = nq.format_matrix(to_mat(rs, A))

    def check(proc):
        payload = _cli_json(proc)
        if payload is None:
            return False
        factors = [entries(nq.parse_matrix(rs.ring, f))
                   for f in payload["factors"]]
        return (entries(nq.parse_matrix(rs.ring, payload["target"])) == A
                and len(factors) == s
                and factorization_ok(rs.arith, A, factors))

    args = ["decompose", "--ring", rs.spec, "--matrix", text, "--s", str(s)]
    return Op("cli.decompose", "cli", partial(run_cli, args), check,
              {"ring": ring_tag(rs.spec), "s": s}, cli=True,
              repeat=CLI_REPEAT)


# ---------------------------------------------------------------------------
# decompose targets and their expected outcome
# ---------------------------------------------------------------------------

def _element(rs: RingSetup, rng, valuations) -> int:
    pool = np.flatnonzero(np.isin(rs.ring.val_table, list(valuations)))
    return int(rng.choice(pool))


def stratum_target(rs: RingSetup, rng, stratum: str):
    """A conjugate P^-1 ((a, b), (0, 0)) P, or an invertible matrix for
    "outside".  The stratum fixes the valuations of a and b, which fixes
    how many top-row orbits the witness search visits, so the cost of a
    call does not depend on the seed."""
    n = rs.ring.n
    ar = rs.arith
    if stratum == "outside":
        # a unit determinant keeps it out of every u w^T orbit
        return ar.random_invertible(rng)
    if stratum == "unit-trace":
        a, b = _element(rs, rng, [0]), _element(rs, rng, range(n + 1))
    elif stratum == "nil-content":
        va = int(rng.integers(1, n)) if n >= 2 else n
        a, b = _element(rs, rng, [va]), _element(rs, rng, range(va, n + 1))
    elif stratum == "unit-b":
        a, b = _element(rs, rng, range(1, n + 1)), _element(rs, rng, [0])
    elif stratum == "deep-b":
        a, b = _element(rs, rng, range(2, n + 1)), _element(rs, rng, [1])
    elif stratum == "deeper-b":
        a, b = _element(rs, rng, [3]), _element(rs, rng, [2])
    else:
        raise ValueError(stratum)
    return ar.conj((a, b, 0, 0), ar.random_invertible(rng))


def expected_outcome(rs: RingSetup, A, s):
    """The route a correct decompose takes, or the refusal class it must
    raise.  s = 2 targets outside the union reach the pair search, which
    only pair-search sends."""
    ar = rs.arith
    in_union = bool(rs.union[ar.packed(A)])
    if s == 1:
        return "s1" if ar.is_nilpotent(A) else nq.NotNilpotentError
    if s == 2:
        res = [ar.residue(x) for x in A]
        if any(res) and ar.residue(ar.trace(A)) == 0:
            return nq.TraceObstructionError
        return "s2-fast" if in_union else "s2-search"
    return "s3plus" if in_union else nq.NotInOrbitUnionError


def decompose_op(rs: RingSetup, A, s, expected=None) -> Op:
    if expected is None:
        expected = expected_outcome(rs, A, s)
    refusal = isinstance(expected, type)

    def check(result):
        if refusal:
            return isinstance(result, expected)
        if isinstance(result, BaseException):
            return False
        factors = [entries(N) for N in result.factors]
        return (entries(result.target) == A and len(factors) == s
                and factorization_ok(rs.arith, A, factors))

    return Op("nilfactor.decompose", "nilfactor",
              partial(nq.decompose, rs.space, to_mat(rs, A), s), check,
              {"ring": ring_tag(rs.spec), "s": s},
              route=None if refusal else expected)


# ---------------------------------------------------------------------------
# census-chain
# ---------------------------------------------------------------------------

CLI_CENSUS_CALLS = 3


def census_chain(rng, tracer, last) -> Prepared:
    rings = [build_ring(spec, tracer) for spec in ("zmod:3^2", "polyq:5^2^1")]
    ops = []
    for rs in rings:
        for s in range(2, 6):
            want = pinned_product_count(rs.spec, rs.ring.n, s)
            ops.append(Op(
                "nilfactor.census_set_product", "nilfactor",
                partial(nq.census_set_product, rs.space, s, 1),
                lambda rep, want=want: (not isinstance(rep, BaseException)
                                        and rep.brute_count == want),
                {"ring": ring_tag(rs.spec), "s": s},
                # one ring's s = 2..5 is one `table --s 2..5` request
                request=rs.spec))
    # s = 3 = 2n - 1 is the first census the CLI compares with the closed
    # form; it is fixed so the seed does not change what a CLI call costs
    want = pinned_product_count("zmod:3^2", 2, 3)
    for _ in range(CLI_CENSUS_CALLS):
        ops.append(Op(
            "cli.census", "cli",
            partial(run_cli, ["census", "--ring", "zmod:3^2", "--s", "3",
                              "--stable-output"]),
            lambda proc: (_cli_json(proc) or {}).get("brute_count") == want,
            {"ring": "zmod-3-2", "s": 3}, cli=True, repeat=CLI_REPEAT))
    checks = [c for rs in rings for c in pin_checks(rs)]
    return prepared(rng, ops, checks)


# ---------------------------------------------------------------------------
# pair-search
# ---------------------------------------------------------------------------

def _split_unit_matrix(rng, triangular: bool):
    """A' in GL2(F_5) whose characteristic polynomial splits.  5 A' is then
    a product of two nilpotents over Z/25 that lies outside the orbit
    union.  Triangular A' are found in the first 2 of the search's 123
    blocks of left factors, the others in blocks 9-10."""
    while True:
        a, b, c, d = (int(x) for x in rng.integers(0, 5, size=4))
        det = (a * d - b * c) % 5
        disc = ((a + d) ** 2 - 4 * det) % 5
        if det and disc in (0, 1, 4) and (b == 0 or c == 0) == triangular:
            return a, b, c, d


CLI_SEARCH_CALLS = 2
# (count, runs per pass) of each kind of request.  op_p50_ms is the
# fourth of seven, a shallow hit: at the border of two kinds it moved by
# 20% with which side it took, and the misses' full scans of a large
# table do not follow the host probe.
SEARCHES = {"shallow": (5, 2), "deep": (1, 1), "miss": (1, 1)}


def pair_search(rng, tracer, last) -> Prepared:
    z = build_ring("zmod:5^2", tracer)
    # only its misses run, which never touch GL2
    f = build_ring("polyq:7^2^1", tracer, gl=False)
    five = [z.ring.from_int(5 * x).idx for x in range(5)]
    oracle: list[ProductOfTwoOracle] = []

    def hit_op(A, kind):
        def check(result):
            if isinstance(result, nq.TraceObstructionError):
                # a refusal is right only if A is really outside S_2
                if not oracle:
                    oracle.append(ProductOfTwoOracle(z.arith))
                return not oracle[0].contains(A)
            if isinstance(result, BaseException):
                return False
            factors = [entries(N) for N in result.factors]
            return (entries(result.target) == A and len(factors) == 2
                    and factorization_ok(z.arith, A, factors))

        return Op("nilfactor.decompose", "nilfactor",
                  partial(nq.decompose, z.space, to_mat(z, A), 2), check,
                  {"ring": "zmod-5-2", "s": 2, "kind": kind},
                  route="s2-search")

    checks = pin_checks(z) + pin_checks(f)
    ops = []
    for kind in ("shallow", "deep"):
        count, repeat = SEARCHES[kind]
        for _ in range(count):
            A = tuple(five[x] for x in _split_unit_matrix(rng,
                                                          kind == "shallow"))
            checks.append((f"target {A} outside the union",
                           not z.union[z.arith.packed(A)]))
            op = hit_op(A, kind)
            op.repeat = repeat
            ops.append(op)
    count, repeat = SEARCHES["miss"]
    for _ in range(count):
        # unit determinant: no product of nilpotents, whose determinants
        # lie in J, can equal it; nonzero trace passes the residue test
        while True:
            A = f.arith.random_invertible(rng)
            if f.arith.trace(A):
                break
        op = decompose_op(f, A, 2, nq.TraceObstructionError)
        op.fields["kind"] = "miss"
        op.repeat = repeat
        ops.append(op)
    for _ in range(CLI_SEARCH_CALLS):
        # triangular targets are all found in the search's second block,
        # so every CLI call costs the same
        cli_target = tuple(five[x] for x in _split_unit_matrix(rng, True))
        ops.append(cli_decompose_op(z, cli_target, 2))
    return prepared(rng, ops, checks)


# ---------------------------------------------------------------------------
# decompose-batch
# ---------------------------------------------------------------------------

# Warm calls per small ring.  Two rings of 500 put the p99 of about 1020
# requests inside the block of 45-65 ms large-ring calls below.
SMALL_CALLS = 500
# A sub-millisecond call's fastest time is taken over this many samples
# per pass, at different moments: the shared host spends most of its time
# in slow phases, and over three samples a quarter of the calls in a run
# found none of its fast moments, so the median moved with the host.
SMALL_REPEAT = 4

# (stratum, s, repeat) per pass on the rings whose GL2 is past the orbit
# cache threshold.  Each call costs about (orbits visited) x (one GL2
# sweep).  The 45-65 ms calls that the p99 tail lands on run three times
# a pass for the same reason as the small calls; the four calls of 0.1 s
# and more (rank 1-6 of the tail) once.
LARGE_SLOTS = {
    "zmod:5^2": [("unit-trace", 3, 3), ("nil-content", 2, 3),
                 ("unit-b", 4, 1), ("deep-b", 5, 1), ("outside", 3, 3),
                 ("unit-b", 2, 3)],
    "zmod:3^3": [("unit-trace", 2, 3), ("nil-content", 3, 3),
                 ("unit-b", 5, 1), ("deep-b", 2, 1), ("deeper-b", 4, 1),
                 ("unit-trace", 1, 3), ("outside", 6, 3),
                 ("unit-trace", 3, 3), ("unit-trace", 4, 3),
                 ("nil-content", 5, 3), ("nil-content", 6, 3)],
    "polyq:7^2^1": [("unit-trace", None, 1), ("unit-b", 2, 3),
                    ("outside", 4, 3)],
}

CLI_DECOMPOSE_CALLS = 3
# s = 2 takes the fast path, which costs more than s >= 3 in a cold
# process; one s keeps every CLI call at the same cost
CLI_DECOMPOSE_S = 3


def _small_slots(n: int) -> list[tuple[str, int]]:
    """Every (stratum, s) a small ring takes, each equally often, so the
    mix of routes and refusals does not depend on the seed.  Targets
    outside the union skip s = 2, which would reach the pair search."""
    strata = ["unit-trace", "nil-content", "unit-b", "outside"]
    strata += ["deep-b"] if n >= 2 else []
    return [(st, s) for st in strata for s in range(1, 7)
            if not (st == "outside" and s == 2)]


def decompose_batch(rng, tracer, last) -> Prepared:
    small = [build_ring(s, tracer) for s in ("zmod:3^2", "polyq:3^2^1")]
    large = {s: build_ring(s, tracer) for s in LARGE_SLOTS}
    ops = []
    for rs in small:
        slots = _small_slots(rs.ring.n)
        for i in range(SMALL_CALLS):
            stratum, s = slots[i % len(slots)]
            op = decompose_op(rs, stratum_target(rs, rng, stratum), s)
            op.repeat = SMALL_REPEAT
            ops.append(op)
    for spec, slots in LARGE_SLOTS.items():
        rs = large[spec]
        for stratum, s, repeat in slots:
            s = int(rng.integers(2, 7)) if s is None else s
            op = decompose_op(rs, stratum_target(rs, rng, stratum), s)
            op.fields["kind"] = stratum
            op.repeat = repeat
            ops.append(op)
    z3 = large["zmod:3^3"]
    for _ in range(CLI_DECOMPOSE_CALLS):
        ops.append(cli_decompose_op(
            z3, stratum_target(z3, rng, "unit-trace"), CLI_DECOMPOSE_S))
    checks = [c for rs in small for c in pin_checks(rs)]
    checks += [c for rs in large.values() for c in pin_checks(rs)]
    return prepared(rng, ops, checks)


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

# thm38, thm312 and cor310 rebuild the product chain from s = 1.  They run
# on zmod:3^2 only: on polyq:5^2^1 they take 9.5 s a pass, which would
# leave one pass per run (census-chain times that chain instead), and at
# n = 3 they take minutes.
_CHAIN_SUITES = ("thm38", "thm312", "cor310")
VERIFY_RINGS = {
    "zmod:3^2": nq.SUITE_NAMES,
    "polyq:5^2^1": tuple(s for s in nq.SUITE_NAMES if s not in _CHAIN_SUITES),
    "polyq:3^1^3": tuple(s for s in nq.SUITE_NAMES if s not in _CHAIN_SUITES),
}
# Suites that take 0.07 s or more on some ring.  The others (up to about
# 0.04 s) run LIGHT_REPEAT times a pass, so their fastest time, which
# sets op_p50_ms, is taken over samples spread across the run.
_HEAVY_SUITES = ("axioms", "lemma33", "lemma35", "thm38", "thm312", "cor310")
LIGHT_REPEAT = 8
CLI_VERIFY = ("zmod:3^2", "lemma33,lemma34,lemma35")
CLI_VERIFY_CALLS = 2


def _suite_ok(results) -> bool:
    return (not isinstance(results, BaseException) and len(results) == 1
            and results[0].violations == 0 and results[0].passed)


def verify_paper(rng, tracer, last) -> Prepared:
    vseed = int(rng.integers(2 ** 31))
    rings = {spec: build_ring(spec, tracer, cached_space=last)
             for spec in VERIFY_RINGS}
    ops = []
    for spec, suites in VERIFY_RINGS.items():
        for suite in suites:
            ops.append(Op(
                "verify.run_suites", "verify",
                partial(nq.run_suites, rings[spec].ring, (suite,),
                        seed=vseed, threads=1),
                # each call is one request, as `verify --suite NAME` runs
                # it: a ring's whole list is one 2-3 s lump that a run
                # samples only twice, too few for a steady median
                _suite_ok, {"ring": ring_tag(spec), "suite": suite},
                repeat=1 if suite in _HEAVY_SUITES else LIGHT_REPEAT))
    ring, suites = CLI_VERIFY

    def cli_ok(proc):
        payload = _cli_json(proc)
        return bool(payload) and all(r["passed"] and r["violations"] == 0
                                     for r in payload)

    for _ in range(CLI_VERIFY_CALLS):
        ops.append(Op(
            "cli.verify", "cli",
            partial(run_cli, ["verify", "--ring", ring, "--suite", suites,
                              "--seed", str(vseed), "--format", "json"]),
            cli_ok, {"ring": ring_tag(ring)}, cli=True, repeat=CLI_REPEAT))
    checks = [c for rs in rings.values() for c in pin_checks(rs)]
    return prepared(rng, ops, checks)


WORKLOADS = {
    "census-chain": census_chain,
    "pair-search": pair_search,
    "decompose-batch": decompose_batch,
    "verify-paper": verify_paper,
}
