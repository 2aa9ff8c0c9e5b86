import os
import subprocess
import sys

import numpy as np
import pytest

import nilquat

from nilquat.chain_ring import ring_from_string
from nilquat.orbits import orbit_union
from nilquat.verify import SUITE_NAMES, run_suites


def test_all_suites_pass_on_gf3():
    results = run_suites(ring_from_string("polyq:3^1^1"), ("all",),
                         samples=5000)
    assert [r.suite for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.passed, (r.suite, r.violations, r.note)


def test_selected_suites_on_z9():
    ring = ring_from_string("zmod:3^2")
    results = run_suites(ring, ("axioms", "lemma33", "lemma34", "thm38"),
                         samples=5000)
    assert all(r.passed for r in results)
    assert results[0].ring == "zmod:3^2"


def test_vacuous_suites_report_notes():
    ring = ring_from_string("zmod:3^2")
    scan, pairs, example = run_suites(
        ring, ("lemma37", "lemma311", "example39"), samples=100)
    assert scan.checks == 0 and "unsatisfiable" in scan.note
    assert pairs.checks == 0 and "field" in pairs.note
    assert example.passed  # applicable here: n = 2 and n - 1 = 1 is a unit
    assert example.checks == 3

    gf3 = ring_from_string("polyq:3^1^1")
    example_field = run_suites(gf3, ("example39",))[0]
    assert example_field.checks == 0
    assert "inapplicable" in example_field.note


def test_example39_checks_where_n_minus_1_is_not_a_unit():
    # p | n - 1 on zmod:3^4: the factors take units d_k summing to 1 in
    # place of (n - 1)^-1, and the suite checks what it checks at n = 2
    example, = run_suites(ring_from_string("zmod:3^4"), ("example39",))
    assert (example.checks, example.violations, example.note) == (3, 0, "")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(ring_from_string("polyq:3^1^1"), ("nonsense",))


@pytest.mark.parametrize("names", ((), []))
def test_empty_suite_list_rejected(names):
    with pytest.raises(ValueError, match="no suites given"):
        run_suites(ring_from_string("polyq:3^1^1"), names)


def test_suite_result_to_dict():
    r = run_suites(ring_from_string("polyq:3^1^1"), ("lemma311",))[0]
    d = r.to_dict()
    assert d["suite"] == "lemma311"
    assert d["passed"] is True
    assert set(d) == {"suite", "ring", "checks", "violations", "passed",
                      "note"}


def test_seeded_runs_are_reproducible():
    ring = ring_from_string("zmod:3^2")
    a = run_suites(ring, ("lemma36",), samples=2000, seed=5)[0]
    b = run_suites(ring, ("lemma36",), samples=2000, seed=5)[0]
    assert (a.checks, a.violations, a.note) == (b.checks, b.violations,
                                                b.note)


def test_iso_bijection_check_counts_a_missed_matrix(monkeypatch):
    from nilquat import verify
    from nilquat.quaternion import QuaternionIso
    r = ring_from_string("zmod:3^1")
    assert verify._iso_checks(r, np.random.default_rng(0), 100)[1] == 0
    image = QuaternionIso.packed_matrices_of_slice

    def one_missed(self, c4):
        # the last slice maps its first quaternion onto its second's image,
        # so exactly one matrix is never hit
        packed = image(self, c4).copy()
        if c4 == self.ring.size - 1:
            packed[0] = packed[1]
        return packed

    monkeypatch.setattr(QuaternionIso, "packed_matrices_of_slice",
                        one_missed)
    assert verify._iso_checks(r, np.random.default_rng(0), 100)[1] == 1


def test_n3_product_chain_suites_pass():
    # thm38, thm312 and cor310 read one cached chain, and thm312 compares
    # every census past 2n - 1 with the rank-1 union count
    results = run_suites(ring_from_string("zmod:3^3"),
                         ("thm38", "thm312", "cor310"))
    assert [r.suite for r in results] == ["thm38", "thm312", "cor310"]
    for r in results:
        assert r.checks > 0 and r.violations == 0, (r.suite, r.note)
    assert results[1].note == "census 24225 = 24225"


def test_iso_round_trips_count_each_broken_sample(monkeypatch):
    from nilquat import verify
    from nilquat.quaternion import QuaternionIso
    r = ring_from_string("zmod:3^2")
    rng = np.random.default_rng
    # bijection, 2 * 100 sampled products and sums, 2 * 2000 round trips
    checks = 1 + 200 + 4000
    assert verify._iso_checks(r, rng(0), 100) == (checks, 0)
    k = 7
    bulk = QuaternionIso.coefficients_bulk

    def shifted(self, entries):
        c1, c2, c3, c4 = (np.array(c) for c in bulk(self, entries))
        c1[::k] = (c1[::k] + 1) % self.ring.size
        return c1, c2, c3, c4

    monkeypatch.setattr(QuaternionIso, "coefficients_bulk", shifted)
    broken = len(range(0, 2000, k))
    # every shifted sample breaks both the quaternion and the matrix trip
    assert verify._iso_checks(r, rng(0), 100) == (checks, 2 * broken)


def test_iso_scalar_branch_past_the_pair_limit():
    from nilquat import verify
    r = ring_from_string("zmod:3^7")
    assert not r._dense
    # 2 * 2000 scalar round trips, 2 * 200 products and sums; no
    # bijection check past 10^6 matrices
    assert verify._iso_checks(r, np.random.default_rng(0), 100) == \
        (4000 + 400, 0)


def test_valuation_scalar_route_past_the_pair_limit(monkeypatch):
    from nilquat import chain_ring, verify
    from nilquat.chain_ring import Ring, parse_ring_spec
    monkeypatch.setattr(chain_ring, "TABLE_SIZE_LIMIT", 8)
    r = Ring(parse_ring_spec("zmod:3^2"))
    assert not r._dense
    # 5000 sampled pairs, two laws each
    assert verify._valuation_checks(r, np.random.default_rng(0)) == \
        (10000, 0)
    # a product that is always 1 breaks v(xy) = min(v(x) + v(y), n)
    # wherever x or y is not a unit
    rng = np.random.default_rng(0)
    pairs = [rng.integers(0, r.size, size=2) for _ in range(5000)]
    want = sum(int(x % r.q == 0 or y % r.q == 0) for x, y in pairs)
    monkeypatch.setattr(Ring, "mul", lambda self, a, b: self.one)
    assert verify._valuation_checks(r, np.random.default_rng(0)) == \
        (10000, want)
    assert want > 0


def test_filtration_sampled_route_past_its_limit(monkeypatch):
    from nilquat import verify
    from nilquat.chain_ring import Ring
    monkeypatch.setattr(verify, "_FILTRATION_LIMIT", 8)
    r = ring_from_string("zmod:3^2")
    # two checks for each ideal J^0, J^1, J^2
    assert verify._filtration_checks(r, np.random.default_rng(0)) == (6, 0)
    # a product that is always 1 leaves J^1 and J^2 but not J^0 = R
    monkeypatch.setattr(Ring, "mul", lambda self, a, b: self.one)
    assert verify._filtration_checks(r, np.random.default_rng(0)) == (6, 2)


# (suite, checks, violations, note) at seed 7 and the default samples,
# pinned before the suites moved onto the shared gather kernel.  The chain
# suites thm38, cor310 and thm312 run on zmod:3^2 only.
_GOLDEN = {
    "zmod:3^2": [
        ("axioms", 207357, 0, "exhaustive laws"),
        ("lemma33", 13852, 0, "exhaustive"),
        ("lemma34", 69, 0, ""),
        ("lemma35", 771, 0, "exhaustive"),
        ("lemma36", 100000, 0, "sampled 100000"),
        ("lemma37", 0, 0, "hypothesis unsatisfiable for n=2"),
        ("lemma311", 0, 0, "requires a field (n = 1)"),
        ("thm38", 7, 0, ""),
        ("cor310", 26, 0, ""),
        ("example39", 3, 0, ""),
        ("thm312", 95, 0, "census 897 = 897"),
    ],
    "polyq:5^2^1": [
        ("axioms", 269707, 0, "exhaustive laws"),
        ("lemma33", 176265, 0, "sampled 88059"),
        ("lemma34", 1225, 0, ""),
        ("lemma35", 2424, 0, "sampled 2000 triples"),
        ("lemma36", 100000, 0, "sampled 100000"),
        ("lemma37", 0, 0, "hypothesis unsatisfiable for n=1"),
        ("lemma311", 390625, 0, "exhaustive pairs"),
        ("example39", 0, 0, "inapplicable: needs n >= 2"),
    ],
    "polyq:3^1^3": [
        ("axioms", 286469, 0, "exhaustive laws"),
        ("lemma33", 183835, 0, "sampled 91072"),
        ("lemma34", 555, 0, ""),
        ("lemma35", 2342, 0, "sampled 2000 triples"),
        ("lemma36", 100000, 0, "sampled 100000"),
        ("lemma37", 100000, 0, "matched hypothesis 467 times"),
        ("lemma311", 0, 0, "requires a field (n = 1)"),
        ("example39", 3, 0, ""),
    ],
}


@pytest.mark.parametrize("spec", sorted(_GOLDEN))
def test_suite_reports_match_the_golden_values(spec):
    want = _GOLDEN[spec]
    results = run_suites(ring_from_string(spec), [w[0] for w in want],
                         seed=7)
    assert [(r.suite, r.checks, r.violations, r.note)
            for r in results] == want


# the same at n = 3, and on zmod:3^5, whose Q^2 = 59049 > 2^15 puts the
# kernel in int32; pinned before axioms and lemma33 kept their arrays
# narrow end to end
_GOLDEN_NARROW = {
    "zmod:3^3": [
        ("axioms", 286469, 0, "exhaustive laws"),
        ("lemma33", 183835, 0, "sampled 91072"),
        ("lemma36", 100000, 0, "sampled 100000"),
        ("lemma37", 100000, 0, "matched hypothesis 467 times"),
        ("lemma311", 0, 0, "requires a field (n = 1)"),
    ],
    "zmod:3^5": [
        ("axioms", 421161, 0, "sampled 10000 triples"),
    ],
}


@pytest.mark.parametrize("spec", sorted(_GOLDEN_NARROW))
def test_narrow_suite_reports_match_the_golden_values(spec):
    want = _GOLDEN_NARROW[spec]
    results = run_suites(ring_from_string(spec), [w[0] for w in want],
                         seed=7)
    assert [(r.suite, r.checks, r.violations, r.note)
            for r in results] == want


_BLOCKED_SUITES = ("axioms", "lemma33", "lemma36", "lemma37", "lemma311")


@pytest.mark.parametrize("spec", ["polyq:3^1^3", "polyq:5^2^1", "zmod:3^3"])
def test_blocked_suites_match_the_golden_values_at_small_blocks(monkeypatch,
                                                                spec):
    # blocks of 1000 samples and of 1000 pairs put many block seams inside
    # every sampled suite; the reports stay the golden ones
    from nilquat import mat2, nilfactor
    monkeypatch.setattr(mat2, "_BLOCK", 1000)
    monkeypatch.setattr(nilfactor, "_BULK_BLOCK", 1000)
    want = [w for w in _GOLDEN.get(spec, []) + _GOLDEN_NARROW.get(spec, [])
            if w[0] in _BLOCKED_SUITES]
    assert sorted(w[0] for w in want) == sorted(_BLOCKED_SUITES)
    results = run_suites(ring_from_string(spec), [w[0] for w in want],
                         seed=7)
    assert [(r.suite, r.checks, r.violations, r.note)
            for r in results] == want


@pytest.mark.parametrize("spec, samples, note", [
    ("polyq:3^1^1", 0, "exhaustive"), ("zmod:3^2", 3000, "sampled 3000")])
def test_lemma36_counts_each_product_outside_a_broken_union(
        monkeypatch, spec, samples, note):
    # with every fifth member dropped from the union, each pair whose
    # product lands outside it is one violation, across block seams
    from nilquat import mat2, verify
    from nilquat.mat2 import matrix_space
    ring = ring_from_string(spec)
    space = matrix_space(ring)
    broken = orbit_union(space).copy()
    broken[np.flatnonzero(broken)[::5]] = False
    monkeypatch.setattr(verify, "orbit_union", lambda space: broken)
    monkeypatch.setattr(mat2, "_BLOCK", 1000)
    members = np.flatnonzero(broken)
    if note == "exhaustive":
        pairs = [(a, b) for a in members for b in range(space.count)]
    else:
        rng = np.random.default_rng(7)
        a = members[rng.integers(0, len(members), size=samples)]
        pairs = list(zip(a, rng.integers(0, space.count, size=samples)))
    assert len(pairs) > 2000
    want = sum(not broken[(space.matrix_from_packed(int(a))
                           * space.matrix_from_packed(int(b))).packed]
               for a, b in pairs)
    r = verify._lemma36(ring, space, samples, 7)
    assert (r.checks, r.violations, r.note) == (len(pairs), want, note)
    assert want > 0


@pytest.mark.parametrize("change", ["drop", "add"])
def test_cor310_counts_a_broken_union_once(monkeypatch, change):
    # S_(2n-1) against a union with one member dropped or one non-member
    # added: the set check is one violation; the sampled decompositions
    # add one more for each draw of the added non-member
    from nilquat import verify
    from nilquat.mat2 import matrix_space
    ring = ring_from_string("zmod:3^2")
    space = matrix_space(ring)
    union = orbit_union(space)
    assert verify._cor310(ring, space, 0, 7).violations == 0
    broken = union.copy()
    side = np.flatnonzero(union if change == "drop" else ~union)
    broken[side[len(side) // 2]] = change == "add"
    monkeypatch.setattr(verify, "orbit_union", lambda space: broken)
    members = np.flatnonzero(broken)
    drawn = members[np.random.default_rng(7).integers(0, len(members),
                                                      size=25)]
    sampled = sum(not union[k] for k in drawn)
    r = verify._cor310(ring, space, 0, 7)
    assert (r.checks, r.violations) == (26, 1 + sampled)


@pytest.mark.parametrize("spec", ["zmod:3^2", "zmod:3^3"])
def test_thm38_counts_a_union_missing_one_class_once_per_s(monkeypatch,
                                                          spec):
    # every member of one class of S_(2n-1) dropped from the union: its
    # witness is outside, once for each of the four s, and the stable
    # classes still agree
    from nilquat import verify
    from nilquat.mat2 import matrix_space
    from nilquat.nilfactor import _chain_step
    ring = ring_from_string(spec)
    space = matrix_space(ring)
    good = verify._thm38(ring, space, 0, 7)
    assert (good.checks, good.violations) == (7, 0)
    codes = space.class_code_table
    step = _chain_step(space, 2 * ring.n - 1)
    code = codes[step.factors[len(step.factors) // 2]]
    broken = orbit_union(space) & (codes != code)
    monkeypatch.setattr(verify, "orbit_union", lambda space: broken)
    r = verify._thm38(ring, space, 0, 7)
    assert (r.checks, r.violations) == (7, 4)


@pytest.mark.parametrize("spec", ["zmod:3^2", "zmod:3^3"])
def test_thm38_counts_each_step_past_the_stable_point_that_moves(
        monkeypatch, spec):
    # a chain whose steps past s0 gain one class: each of the three
    # comparisons with S_s0's classes fails, and every witness still lies
    # in the union
    import dataclasses

    from nilquat import verify
    from nilquat.mat2 import matrix_space
    from nilquat.nilfactor import stable_product_count
    ring = ring_from_string(spec)
    space = matrix_space(ring)
    s0 = stable_product_count(ring.n)
    real = verify._chain_step

    def drifting(space, s):
        step = real(space, s)
        if s <= s0:
            return step
        classes = step.classes.copy()
        classes[np.flatnonzero(~classes)[0]] = True
        return dataclasses.replace(step, classes=classes)

    monkeypatch.setattr(verify, "_chain_step", drifting)
    r = verify._thm38(ring, space, 0, 7)
    assert (r.checks, r.violations) == (7, 3)


@pytest.mark.parametrize("spec", ["zmod:3^3", "polyq:7^2^1"])
def test_chain_suites_fill_no_packed_product_set(monkeypatch, spec):
    # the chain suites read class records and witnesses; only
    # product_set fills a step's packed S_s; a new space, so no other
    # test's product_set has filled one
    from nilquat import verify
    from nilquat.mat2 import MatrixSpace
    ring = ring_from_string(spec)
    space = MatrixSpace(ring)
    monkeypatch.setattr(verify, "matrix_space", lambda ring, cap: space)
    results = run_suites(ring, ("thm38", "thm312", "cor310"))
    assert all(r.passed and r.checks for r in results)
    chain = space._product_chain
    # S_0 .. S_(2n-1) at least
    assert len(chain) >= 2 * ring.n
    assert [s for s, step in enumerate(chain) if step.packed is not None] \
        == []


def test_thm38_peak_stays_below_a_mebibyte():
    # with the chain and the union built, thm38 reads one witness per
    # class: a few KiB, where filling the packed S_s for four s through a
    # Q^4 bool took 6.87 MiB on this ring
    import tracemalloc

    from nilquat import verify
    from nilquat.mat2 import MatrixSpace
    from nilquat.nilfactor import _chain_step
    ring = ring_from_string("polyq:7^2^1")
    space = MatrixSpace(ring)
    _chain_step(space, 2 * ring.n + 2)
    orbit_union(space)
    tracemalloc.start()
    try:
        r = verify._thm38(ring, space, 0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.passed and r.checks == 5
    assert peak < 1 << 20


@pytest.mark.parametrize("spec", ["zmod:3^2", "polyq:3^1^3"])
def test_lemma33_classification_counts_each_broken_sample(monkeypatch, spec):
    import dataclasses

    from nilquat import verify
    from nilquat.mat2 import matrix_space
    ring = ring_from_string(spec)
    space = matrix_space(ring)
    good = verify._lemma33(ring, space, 100_000, 7)
    assert good.violations == 0
    k = 7
    bulk = verify.classify_nilpotent_bulk
    sizes = []

    def shifted(ring, entries):
        cls = bulk(ring, entries)
        u = cls.u.copy()
        u[::k] = (u[::k] + 1) % ring.size
        sizes.append(len(u))
        return dataclasses.replace(cls, u=u)

    monkeypatch.setattr(verify, "classify_nilpotent_bulk", shifted)
    broken = verify._lemma33(ring, space, 100_000, 7)
    assert len(sizes) == 1 and sizes[0] > 500
    # a zero-ish sample's u of None (-1) becomes 0, which breaks it too
    assert (broken.checks, broken.violations) == \
        (good.checks, len(range(0, sizes[0], k)))


def test_lemma311_counts_each_nonzero_trace_zero_product(monkeypatch):
    from nilquat import verify
    from nilquat.mat2 import matrix_space
    ring = ring_from_string("polyq:5^2^1")
    space = matrix_space(ring)
    Q = space.Q
    # the zero matrix, E12, 2 E12 and E21 + E22 (trace 1): only the two
    # nonzero trace-zero products are violations
    block = np.array([[0, Q, 2 * Q, Q ** 2 + Q ** 3]], dtype=space.index_type)
    monkeypatch.setattr(verify, "pair_products",
                        lambda space, left, right: iter([(0, block)]))
    r = verify._lemma311(ring, space, 0, 7)
    assert (r.checks, r.violations) == (625 ** 2, 2)


def test_lemma33_with_no_draws_classifies_nothing():
    ring = ring_from_string("polyq:5^2^1")
    for samples, checks in ((0, 0), (1, 2)):
        r = run_suites(ring, ("lemma33",), samples=samples, seed=7)[0]
        assert (r.checks, r.violations, r.note) == \
            (checks, 0, f"sampled {samples}")


def _run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this nilquat, and
    return its stdout; the child must exit 0."""
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exhaustive_suites_import_no_numpy_random():
    # the seeded generator is built at the first draw; the exhaustive
    # routes draw nothing, so they skip numpy.random's 10 ms import
    out = _run_child(
        "import sys\n"
        "from nilquat.chain_ring import ring_from_string\n"
        "from nilquat.verify import run_suites\n"
        "res = run_suites(ring_from_string('zmod:3^2'),\n"
        "                 ('lemma33', 'lemma34', 'lemma35'), seed=7)\n"
        "assert all(r.passed and r.checks for r in res)\n"
        "assert [r.note for r in res] == ['exhaustive', '', 'exhaustive']\n"
        "print('numpy.random' in sys.modules)\n")
    assert out.split() == ["False"]


def _suite_peak_rise_mb(spec, suites, setup):
    """The rise of VmHWM, the process's own peak RSS, in MB while
    ``suites`` run in a fresh process, after the space and what ``setup``
    (an expression over ``ring`` and ``space``) reads are built.  A
    child's ru_maxrss starts at its launcher's peak, which under pytest
    hides any rise below it."""
    code = (
        "from nilquat.chain_ring import ring_from_string\n"
        "from nilquat.mat2 import matrix_space\n"
        "from nilquat.orbits import orbit_union\n"
        "from nilquat.verify import run_suites\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        f"ring = ring_from_string({spec!r})\n"
        "space = matrix_space(ring)\n"
        f"{setup}\n"
        "before = peak_kib()\n"
        f"res = run_suites(ring, {tuple(suites)!r}, seed=7)\n"
        "after = peak_kib()\n"
        "assert all(r.passed and r.checks for r in res)\n"
        "print((after - before) / 1024)\n")
    return float(_run_child(code))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_axioms_and_lemma33_memory_rise_stays_narrow():
    # in a fresh process, after the space, its nilpotents and the kernel
    # tables exist, the two suites raise the peak RSS by 8 MB in blocks of
    # narrow arrays and by 13 MB on whole-sample ones; widening every
    # intermediate to int64 took 35 MB
    rise = _suite_peak_rise_mb("polyq:3^1^3", ("axioms", "lemma33"),
                               "space.nilpotent_indices, ring.pair_tables")
    assert 0 < rise < 25


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("spec, suites, bound", [
    ("polyq:3^1^3", ("lemma36", "lemma37"), 13),
    ("polyq:5^2^1", ("lemma311",), 7)])
def test_blocked_suites_memory_rise_stays_bounded(spec, suites, bound):
    # with the union built, these suites raised the peak RSS by 18 MB and
    # 11 MB while they held every draw, or every pair, as int64 at once;
    # in fixed blocks about 8 and 4 MB
    rise = _suite_peak_rise_mb(spec, suites, "space.nilpotent_indices, "
                               "ring.pair_tables, orbit_union(space)")
    assert 0 < rise < bound


def test_negative_samples_are_rejected_before_any_suite(monkeypatch):
    from nilquat import verify

    def refuse(*args):
        raise AssertionError("no suite may run")

    monkeypatch.setitem(verify._RUNNERS, "lemma34", refuse)
    ring = ring_from_string("polyq:5^2^1")
    for suite in ("lemma34", "lemma36"):
        with pytest.raises(ValueError, match="samples must be >= 0"):
            run_suites(ring, (suite,), samples=-1)
    assert run_suites(ring, ("lemma36",), samples=0)[0].checks == 0


def test_negative_samples_exit_1_from_the_cli(capsys):
    from nilquat.cli import main
    for suite in ("lemma34", "lemma36"):
        code = main(["verify", "--ring", "polyq:5^2^1", "--suite", suite,
                     "--samples", "-1"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert "samples" in out.err


def test_sampled_suites_cap_their_draws():
    # a (samples, k) draw at 10^12 would ask for terabytes; every sampled
    # suite stops at 100,000 draws and reports as it does at the cap
    ring = ring_from_string("zmod:3^3")
    suites = ("axioms", "lemma33", "lemma36", "lemma37")
    huge = run_suites(ring, suites, samples=10 ** 12, seed=7)
    capped = run_suites(ring, suites, samples=100_000, seed=7)
    assert [(r.suite, r.checks, r.violations, r.note) for r in huge] == \
        [(r.suite, r.checks, r.violations, r.note) for r in capped]
    assert (huge[3].checks, huge[3].violations) == (100_000, 0)


def test_lemma37_caps_huge_samples_from_the_cli(capsys):
    from nilquat.cli import main
    code = main(["verify", "--ring", "zmod:3^3", "--suite", "lemma37",
                 "--samples", str(10 ** 12)])
    out = capsys.readouterr().out
    assert code == 0
    assert "lemma37 checks=100000 violations=0" in out


def test_lemma35_scalar_route_past_the_table_limit():
    ring = ring_from_string("zmod:3^7")
    assert not ring._dense
    r = run_suites(ring, ("lemma35",), seed=7)[0]
    assert (r.checks, r.violations, r.note) == (2500, 0,
                                                "sampled 2000 triples")


@pytest.mark.parametrize("spec", ["zmod:3^2", "polyq:5^2^1"])
def test_lemma35_routes_draw_and_count_alike(monkeypatch, spec):
    from nilquat import chain_ring
    from nilquat.chain_ring import Ring, parse_ring_spec
    bulk = run_suites(ring_from_string(spec), ("lemma35",), seed=3)[0]
    monkeypatch.setattr(chain_ring, "TABLE_SIZE_LIMIT", 8)
    ring = Ring(parse_ring_spec(spec))
    assert not ring._dense
    scalar = run_suites(ring, ("lemma35",), seed=3)[0]
    assert (bulk.checks, bulk.violations, bulk.note) == \
        (scalar.checks, scalar.violations, scalar.note)


def test_lemma35_bulk_counts_each_failed_conjugation(monkeypatch):
    from nilquat.chain_ring import PairTables
    ring = ring_from_string("zmod:3^2")
    # conjugation that leaves A as it is: a shear t moves ((a, b), (0, 0))
    # exactly when a t != 0, and the unit-pair matrix always moves
    monkeypatch.setattr(PairTables, "conjugate",
                        lambda t, A, P: (A, t.inverse(P)[1]))
    r = run_suites(ring, ("lemma35",))[0]
    i = np.arange(ring.size)
    moved = int((ring.mul_table[i[:, None], i[None, :]] != 0).sum())
    units = int((i % ring.q != 0).sum())
    assert r.violations == moved * ring.size + units ** 2


def _lemma35_inputs(monkeypatch, ring, seed):
    """The (triples, pairs, alphas) that lemma35 checks on ``ring``."""
    from nilquat import verify
    seen = []

    def record(ring, triples, pairs, alphas):
        seen.append((triples, pairs, alphas))
        return 0

    monkeypatch.setattr(verify, "_lemma35_bulk", record)
    monkeypatch.setattr(verify, "_lemma35_scalar", record)
    run_suites(ring, ("lemma35",), seed=seed)
    return seen[0]


@pytest.mark.parametrize("spec", sorted({*_GOLDEN, *_GOLDEN_NARROW}))
def test_lemma35_inputs_equal_the_listed_units_route(monkeypatch, spec):
    # the units are read in closed form; listing R and filtering it, as
    # the suite once did, gives the same inputs at every seed
    ring = ring_from_string(spec)
    S = ring.size
    for seed in (7, 11):
        rng = np.random.default_rng(seed)
        els = np.arange(S, dtype=np.int64)
        if S ** 3 <= 729:
            triples = [x.ravel() for x in np.meshgrid(els, els, els,
                                                      indexing="ij")]
        else:
            triples = list(rng.integers(0, S, size=(2000, 3)).T)
        units = els[els % ring.q != 0]
        if len(units) ** 2 <= 400:
            pairs = [x.ravel() for x in np.meshgrid(units, units,
                                                    indexing="ij")]
        else:
            pairs = list(units[rng.integers(0, len(units),
                                            size=(400, 2))].T)
        have, want = _lemma35_inputs(monkeypatch, ring, seed), (
            triples, pairs, units[:100])
        for x, y in zip((*have[0], *have[1], have[2]),
                        (*want[0], *want[1], want[2])):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert [len(t) for t in have[:2]] == [3, 2]


def test_draw_is_the_generator_draw_below_int64_and_in_range_past_it():
    from nilquat.verify import _draw
    for c, q, m in ((1, 3, 2), (2, 3, 39), (1, 3, 39), (1, 2, 63),
                    (1, 2 ** 63, 1), (6, 7, 21)):
        got = _draw(np.random.default_rng(5), (40, 3), q, m, c)
        want = np.random.default_rng(5).integers(0, c * q ** m,
                                                 size=(40, 3))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for c, q, m in ((1, 3, 40), (6, 7, 22), (1, 2, 64), (3 ** 40 - 1,
                                                         3 ** 40, 1)):
        high = c * q ** m
        got = _draw(np.random.default_rng(5), (500, 2), q, m, c)
        assert got.shape == (500, 2) and got.dtype == object
        values = [int(v) for v in got.ravel()]
        assert all(0 <= v < high for v in values)
        # the top half of the range is reached too
        assert max(values) >= high // 2
        assert np.array_equal(got, _draw(np.random.default_rng(5), (500, 2),
                                         q, m, c))


def test_scalar_suites_run_past_int64_elements():
    # 3^40 > 2^63: the draws compose Python ints, and the units are read
    # in closed form, so neither overflows int64
    out = _run_child(
        "from nilquat.cli import main\n"
        "raise SystemExit(main(['verify', '--ring', 'zmod:3^40',\n"
        "                       '--suite', 'axioms,lemma35']))\n")
    assert out.splitlines()[-1] == "ok: 2 suites"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_axioms_past_the_filtration_limit_lists_no_large_ideal():
    # zmod:3^12 has 531,441 elements: listing R as RingElem objects, as
    # J^0 once was, raised the peak RSS by about 200 MB
    assert _suite_peak_rise_mb("zmod:3^12", ("axioms",), "None") < 40
