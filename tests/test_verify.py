import numpy as np
import pytest

from nilquat.chain_ring import ring_from_string
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(ring_from_string("polyq:3^1^1"), ("nonsense",))


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
    monkeypatch.setattr(QuaternionIso, "packed_matrices_of_all",
                        lambda self: np.zeros(81, dtype=np.int64))
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


def test_iso_scalar_branch_past_the_pair_limit(monkeypatch):
    from nilquat import verify
    monkeypatch.setattr(verify, "_PAIR_LIMIT", 8)
    r = ring_from_string("zmod:3^2")
    # bijection, 2 * 2000 scalar round trips, 2 * 200 products and sums
    assert verify._iso_checks(r, np.random.default_rng(0), 100) == \
        (1 + 4000 + 400, 0)
