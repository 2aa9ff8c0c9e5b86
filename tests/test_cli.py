import json
import os
import subprocess
import sys

import pytest

import nilquat
from nilquat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env():
    """The environment of a child process that finds the package where
    this process imported it from."""
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_count"] == 897
    assert payload["formula_count"] == 897
    assert payload["match"] is True
    assert "elapsed_ms" in payload


def test_census_stable_output_drops_timing(capsys):
    code, out, _ = run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "3",
                           "--stable-output")
    assert code == 0
    assert "elapsed_ms" not in json.loads(out)


def test_census_determinism_across_threads(tmp_path):
    paths = []
    for threads in ("1", "4"):
        p = tmp_path / f"census-{threads}.json"
        code = main(["census", "--ring", "zmod:3^2", "--s", "3",
                     "--stable-output", "--threads", threads,
                     "--out", str(p)])
        assert code == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_census_csv_and_text(capsys):
    code, out, _ = run_cli(capsys, "census", "--ring", "polyq:3^1^1", "--s",
                           "2", "--format", "csv", "--stable-output")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring,q,n,s,brute_count,formula_count,match,method"
    assert lines[1] == "polyq:3^1^1,3,1,2,25,25,true,set-product"
    code, out, _ = run_cli(capsys, "census", "--ring", "polyq:3^1^1", "--s",
                           "2", "--format", "text", "--stable-output")
    assert code == 0
    assert "brute_count=25" in out


def test_census_methods(capsys):
    code, out, _ = run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "3",
                           "--method", "orbit-union")
    assert code == 0
    assert json.loads(out)["brute_count"] == 897
    code, out, _ = run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "3",
                           "--method", "formula")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula_count"] == 897
    assert payload["brute_count"] is None


def test_even_order_ring_rejected(capsys):
    code, _, err = run_cli(capsys, "census", "--ring", "zmod:2^1", "--s", "1")
    assert code == 1
    assert "odd order required" in err


def test_invalid_inputs_exit_1(capsys):
    assert run_cli(capsys, "census", "--ring", "zmod:4^2", "--s", "3")[0] == 1
    assert run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "0")[0] == 1
    assert run_cli(capsys, "decompose", "--ring", "zmod:3^2", "--matrix",
                   "[[1,2],[3]]", "--s", "2")[0] == 1
    assert run_cli(capsys, "census", "--ring", "zmod:3^2", "--s", "3",
                   "--threads", "0")[0] == 1
    # argparse's own usage errors exit 1 too, not its default 2 (the cap)
    for argv in (("--bogus",),
                 ("census", "--ring", "zmod:3^2"),
                 ("census", "--ring", "zmod:3^2", "--s", "x"),
                 ("census", "--ring", "zmod:3^2", "--s", "3",
                  "--format", "xml")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: nilquat")


def test_s_past_the_limit_exits_1_before_the_ring_is_built(capsys,
                                                           monkeypatch):
    # decompose holds s factors and table a row per s, so a huge s is
    # refused up front rather than allocated
    from nilquat import cli

    def no_ring(text):
        raise AssertionError("ring built")

    big = 10 ** 12
    for argv in (("decompose", "--ring", "zmod:3^2", "--matrix",
                  "[[1,1],[0,0]]", "--s", str(big)),
                 ("table", "--rings", "zmod:3^2", "--s", str(big)),
                 ("table", "--rings", "zmod:3^2", "--s", f"1..{big}"),
                 ("table", "--rings", "zmod:3^2", f"--s=-{big}..1")):
        with monkeypatch.context() as m:
            m.setattr(cli, "ring_from_string", no_ring)
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: s "), err
    limit = cli._S_LIMIT
    code, out, _ = run_cli(capsys, "table", "--rings", "polyq:3^1^1", "--s",
                           f"{limit - 1}..{limit}")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^2",
                           "--matrix", "[[1,1],[0,0]]", "--s", str(limit))
    assert code == 0 and len(json.loads(out)["factors"]) == limit


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "census", "--help")
    assert code == 0
    assert out.startswith("usage: nilquat census")
    assert err == ""


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run_cli(capsys, "census", "--ring", "zmod:3^4", "--s", "7")
    assert code == 2
    assert "cap" in err


def test_decompose_success(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^2",
                           "--matrix", "[[0,0],[1,0]]", "--s", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert len(payload["factors"]) == 3
    assert payload["target"] == "[[(0,0),(0,0)],[(1,0),(0,0)]]"


def test_decompose_text_format(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "polyq:3^1^1",
                           "--matrix", "[[1,1],[0,0]]", "--s", "2",
                           "--format", "text")
    assert code == 0
    assert "verified: true" in out


def test_decompose_trace_obstruction_exit_3(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "polyq:3^1^1",
                           "--matrix", "[[0,1],[0,0]]", "--s", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["kind"] == "trace-obstruction"
    assert "trace obstruction" in payload["error"]


def test_decompose_not_in_union_exit_4(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^2",
                           "--matrix", "[[3,3],[0,3]]", "--s", "3")
    assert code == 4
    payload = json.loads(out)
    assert payload["kind"] == "not-in-orbit-union"
    assert "not in orbit union" in payload["error"]


def test_decompose_not_nilpotent_exit_5(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^2",
                           "--matrix", "[[1,0],[0,1]]", "--s", "1")
    assert code == 5
    assert json.loads(out)["kind"] == "not-nilpotent"


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "polyq:3^1^1",
                           "--suite", "lemma311,lemma35")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS lemma311")
    assert lines[1].startswith("PASS lemma35")
    assert lines[-1] == "ok: 2 suites"


def test_verify_census_note_shows_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "zmod:3^2",
                           "--suite", "thm312")
    assert code == 0
    assert "897 = 897" in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ring", "zmod:3^2", "--suite",
                           "lemma34,thm38", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["suite"] for r in payload] == ["lemma34", "thm38"]
    assert all(r["passed"] for r in payload)


@pytest.mark.parametrize("ring, axioms, lemma33, sampled", [
    ("polyq:5^2^1", 269707, 176607, 88228),
    ("polyq:3^1^3", 286469, 184065, 91180)])
def test_verify_axioms_lemma33_stdout_pinned(capsys, ring, axioms, lemma33,
                                             sampled):
    code, out, _ = run_cli(capsys, "verify", "--ring", ring, "--suite",
                           "axioms,lemma33")
    assert code == 0
    assert out == (f"PASS axioms checks={axioms} violations=0 "
                   "(exhaustive laws)\n"
                   f"PASS lemma33 checks={lemma33} violations=0 "
                   f"(sampled {sampled})\n"
                   "ok: 2 suites\n")


def test_verify_unknown_suite_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--ring", "zmod:3^2", "--suite",
                           "bogus")
    assert code == 1
    assert "unknown suite" in err


@pytest.mark.parametrize("suites", (",", ""))
def test_verify_empty_suite_list_exit_1(capsys, suites):
    # a run that checks nothing must not report success
    code, out, err = run_cli(capsys, "verify", "--ring", "zmod:3^2", "--suite",
                             suites)
    assert (code, out, err) == (1, "", "error: no suites given\n")


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--rings",
                           "polyq:3^1^1,zmod:3^2", "--s", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring,q,n,s,brute_count,formula_count,match,method,error"
    assert lines[1] == "polyq:3^1^1,3,1,3,33,33,true,set-product,"
    assert lines[2] == "zmod:3^2,3,2,3,897,897,true,set-product,"


def test_table_s_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--rings", "polyq:3^1^1", "--s",
                           "1..4")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 4
    assert rows[0].split(",")[4] == "9"
    assert rows[3].split(",")[4] == "33"


def test_table_records_row_errors_and_continues(capsys):
    code, out, _ = run_cli(capsys, "table", "--rings",
                           "zmod:4^1,polyq:3^1^1", "--s", "3")
    assert code == 6
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[-1] != ""
    assert rows[1].endswith("33,33,true,set-product,")


def test_table_formula_only_below_floor(capsys):
    code, out, _ = run_cli(capsys, "table", "--rings", "zmod:3^2", "--s", "2",
                           "--method", "formula")
    assert code == 0
    row = out.splitlines()[1]
    assert row == "zmod:3^2,3,2,2,,,,formula-only,"


def test_module_entry_point_subprocess():
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "nilquat", "census", "--ring", "polyq:3^1^1",
         "--s", "3", "--stable-output"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["brute_count"] == 33

    proc = subprocess.run(
        [sys.executable, "-m", "nilquat", "decompose", "--ring", "zmod:3^2",
         "--matrix", "[[3,3],[0,3]]", "--s", "3"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 4


def test_verify_axioms_stdout_same_under_optimize():
    env = _child_env()
    argv = ["-m", "nilquat", "verify", "--ring", "zmod:3^2", "--suite",
            "axioms"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       text=True, timeout=120, env=env)
        for flags in ((), ("-O",)))
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout == (
        "PASS axioms checks=207357 violations=0 (exhaustive laws)\n"
        "ok: 1 suites\n")


def test_decompose_determinant_obstruction_exit_3(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:5^2",
                           "--matrix", "[[1,2],[0,1]]", "--s", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["kind"] == "trace-obstruction"
    assert "determinant obstruction" in payload["error"]
    assert "(1,0)" in payload["error"]


# Golden stdout of census, table and verify on two small rings, pinned byte
# for byte: a change to any of it must be deliberate and recorded.
GOLDEN_TABLE = {
    "set-product": (0, """\
ring,q,n,s,brute_count,formula_count,match,method,error
polyq:3^1^1,3,1,1,9,9,true,set-product,
polyq:3^1^1,3,1,2,25,25,true,set-product,
polyq:3^1^1,3,1,3,33,33,true,set-product,
polyq:3^1^1,3,1,4,33,33,true,set-product,
polyq:3^1^1,3,1,5,33,33,true,set-product,
zmod:3^2,3,2,1,729,,,set-product,
zmod:3^2,3,2,2,711,,,set-product,
zmod:3^2,3,2,3,897,897,true,set-product,
zmod:3^2,3,2,4,897,897,true,set-product,
zmod:3^2,3,2,5,897,897,true,set-product,
"""),
    "orbit-union": (6, """\
ring,q,n,s,brute_count,formula_count,match,method,error
polyq:3^1^1,3,1,1,,,,orbit-union,orbit-union census needs s >= 3 for this ring
polyq:3^1^1,3,1,2,,,,orbit-union,orbit-union census needs s >= 3 for this ring
polyq:3^1^1,3,1,3,33,33,true,orbit-union,
polyq:3^1^1,3,1,4,33,33,true,orbit-union,
polyq:3^1^1,3,1,5,33,33,true,orbit-union,
zmod:3^2,3,2,1,,,,orbit-union,orbit-union census needs s >= 3 for this ring
zmod:3^2,3,2,2,,,,orbit-union,orbit-union census needs s >= 3 for this ring
zmod:3^2,3,2,3,897,897,true,orbit-union,
zmod:3^2,3,2,4,897,897,true,orbit-union,
zmod:3^2,3,2,5,897,897,true,orbit-union,
"""),
    "formula": (0, """\
ring,q,n,s,brute_count,formula_count,match,method,error
polyq:3^1^1,3,1,1,,9,,formula-only,
polyq:3^1^1,3,1,2,,25,,formula-only,
polyq:3^1^1,3,1,3,,33,,formula-only,
polyq:3^1^1,3,1,4,,33,,formula-only,
polyq:3^1^1,3,1,5,,33,,formula-only,
zmod:3^2,3,2,1,,,,formula-only,
zmod:3^2,3,2,2,,,,formula-only,
zmod:3^2,3,2,3,,897,,formula-only,
zmod:3^2,3,2,4,,897,,formula-only,
zmod:3^2,3,2,5,,897,,formula-only,
"""),
}

GOLDEN_CENSUS = """\
{{
  "ring": "{}",
  "q": {},
  "n": {},
  "s": {},
  "brute_count": {},
  "formula_count": {},
  "match": {},
  "method": "{}"
}}
"""

GOLDEN_VERIFY = {
    "polyq:3^1^1": """\
PASS axioms checks=13453 violations=0 (exhaustive laws)
PASS lemma33 checks=172 violations=0 (exhaustive)
PASS lemma34 checks=15 violations=0
PASS lemma35 checks=33 violations=0 (exhaustive)
PASS lemma36 checks=2673 violations=0 (exhaustive)
PASS lemma37 checks=0 violations=0 (hypothesis unsatisfiable for n=1)
PASS lemma311 checks=81 violations=0 (exhaustive pairs)
PASS thm38 checks=5 violations=0
PASS cor310 checks=26 violations=0
PASS example39 checks=0 violations=0 (inapplicable: needs n >= 2)
PASS thm312 checks=95 violations=0 (census 33 = 33)
ok: 11 suites
""",
    "zmod:3^2": """\
PASS axioms checks=207357 violations=0 (exhaustive laws)
PASS lemma33 checks=13852 violations=0 (exhaustive)
PASS lemma34 checks=69 violations=0
PASS lemma35 checks=771 violations=0 (exhaustive)
PASS lemma36 checks=100000 violations=0 (sampled 100000)
PASS lemma37 checks=0 violations=0 (hypothesis unsatisfiable for n=2)
PASS lemma311 checks=0 violations=0 (requires a field (n = 1))
PASS thm38 checks=7 violations=0
PASS cor310 checks=26 violations=0
PASS example39 checks=3 violations=0
PASS thm312 checks=95 violations=0 (census 897 = 897)
ok: 11 suites
""",
}

# the README's decompose example
GOLDEN_DECOMPOSE = """\
{
  "target": "[[(1),(1)],[(0),(0)]]",
  "factors": [
    "[[(0),(1)],[(0),(0)]]",
    "[[(2),(2)],[(1),(1)]]"
  ],
  "conjugator": "[[(1),(0)],[(0),(1)]]",
  "verified": true
}
"""


# a two-factor lookup hit off the orbit union; its conjugator is
# P_M P_A^-1 from the companion forms of the table's product M and of A
GOLDEN_DECOMPOSE_LOOKUP = """\
{
  "target": "[[(0,1),(0,2)],[(0,0),(0,3)]]",
  "factors": [
    "[[(4,4),(1,4)],[(4,4),(1,0)]]",
    "[[(4,4),(1,2)],[(4,4),(1,0)]]"
  ],
  "conjugator": "[[(4,4),(1,0)],[(0,0),(1,0)]]",
  "verified": true
}
"""


# decompose on every branch: (ring, matrix, s) -> stdout.  The s = 2
# lookups have A's companion conjugator [v | B v] in each of its shapes, v
# = e1, e2 and e1 + e2 (the e2 target is GOLDEN_DECOMPOSE_LOOKUP's); then
# an s = 1 answer and an s = 5 orbit-union answer
GOLDEN_DECOMPOSE_BRANCHES = {
    ("zmod:5^2", "[[5,0],[5,10]]", "2"): """\
{
  "target": "[[(0,1),(0,0)],[(0,1),(0,2)]]",
  "factors": [
    "[[(0,1),(0,1)],[(1,4),(0,4)]]",
    "[[(0,2),(0,2)],[(1,3),(0,3)]]"
  ],
  "conjugator": "[[(1,0),(0,0)],[(1,0),(1,0)]]",
  "verified": true
}
""",
    ("zmod:5^2", "[[5,10],[0,15]]", "2"): GOLDEN_DECOMPOSE_LOOKUP,
    ("zmod:5^2", "[[5,0],[0,10]]", "2"): """\
{
  "target": "[[(0,1),(0,0)],[(0,0),(0,2)]]",
  "factors": [
    "[[(0,0),(0,1)],[(1,0),(0,0)]]",
    "[[(0,0),(0,2)],[(1,0),(0,0)]]"
  ],
  "conjugator": "[[(1,0),(0,0)],[(0,0),(1,0)]]",
  "verified": true
}
""",
    ("zmod:3^2", "[[3,1],[0,6]]", "1"): """\
{
  "target": "[[(0,1),(1,0)],[(0,0),(0,2)]]",
  "factors": [
    "[[(0,1),(1,0)],[(0,0),(0,2)]]"
  ],
  "conjugator": "[[(1,0),(0,0)],[(0,0),(1,0)]]",
  "verified": true
}
""",
    ("polyq:3^2^1", "[[(4),(5)],[(6),(1)]]", "5"): """\
{
  "target": "[[(4),(5)],[(6),(1)]]",
  "factors": [
    "[[(3),(4)],[(5),(6)]]",
    "[[(0),(0)],[(5),(0)]]",
    "[[(3),(4)],[(5),(6)]]",
    "[[(0),(0)],[(3),(0)]]",
    "[[(6),(1)],[(1),(3)]]"
  ],
  "conjugator": "[[(5),(0)],[(8),(1)]]",
  "verified": true
}
""",
}


@pytest.mark.parametrize("method", sorted(GOLDEN_TABLE))
def test_table_golden_output(capsys, method):
    code, out, _ = run_cli(capsys, "table", "--rings", "polyq:3^1^1,zmod:3^2",
                           "--s", "1..5", "--method", method)
    assert (code, out) == GOLDEN_TABLE[method]


@pytest.mark.parametrize(
    "row", GOLDEN_TABLE["set-product"][1].splitlines()[1:])
def test_census_golden_output(capsys, row):
    ring, q, n, s, brute, formula, match, method, _ = row.split(",")
    code, out, _ = run_cli(capsys, "census", "--ring", ring, "--s", s,
                           "--stable-output")
    assert code == 0
    assert out == GOLDEN_CENSUS.format(ring, q, n, s, brute,
                                       formula or "null", match or "null",
                                       method)


@pytest.mark.parametrize("ring", sorted(GOLDEN_VERIFY))
def test_verify_golden_output(capsys, ring):
    code, out, _ = run_cli(capsys, "verify", "--ring", ring, "--suite", "all",
                           "--format", "text")
    assert (code, out) == (0, GOLDEN_VERIFY[ring])


def test_decompose_readme_example(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^1",
                           "--matrix", "[[1,1],[0,0]]", "--s", "2")
    assert (code, out) == (0, GOLDEN_DECOMPOSE)


def test_decompose_lookup_hit_golden_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:5^2",
                           "--matrix", "[[5,10],[0,15]]", "--s", "2")
    assert (code, out) == (0, GOLDEN_DECOMPOSE_LOOKUP)


@pytest.mark.parametrize("ring,matrix,s", sorted(GOLDEN_DECOMPOSE_BRANCHES))
def test_decompose_golden_output_on_every_branch(capsys, ring, matrix, s):
    code, out, _ = run_cli(capsys, "decompose", "--ring", ring, "--matrix",
                           matrix, "--s", s)
    assert (code, out) == (0, GOLDEN_DECOMPOSE_BRANCHES[ring, matrix, s])


def test_decompose_past_the_enumeration_cap(capsys):
    # s = 3, and s = 2 on an orbit-union member, read no Q^4 data
    for s in (3, 2):
        code, out, _ = run_cli(capsys, "decompose", "--ring", "zmod:3^5",
                               "--matrix", "[[1,1],[0,0]]", "--s", str(s))
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["factors"]) == s
    # 9I is off the union with det in J^2, so it reaches the class lookup
    code, _, err = run_cli(capsys, "decompose", "--ring", "zmod:3^5",
                           "--matrix", "[[9,0],[0,9]]", "--s", "2")
    assert code == 2
    assert "cap" in err
    # the sharpness certificate is closed-form, so example39 runs; a suite
    # that builds Q^4 data still ends the run with the cap error
    code, out, _ = run_cli(capsys, "verify", "--ring", "zmod:3^5",
                           "--suite", "example39")
    assert code == 0
    assert out.splitlines() == ["PASS example39 checks=3 violations=0",
                                "ok: 1 suites"]
    code, out, err = run_cli(capsys, "verify", "--ring", "zmod:3^5",
                             "--suite", "all")
    assert code == 2
    assert out == ""
    assert err == ("error: q^(4n) = 3486784401 packed matrices exceed the "
                   "enumeration cap 16777216\n")


def test_cap_refusal_writes_a_count_past_the_digit_limit_as_a_power(capsys):
    # q^(4n) = 3^12000 has 5,726 decimal digits, more than int-to-str
    # conversion allows by default
    want = ("q^(4n) = 3^12000 packed matrices exceed the enumeration cap "
            "16777216")
    code, out, err = run_cli(capsys, "census", "--ring", "zmod:3^3000",
                             "--s", "2")
    assert (code, out, err) == (2, "", f"error: {want}\n")
    code, out, _ = run_cli(capsys, "table", "--rings", "zmod:3^3000",
                           "--s", "2")
    assert code == 6
    assert out.splitlines()[1] == f"zmod:3^3000,3,3000,2,,,,set-product,{want}"


def test_census_on_a_large_prime_refuses_at_the_cap():
    # p = 10^18 + 3 is prime and its test is bounded, so the cap answers
    proc = subprocess.run(
        [sys.executable, "-m", "nilquat", "census", "--ring",
         "zmod:1000000000000000003^1", "--s", "2"],
        capture_output=True, text=True, timeout=30, env=_child_env())
    assert proc.returncode == 2
    assert "enumeration cap" in proc.stderr


def test_orbit_union_census_checks_s_before_the_cap(capsys):
    # s below the stable point is a usage error, on any ring
    code, _, err = run_cli(capsys, "census", "--ring", "zmod:3^5", "--s", "8",
                           "--method", "orbit-union")
    assert code == 1
    assert "needs s >= 9" in err
    code, _, err = run_cli(capsys, "census", "--ring", "zmod:3^5", "--s", "9",
                           "--method", "orbit-union")
    assert code == 2
    assert "cap" in err


def test_n3_census_and_chain_suites_exit_0(capsys):
    code, out, _ = run_cli(capsys, "census", "--ring", "zmod:3^3", "--s", "5",
                           "--stable-output")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_count"] == payload["formula_count"] == 24225
    assert payload["match"] is True
    code, out, _ = run_cli(capsys, "verify", "--ring", "zmod:3^3", "--suite",
                           "thm38,thm312,cor310")
    assert code == 0, out
    assert out.splitlines()[-1] == "ok: 3 suites"


@pytest.mark.parametrize("argv", [
    ("census", "--ring", "zmod:3^1", "--s", "2"),
    ("verify", "--ring", "zmod:3^1", "--suite", "lemma34"),
    ("decompose", "--ring", "zmod:3^2", "--matrix", "[[0,1],[0,0]]", "--s",
     "1"),
], ids=("census", "verify", "decompose"))
def test_out_to_an_unwritable_path_exits_1_with_an_error_line(tmp_path,
                                                              argv):
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nilquat", *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ("census", "--ring", "polyq:3^40^1", "--s", "2"),
    ("table", "--rings", "polyq:3^40^1", "--s", "2"),
    ("verify", "--ring", "polyq:3^40^1", "--suite", "lemma33"),
], ids=("census", "table", "verify"))
def test_past_the_cap_refuses_before_the_modulus_search(argv):
    # GF(3^40)'s modulus is never searched for: the cap refuses first
    proc = subprocess.run([sys.executable, "-m", "nilquat", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=_child_env())
    assert proc.returncode == (6 if argv[0] == "table" else 2)
    assert "cap" in (proc.stdout if argv[0] == "table" else proc.stderr)


@pytest.mark.parametrize("argv", [
    ("census", "--ring", "zmod:3^30000000", "--s", "2"),
    ("table", "--rings", "zmod:3^30000000", "--s", "2"),
    ("verify", "--ring", "zmod:3^30000000", "--suite", "lemma33"),
], ids=("census", "table", "verify"))
def test_huge_n_refuses_at_the_cap_in_bounded_time(argv):
    # q^n = 3^30000000 takes seconds to build and q^(4n) far longer; the
    # cap refuses from the exponents alone
    proc = subprocess.run([sys.executable, "-m", "nilquat", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=_child_env())
    want = ("q^(4n) = 3^120000000 packed matrices exceed the enumeration "
            "cap 16777216")
    if argv[0] == "table":
        assert proc.returncode == 6
        assert proc.stdout.splitlines()[1] == (
            f"zmod:3^30000000,3,30000000,2,,,,set-product,{want}")
    else:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {want}\n"


def test_formula_census_prints_a_count_past_the_digit_limit(capsys):
    # the stable count on zmod:3^3100 has 4,438 digits, more than an int
    # may be printed with by default; the CLI writes it exactly
    from nilquat.cli import _exact_ints
    from nilquat.nilfactor import rank1_union_count
    with _exact_ints():
        count = str(rank1_union_count(3, 3100))
    assert len(count) == 4438
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ("census", "--method", "formula", "--ring", "zmod:3^3100",
            "--s", "6199", "--stable-output")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert f'  "formula_count": {count},' in out.splitlines()
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == (
        f"zmod:3^3100,3,3100,6199,,{count},,formula-only")
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert f" formula_count={count} " in out
    code, out, _ = run_cli(capsys, "table", "--method", "formula",
                           "--rings", "zmod:3^3100", "--s", "6199")
    assert code == 0
    assert out.splitlines()[1] == (
        f"zmod:3^3100,3,3100,6199,,{count},,formula-only,")
    # the limit is lifted for the CLI's own writes only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_decompose_on_a_degree_40_residue_field():
    # the modulus search is polynomial in r, so GF(3^40) is built at once
    proc = subprocess.run(
        [sys.executable, "-m", "nilquat", "decompose", "--ring",
         "polyq:3^40^1", "--matrix", "[[1,1],[0,0]]", "--s", "3",
         "--format", "text"],
        capture_output=True, text=True, timeout=30, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "verified: true"
