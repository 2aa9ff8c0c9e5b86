import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import nilquat
from nilquat.chain_ring import ring_from_string
from nilquat.mat2 import (CapExceededError, Mat2, MatrixSpace, NilTag,
                          classify_nilpotent, classify_nilpotent_bulk,
                          companion_conjugator,
                          format_matrix, gl2_count, identity, load_packed,
                          matrix_space, parse_matrix, save_packed, top_row,
                          zero_matrix)
from nilquat.nilfactor import (DEFAULT_SEED, _chain_step, census_orbit_union,
                               decompose, pair_products, product_set)
from nilquat.orbits import (locate_in_orbit_union, orbit_of, orbit_union,
                            save_union_bitset, union_summary)
from nilquat.verify import _lemma33


@pytest.fixture(scope="module")
def z9():
    return ring_from_string("zmod:3^2")


@pytest.fixture(scope="module")
def z9_space(z9):
    return matrix_space(z9)


def test_packed_round_trip_exhaustive_gf3():
    sp = matrix_space(ring_from_string("polyq:3^1^1"))
    for k in range(sp.count):
        assert sp.matrix_from_packed(k).packed == k


def test_packed_round_trip_sampled(z9_space):
    rng = np.random.default_rng(3)
    for k in rng.integers(0, z9_space.count, size=100):
        assert z9_space.matrix_from_packed(int(k)).packed == int(k)


def test_matmul_bulk_matches_scalar(z9_space):
    rng = np.random.default_rng(5)
    sp = z9_space
    for _ in range(60):
        i, j = (int(t) for t in rng.integers(0, sp.count, size=2))
        A, B = sp.matrix_from_packed(i), sp.matrix_from_packed(j)
        bulk = sp.matmul(sp.unpack(np.array([i])), sp.unpack(np.array([j])))
        assert int(sp.pack(*bulk)[0]) == (A * B).packed


def test_trace_det_indices_match_scalar(z9_space):
    sp = z9_space
    rng = np.random.default_rng(11)
    picks = rng.integers(0, sp.count, size=50)
    ent = sp.unpack(picks)
    tr, dt = sp.trace_indices(ent), sp.det_indices(ent)
    for pos, k in enumerate(picks):
        A = sp.matrix_from_packed(int(k))
        assert int(tr[pos]) == A.trace().idx
        assert int(dt[pos]) == A.det().idx


def test_matrix_inverse(z9):
    A = parse_matrix(z9, "[[1,1],[0,1]]")
    assert A.is_invertible()
    assert A.inverse() * A == identity(z9)
    singular = parse_matrix(z9, "[[1,1],[1,1]]")
    with pytest.raises(ValueError, match="not invertible"):
        singular.inverse()


def test_nilpotent_counts_frozen():
    # q^(2(2n-1)) in each case
    expected = {"polyq:3^1^1": 9, "zmod:5^1": 25, "polyq:3^2^1": 81,
                "zmod:3^2": 729, "polyq:3^1^2": 729}
    for text, count in expected.items():
        sp = matrix_space(ring_from_string(text))
        assert len(sp.nilpotent_indices) == count


def test_invertible_counts_frozen():
    expected = {"polyq:3^1^1": 48, "zmod:5^1": 480, "polyq:3^2^1": 5760,
                "zmod:3^2": 3888}
    for text, count in expected.items():
        sp = matrix_space(ring_from_string(text))
        assert len(sp.invertible_indices) == count
        ring = sp.ring
        assert count == gl2_count(ring.q, ring.n)


@pytest.mark.parametrize("text", ("polyq:3^2^1", "zmod:3^3", "polyq:3^1^3",
                                  "zmod:5^2", "polyq:5^2^1"))
def test_swept_arrays_match_their_definitions(text):
    sp = MatrixSpace(ring_from_string(text))
    val = sp.ring.val_table
    e = sp.unpack(np.arange(sp.count))
    tr, det = val[sp.trace_indices(e)], val[sp.det_indices(e)]
    for got, want, dtype in (
            (sp.nilpotent_indices, np.flatnonzero((tr >= 1) & (det >= 1)),
             sp.index_type),
            (sp.invertible_indices, np.flatnonzero(det == 0), sp.index_type),
            (sp.class_code_table, sp.class_code(e),
             np.min_scalar_type(-sp.class_count))):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_index_sets_past_the_cap_match_scalar_criteria():
    # q = 9 != p and n = 2: the residue of an index is idx mod q, not mod p.
    # GL2 here is 151 MB of int32, so invertibility checks the residue rule
    # that invertible_indices is filled from
    sp = MatrixSpace(ring_from_string("polyq:3^2^2"), cap=2 ** 26)
    nil = sp.nilpotent_indices
    assert len(nil) == 9 ** 6
    res = sp._det_residues()
    rng = np.random.default_rng(29)
    ks = rng.integers(0, sp.count, size=20000)
    a11, a12, a21, a22 = sp.unpack(ks)
    for k, nilpotent, invertible in zip(ks, np.isin(ks, nil),
                                        res[a22, a11] != res[a21, a12]):
        A = sp.matrix_from_packed(int(k))
        assert nilpotent == A.is_nilpotent()
        assert invertible == A.is_invertible()
    for k in rng.choice(nil, size=2000, replace=False):
        assert sp.matrix_from_packed(int(k)).is_nilpotent()


def test_conjugates_of_matches_scalar_conjugation(z9_space):
    sp = z9_space
    A = parse_matrix(sp.ring, "[[1,2],[3,4]]")
    conj, gl = sp.conjugates_of(A), sp.gl_packed
    assert len(conj) == len(gl)
    for i in np.random.default_rng(23).integers(0, len(gl), size=50):
        P = sp.matrix_from_packed(int(gl[i]))
        assert int(conj[i]) == (P.inverse() * A * P).packed


def test_conjugates_of_runs_in_blocks_of_bounded_memory():
    # |GL2| = 300,000 on zmod:5^2 (1.2 MB as int32): unpacking all of it
    # into int64 at once peaked at 19.2 MB under tracemalloc, blocks of the
    # kernel's type beside the 2.4 MB int64 result stay under 5 MB
    sp = matrix_space(ring_from_string("zmod:5^2"))
    gl = sp.invertible_indices
    A = parse_matrix(sp.ring, "[[1,2],[3,4]]")
    tracemalloc.start()
    try:
        conj = sp.conjugates_of(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert conj.dtype == np.int64 and len(conj) == len(gl)
    # the first and last P of a block and of the whole set, and a sample
    seams = [k * 2 ** 14 + d for k in range(1, 4) for d in (-1, 0)]
    rng = np.random.default_rng(29)
    for i in [0, len(gl) - 1, *seams, *rng.integers(0, len(gl), size=20)]:
        P = sp.matrix_from_packed(int(gl[i]))
        assert int(conj[i]) == (P.inverse() * A * P).packed


def test_gl_packed_caches_nothing():
    # GL2 is built on each read, so two reads are equal but not one object
    sp = MatrixSpace(ring_from_string("zmod:3^2"))
    before = dict(vars(sp))
    gl = sp.gl_packed
    assert vars(sp) == before
    again = sp.invertible_indices
    assert vars(sp) == before
    assert again is not gl and again.dtype == gl.dtype
    assert np.array_equal(again, gl)


_NARROW_RINGS = ("zmod:3^2", "polyq:3^2^1", "zmod:5^2", "zmod:3^3",
                 "polyq:7^2^1")


@pytest.mark.parametrize("wide", (False, True), ids=("default", "int64"))
@pytest.mark.parametrize("text", _NARROW_RINGS)
def test_index_sets_are_ascending_in_index_type(text, wide, monkeypatch):
    # int64 stands for a space past 2^31 packed matrices, out of reach here
    if wide:
        monkeypatch.setattr(MatrixSpace, "index_type",
                            property(lambda self: np.int64))
    sp = MatrixSpace(ring_from_string(text))
    want = np.int64 if wide else np.int32
    res = sp._det_residues()
    for name, (diag, off), compare in (
            ("nilpotent", sp._nilpotent_residues(), np.equal),
            ("invertible", (res, res), np.not_equal)):
        before = set(vars(sp))
        got = getattr(sp, f"{name}_indices")
        # the nilpotent set is cached, GL2 is built on each read
        cached = {"nilpotent_indices"} if name == "nilpotent" else set()
        assert set(vars(sp)) - before == cached
        assert got.dtype == sp.index_type == want
        # the slice-by-slice fill against one broadcast Q^4 comparison
        marked = compare(diag[:, None, None, :], off[None, :, :, None])
        assert np.array_equal(got, np.flatnonzero(marked))
        assert (np.diff(got) > 0).all()


def test_index_set_build_memory_rise_stays_narrow():
    # in a fresh process, after the ring tables of polyq:7^2^1 (5.76M
    # matrices) exist, the nilpotent and invertible sets and the orbit
    # union raise the peak RSS by about 29 MB; int64 sets built through
    # cached Q^4 masks took 60 MB.  VmHWM is the process's own peak
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "from nilquat.chain_ring import ring_from_string\n"
        "from nilquat.mat2 import MatrixSpace\n"
        "from nilquat.orbits import orbit_union\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "ring = ring_from_string('polyq:7^2^1')\n"
        "ring.add_table, ring.mul_table, ring.neg_table, ring.val_table\n"
        "space = MatrixSpace(ring)\n"
        "before = peak_kib()\n"
        "space.nilpotent_indices, space.invertible_indices\n"
        "orbit_union(space)\n"
        "print((peak_kib() - before) / 1024)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert 0 < float(proc.stdout) < 40


def test_space_keeps_no_gl2_set():
    # on polyq:7^2^1 GL2 is 21.5 MiB of int32; the space keeps only the
    # nilpotent set (0.45 MiB) and the union mask (5.5 MiB), where holding
    # GL2 kept about 27.5 MiB
    sp = MatrixSpace(ring_from_string("polyq:7^2^1"))
    ring = sp.ring
    ring.add_table, ring.mul_table, ring.neg_table, ring.val_table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sp.nilpotent_indices
        assert len(sp.invertible_indices) == gl2_count(ring.q, ring.n)
        orbit_union(sp)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 8 * 2 ** 20
    assert "invertible_indices" not in vars(sp)


def test_is_nilpotent_matches_power_criterion(z9_space):
    # the fused residue test on the dense rows (zmod:3^2, polyq:3^2^1) and
    # in GF(q) past the dense-table limit (zmod:3^7), against A^(2n) = 0.
    # A draw is nilpotent with chance 1/q^2, so the dense rings also draw
    # from their nilpotent sets
    rng = np.random.default_rng(17)
    for sp in (z9_space, matrix_space(ring_from_string("polyq:3^2^1")),
               matrix_space(ring_from_string("zmod:3^7"))):
        n = sp.ring.n
        draws = list(rng.integers(0, sp.count, size=120))
        if sp.ring._dense:
            draws += list(rng.choice(sp.nilpotent_indices, size=40))
        nilpotent = 0
        for k in draws:
            A = sp.matrix_from_packed(int(k))
            P = A ** (2 * n)
            assert A.is_nilpotent() == (P == zero_matrix(sp.ring))
            nilpotent += A.is_nilpotent()
        assert nilpotent > 0


def test_classification_reconstructs_all_nilpotents(z9_space):
    tags = {tag: 0 for tag in NilTag}
    for k in z9_space.nilpotent_indices:
        A = z9_space.matrix_from_packed(int(k))
        cls = classify_nilpotent(A)
        tags[cls.tag] += 1
        assert cls.matrix() == A
    assert sum(tags.values()) == 729
    assert all(v > 0 for v in tags.values())


def test_classify_rejects_non_nilpotent(z9):
    with pytest.raises(ValueError, match="not nilpotent"):
        classify_nilpotent(identity(z9))


@pytest.mark.parametrize("text", ["zmod:3^2", "polyq:3^2^1", "polyq:3^1^3"])
def test_bulk_classifier_matches_the_scalar_form(text):
    sp = matrix_space(ring_from_string(text))
    nil = sp.nilpotent_indices
    entries = sp.unpack(nil)
    cls = classify_nilpotent_bulk(sp.ring, entries)
    assert all(np.array_equal(x, y) for x, y in zip(cls.matrix(), entries))
    for i, k in enumerate(nil):
        want = classify_nilpotent(sp.matrix_from_packed(int(k)))
        assert (NilTag(cls.tag[i]),
                *(None if w < 0 else sp.ring.from_index(int(w))
                  for w in (cls.u[i], cls.v[i])),
                *(int(x[i]) for x in cls.perturbation)) == \
            (want.tag, want.u, want.v,
             *(x.idx for x in want.perturbation.entries()))


def test_bulk_classifier_rejects_non_nilpotent(z9):
    nilpotent_then_identity = ([0, 1], [3, 0], [0, 0], [0, 1])
    with pytest.raises(ValueError, match="not nilpotent"):
        classify_nilpotent_bulk(z9, nilpotent_then_identity)


def test_parse_format_matrix(z9):
    text = "[[(0,1),(1,0)],[(0,0),(2,2)]]"
    A = parse_matrix(z9, text)
    assert format_matrix(A) == text
    assert parse_matrix(z9, "[[3,1],[0,8]]") == A
    for bad in ("[[1,2],[3]]", "[1,2,3,4]", "[[1,2],[3,4]", "[[a,b],[c,d]]"):
        with pytest.raises(ValueError):
            parse_matrix(z9, bad)


def test_matrix_algebra(z9):
    A = parse_matrix(z9, "[[1,2],[3,4]]")
    B = parse_matrix(z9, "[[0,1],[1,0]]")
    assert A + B - B == A
    assert (A * B).entries() == (B.a21 * A.a12 + A.a11 * B.a11,
                                 A.a11 * B.a12 + A.a12 * B.a22,
                                 A.a21 * B.a11 + A.a22 * B.a21,
                                 A.a21 * B.a12 + A.a22 * B.a22)
    assert top_row(z9.one, z9.from_int(2)) == parse_matrix(z9, "[[1,2],[0,0]]")


_PAST_CAP = ("zmod:3^5", "zmod:3^7")  # 3^7 is past the dense tables too


def test_enumeration_cap():
    # construction never refuses; the first Q^4 build does, at the cap's edge
    sp = matrix_space(ring_from_string("zmod:3^4"))
    with pytest.raises(CapExceededError, match="43046721 packed matrices "
                                               "exceed the enumeration cap "
                                               "16777216"):
        sp.nilpotent_indices
    ring = ring_from_string("polyq:3^1^1")
    with pytest.raises(CapExceededError, match="cap 80"):
        MatrixSpace(ring, cap=80).require_enumerable()
    assert len(MatrixSpace(ring, cap=81).nilpotent_indices) == 9
    for text in _PAST_CAP:
        sp = MatrixSpace(ring_from_string(text))
        assert sp.index_type == np.int64
        k = np.array([0, 1, sp.count // 3, sp.count - 1])
        assert np.array_equal(sp.pack(*sp.unpack(k)), k)


_Q4_BUILDERS = {
    "nilpotent_indices": lambda sp, path: sp.nilpotent_indices,
    "invertible_indices": lambda sp, path: sp.invertible_indices,
    "class_code_table": lambda sp, path: sp.class_code_table,
    "orbit_union": lambda sp, path: orbit_union(sp),
    "orbit_union_sweep": lambda sp, path: orbit_union(sp, "sweep"),
    "lemma33": lambda sp, path: _lemma33(sp.ring, sp, 100, DEFAULT_SEED),
    "conjugates_of": lambda sp, path: sp.conjugates_of(identity(sp.ring)),
    "product_set": lambda sp, path: product_set(sp, 2),
    "decompose_s2_lookup": lambda sp, path: decompose(
        sp, parse_matrix(sp.ring, "[[9,0],[0,9]]"), 2),
    "census_orbit_union": lambda sp, path: census_orbit_union(sp),
    "union_summary": lambda sp, path: union_summary(sp),
    "save_union_bitset": lambda sp, path: save_union_bitset(sp, path),
}


@pytest.mark.parametrize("name", _Q4_BUILDERS)
@pytest.mark.parametrize("text", _PAST_CAP)
def test_q4_builders_refuse_past_the_cap_before_building(text, name,
                                                         tmp_path):
    sp = MatrixSpace(ring_from_string(text))
    path = tmp_path / "union.bits"
    # 9I is off the union with det in J^2, so decompose reaches the s = 2
    # lookup; checking that first also builds the ring's own tables
    target = parse_matrix(sp.ring, "[[9,0],[0,9]]")
    assert locate_in_orbit_union(sp, target) is None
    assert target.det().valuation() >= 2
    tracemalloc.start()
    try:
        # a CapExceededError, not the dense tables' ValueError on 3^7
        with pytest.raises(CapExceededError,
                           match=f"enumeration cap {2 ** 24}$"):
            _Q4_BUILDERS[name](sp, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not path.exists()
    assert not sp._union_cache and not sp._product_chain


def test_class_data_past_the_cap():
    # packing, class codes, class sizes and pair products read at most
    # Q^2-long tables, so they work on a space past the cap
    sp = MatrixSpace(ring_from_string("zmod:3^5"))
    assert int(sp.class_sizes.sum()) == sp.count
    rng = np.random.default_rng(31)
    A = tuple(rng.integers(0, sp.Q, size=200) for _ in range(4))
    P = sp.matrix_from_packed(int(sp.pack(1, 5, 3, 7)))
    assert P.is_invertible()
    Pinv = P.inverse()
    conj = [Pinv * sp.matrix_from_packed(int(k)) * P
            for k in sp.pack(*A)]
    codes = sp.class_code(A)
    assert np.array_equal(codes, sp.class_code(sp.unpack(
        [M.packed for M in conj])))
    assert (codes < sp.class_count).all()
    left, right = sp.pack(*A)[:20], sp.pack(*A)[20:50]
    for start, packed in pair_products(sp, left, right):
        want = sp.pack(*sp.matmul(sp.unpack(left[start:, None]),
                                  sp.unpack(right[None, :])))
        assert np.array_equal(packed, want[:len(packed)])


def test_save_load_packed_text_and_binary(tmp_path, z9_space):
    idx = z9_space.nilpotent_indices[:50]
    p1 = tmp_path / "idx.txt"
    p2 = tmp_path / "idx.bin"
    save_packed(p1, idx)
    save_packed(p2, idx, binary=True)
    assert np.array_equal(load_packed(p1), idx)
    assert np.array_equal(load_packed(p2, binary=True), idx)
    assert p1.read_text().splitlines()[0] == str(int(idx[0]))


@pytest.mark.parametrize("binary, where", ((False, "line 2"),
                                           (True, "byte offset 8")))
@pytest.mark.parametrize("values", (np.array([7, -1]),
                                    np.array([7, 2 ** 63], dtype=np.uint64)),
                         ids=("negative", "past-int64"))
def test_save_packed_refuses_out_of_range(tmp_path, binary, where, values):
    path = tmp_path / "idx"
    with pytest.raises(ValueError, match=where):
        save_packed(path, values, binary=binary)
    assert not path.exists()


def test_load_packed_refuses_binary_value_past_int64(tmp_path):
    path = tmp_path / "idx.bin"
    path.write_bytes(b"\xff" * 8)
    with pytest.raises(ValueError, match="byte offset 0"):
        load_packed(path, binary=True)


def test_load_packed_refuses_partial_binary_value(tmp_path):
    path = tmp_path / "idx.bin"
    path.write_bytes(b"\x01" * 12)
    with pytest.raises(ValueError, match="byte offset 8"):
        load_packed(path, binary=True)


def test_load_packed_refuses_negative_text_line(tmp_path):
    path = tmp_path / "idx.txt"
    path.write_text("3\n\n-5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_packed(path)


def test_load_packed_refuses_text_line_past_int64(tmp_path):
    path = tmp_path / "idx.txt"
    path.write_text("18446744073709551615\n")
    with pytest.raises(ValueError, match="line 1"):
        load_packed(path)


def test_load_packed_refuses_non_integer_text_line(tmp_path):
    path = tmp_path / "idx.txt"
    path.write_text("12\nabc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_packed(path)


def test_space_cache_reuse(z9):
    assert matrix_space(z9) is matrix_space(z9)


@pytest.mark.parametrize("text", ("polyq:3^1^1", "zmod:5^1", "zmod:3^2",
                                  "polyq:3^2^1", "polyq:3^1^2"))
def test_class_labels_are_orbit_minima(text):
    sp = matrix_space(ring_from_string(text))
    want = np.full(sp.count, -1, dtype=np.int64)
    for k in range(sp.count):
        if want[k] < 0:
            members = orbit_of(sp, sp.matrix_from_packed(k))
            want[members] = members[0]
    # label each packed index by the first index sharing its class code
    _, first, inverse = np.unique(sp.class_code_table, return_index=True,
                                  return_inverse=True)
    assert np.array_equal(first[inverse], want)


@pytest.mark.parametrize("text", ("zmod:5^1", "zmod:3^2", "polyq:3^1^2"))
def test_class_representatives_of_nil_are_label_minima(text):
    # S_1 = I Nil, so its factors, the chain's representatives of the Nil
    # classes, are each class's first member in packed order
    sp = matrix_space(ring_from_string(text))
    nil = sp.nilpotent_indices
    reps = _chain_step(sp, 1).factors
    codes = sp.class_code_table
    # one representative per class met on Nil, each its orbit's minimum
    assert np.array_equal(np.sort(codes[reps]), np.unique(codes[nil]))
    assert (np.diff(reps) > 0).all()
    for k in reps:
        assert orbit_of(sp, sp.matrix_from_packed(int(k)))[0] == k


def test_class_representatives_need_a_closed_set(monkeypatch):
    # building S_1 refuses a Nil that misses one member of a class
    sp = MatrixSpace(ring_from_string("zmod:3^2"))
    monkeypatch.setattr(sp, "nilpotent_indices", sp.nilpotent_indices[:-1])
    with pytest.raises(ValueError, match="closed under conjugation"):
        _chain_step(sp, 1)
    assert not sp._product_chain


@pytest.mark.parametrize("bad", [
    (9, 0, 0, 0),                                   # reads (0, 0, 0, 1)
    (-1, 0, 0, 0),                                  # wraps to the end
    (0, 0, 0, 9),
    (np.array([0, 1]), 0, np.array([2, 9]), 0),
    (np.int64(9), 0, 0, 0),                         # numpy scalars
    (0, np.int32(-1), 0, 0),
    (0, 0, 2 ** 70, 0),                             # past int64 too
])
def test_class_code_refuses_out_of_range_entries(z9_space, bad):
    with pytest.raises(ValueError, match="out of range"):
        z9_space.class_code(bad)
    assert int(z9_space.class_code((8, 0, 0, 0))) == 72


def test_class_code_of_scalars_matches_the_array_route(z9_space):
    # plain ints take the scalar range check, numpy scalars and 0-d arrays
    # the array one; all three give the code of the length-1 arrays
    rng = np.random.default_rng(41)
    for entries in rng.integers(0, 9, size=(50, 4)):
        want = z9_space.class_code(tuple(entries[:, None]))
        for kind in (int, np.int16, np.asarray):
            got = z9_space.class_code(tuple(kind(x) for x in entries))
            assert np.shape(got) == () and got == want[0]


def test_save_packed_bytes_do_not_depend_on_index_type(z9_space, tmp_path):
    nil = z9_space.nilpotent_indices
    assert nil.dtype == np.int32
    for binary in (False, True):
        narrow, wide = tmp_path / "narrow", tmp_path / "wide"
        save_packed(narrow, nil, binary=binary)
        save_packed(wide, nil.astype(np.int64), binary=binary)
        assert narrow.read_bytes() == wide.read_bytes()


@pytest.mark.parametrize("text, classes", (
    ("zmod:3^1", 12), ("zmod:3^2", 117), ("polyq:3^2^1", 90),
    ("zmod:5^2", 775), ("zmod:3^3", 1080), ("polyq:3^1^3", 1080),
    ("polyq:5^2^1", 650)))
def test_class_sizes_are_code_counts(text, classes):
    sp = matrix_space(ring_from_string(text))
    q, n = sp.ring.q, sp.ring.n
    codes = sp.class_code_table
    assert sp.class_count == classes == sum(q ** (2 * n - j)
                                            for j in range(n + 1))
    assert len(np.unique(codes)) == classes
    assert np.array_equal(np.bincount(codes, minlength=classes),
                          sp.class_sizes)
    assert sp.class_sizes.sum() == q ** (4 * n)


@pytest.mark.parametrize("text", ("zmod:3^3", "polyq:3^2^1", "polyq:3^1^3",
                                  "zmod:3^7"))
def test_companion_conjugator_reaches_the_companion_form(text):
    sp = matrix_space(ring_from_string(text))
    ring = sp.ring
    z, one = ring.zero, ring.one
    forms = {}
    shapes = set()
    for k in np.random.default_rng(2000).integers(0, sp.count, size=2000):
        A = sp.matrix_from_packed(int(k))
        P, Pinv = companion_conjugator(A)
        assert P.is_invertible() and Pinv == P.inverse()
        # A = d0 I + pi^j B, read off with scalar ring operations
        j = min(A.a12.valuation(), A.a21.valuation(),
                (A.a11 - A.a22).valuation())
        d0 = ring.from_index(A.a11.idx % ring.q ** j)
        pj = ring.uniformizer ** j
        B = Mat2(*((x - d0 if i in (0, 3) else x)
                   for i, x in enumerate(A.entries())))
        if j < ring.n:
            B = Mat2(*(ring.from_index(x.idx // ring.q ** j)
                       for x in B.entries()))
        assert Mat2(*(pj * x for x in B.entries())) + Mat2(d0, z, z, d0) == A
        C = Mat2(z, -B.det(), one, B.trace())
        want = Mat2(*(pj * x for x in C.entries())) + Mat2(d0, z, z, d0)
        assert P.inverse() * A * P == want
        if j < ring.n:
            # the first invertible [v | B v] over e1, e2 and e1 + e2
            for v, (v1, v2) in enumerate(((one, z), (z, one), (one, one))):
                Bv = (B.a11 * v1 + B.a12 * v2, B.a21 * v1 + B.a22 * v2)
                first = Mat2(v1, Bv[0], v2, Bv[1])
                if first.is_invertible():
                    break
            assert P == first
            shapes.add(v)
        else:
            assert P == identity(ring)
        if not ring._dense:
            continue    # the class code tables read the dense tables
        # one companion form per code, and it keeps the code
        code = int(sp.class_code(tuple(x.idx for x in A.entries())))
        assert forms.setdefault(code, want) == want
        assert int(sp.class_code_table[want.packed]) == code
    assert shapes == {0, 1, 2}
    assert len(forms) < 2000


def test_invariant_checks_survive_optimize_flag():
    # each probe forces one internal invariant to fail; under -O a bare
    # assert would let it pass silently
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "import numpy as np\n"
        "from nilquat.chain_ring import GFq, Ring, parse_ring_spec\n"
        "from nilquat.mat2 import Mat2, MatrixSpace, classify_nilpotent\n"
        "from nilquat.mat2 import identity, parse_matrix\n"
        "def probe(kind, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except kind:\n"
        "        print('refused')\n"
        "    else:\n"
        "        print('passed')\n"
        "r = Ring(parse_ring_spec('zmod:3^1'))\n"
        "probe(ValueError, lambda: GFq(17, 2).mul_table)\n"
        "sp = MatrixSpace(r)\n"
        "MatrixSpace.invertible_indices = property(\n"
        "    lambda self: np.array([0]))\n"
        "probe(AssertionError, lambda: sp.conjugates_of(identity(r)))\n"
        "class NoRoots:\n"
        "    q = 3\n"
        "    def mul(self, x, y): return 0\n"
        "    def neg(self, x): return 1\n"
        "    def sub(self, x, y): return 1\n"
        "r.residue_field = NoRoots()\n"
        "probe(AssertionError, r.solve_sum_of_squares)\n"
        "Mat2.is_nilpotent = lambda self: True\n"
        "z = Ring(parse_ring_spec('zmod:3^2'))\n"
        "probe(AssertionError, lambda: classify_nilpotent(identity(z)))\n"
        "probe(AssertionError, lambda: classify_nilpotent(\n"
        "    parse_matrix(z, '[[1,1],[1,1]]')))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["refused"] * 5


def test_bulk_classifier_checks_survive_optimize_flag():
    # with the nilpotency test forced to pass, the identity has an
    # impossible residue and ((1, 1), (1, 1)) over Z/9 a unit perturbation
    src = os.path.dirname(os.path.dirname(nilquat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = (
        "import numpy as np\n"
        "from nilquat.chain_ring import ring_from_string\n"
        "from nilquat.mat2 import classify_nilpotent_bulk\n"
        "z = ring_from_string('zmod:3^2')\n"
        "t = z.pair_tables\n"
        "t.trace = t.det = lambda A: np.zeros_like(A[0])\n"
        "for entries in (([1], [0], [0], [1]), ([1], [1], [1], [1])):\n"
        "    try:\n"
        "        classify_nilpotent_bulk(z, entries)\n"
        "    except AssertionError as exc:\n"
        "        print(str(exc).replace(' ', '_'))\n"
        "    else:\n"
        "        print('passed')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["impossible_nilpotent_residue",
                                   "perturbation_must_lie_in_M2(J)"]
