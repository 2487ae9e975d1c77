"""The matrix oracle itself, and the closed forms certified against it.

The oracle is the ground truth of the package: realizations are explicit
unipotent matrices over F_p and every structural answer is read off rank
sequences, kernels and chain bases, never off the formulas being checked.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclicsource
from cyclicsource import modules, oracle, verify
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import ModuleSum, NotCappedError, cap_part
from cyclicsource.oracle import (
    MatrixModule,
    OracleCapacityError,
    check_capacity,
    column_space,
    induce_oracle,
    is_endo_permutation,
    jordan_type,
    matmul_mod,
    rank_profile,
    relative_heller_oracle,
    restrict_oracle,
    tensor_decompose,
)
from oracle_reference import (
    graded_tensor_walk,
    induced,
    jordan_chains,
    kronecker,
    matpow_mod,
    nullspace_mod,
    rank_mod,
    realize,
    relative_heller_oracle_counit,
    restricted,
)

C3 = GroupSpec(3, 1)
C4 = GroupSpec(2, 2)
C9 = GroupSpec(3, 2)


def random_matrix(draw, p, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, p - 1),
                            min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    return p, random_matrix(draw, p)


class TestLinearAlgebra:
    @given(matrices_mod_p())
    def test_column_space_spans_and_has_full_rank(self, case):
        p, a = case
        basis = column_space(a.copy(), p)
        r = basis.shape[1]
        assert rank_mod(basis, p) == r
        # every original column lies in the span
        assert rank_mod(np.hstack([basis, a % p]), p) == r

    @given(matrices_mod_p())
    def test_rank_nullity(self, case):
        p, a = case
        basis, free = nullspace_mod(a, p)
        assert basis.shape[1] == a.shape[1] - rank_mod(a, p)
        assert len(free) == basis.shape[1]
        assert not np.any(matmul_mod(a, basis, p)) or basis.shape[1] == 0
        # coordinates can be read off the free rows
        assert np.array_equal(basis[free, :] % p,
                              np.eye(basis.shape[1], dtype=np.int64))

    @given(matrices_mod_p(), st.integers(0, 6))
    def test_matpow(self, case, e):
        p, a = case
        if a.shape[0] != a.shape[1]:
            a = a[: min(a.shape), : min(a.shape)]
        expected = np.eye(a.shape[0], dtype=np.int64)
        for _ in range(e):
            expected = matmul_mod(expected, a, p)
        assert np.array_equal(matpow_mod(a, e, p), expected)

    @pytest.mark.parametrize("e", [0, 1])
    def test_matpow_small_exponents(self, e):
        a = np.array([[3, 7, -1], [0, 5, 9], [2, 2, 2]], dtype=np.int64)
        want = np.eye(3, dtype=np.int64) if e == 0 else a % 5
        got = matpow_mod(a, e, 5)
        assert np.array_equal(got, want)
        got += 1  # a fresh array: the input is untouched
        assert a[0, 0] == 3

    @pytest.mark.parametrize("e,products", [(32, 5), (7, 4), (6, 3), (1, 0)])
    def test_matpow_products(self, monkeypatch, e, products):
        # squarings up to the highest set bit, one product per set bit
        # after the lowest: no product with the identity, no last squaring
        calls = []
        product = oracle.matmul_mod

        def counted(a, b, p):
            calls.append(1)
            return product(a, b, p)

        monkeypatch.setattr(oracle, "matmul_mod", counted)
        a = np.array([[1, 1], [0, 1]], dtype=np.int64)
        assert np.array_equal(matpow_mod(a, e, 7), [[1, e % 7], [0, 1]])
        assert len(calls) == products

    @pytest.mark.parametrize("e", [-1, -2, -64])
    def test_matpow_negative_exponent_refused(self, monkeypatch, e):
        # e >> 1 never reaches 0 from a negative e: refuse before a product
        def refused(a, b, p):
            raise AssertionError("matmul_mod called")

        monkeypatch.setattr(oracle, "matmul_mod", refused)
        with pytest.raises(ValueError, match="exponent"):
            matpow_mod(np.eye(2, dtype=np.int64), e, 5)


def reference_rref(a, p):
    """Reduced row echelon form of `a` over F_p, by Gauss-Jordan elimination
    on int64 rows reduced mod p after every pivot (exact: (p-1)^2 < 2^63):
    (the non-zero rows, their pivot columns)."""
    rows = np.asarray(a, dtype=np.int64) % p
    pivots = []
    for c in range(rows.shape[1]):
        r = len(pivots)
        hit = np.flatnonzero(rows[r:, c])
        if hit.size == 0:
            continue
        rows[[r, r + hit[0]]] = rows[[r + hit[0], r]]
        rows[r] = rows[r] * pow(int(rows[r, c]), p - 2, p) % p
        factors = rows[:, c].copy()
        factors[r] = 0
        # only the rows with a non-zero in column c change, and the pivot
        # row is zero left of c, so only in columns c:
        live = np.flatnonzero(factors)
        rows[live, c:] = (rows[live, c:]
                          - np.outer(factors[live], rows[r, c:])) % p
        pivots.append(c)
    return rows[: len(pivots)], pivots


def reference_rank(a, p):
    return len(reference_rref(a, p)[1])


def reference_power_ranks(n_mat, p):
    """[rank(N), rank(N^2), ...] down to the first zero power, with the
    powers taken in int64 (exact: d * (p-1)^2 < 2^63 at test sizes)."""
    ranks, power = [], n_mat % p
    while (r := reference_rank(power, p)) > 0:
        ranks.append(r)
        power = (power @ n_mat) % p
    return ranks


PRIMES = [2, 3, 5, 7, 65521]


@st.composite
def kernel_inputs(draw):
    """A p and an m x n matrix of rank at most k, m and n up to 150 so that
    several panels run and the rank can be reached inside one."""
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(0, 150))
    n = draw(st.integers(0, 150))
    k = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
    if draw(st.booleans()):  # unreduced and negative entries
        a = a + p * rng.integers(-3, 4, (m, n))
    return p, a.astype(np.int64)


class TestKernelAgainstReference:
    @given(kernel_inputs())
    @settings(max_examples=40, deadline=None)
    def test_rank_column_space_nullspace(self, case):
        p, a = case
        m, n = a.shape
        rref, pivots = reference_rref(a, p)
        assert rank_mod(a, p) == len(pivots)
        # a = E @ a[rows]: E is the transposed RREF of a.T, whose pivot
        # columns are the independent rows of a
        rref_t, rows = reference_rref(a.T, p)
        expected = np.array(rref_t, dtype=np.int64).reshape(len(rows), m).T
        assert np.array_equal(column_space(a, p), expected)
        basis, free = nullspace_mod(a, p)
        assert free == [c for c in range(n) if c not in pivots]
        want = np.zeros((n, len(free)), dtype=np.int64)
        want[free, range(len(free))] = 1
        for i, c in enumerate(pivots):
            want[c] = [(-rref[i][f]) % p for f in free]
        assert np.array_equal(basis, want)

    @given(st.sampled_from(PRIMES), st.lists(st.integers(1, 9), max_size=16),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_profile(self, p, sizes, seed):
        # a nilpotent matrix of known shape, hidden by a random change of
        # basis s, inverted by the reference elimination
        d = sum(sizes)
        nil = np.zeros((d, d), dtype=np.int64)
        pos = 0
        for b in sizes:
            nil[pos + 1 : pos + b, pos : pos + b - 1] += np.eye(b - 1, dtype=np.int64)
            pos += b
        rng = np.random.default_rng(seed)
        while True:
            s = rng.integers(0, p, (d, d))
            rref, pivots = reference_rref(
                np.hstack([s, np.eye(d, dtype=np.int64)]), p)
            if pivots == list(range(d)):  # s is invertible
                break
        s_inv = np.array(rref, dtype=np.int64).reshape(d, 2 * d)[:, d:]
        n_mat = s @ nil % p @ s_inv % p
        assert rank_profile(n_mat, p) == reference_power_ranks(n_mat, p)

    def test_rank_profile_stops_on_non_nilpotent(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            rank_profile(np.eye(3, dtype=np.int64), 5)

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_jordan_type_of_kron(self, p, a, b):
        ell = 1
        while p**ell < max(a, b):
            ell += 1
        group = GroupSpec(p, ell)
        kron = np.kron(realize(ModuleSum(group, (a,))).action,
                       realize(ModuleSum(group, (b,))).action) % p
        ranks = reference_power_ranks(
            (kron - np.eye(a * b, dtype=np.int64)) % p, p)
        seq = [a * b] + ranks + [0, 0]
        # blocks of size exactly s: r_{s-1} - 2 r_s + r_{s+1}
        parts = [s for s in range(1, len(seq) - 1)
                 for _ in range(seq[s - 1] - 2 * seq[s] + seq[s + 1])]
        assert jordan_type(MatrixModule(group, kron)).parts == \
            tuple(sorted(parts, reverse=True))


def hidden_nilpotent(p, parts, seed):
    """The nilpotent matrix with Jordan blocks of the sizes `parts`, in the
    basis s = P U L: P a random permutation, U = I + [0 X; 0 0] and L = I +
    [0 0; Y 0] random, so that s is dense and s^-1 = (2I - L)(2I - U) P^T
    needs no elimination."""
    d = sum(parts)
    nil = np.zeros((d, d), dtype=np.int64)
    pos = 0
    for b in parts:
        nil[pos + 1 : pos + b, pos : pos + b - 1] += np.eye(b - 1, dtype=np.int64)
        pos += b
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, d + 1))
    eye = np.eye(d, dtype=np.int64)
    upper, lower = eye.copy(), eye.copy()
    upper[:k, k:] = rng.integers(0, p, (k, d - k))
    lower[k:, :k] = rng.integers(0, p, (d - k, k))
    perm = rng.permutation(d)
    s = (upper @ lower % p)[perm]
    s_inv = ((2 * eye - lower) @ (2 * eye - upper) % p)[:, perm]
    assert np.array_equal(s @ s_inv % p, eye)
    return s @ nil % p @ s_inv % p


@st.composite
def long_blocks(draw):
    """Block sizes up to 100, each repeated up to three times (so that the
    rank falls by d > 1 a power), at most 160 rows in all."""
    parts = []
    for n in draw(st.lists(st.integers(1, 100), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            if sum(parts) + n <= 160:
                parts.append(n)
    return parts


class TestRankProfileGallop:
    """rank_profile jumps along stretches where the rank falls by a
    constant amount; every rank it reports must still be the rank of the
    power, whatever the stretches look like."""

    @given(st.sampled_from([2, 3, 5]), st.integers(0, 4), st.integers(0, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reference_rank_counts_the_row_space(self, p, m, n, seed):
        # p^rank distinct combinations of the rows, counted by brute force
        a = np.random.default_rng(seed).integers(-p, 2 * p, (m, n))
        coeffs = np.array(list(itertools.product(range(p), repeat=m)),
                          dtype=np.int64).reshape(p**m, m)
        span = {tuple(row) for row in coeffs @ a % p}
        assert len(span) == p ** reference_rank(a, p)

    @given(st.lists(st.integers(1, 12), max_size=6))
    def test_reference_power_ranks_of_shift_blocks(self, parts):
        # N^s has rank sum(max(n - s, 0)) on the nilpotent shift blocks J_n
        n_mat = realize(ModuleSum(GroupSpec(13, 1), parts)).action
        n_mat -= np.eye(n_mat.shape[0], dtype=n_mat.dtype)
        want = [sum(max(n - s, 0) for n in parts)
                for s in range(1, max(parts, default=1))]
        assert reference_power_ranks(n_mat, 13) == want

    @given(st.sampled_from(PRIMES), long_blocks(), st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    # the jump lands exactly on rank 0: J_4 (3, 2 | 1) and 3*J_8
    # (21, 18 | 15, 12 | 9, 6, 3); a stretch ends inside a jump: J_30 + J_3
    @example(5, [4], 0)
    @example(3, [8, 8, 8], 1)
    @example(2, [30, 3], 2)
    def test_long_blocks_against_power_ranks(self, p, parts, seed):
        n_mat = hidden_nilpotent(p, parts, seed)
        assert rank_profile(n_mat, p) == reference_power_ranks(n_mat, p)

    @pytest.mark.parametrize("n_mat", [
        np.zeros((1, 1), dtype=np.int64),  # J_1
        np.zeros((5, 5), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
    ], ids=["J_1", "zero", "empty"])
    def test_zero_matrix_has_empty_profile(self, n_mat):
        assert rank_profile(n_mat, 3) == []

    @pytest.mark.parametrize("n_mat", [
        np.eye(3, dtype=np.int64),
        # J_40 and an invertible 1 x 1 block: the rank stops at 1 after a
        # long stretch
        np.pad(np.eye(40, k=-1, dtype=np.int64), (0, 1)) + np.diag([0] * 40 + [2]),
    ], ids=["identity", "J_40+unit"])
    def test_non_nilpotent_raises(self, n_mat):
        with pytest.raises(ValueError, match="not nilpotent"):
            rank_profile(n_mat, 5)

    def test_single_block_takes_logarithmic_eliminations(self, monkeypatch):
        calls = []
        eliminate = oracle._eliminate

        def counted(a, p):
            calls.append(a.shape)
            return eliminate(a, p)

        monkeypatch.setattr(oracle, "_eliminate", counted)
        group = GroupSpec(5, 3)
        assert jordan_type(realize(ModuleSum(group, (125,)))).parts == (125,)
        assert 0 < len(calls) <= 2 * math.ceil(math.log2(125)) + 4

    @pytest.mark.parametrize("group, parts, most", [
        (GroupSpec(5, 3), (100, 50, 3), 24),
        (GroupSpec(2, 5), (30, 3), 12),
    ], ids=["J_100+J_50+J_3", "J_30+J_3"])
    def test_a_miss_bounds_later_jumps(self, monkeypatch, group, parts, most):
        # a miss at jump j shows that the stretch ends within j powers, so
        # no later jump of the stretch may reach j again (32 and 13
        # eliminations when a proof doubled back past the bound)
        calls = []
        eliminate = oracle._eliminate
        monkeypatch.setattr(oracle, "_eliminate",
                            lambda a, p: calls.append(a.shape) or eliminate(a, p))
        assert jordan_type(realize(ModuleSum(group, parts))).parts == parts
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("group, parts", [
        (GroupSpec(3, 1), (1,)),
        (GroupSpec(5, 3), (100, 50, 3)),
        (GroupSpec(2, 5), (30, 3)),
        (GroupSpec(7, 2), (49, 7, 1)),
    ], ids=["J_1", "J_100+J_50+J_3", "J_30+J_3", "J_49+J_7+J_1"])
    def test_no_product_with_an_empty_operand(self, monkeypatch, group,
                                              parts):
        # once the rank reaches 0 the profile is complete: no product of a
        # 0-row matrix by a 0-column basis follows
        shapes = []
        product = oracle.matmul_mod

        def counted(a, b, p):
            shapes.append((a.shape, b.shape))
            return product(a, b, p)

        monkeypatch.setattr(oracle, "matmul_mod", counted)
        assert jordan_type(realize(ModuleSum(group, parts))).parts == parts
        assert all(0 not in a + b for a, b in shapes), shapes
        if parts == (1,):
            assert shapes == []


def record(monkeypatch, name, seen, what):
    """Patch oracle.`name` to append what(args, result) to `seen`."""
    kernel = getattr(oracle, name)

    def recording(*args):
        out = kernel(*args)
        seen.append(what(args, out))
        return out

    monkeypatch.setattr(oracle, name, recording)


class TestRestrictionFromParts:
    """rank_profile restricts M to im M^j from `_eliminate`'s parts (S, D,
    X): a gather while D is empty, else one product by X, of inner width
    |D|.  It carries the power it has proven, so a jump that doubles
    squares once; squarings are the products of a matrix by itself."""

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("p", [2, 3, 32749])
    @pytest.mark.parametrize("parts", [[8, 8, 8], [30, 3], [12, 5, 5, 1]])
    def test_cores_against_power_ranks(self, monkeypatch, p, dtype, parts):
        # some elimination has dependent rows D, so a restriction product
        # sums residues: 2 (p - 1) does not fit int16 at p = 32749
        cores, restrictions = [], []
        record(monkeypatch, "_eliminate", cores, lambda args, out: out[1].size)
        record(monkeypatch, "matmul_mod", restrictions,
               lambda args, out: args[0] is not args[1])
        n_mat = hidden_nilpotent(p, parts, seed=1)
        assert rank_profile(n_mat.astype(dtype), p) == \
            reference_power_ranks(n_mat, p)
        assert any(cores) and any(restrictions)

    def test_shift_block_takes_no_restriction_product(self, monkeypatch):
        squarings = []
        record(monkeypatch, "matmul_mod", squarings,
               lambda args, out: args[0] is args[1])
        shift = oracle._shift_block(200, 5)
        np.fill_diagonal(shift, 0)
        assert rank_profile(shift, 5) == list(range(199, 0, -1))
        assert squarings and all(squarings)

    @pytest.mark.parametrize("parts, hidden, jumps", [
        ((256,), False, 7), ((64, 64, 64), False, 5), ((64, 64), True, 5)],
        ids=["J_256", "3*J_64", "hidden 2*J_64"])
    def test_one_squaring_per_jump(self, monkeypatch, parts, hidden, jumps):
        # two plain steps fall by d = len(parts), then jumps of 2, 4, ...
        # powers are each proven; recomputing M^j from M took 1 + 2 + ...
        # + jumps squarings
        p = 5 if hidden else 2
        n_mat = hidden_nilpotent(p, list(parts), seed=0) if hidden else \
            realize(ModuleSum(GroupSpec(2, 8), parts)).action - \
            np.eye(sum(parts), dtype=np.int16)
        eliminations, squarings = [], []
        record(monkeypatch, "_eliminate", eliminations, lambda args, out: 1)
        record(monkeypatch, "matmul_mod", squarings,
               lambda args, out: args[0] is args[1])
        assert rank_profile(n_mat, p) == [sum(max(n - s, 0) for n in parts)
                                          for s in range(1, parts[0])]
        assert len(eliminations) == 2 + jumps
        assert sum(squarings) == jumps
        assert all(squarings) != hidden  # a hidden basis has cores

    @pytest.mark.parametrize("p", [32749, 40009])
    def test_kronecker_square_at_the_top_of_int16(self, p):
        # J_24 (x) J_24 = J_47 + J_45 + ... + J_1 for p >= 47 (Clebsch-
        # Gordan), here on its Kronecker matrix: the eliminations and
        # restrictions run on residues whose sums pass 2^15, in int16 at
        # 32749 and in int64 at 40009
        square = kronecker(p, 1, 24, 24)
        assert jordan_type(square).parts == tuple(range(47, 0, -2))


class TestExactnessGuards:
    def test_guards_survive_python_dash_o(self):
        # a float64 product mod p = 4294967311 (> 2^32) is not exact, and
        # one unreduced update overflows int64; both must raise even with
        # asserts stripped
        code = textwrap.dedent("""
            import numpy as np
            from cyclicsource.oracle import column_space, matmul_mod
            a = np.array([[1, 2], [3, 4]], dtype=np.int64)
            for call in (lambda: matmul_mod(a, a + 1, 4294967311),
                         lambda: column_space(a, 4294967311)):
                try:
                    call()
                except OverflowError:
                    continue
                raise SystemExit("no OverflowError")
        """)
        # the child imports the package this process imported, also when
        # only pytest's `pythonpath` setting put it on sys.path
        src = str(Path(cyclicsource.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestLazyImport:
    def test_imported_module_is_returned_unchanged(self):
        assert oracle._lazy_import("numpy") is sys.modules["numpy"]
        assert oracle.np is np

    def test_missing_module_is_refused_at_once(self):
        with pytest.raises(ModuleNotFoundError) as info:
            oracle._lazy_import("no_such_module_for_the_oracle")
        assert info.value.name == "no_such_module_for_the_oracle"
        assert "no_such_module_for_the_oracle" not in sys.modules

    def test_module_runs_at_its_first_attribute_access(self, tmp_path,
                                                       monkeypatch):
        ran = tmp_path / "ran"
        (tmp_path / "lazy_probe.py").write_text(
            f"open({str(ran)!r}, 'w').close()\nVALUE = 7\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            probe = oracle._lazy_import("lazy_probe")
            assert not ran.exists()
            assert probe.VALUE == 7 and ran.exists()
            assert oracle._lazy_import("lazy_probe") is probe
        finally:
            sys.modules.pop("lazy_probe", None)


def reference_echelon(a, p):
    """`_gauss_jordan`'s (E, rows) of a mod p, from the reference RREF of
    a.T."""
    rref_t, rows = reference_rref(a.T, p)
    return np.array(rref_t, dtype=np.int64).reshape(len(rows), a.shape[0]).T, rows


def panel_pivots(p, m, n, seed):
    """An m x n matrix of rank n whose first n blocks of 64 rows each bring
    one new independent row, so that every row below the n-th block has
    taken n updates unreduced."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, (n, n))
    while reference_rank(basis, p) < n:
        basis = rng.integers(0, p, (n, n))
    coeffs = rng.integers(0, p, (m, n))
    for k in range(n):
        coeffs[k * 64 : (k + 1) * 64, k + 1 :] = 0
        coeffs[k * 64, k] = 1
    return coeffs @ basis % p


class TestKernelWidths:
    """The elimination and the reduction of a product work in int16 or
    int64, the product in float32 or float64, whichever the exactness bound
    allows; the results must not depend on it.  An elimination of k =
    min(rows, columns) updates works in int16 while k (p-1)^2 + p < 2^15:
    at 130 updates 13 | 17 is the int16 | int64 boundary (130 * 12^2 + 13 =
    18,733 and 130 * 16^2 + 17 = 33,297), 23 and 29 run in int64, and
    5791, 5801 and 65521 put large entries in int64; with 8 columns, 8
    updates keep p = 61 in int16."""

    @pytest.mark.parametrize("p", [13, 17, 23, 29, 5791, 5801, 65521])
    @pytest.mark.parametrize("m, n, k", [(150, 130, 130), (130, 150, 100),
                                         (200, 90, 70)])
    def test_column_space_across_type_boundaries(self, p, m, n, k):
        rng = np.random.default_rng(m * p + k)
        a = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
        a += p * rng.integers(-3, 4, (m, n))  # unreduced and negative
        basis, rows = oracle._gauss_jordan(oracle._mod(a, p), p)
        want, want_rows = reference_echelon(a, p)
        assert basis.dtype == np.int64 and rows == want_rows
        assert np.array_equal(basis, want)
        assert np.array_equal(column_space(a, p), want)

    @pytest.mark.parametrize("p", [2, 23, 61, 181, 65521])
    def test_tall_matrix_rows_below_grow(self, p):
        a = panel_pivots(p, 1024, 8, seed=p)
        basis, rows = oracle._gauss_jordan(oracle._mod(a, p), p)
        want, want_rows = reference_echelon(a, p)
        assert rows == want_rows == [k * 64 for k in range(8)]
        assert np.array_equal(basis, want)

    @pytest.mark.parametrize("inner", [255, 256, 257, 300])
    def test_products_near_two_to_the_24(self, inner):
        # p = 257: inner (p-1)^2 < 2^24 exactly for inner <= 255
        p = 257
        rng = np.random.default_rng(inner)
        for a, b in [(np.full((3, inner), p - 1), np.full((inner, 4), p - 1)),
                     (rng.integers(p - 4, p, (3, inner)),
                      rng.integers(p - 4, p, (inner, 4)))]:
            want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
                     for col in b.T] for row in a]
            got = matmul_mod(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("p, inner", [
        # inner (p-1)^2 just below and at 2^15, the int16 | int64 step of
        # the reduction, and just below and at 2^31
        (2, 2**15 - 1), (2, 2**15), (3, 2**13 - 1), (3, 2**13),
        (257, 2**15 - 1), (257, 2**15)])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_reduction_bounds(self, p, inner, dtype):
        a = np.full((2, inner), p - 1, dtype=dtype)
        b = np.full((inner, 3), p - 1, dtype=dtype)
        got = matmul_mod(a, b, p)
        assert got.dtype == dtype
        assert got.tolist() == [[inner * (p - 1) ** 2 % p] * 3] * 2

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("size", [oracle.SMALL - 1, oracle.SMALL])
    @pytest.mark.parametrize("p", [2, 23, 181])
    def test_mod_at_the_extremes(self, dtype, size, p):
        # below SMALL entries a remainder call, from SMALL on a - (a // p) p,
        # whose product wraps around at the ends of the type
        info = np.iinfo(dtype)
        edges = [info.min, info.min + 1, -p, -1, 0, 1, p - 1, p,
                 info.max - 1, info.max]
        a = np.resize(np.array(edges, dtype=dtype), size)
        got = oracle._mod(a, p)
        assert got.dtype == dtype
        assert got.tolist() == [int(x) % p for x in a]

    @pytest.mark.parametrize("p", [2, 5, 23, 29])
    @pytest.mark.parametrize("m, n, k", [(300, 280, 40), (280, 300, 200)])
    def test_sparse_core_updates(self, monkeypatch, p, m, n, k):
        # cores of SPARSE cells or more update only the rows a pivot
        # column hits
        gauss_jordan, cores = oracle._gauss_jordan, []

        def recording(a, p):
            cores.append(a.size)
            return gauss_jordan(a, p)

        monkeypatch.setattr(oracle, "_gauss_jordan", recording)
        rng = np.random.default_rng(m * p + k)
        a = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
        a[rng.random(a.shape) < 0.9] = 0  # sparse rows and columns
        a += p * rng.integers(-3, 4, (m, n))
        basis, rows = oracle._gauss_jordan(oracle._mod(a, p), p)
        assert len(cores) == 1 and cores[0] >= oracle.SPARSE
        want, want_rows = reference_echelon(a, p)
        assert rows == want_rows
        assert np.array_equal(basis, want)


def sparse_matrix(rng, p, m, n, density, dtype):
    """An m x n matrix with about `density` of its entries non-zero mod p,
    some stored as the negative representative, and with duplicated rows."""
    a = rng.integers(0, p, (m, n)) - p * rng.integers(0, 2, (m, n))
    a[rng.random((m, n)) >= density] = 0
    if m > 1:
        a[rng.integers(0, m, m // 4)] = a[rng.integers(0, m, m // 4)]
    return a.astype(dtype)


def column_peel_rows(a):
    """The rows that the column-singleton peel takes, one at a time: while
    some column is non-zero in exactly one live row, take that row.  Taking
    a row only lowers the counts, so the set does not depend on the order."""
    live, taken = a.any(axis=1), set()
    while (single := ((a != 0) & live[:, None]).sum(axis=0) == 1).any():
        row = int(((a[:, single.argmax()] != 0) & live).argmax())
        taken.add(row)
        live[row] = False
    return taken


def chained(rng, p, depth, dtype):
    """A matrix of a triangular chain of `depth` rows: lower triangular
    rows L (row t non-zero at columns t - 1 and t), combinations of L's
    rows so that no column is a singleton, a block beside them, rows that
    combine both, and zero rows; rows and columns shuffled."""
    lower = np.tril(rng.integers(0, p, (depth, depth)), -2)
    lower[np.diag_indices(depth)] = rng.integers(1, p, depth)
    lower[np.arange(1, depth), np.arange(depth - 1)] = \
        rng.integers(1, p, depth - 1)
    rows = np.block([[lower, np.zeros((depth, 6), dtype=np.int64)],
                     [np.zeros((8, depth), dtype=np.int64),
                      rng.integers(0, p, (8, 6))]])
    mixed = rng.integers(0, p, (depth // 2 + 4, len(rows))) @ rows % p
    a = np.vstack((rows, mixed, np.zeros((3, depth + 6), dtype=np.int64)))
    return a[rng.permutation(len(a))][:, rng.permutation(depth + 6)].astype(dtype)


class TestSingletonPeel:
    """`_eliminate` peels the rows of singleton columns before the
    Gauss-Jordan pass runs on the core.  Its parts (S, D, X) must hold the
    contract on any input: S a basis of the row space and, as a set, its
    greedy row profile, D the other non-zero rows, a[D] = X a[S[-k:]] mod
    p, and the rows before S[-k:] exactly the column-singleton rows, on
    which no row of D takes a coefficient."""

    @staticmethod
    def assert_parts(a, p):
        s, d, x = oracle._eliminate(oracle._mod(a, p), p)
        reduced = a.astype(np.int64) % p
        nonzero = set(np.flatnonzero(reduced.any(axis=1)))
        assert len(set(s)) == len(s) and len(set(d)) == len(d)
        assert set(s) | set(d) == nonzero and not set(s) & set(d)
        assert len(s) == reference_rank(reduced, p) == \
            reference_rank(reduced[s], p)
        k = x.shape[1]
        assert x.dtype == a.dtype and x.shape[0] == len(d)
        assert np.array_equal(
            x.astype(np.int64) @ reduced[s[len(s) - k:]] % p, reduced[d])
        assert set(s[: len(s) - k]) == column_peel_rows(reduced)
        # a peeled row has a column that no row still live in its round
        # hits, so no dependency uses it: S is the greedy profile
        assert set(s) == set(reference_echelon(reduced, p)[1])

    @pytest.mark.parametrize("p, dtype", [
        *[(p, dtype) for p in [2, 3, 5, 101, 32749]
          for dtype in [np.int16, np.int64]],
        (40009, np.int64)])  # 40009 does not fit int16
    def test_random_sparse(self, p, dtype):
        rng = np.random.default_rng(p)
        # square, wide, and tall
        for m, n in [(120, 120), (40, 300), (300, 40)]:
            for density in [0.005, 0.02, 0.05, 0.2]:
                self.assert_parts(sparse_matrix(rng, p, m, n, density, dtype), p)
        for depth in [3, 12, 30]:
            self.assert_parts(chained(rng, p, depth, dtype), p)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("p", [2, 5, 32749])
    def test_edge_cases(self, p, dtype):
        rng = np.random.default_rng(p)
        n = 70
        permutation = np.zeros((n, n), dtype=dtype)
        permutation[np.arange(n), rng.permutation(n)] = rng.integers(1, p, n)
        for a in [np.zeros((0, 5), dtype=dtype), np.zeros((5, 0), dtype=dtype),
                  np.zeros((0, 0), dtype=dtype), np.zeros((9, 7), dtype=dtype),
                  permutation,  # peeled whole
                  rng.integers(1, p, (n, n)).astype(dtype)]:  # no singleton
            self.assert_parts(a, p)

    def test_peel_engages(self, monkeypatch):
        gauss_jordan = oracle._gauss_jordan
        eliminate = oracle._eliminate
        inputs, cores = [], []

        def eliminate_recording(a, p):
            inputs.append(a.shape)
            return eliminate(a, p)

        def gauss_jordan_recording(a, p):
            cores.append((inputs[-1], a.shape))
            return gauss_jordan(a, p)

        monkeypatch.setattr(oracle, "_eliminate", eliminate_recording)
        monkeypatch.setattr(oracle, "_gauss_jordan", gauss_jordan_recording)
        # every column of the nilpotent shift is a singleton, and so is
        # every column of each power and restriction of it
        shift = oracle._shift_block(200, 5)
        np.fill_diagonal(shift, 0)
        assert rank_profile(shift, 5) == list(range(199, 0, -1))
        assert inputs and not any(m for _, (m, _) in cores)
        square = kronecker(5, 2, 24, 24)
        inputs.clear()
        assert jordan_type(square).parts == (25,) * 23 + (1,)
        assert cores
        assert all(core[0] < shape[0] and core[1] < shape[1]
                   for shape, core in cores)


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_echelon_takes_no_product(monkeypatch, p):
    # the Gauss-Jordan pass multiplies no matrices, neither on a dense
    # core of many rows nor on rows that take every pivot's update
    def refused(a, b, p):
        raise AssertionError("matmul_mod called")

    monkeypatch.setattr(oracle, "matmul_mod", refused)
    rng = np.random.default_rng(p)
    dense = rng.integers(0, p, (300, 40)) @ rng.integers(0, p, (40, 300)) % p
    for a in [dense, panel_pivots(p, 1024, 8, seed=p)]:
        basis, rows = oracle._gauss_jordan(oracle._mod(a, p), p)
        want, want_rows = reference_echelon(a, p)
        assert rows == want_rows
        assert np.array_equal(basis, want)


class TestNarrowTypes:
    """Residues fit int16 while p - 1 does, and the oracle keeps them
    there: every kernel function returns the integer type it is given."""

    def test_rank_profile_loop_stays_int16(self, monkeypatch):
        # every elimination input and X, every product's operands and result
        seen = {}
        for name in ("_eliminate", "matmul_mod"):
            kernel = getattr(oracle, name)

            def recording(*args, kernel=kernel, name=name):
                out = kernel(*args)
                arrays = (*args, out[2] if name == "_eliminate" else out)
                seen.setdefault(name, set()).update(
                    x.dtype for x in arrays if isinstance(x, np.ndarray))
                return out

            monkeypatch.setattr(oracle, name, recording)
        group = GroupSpec(5, 2)
        kron = np.kron(realize(ModuleSum(group, (24,))).action,
                       realize(ModuleSum(group, (24,))).action)
        # J_24 = Omega(J_1) over C_25, so its tensor square is J_1 plus
        # projectives
        parts = jordan_type(MatrixModule(group, kron)).parts
        assert parts == (25,) * 23 + (1,)
        narrow = {np.dtype(np.int16)}
        assert seen == {"_eliminate": narrow, "matmul_mod": narrow}

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @pytest.mark.parametrize("p", [5, 29])
    def test_kernels_keep_the_type(self, dtype, p):
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, (70, 70)).astype(dtype)
        b = rng.integers(0, p, (70, 3)).astype(dtype)
        assert matmul_mod(a, b, p).dtype == dtype
        for e in (0, 1, 3):
            assert matpow_mod(a, e, p).dtype == dtype
        assert column_space(a, p).dtype == dtype
        assert oracle._gauss_jordan(oracle._mod(a, p), p)[0].dtype == dtype
        want = matmul_mod(a.astype(np.int64), b.astype(np.int64), p)
        assert np.array_equal(matmul_mod(a, b, p), want)
        assert np.array_equal(column_space(a, p),
                              column_space(a.astype(np.int64), p))

    @pytest.mark.parametrize("p, dtype", [(32749, np.int16),
                                          (32771, np.int64)])
    def test_matrices_are_built_in_the_residue_type(self, p, dtype):
        # int16 holds every residue mod 32749 but not mod 32771; an input is
        # reduced before it is narrowed, so 70,001 and -40,000 do not wrap
        group = GroupSpec(p, 1)
        block = oracle._shift_block(4, p)
        assert block.dtype == dtype
        assert block.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0],
                                  [0, 0, 1, 1]]
        realized = realize(ModuleSum(group, (3, 2, 1)))
        assert realized.action.dtype == dtype
        assert jordan_type(realized).parts == (3, 2, 1)
        narrow = MatrixModule(group, block.astype(np.int16))
        assert narrow.action.dtype == dtype
        assert jordan_type(narrow).parts == (4,)
        entries = [[1, 0, 0], [70001, 1, 0], [0, -40000, 1]]
        wide = MatrixModule(group, entries)
        assert wide.action.dtype == dtype
        assert wide.action.tolist() == [[x % p for x in row] for row in entries]
        assert jordan_type(wide).parts == (3,)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.uint64])
    def test_any_integer_input_type(self, dtype):
        # I + 4 N with N the 40 x 40 shift: 4 = 1 mod 3, so one block J_40;
        # 1,600 entries take the a - (a // p) p reduction
        action = np.eye(40, dtype=dtype) + 4 * np.eye(40, k=-1, dtype=dtype)
        m = MatrixModule(GroupSpec(3, 4), action)
        assert m.action.dtype == np.int16
        assert jordan_type(m).parts == (40,)

    @pytest.mark.parametrize("action", [
        [[1.7, 0.4], [1.2, 1.0]], np.eye(2, dtype=bool), [[2**70, 0], [1, 1]],
    ], ids=["float", "bool", "beyond-int64"])
    def test_non_integer_action_refused(self, action):
        # a float action was truncated to [[1, 0], [1, 1]], which is J_2
        with pytest.raises(ValueError, match="must be an integer matrix"):
            MatrixModule(C3, action)

    @pytest.mark.parametrize("action", [
        np.ones((2, 3), dtype=np.int64), np.ones(4, dtype=np.int64),
        np.ones((2, 2, 2), dtype=np.int64),
    ], ids=["2x3", "vector", "cube"])
    def test_non_square_action_refused(self, action):
        with pytest.raises(ValueError, match="must be a square matrix"):
            MatrixModule(C3, action)


class TestJordanType:
    def test_round_trip_realize(self):
        m = ModuleSum(C9, (5, 3, 1))
        assert jordan_type(realize(m)) == m

    @given(st.data())
    def test_round_trip_random(self, data):
        group = data.draw(st.sampled_from([C3, C4, C9, GroupSpec(5, 1)]))
        parts = data.draw(st.lists(st.integers(1, group.order),
                                   min_size=1, max_size=5))
        m = ModuleSum(group, tuple(parts))
        assert jordan_type(realize(m)) == m

    def test_rejects_non_unipotent(self):
        bad = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="not unipotent"):
            jordan_type(MatrixModule(C3, bad))

    def test_blocks_longer_than_the_order_refused(self):
        # J_n is an action of C_(p^ell) only for n <= p^ell; one message
        # for every longer block, one past the order included
        def block(n):
            return np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)

        assert jordan_type(MatrixModule(C9, block(9))).parts == (9,)
        for group, n in [(C3, 4), (C9, 10)]:
            with pytest.raises(ValueError, match="not unipotent of p-power"):
                jordan_type(MatrixModule(group, block(n)))

    def test_jordan_chains_recover_type(self):
        m = ModuleSum(C9, (6, 3, 3, 1))
        mat = realize(m).action
        n = (mat - np.eye(m.dim, dtype=np.int64)) % 3
        chains = jordan_chains(n, 3)
        assert sorted((len(c) for c in chains), reverse=True) == [6, 3, 3, 1]
        # the chain vectors together form a basis
        flat = np.column_stack([v for c in chains for v in c])
        assert rank_mod(flat, 3) == m.dim

    @given(st.data())
    @settings(max_examples=25)
    def test_jordan_chains_random(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        group = GroupSpec(p, 2)
        parts = data.draw(st.lists(st.integers(1, group.order),
                                   min_size=1, max_size=4))
        m = ModuleSum(group, tuple(parts))
        mat = realize(m).action
        n = (mat - np.eye(m.dim, dtype=np.int64)) % p
        chains = jordan_chains(n, p)
        assert tuple(sorted((len(c) for c in chains), reverse=True)) == m.parts
        for chain in chains:
            top = chain[0][:, None]
            assert not np.any(matpow_mod(n, len(chain), p) @ top % p)


class TestCapacity:
    def test_within(self):
        check_capacity(1024)

    def test_exceeded(self):
        with pytest.raises(OracleCapacityError, match="oracle capacity exceeded"):
            check_capacity(2000, cap=1 << 20)

    @pytest.mark.parametrize("group", [GroupSpec(2, 3), C9, GroupSpec(3, 3)])
    @pytest.mark.parametrize("cap", [1, 4, 16, 50, 81, 400])
    def test_refused_exactly_over_the_cap(self, group, cap):
        # restriction builds the n x n block; relative syzygy also induces
        # the largest restricted part, of size ceil(n/q), back up
        for n in range(1, group.order + 1):
            m = ModuleSum(group, (n,))
            for i in range(group.ell + 1):
                q = group.p ** (group.ell - i)
                for fn, dim in ((restrict_oracle, n),
                                (relative_heller_oracle, q * -(-n // q))):
                    if dim * dim > cap:
                        with pytest.raises(OracleCapacityError):
                            fn(m, i, cap)
                    else:
                        fn(m, i, cap)

    def test_restriction_refuses_per_part(self):
        # each part is its own 3 x 3 matrix; the 6-dimensional sum is never
        # built
        assert restrict_oracle(ModuleSum(C9, (3, 3)), 1, cap=9) == \
            ModuleSum(C3, (1, 1, 1, 1, 1, 1))


class TestIndexPSteps:
    @pytest.mark.parametrize("group", [
        GroupSpec(2, 5), GroupSpec(3, 3), GroupSpec(5, 2), GroupSpec(7, 2),
        GroupSpec(11, 1), GroupSpec(2, 6)],
        ids=["C_32", "C_27", "C_25", "C_49", "C_11", "C_64"])
    def test_chained_steps_against_one_shot(self, group):
        # ell - i index-p steps give the Jordan type of the one-shot matrix
        for i in range(group.ell + 1):
            sub = group.subgroup(i)
            for n in range(1, group.order + 1):
                assert restrict_oracle(ModuleSum(group, (n,)), i) == \
                    restricted(n, group, i), (n, i)
            for a in range(1, sub.order + 1):
                assert induce_oracle(ModuleSum(sub, (a,)), group) == \
                    induced(a, group, i), (a, i)

    @pytest.mark.parametrize("p, sizes", [
        (2, range(1, 65)), (3, range(1, 82)), (5, range(1, 126)),
        (5, [1, 2, 3, 4, 5, 6, 124, 125, 126, 625])],
        ids=["C_64", "C_81", "C_125", "C_625"])
    def test_restriction_step_is_the_power_by_squaring(self, monkeypatch, p,
                                                       sizes):
        # the step hands N^p to the rank path (held back here, off the
        # cache): I + N^p is (I + N)^p, the p-th power of the shift block,
        # as matpow_mod takes it by squaring
        steps = []
        monkeypatch.setattr(oracle, "_nilpotent_type",
                            lambda n_mat, p: steps.append(n_mat) or ())
        for n in sizes:
            oracle._restricted_jordan.__wrapped__(p, n)
            step = steps.pop() + np.eye(n, dtype=np.int64)
            power = matpow_mod(oracle._shift_block(n, p), p, p)
            assert np.array_equal(step, power), n

    def test_a_sum_takes_each_distinct_part_once(self, monkeypatch):
        # J_5 + J_5 + J_2 over C_9 down to D_0: one step each from J_5, J_2
        # and the parts they restrict to, J_2 and J_1
        asked = []
        step = oracle._restricted_jordan.__wrapped__
        monkeypatch.setattr(oracle, "_restricted_jordan",
                            lambda p, n: asked.append(n) or step(p, n))
        assert restrict_oracle(ModuleSum(C9, (5, 5, 2)), 0) == \
            ModuleSum(C9.subgroup(0), (1,) * 12)
        assert sorted(asked) == [1, 2, 2, 5]

    def test_no_step_to_d_itself(self, monkeypatch):
        def refused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(oracle, "_restricted_jordan", refused)
        monkeypatch.setattr(oracle, "_induced_jordan", refused)
        m = ModuleSum(C9, (7, 4, 4))
        assert restrict_oracle(m, 2) == m
        assert induce_oracle(m, C9) == m

    def test_one_kernel_per_part_size(self):
        # one verify of the four suites on C_32 builds one step matrix per
        # Jordan size: at most 32 restrictions and, from proper subgroups
        # only, 16 inductions; kernels keyed on (i, n) would build 192 and 63
        oracle._restricted_jordan.cache_clear()
        oracle._induced_jordan.cache_clear()
        results = verify.run_suites(GroupSpec(2, 5), [
            "relative-heller", "restriction", "induction",
            "operator-composition"])
        assert all(r.passed for r in results)
        assert oracle._restricted_jordan.cache_info().misses <= 32
        assert oracle._induced_jordan.cache_info().misses <= 16


class TestTensor:
    def test_worked_value(self):
        j2 = ModuleSum(C3, (2,))
        assert tensor_decompose(j2, j2).parts == (3, 1)

    def test_trivial_is_identity(self):
        m = ModuleSum(C9, (5, 2))
        assert tensor_decompose(m, ModuleSum(C9, (1,))) == m

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_commutative_and_dim_multiplicative(self, data):
        group = data.draw(st.sampled_from([C3, C4, C9]))
        a = ModuleSum(group, tuple(data.draw(
            st.lists(st.integers(1, group.order), min_size=1, max_size=2))))
        b = ModuleSum(group, tuple(data.draw(
            st.lists(st.integers(1, group.order), min_size=1, max_size=2))))
        ab = tensor_decompose(a, b)
        assert ab == tensor_decompose(b, a)
        assert ab.dim == a.dim * b.dim

    @pytest.mark.parametrize("group, most", [
        (GroupSpec(2, 4), None), (GroupSpec(5, 2), None),
        (GroupSpec(3, 3), 256), (GroupSpec(7, 2), 256)],
        ids=["C_16", "C_25", "C_27", "C_49"])
    def test_graded_kernel_against_kronecker(self, group, most):
        # every pair r <= s, or those with r s <= most, against the rank
        # path on the Kronecker matrix
        p, ell, q = group.p, group.ell, group.order
        for r in range(1, q + 1):
            for s in range(r, q + 1):
                if most is None or r * s <= most:
                    assert oracle._tensor_pair.__wrapped__(p, r, s) == \
                        jordan_type(kronecker(p, ell, r, s)).parts, (r, s)

    def test_graded_kernel_at_the_top_of_int16(self):
        # the basis is int16 at p = 32749, and the images sum two residues
        # past 2^15.  J_3 (x) J_(p-1) = Omega(J_3) + 2 J_p, as J_(p-1) =
        # Omega(J_1), and its projective parts need exact sums: with the
        # images in int16 a part p + 1 came out
        p = 32749
        assert oracle._tensor_pair.__wrapped__(p, 7, 30) == \
            jordan_type(kronecker(p, 1, 7, 30)).parts
        assert oracle._tensor_pair.__wrapped__(p, 3, p - 1) == (p, p, p - 3)

    @pytest.mark.parametrize("group", [
        GroupSpec(2, 6), GroupSpec(3, 4), GroupSpec(5, 3)],
        ids=["C_64", "C_81", "C_125"])
    def test_graded_kernel_against_the_walk(self, group):
        # beyond the Kronecker matrix's reach: sizes next to the powers of
        # p and at the top, every pair r <= s with r s < q^2 / 4 and
        # J_(q-1) (x) J_(q-1), against the walk with one elimination per
        # degree
        p, q = group.p, group.order
        sizes = sorted({2, q - p - 1, q - 1} | {
            p ** e + d for e in range(1, group.ell) for d in (-1, 1)} - {1})
        pairs = [(r, s) for r, s in
                 itertools.combinations_with_replacement(sizes, 2)
                 if 4 * r * s < q * q] + [(q - 1, q - 1)]
        for r, s in pairs:
            assert oracle._tensor_pair.__wrapped__(p, r, s) == \
                graded_tensor_walk(p, r, s), (r, s)

    def test_graded_kernel_runs_no_elimination(self, monkeypatch):
        # J_24 (x) J_24 over C_25: no elimination, no product and no
        # Kronecker matrix; only the image of row r - 1 and the rows it
        # displaces are reduced, fewer times than there are degrees
        def refused(*args):
            raise AssertionError("called")

        for name in ("column_space", "_gauss_jordan", "_eliminate",
                     "matmul_mod"):
            monkeypatch.setattr(oracle, name, refused)
        monkeypatch.setattr(oracle.np, "kron", refused)
        reductions = []
        record(monkeypatch, "_reduce", reductions, lambda args, out: args[2])
        assert oracle._tensor_pair.__wrapped__(5, 24, 24) == \
            (25,) * 23 + (1,)
        assert len(reductions) <= 23


class TestEndoPermutationAndCap:
    def test_known_class_member(self):
        assert is_endo_permutation(ModuleSum(C9, (2,)))
        assert is_endo_permutation(ModuleSum(C9, (8,)))

    def test_known_non_member(self):
        assert not is_endo_permutation(ModuleSum(C9, (4,)))

    def test_cap_part(self):
        assert cap_part(ModuleSum(C9, (3, 3, 2))) == 2

    def test_cap_requires_unique_coprime_part(self):
        with pytest.raises(NotCappedError, match="zero module"):
            cap_part(ModuleSum(C9, ()))
        with pytest.raises(NotCappedError):
            cap_part(ModuleSum(C9, (3, 3)))
        with pytest.raises(NotCappedError):
            cap_part(ModuleSum(C9, (2, 1)))
        # repeated copies of a single coprime size are a valid cap
        assert cap_part(ModuleSum(C9, (2, 2))) == 2


class TestClosedFormsAgainstOracle:
    @pytest.mark.parametrize("p,ell", [(2, 1), (2, 2), (2, 3),
                                       (3, 1), (3, 2), (5, 1)])
    def test_restrict(self, p, ell):
        group = GroupSpec(p, ell)
        for n in range(1, group.order + 1):
            for i in range(0, ell + 1):
                m = ModuleSum(group, (n,))
                assert modules.restrict(m, i) == restrict_oracle(m, i)

    @pytest.mark.parametrize("p,ell", [(2, 3), (3, 2), (5, 1)])
    def test_induce(self, p, ell):
        group = GroupSpec(p, ell)
        for i in range(0, ell + 1):
            sub = group.subgroup(i)
            for a in range(1, sub.order + 1):
                m = ModuleSum(sub, (a,))
                assert modules.induce(m, group) == induce_oracle(m, group)

    @pytest.mark.parametrize("p,ell", [(2, 1), (2, 2), (2, 3),
                                       (3, 1), (3, 2), (5, 1)])
    def test_relative_heller(self, p, ell):
        group = GroupSpec(p, ell)
        for n in range(1, group.order + 1):
            for i in range(0, ell + 1):
                m = ModuleSum(group, (n,))
                assert modules.relative_heller(m, i) == \
                    relative_heller_oracle(m, i)

    @pytest.mark.parametrize("p,ell,imin", [(2, 1, 0), (2, 2, 0), (2, 3, 0),
                                            (3, 1, 0), (3, 2, 0), (5, 1, 0),
                                            (3, 3, 1), (5, 2, 1)])
    def test_relative_heller_counit_cross_check(self, p, ell, imin):
        # the heavy oracle: full counit kernel, minimized over an explicit
        # Jordan-chain decomposition; independent of the composite oracle
        group = GroupSpec(p, ell)
        for n in range(1, group.order + 1):
            for i in range(imin, ell + 1):
                closed = modules.relative_heller(ModuleSum(group, (n,)), i)
                assert closed == relative_heller_oracle_counit(n, i, group)

    def test_counit_kernel_can_be_indecomposable(self):
        # witness that the naive cover J_4 ->> J_3 over C_4 is not split on
        # restriction: the full counit kernel is one block, yet the
        # minimized kernel still matches the closed form J_1
        got = relative_heller_oracle_counit(3, 1, C4)
        assert got.parts == (1,)


class TestInduceOracle:
    @pytest.mark.parametrize("sub, to", [(C3, GroupSpec(5, 1)), (C9, C3)])
    def test_rejects_a_group_that_is_not_a_subgroup(self, sub, to):
        # one rule, stated in modules, for the oracle and the closed form
        for induce in (induce_oracle, modules.induce):
            with pytest.raises(modules.GroupMismatchError,
                               match=f"^{sub} is not a subgroup of {to}$"):
                induce(ModuleSum(sub, (1,)), to)

    def test_refused_over_the_cap(self):
        # Ind from D_0 = 1 to C_9 is 9-dimensional: 81 entries
        with pytest.raises(OracleCapacityError, match="limit is 80"):
            induce_oracle(ModuleSum(C9.subgroup(0), (1,)), C9, cap=80)
        assert induce_oracle(ModuleSum(C9.subgroup(0), (1,)), C9, cap=81) \
            == ModuleSum(C9, (9,))


class TestZeroModule:
    # the zero module builds no matrix, yet its arguments are checked

    @pytest.mark.parametrize(
        "fn", [restrict_oracle, relative_heller_oracle,
               modules.restrict, modules.relative_heller],
        ids=lambda fn: f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}")
    def test_subgroup_index_checked(self, fn):
        with pytest.raises(ValueError,
                           match=r"^subgroup index 5 out of range 0\.\.2$"):
            fn(ModuleSum(C9, ()), 5)

    @pytest.mark.parametrize("fn", [
        lambda m, cap: restrict_oracle(m, 1, cap),
        lambda m, cap: relative_heller_oracle(m, 1, cap),
        lambda m, cap: induce_oracle(m, C9, cap),
        lambda m, cap: tensor_decompose(m, m, cap),
    ], ids=["restrict", "relative-heller", "induce", "tensor"])
    def test_cap_checked(self, fn):
        with pytest.raises(ValueError,
                           match="^cap must be a positive integer, got 0$"):
            fn(ModuleSum(C9, ()), 0)
