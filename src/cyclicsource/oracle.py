"""Brute-force matrix oracle over the prime field F_p.

The `verify` sweeps hold the closed forms named in `verify.CERTIFIED` to
the explicit matrices built here.  A module is realized as the action of a
chosen generator, and its isomorphism type is recovered from the rank
sequence r_s = rank((A - I)^s), since the number of Jordan blocks of size
>= s+1 equals r_s - r_{s+1}.

Jordan types of unipotent matrices are insensitive to field extension, so
the prime field stands in for the algebraically closed coefficient field.

Matrices pass between functions as numpy integer arrays with entries
reduced mod p, and every kernel function returns the integer type it is
given.  One rule, `_int_type`, names every integer type: int16 if it holds
the bound at hand, else int64.  Every matrix the oracle builds is stored
in `_int_type(p - 1)` from the start, so the rank profile below
`jordan_type` stays in that type; the elimination works in the type of its
bound, and a product, taken through float32 BLAS below 2^24, else float64
BLAS below 2^53 (always, for the sizes admitted by the capacity check), is
cast to the type of its bound and reduced there once.

The rank path's elimination, `_eliminate`, takes the rows of singleton
columns as pivots in bulk before one Gauss-Jordan pass runs on the rest,
and returns a row basis S, the other non-zero rows D and X with a[D] =
X a[S]: `rank_profile` restricts M to im M^j as M' = M[S][:, S] +
M[S][:, D] X, a gather alone when D is empty, the sum held in the type of
2(p - 1).  `_echelon` keeps, by the plain pass, the reduced column
echelon form that `column_space` returns; `_tensor_pair` takes it for
speed, and builds no Kronecker matrix: it walks the grading of J_r (x)
J_s, one `_echelon` per degree on at most 2 min(r, s) x min(r, s) cells.
Its capacity check still counts the (n1 n2)^2 entries of the Kronecker
matrix.  Restriction to D_i and induction from it take
ell - i index-p steps, each read off one explicit matrix cached on (p, n):
g^p on J_n, the p-th power of the shift block, or the induced block of J_a,
of dimension p a.  Their capacity checks count the one-shot matrix, n^2 or
(a p^(ell-i))^2 entries, which no step exceeds.  numpy loads at the
oracle's first computation, not at import: `infer`, `tree` and `dade`
never load it.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache

from .groups import GroupSpec
from .modules import ModuleSum, _check_group, _check_subgroup, is_permutation


def _lazy_import(name: str):
    """Module `name`, imported at its first attribute access by the
    `importlib.util.LazyLoader` recipe; older CPython releases did not make
    that step thread-safe (the CLI has one thread).  An imported module is
    returned as it is, a missing one is a ModuleNotFoundError at once."""
    if name in sys.modules:
        return sys.modules[name]
    if (spec := importlib.util.find_spec(name)) is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
DEFAULT_CAPACITY = 1 << 20  # matrix entries (dim^2)


class OracleCapacityError(ValueError):
    pass


def capacity_limit(cap: int | None = None, source: str = "cap") -> int:
    """The oracle capacity in matrix entries: `cap` (named `source` in
    errors) if given, else DEFAULT_CAPACITY.  Anything but a positive
    integer is a ValueError."""
    if cap is None:
        return DEFAULT_CAPACITY
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"{source} must be a positive integer, got {cap!r}")
    return cap


def check_capacity(dim: int, cap: int | None = None) -> None:
    limit = capacity_limit(cap)
    if dim * dim > limit:
        raise OracleCapacityError(
            f"oracle capacity exceeded: {dim}x{dim} matrix needs "
            f"{dim * dim} entries, limit is {limit}"
        )


# ---------------------------------------------------------------------------
# exact linear algebra mod p


# Entries from which _mod divides rather than takes the remainder.
SMALL = 1024
# Cells from which a pivot updates only the rows its column hits.
SPARSE = 1 << 14


def _int_type(bound: int) -> type:
    """int16 if it holds every integer up to `bound` in size, else int64."""
    return np.int16 if bound < 2**15 else np.int64


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in [0, p), as a new array of a's integer type.

    numpy divides integers by a scalar in SIMD but takes their remainder
    one element at a time, so an array of SMALL entries or more is reduced
    as a - (a // p) p, three passes; a smaller one takes the one remainder
    call.  Both are exact for any entries: the floor quotient is exact, and
    the difference lies in [0, p), so the wrap-around of an intermediate
    product cancels.
    """
    if a.size < SMALL:
        return np.remainder(a, p)
    out = a // p
    out *= p
    return np.subtract(a, out, out=out)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of two matrices with entries in [0, p), reduced mod p, in the
    integer type of the operands.

    Taken in float32 BLAS while every dot product stays below 2^24, else in
    float64 BLAS, exact below 2^53.  The float result is cast to the
    `_int_type` of the bound and reduced there once, so with int16 operands
    and a bound below 2^15 no wider integer array is made.
    """
    bound = a.shape[1] * (p - 1) ** 2
    if bound >= 2**53:
        raise OverflowError(
            f"float64 product mod {p} with inner dimension {a.shape[1]} "
            f"would exceed 2^53"
        )
    real = np.float32 if bound < 2**24 else np.float64
    out = (a.astype(real) @ b.astype(real)).astype(_int_type(bound))
    return _mod(out, p).astype(np.result_type(a, b), copy=False)


def matpow_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by repeated squaring, starting from the power of the lowest
    set bit of e and with no squaring after the highest: a^(2^k) takes k
    products.  The result has a's integer type; a negative e is a
    ValueError."""
    if e < 0:
        raise ValueError(f"matrix power needs an exponent >= 0, got {e}")
    base = _mod(np.asarray(a), p)
    if e == 0:
        return np.eye(base.shape[0], dtype=base.dtype)
    while not e & 1:
        base = matmul_mod(base, base, p)
        e >>= 1
    result = base
    while e := e >> 1:
        base = matmul_mod(base, base, p)
        if e & 1:
            result = matmul_mod(result, base, p)
    return result


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """(S, D, X) for entries in [0, p): the rows S of a row basis, the
    other non-zero rows D, and a[D] = X a[S[-k:]] mod p, k = X.shape[1].

    The singleton peel of structured Gaussian elimination (LaMacchia and
    Odlyzko, CRYPTO 1990) takes in bulk rounds the row of each column that
    is non-zero in one live row: a pivot with no fill, on which no other
    row takes a coefficient, so S lists these rows first, outside X.  Such
    a row has a column that no row still live in its round hits, so no
    linear dependency uses it, and S is, as a set, the greedy row profile
    of `a`.  `_gauss_jordan` runs on the core left; X is its E at the
    dependent rows."""
    m = a.shape[0]
    hit = a != 0
    counts = hit.sum(axis=0)
    profile = np.zeros(m, dtype=bool)
    while (single := (counts == 1).nonzero()[0]).size:
        fresh = np.zeros(m, dtype=bool)
        fresh[hit[:, single].argmax(axis=0)] = True
        counts -= hit[fresh].sum(axis=0)
        hit[fresh] = False
        profile |= fresh
    free = profile.nonzero()[0]
    if not counts.any():  # every non-zero row was peeled
        return free, free[:0], a[:0, :0]
    core = hit.any(axis=1).nonzero()[0]
    basis, rows = _gauss_jordan(a[core][:, counts.nonzero()[0]], p)
    dep = np.ones(core.size, dtype=bool)
    dep[rows] = False
    return np.concatenate((free, core[rows])), core[dep], basis[dep]


def _echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """(E, rows), a = E @ a[rows] mod p, by the plain pass: rows is the row
    rank profile of `a` and E, of a's type, is in reduced column echelon
    form (column k is zero above rows[k], E[rows] = I), the unique E that
    `column_space` returns; `_eliminate` gives X on the core rows alone."""
    return _gauss_jordan(_mod(a, p), p)


def _gauss_jordan(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`_echelon`'s (E, rows) by one Gauss-Jordan pass, on any matrix.

    Column operations sweep the rows in order: each pivot clears its row in
    every other column, so a pivot row ends as a unit row, with delayed
    reduction: only the pivot row and column are reduced mod p, the rest
    once at the end.  An entry thus takes at most min(m, n) updates of at
    most (p-1)^2 each, and the work array is of the `_int_type` of
    min(m, n) (p-1)^2 + p; beyond int64 it raises OverflowError.  The
    oracle's matrices are sparse, so in a matrix of SPARSE cells or more a
    pivot updates only the rows that its column hits.  The input holds
    entries in [0, p); it is copied, never written.
    """
    m, n = a.shape
    updates = min(m, n)
    bound = updates * (p - 1) ** 2 + p
    if bound >= 2**63:
        raise OverflowError(
            f"elimination mod {p}: {updates} unreduced updates would "
            f"overflow int64"
        )
    w = a.astype(_int_type(bound), order="C")
    sparse = w.size >= SPARSE
    rows: list[int] = []
    r = 0
    for t in range(m):
        if r == n:
            break
        row = w[t] % p
        nz = row[r:].nonzero()[0]
        if nz.size == 0:
            continue
        j = r + int(nz[0])
        if j != r:  # the rows above are zero mod p in both columns
            w[:, r], w[:, j] = w[:, j], w[:, r].copy()
            row[r], row[j] = row[j], row[r]
        pivot = int(row[r])
        col = w[:, r] % p
        if pivot != 1:
            col = col * pow(pivot, p - 2, p) % p
        # with pivot - 1 in the pivot row, the update leaves col (mod p) in
        # column r and a unit row at t
        row[r] = pivot - 1
        if sparse:  # only the rows that col hits change
            hit = col.nonzero()[0]
            w[hit] -= col[hit, None] * row
        else:
            w -= col[:, None] * row
        rows.append(t)
        r += 1
    return _mod(w[:, :r], p).astype(a.dtype, copy=False), rows


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """A basis (as columns) of the column space of `a` mod p, in reduced
    column echelon form: the first non-zero entry of column k is a 1, in
    the k-th independent row, and is the only non-zero entry of that row."""
    return _echelon(a, p)[0]


# ---------------------------------------------------------------------------
# matrix modules


@dataclass(frozen=True, eq=False)
class MatrixModule:
    """A module given by the explicit action of the generator of the group."""

    group: GroupSpec
    action: np.ndarray  # dim x dim over F_p

    def __post_init__(self) -> None:
        a, p = np.asarray(self.action), self.group.p
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError("generator action must be an integer matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("generator action must be a square matrix")
        # reduced in the input's type, widened only to hold p, then narrowed
        a = _mod(a.astype(np.promote_types(a.dtype, np.min_scalar_type(p)),
                          copy=False), p).astype(_int_type(p - 1), copy=False)
        object.__setattr__(self, "action", a)

    @property
    def dim(self) -> int:
        return self.action.shape[0]


def _shift_block(n: int, p: int) -> np.ndarray:
    """Unipotent lower-shift Jordan block: I + N with N e_t = e_{t+1}."""
    dtype = _int_type(p - 1)
    return np.eye(n, dtype=dtype) + np.eye(n, k=-1, dtype=dtype)


def rank_profile(n_mat: np.ndarray, p: int) -> list[int]:
    """[rank(N), rank(N^2), ...] down to the last non-zero power.

    The loop keeps M, the action of N on the image of N^s, an r_s x r_s
    matrix with rank(M^t) = r_(s+t), and restricts it by the parts (S, D,
    X) of an elimination of M^j: the rows S of M^j are a basis of im M^j
    (rows act on the right, M^j M = M M^j), and a[D] = X a[S] gives
    M' = M[S][:, S] + M[S][:, D] X, a gather alone when D is empty.

    It gallops along stretches where the rank falls by a constant amount
    (convexity): d_s = r_s - r_(s+1), the dimension of ker N within im
    N^s, never increases (for nilpotent N it counts the Jordan blocks of
    size > s), so rank(M^j) = r_s - j d with d = d_(s-1) proves
    r_(s+t) = r_s - t d for every t <= j.  A plain step (j = 1) eliminates
    M.  Once it falls by the previous difference d, j = 2; a proof appends
    the j ranks and doubles j, a miss halves it.  j never passes the room
    left in the stretch: at most r_s / d powers, and fewer than j' once a
    jump of j' missed, a bound that later proofs keep.  M^j restricted by
    the same parts is (M')^j (im M^j is M-invariant), so the next jump
    squares it once; only a miss, or a jump cut below it by the room,
    takes the power from M again.  A single block J_n thus costs O(log n)
    eliminations instead of n - 1.  M, M' and the carried power are the
    only matrices alive.

    A plain step that leaves the rank unchanged proves that N is not
    nilpotent and raises ValueError; a profile is thus never longer than
    the matrix, and `jordan_type` alone bounds it by the group order.
    """
    ranks: list[int] = []
    mat = power = _mod(n_mat, p)  # power = mat^have
    # room: the powers by which the rank can still fall by d
    r, d, jump, room, have = n_mat.shape[0], 0, 1, 0, 1
    while r:
        while jump > room and jump > 1:
            jump //= 2
        if have > jump:
            power, have = mat, 1
        while have < jump:
            power, have = matmul_mod(power, power, p), 2 * have
        parts = _eliminate(power, p)
        rank = parts[0].size
        if jump == 1:
            if rank == r:
                raise ValueError(
                    f"matrix is not nilpotent: rank(N^{len(ranks)}) = "
                    f"rank(N^{len(ranks) + 1}) = {r}"
                )
            if r - rank == d:
                jump, room = 2, room - 1
            else:
                jump, d = 1, r - rank
                room = rank // d
        elif rank == r - jump * d:
            room -= jump
            jump *= 2
        else:
            room = jump - 1
            jump //= 2
            continue
        # r - d, r - 2d, ..., rank, without a trailing 0
        ranks.extend(range(r - d, max(rank, 1) - 1, -d))
        if not rank:  # the profile is complete: no product to take
            break
        r = rank
        power = _on_image(power, parts, p)  # (M')^have
        mat = power if have == 1 else _on_image(mat, parts, p)
    return ranks


def _on_image(mat: np.ndarray, parts, p: int) -> np.ndarray:
    """M' = M[S][:, S] + M[S][:, D] X, X on the last X.shape[1] rows of S:
    one product of inner width |D|, summed in the type of 2(p - 1)."""
    s, d, x = parts
    r = mat[s]
    out = r[:, s]
    if d.size:
        tail = out[:, s.size - x.shape[1]:]
        wide = tail.astype(_int_type(2 * (p - 1)), copy=False)
        wide += matmul_mod(r[:, d], x, p)
        tail[...] = _mod(wide, p)
    return out


def jordan_type(m: MatrixModule) -> ModuleSum:
    """Jordan block sizes of the generator action, from the rank sequence;
    a ValueError unless the action is unipotent of order dividing p^ell."""
    dim, p = m.dim, m.group.p
    # the rank profile keeps the stored type, so every matrix below is narrow
    n_mat = m.action.copy()
    np.fill_diagonal(n_mat, (n_mat.diagonal() - 1) % p)
    try:
        # ranks[s] - ranks[s+1] blocks have size > s, so the second
        # difference counts the blocks of size exactly s+1
        ranks = [dim] + rank_profile(n_mat, p) + [0, 0]
        parts: list[int] = []
        for s in range(len(ranks) - 2):
            parts.extend([s + 1] * (ranks[s] - 2 * ranks[s + 1] + ranks[s + 2]))
        out = ModuleSum(m.group, tuple(parts))
    except ValueError as exc:
        raise ValueError(
            "generator action is not unipotent of p-power order"
        ) from exc
    if out.dim != dim:
        raise AssertionError(f"Jordan type of dimension {out.dim}, not {dim}")
    return out


# ---------------------------------------------------------------------------
# oracle operations on ModuleSums: each checks the capacity per part and
# asks its kernel, cached on p and part sizes alone, for Jordan types;
# restriction and induction chain index-p steps, and the relative syzygy
# composes the two


@lru_cache(maxsize=4096)
def _tensor_pair(p: int, n1: int, n2: int) -> tuple[int, ...]:
    """Jordan type of J_n1 (x) J_n2, degree by degree.

    J_r (x) J_s, r <= s, is A = k[x, y]/(x^r, y^s) with the generator
    acting as (1 + x)(1 + y).  With y' = y(1 + x), a change of basis (1 + x
    is a unit, so y'^s generates the ideal of y^s), A = k[x, y']/(x^r,
    y'^s) and the nilpotent part is l = x + y', which maps A_k, the span
    of the x^a y'^(k-a), into A_(k+1).  The walk keeps a basis of A_k in
    the coordinates a, each row with the degree it was born at, oldest
    first.  One elimination per degree reads the greedy row profile of its
    images under l stacked over the identity of A_(k+1) (the elder rule):
    an image that depends on older ones ends a Jordan block of length
    k - birth + 1 (the row less those older rows is in ker l), and an
    identity row in the profile is born at k + 1.  No input to `_echelon`
    exceeds 2r x r.
    """
    r, s = sorted((n1, n2))
    narrow, wide = _int_type(p - 1), _int_type(2 * (p - 1))
    basis, born = np.ones((1, 1), dtype=narrow), [0]  # A_0 = k, born at 0
    parts: list[int] = []
    for k in range(r + s - 1):
        # A_k holds a in lo..hi, A_(k+1) holds a in up..top; column a + 1
        # of `full` holds a, and column 0 stays zero: no x-part reaches a = 0
        lo, hi = max(0, k - s + 1), min(k, r - 1)
        up, top = max(0, k - s + 2), min(k + 1, r - 1)
        full = np.zeros((len(born), r + 1), dtype=wide)
        full[:, lo + 1 : hi + 2] = basis
        # x^a y'^b -> x^(a+1) y'^b + x^a y'^(b+1); the slices drop x^r, y'^s
        images = full[:, up : top + 1] + full[:, up + 1 : top + 2]
        stack = _mod(np.vstack((images, np.eye(top - up + 1, dtype=wide))),
                     p).astype(narrow)
        rows = _echelon(stack, p)[1]
        kept = set(rows)
        parts.extend(k - b + 1 for i, b in enumerate(born) if i not in kept)
        born = [born[i] if i < len(born) else k + 1 for i in rows]
        basis = stack[rows]
    if sum(parts) != n1 * n2:
        raise AssertionError(
            f"Jordan type of dimension {sum(parts)}, not {n1 * n2}")
    return tuple(sorted(parts, reverse=True))


def tensor_decompose(a: ModuleSum, b: ModuleSum, cap: int | None = None) -> ModuleSum:
    """Jordan type of the tensor product with diagonal generator action.

    No closed form is trusted here: each pair of parts is decomposed on
    the grading of its tensor product, one elimination per degree, with
    results cached per (p, n1, n2).  The capacity is checked on the
    (n1 n2)^2 entries of its Kronecker matrix, which is never built.
    """
    _check_group(a, b)
    limit = capacity_limit(cap)
    parts: list[int] = []
    for n1 in a.parts:
        for n2 in b.parts:
            check_capacity(n1 * n2, limit)
            lo, hi = sorted((n1, n2))
            parts.extend(_tensor_pair(a.group.p, lo, hi))
    return ModuleSum._of(a.group, parts)


def _home(p: int, dim: int) -> GroupSpec:
    """The least C_(p^e) of order >= dim, the group of a step kernel's
    Jordan type."""
    e = 0
    while p ** e < dim:
        e += 1
    return GroupSpec(p, e)


def _chain(step, steps: int, parts) -> list[int]:
    """The parts of the sum of J_n, n in `parts`, after `steps` index-p
    steps, where step(n) is the Jordan type of one step from J_n.  Both
    restriction and induction are transitive and commute with direct sums,
    so each step takes each distinct part once, with its multiplicity."""
    counts: dict[int, int] = {}
    for n in parts:
        counts[n] = counts.get(n, 0) + 1
    for _ in range(steps):
        after: dict[int, int] = {}
        for n, k in counts.items():
            for c in step(n):
                after[c] = after.get(c, 0) + k
        counts = after
    return [c for c, k in counts.items() for _ in range(k)]


@lru_cache(maxsize=4096)
def _restricted_jordan(p: int, n: int) -> tuple[int, ...]:
    """Jordan type of J_n restricted to its subgroup of index p: the
    generator g^p acts as the p-th power of the shift block."""
    power = matpow_mod(_shift_block(n, p), p, p)
    return jordan_type(MatrixModule(_home(p, n), power)).parts


def _restriction(d: GroupSpec, i: int, parts, limit: int) -> list[int]:
    """The parts of Res_{D_i} of the sum of J_n, n in `parts`, by ell - i
    index-p steps; each J_n within `limit` as its own n x n block."""
    for n in parts:
        check_capacity(n, limit)
    return _chain(lambda n: _restricted_jordan(d.p, n), d.ell - i, parts)


def restrict_oracle(m: ModuleSum, i: int, cap: int | None = None) -> ModuleSum:
    """Restriction to D_i computed on explicit matrices, one index-p step
    at a time: the p-th power of each part's shift block, D_(i+1) to D_i.
    Restricting to D itself takes no step and returns m's parts."""
    sub = m.group.subgroup(i)
    return ModuleSum._of(sub, _restriction(m.group, sub.ell, m.parts,
                                           capacity_limit(cap)))


@lru_cache(maxsize=4096)
def _induced_jordan(p: int, a: int) -> tuple[int, ...]:
    """Jordan type of J_a induced from a subgroup of index p, on its
    explicit matrix.

    Basis g^j (x) e_t with j < p; the generator shifts j and wraps through
    the action of g^p, the generator of the subgroup, on J_a.
    """
    dim = a * p
    action = np.eye(dim, k=-a, dtype=_int_type(p - 1))
    action[:a, dim - a :] = _shift_block(a, p)
    return jordan_type(MatrixModule(_home(p, dim), action)).parts


def _induction(d: GroupSpec, i: int, parts, limit: int) -> list[int]:
    """The parts of Ind_{D_i}^D of the sum of J_a, a in `parts`, by ell - i
    index-p steps; each J_a within `limit` as its one-shot induced block of
    dimension a p^(ell-i), larger than any matrix a step builds."""
    for a in parts:
        check_capacity(a * d.p ** (d.ell - i), limit)
    return _chain(lambda a: _induced_jordan(d.p, a), d.ell - i, parts)


def induce_oracle(m: ModuleSum, to: GroupSpec, cap: int | None = None) -> ModuleSum:
    """Induction computed on explicit block matrices, one index-p step at a
    time, D_i to D_(i+1), each step's induced block of dimension p times
    the part's.  Inducing from D itself takes no step and returns m's
    parts."""
    _check_subgroup(m.group, to)
    return ModuleSum._of(to, _induction(to, m.group.ell, m.parts,
                                        capacity_limit(cap)))


def relative_heller_oracle(m: ModuleSum, i: int, cap: int | None = None) -> ModuleSum:
    """Kernel of the minimal relatively D_i-projective cover, by matrices.

    Per part J_n: its restriction to D_i, the induction of the distinct
    restricted parts back to D, each by ell - i index-p steps, and the
    smallest induced part J_c with c >= n.  Induction over a direct sum is
    block diagonal, and the kernel of J_c ->> J_n is J_(c-n), the span of
    e_n..e_(c-1) in the lower-shift basis: both are structure, not closed
    forms.
    """
    i = m.group.subgroup(i).ell  # checks the index, of the zero module too
    limit = capacity_limit(cap)  # and the cap
    out: list[int] = []
    for n in m.parts:
        # each distinct restricted part once
        restricted = dict.fromkeys(_restriction(m.group, i, (n,), limit))
        induced = _induction(m.group, i, restricted, limit)
        cover = min((c for c in induced if c >= n), default=None)
        if cover is None:
            raise AssertionError("induced-restricted module admits no cover")
        if cover > n:  # cover == n: J_n is relatively projective
            out.append(cover - n)
    return ModuleSum._of(m.group, out)


def is_endo_permutation(m: ModuleSum, cap: int | None = None) -> bool:
    """True iff End(M) = M (x) M* is a permutation module.  J_n is
    self-dual, so the endomorphism module is the tensor square."""
    return is_permutation(tensor_decompose(m, m, cap))
