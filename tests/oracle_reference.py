"""Reference implementations that the oracle tests compare against.

`relative_heller_oracle_counit` computes the relative syzygy the long way,
from the explicit counit Ind_{D_i}^D Res_{D_i} J_n ->> J_n and an explicit
Jordan basis of its source, independently of the composite
`oracle.relative_heller_oracle` and of the closed forms in
`cyclicsource.modules`.  It and its helpers `jordan_chains`,
`nullspace_mod` and `rank_mod` run on the oracle's one elimination kernel,
so they also exercise that kernel.

`realize` builds the block-diagonal action of a Jordan-size multiset
with numpy alone, as input to `oracle.jordan_type`.  `kronecker` builds
J_n1 (x) J_n2 as the explicit Kronecker product of two shift blocks:
decomposed by `oracle.jordan_type`, it is the dense reference for the
graded kernel `oracle._tensor_pair`, and an input whose eliminations in
`oracle._eliminate` leave a core after the column peel.
`graded_tensor_walk` is the reference beyond that matrix's reach: the
kernel's walk over the grading with one `_gauss_jordan` pass per degree in
place of the echelon basis and its row reductions.  `restricted`
and `induced` take a restriction to D_i or an induction from it in one
shot, on the p^(ell-i)-th power of the shift block or on the full induced
block: the dense reference for the index-p steps that
`oracle.restrict_oracle` and `oracle.induce_oracle` chain.  `matpow_mod`,
the power by repeated squaring, is the reference for a restriction step's
matrix I + N^p, and builds the one-shot power of `restricted`.

`validate_by_sweep` is Brauer tree validation that decides tree-ness by a
sweep of its own (per-vertex neighbour sets, mirror checks, a breadth-first
search), independently of `trees._strip`; `trees.validate`, which takes
its verdict from `_strip`, must name the same violations in the same order.
"""

from __future__ import annotations

import numpy as np

from cyclicsource import oracle
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import ModuleSum
from cyclicsource.oracle import (
    MatrixModule,
    _gauss_jordan,
    _int_type,
    _mod,
    _shift_block,
    check_capacity,
    jordan_type,
    matmul_mod,
)
from cyclicsource.trees import BrauerTree


def matpow_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by repeated squaring, starting from the power of the lowest
    set bit of e and with no squaring after the highest: a^(2^k) takes k
    products.  Each is `oracle.matmul_mod` looked up at the call, so that a
    test which patches it sees them.  The result has a's integer type; a
    negative e is a ValueError."""
    if e < 0:
        raise ValueError(f"matrix power needs an exponent >= 0, got {e}")
    base = _mod(np.asarray(a), p)
    if e == 0:
        return np.eye(base.shape[0], dtype=base.dtype)
    while not e & 1:
        base = oracle.matmul_mod(base, base, p)
        e >>= 1
    result = base
    while e := e >> 1:
        base = oracle.matmul_mod(base, base, p)
        if e & 1:
            result = oracle.matmul_mod(result, base, p)
    return result


def realize(m: ModuleSum) -> MatrixModule:
    """The block-diagonal action of a Jordan-size multiset: the identity
    plus the lower shift inside each block."""
    a = np.eye(m.dim, dtype=np.int64) + np.eye(m.dim, k=-1, dtype=np.int64)
    # no shift from the last row of one block into the next block
    starts = np.cumsum(m.parts[:-1], dtype=np.int64)
    a[starts, starts - 1] = 0
    return MatrixModule(m.group, a)


def kronecker(p: int, ell: int, n1: int, n2: int) -> MatrixModule:
    """J_n1 (x) J_n2 over C_(p^ell), with the diagonal action: the
    Kronecker product of the two shift blocks."""
    return MatrixModule(GroupSpec(p, ell),
                        np.kron(_shift_block(n1, p), _shift_block(n2, p)))


def graded_tensor_walk(p: int, n1: int, n2: int) -> tuple[int, ...]:
    """Jordan type of J_n1 (x) J_n2 by the elder rule, one elimination per
    degree: the reference for the graded kernel `oracle._tensor_pair`.

    The same walk over the grading of A = k[x, y']/(x^r, y'^s), r <= s,
    with l = x + y' mapping A_k into A_(k+1), but with no echelon basis:
    at each degree `_gauss_jordan` reads the greedy row profile of the
    images under l stacked over the identity of A_(k+1).  An image that
    depends on older ones ends a Jordan block of length k - birth + 1, and
    an identity row in the profile is born at k + 1.  No elimination input
    exceeds 2r x r, so it reaches pairs whose Kronecker matrix is out of
    reach.
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
        rows = _gauss_jordan(stack, p)[1]
        kept = set(rows)
        parts.extend(k - b + 1 for i, b in enumerate(born) if i not in kept)
        born = [born[i] if i < len(born) else k + 1 for i in rows]
        basis = stack[rows]
    if sum(parts) != n1 * n2:
        raise AssertionError(
            f"Jordan type of dimension {sum(parts)}, not {n1 * n2}")
    return tuple(sorted(parts, reverse=True))


def restricted(n: int, group: GroupSpec, i: int) -> ModuleSum:
    """Res_{D_i} J_n in one shot: the generator of D_i acts on J_n as the
    p^(ell-i)-th power of the shift block."""
    p = group.p
    power = matpow_mod(_shift_block(n, p), p ** (group.ell - i), p)
    return jordan_type(MatrixModule(group.subgroup(i), power))


def induced(a: int, group: GroupSpec, i: int) -> ModuleSum:
    """Ind_{D_i}^D J_a in one shot, on its explicit block matrix.

    Basis g^j (x) e_t with j < q = [D : D_i]; the generator shifts j and
    wraps through the action of g^q, the generator of D_i, on J_a.
    """
    dim = a * group.p ** (group.ell - i)
    action = np.eye(dim, k=-a, dtype=np.int64)
    action[:a, dim - a :] = _shift_block(a, group.p)
    return jordan_type(MatrixModule(group, action))


def rank_mod(a: np.ndarray, p: int) -> int:
    return len(_gauss_jordan(_mod(a, p), p)[1])


def nullspace_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Nullspace basis of `a` mod p, as columns.

    The basis is in the standard RREF form: the rows indexed by the returned
    free-column list carry an identity block, so coordinates of any vector in
    the nullspace with respect to this basis can be read off those rows.
    """
    # a = a[:, pivots] @ coeffs.T, with coeffs[pivots] the identity
    coeffs, pivots = _gauss_jordan(_mod(a.T, p), p)
    n = a.shape[1]
    free = sorted(set(range(n)) - set(pivots))
    basis = np.zeros((n, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = (-coeffs[free].T) % p
    return basis, free


def jordan_chains(n_mat: np.ndarray, p: int) -> list[list[np.ndarray]]:
    """An explicit Jordan basis of a nilpotent matrix, as chains
    [v, Nv, ..., N^(s-1)v] with N^s v = 0.

    Works down from the top nilpotency degree: new chain tops at height s
    are vectors of ker(N^s) independent of ker(N^(s-1)) and of the images
    at height s of the already chosen taller chains, found as the
    independent rows after those in one elimination.
    """
    d = n_mat.shape[0]
    if d == 0:
        return []
    kernels = []
    power = n_mat % p
    while True:
        basis, _ = nullspace_mod(power, p)
        kernels.append(basis)
        if basis.shape[1] == d:
            break
        power = matmul_mod(power, n_mat, p)
    tops: list[tuple[np.ndarray, int]] = []  # (vector, height)
    images = np.zeros((0, d), dtype=np.int64)  # tops moved down to height s
    for s in range(len(kernels), 0, -1):
        below = kernels[s - 2].T if s >= 2 else images[:0]
        stack = np.vstack([below, images, kernels[s - 1].T])
        covered = below.shape[0] + images.shape[0]
        new = [stack[q] for q in _gauss_jordan(stack, p)[1] if q >= covered]
        tops.extend((v, s) for v in new)
        images = np.vstack([images, *new])
        images = matmul_mod(images, n_mat.T, p)
    chains = []
    for top, height in tops:
        chain = [top]
        for _ in range(height - 1):
            chain.append(matmul_mod(n_mat, chain[-1][:, None], p)[:, 0])
        chains.append(chain)
    if sum(len(c) for c in chains) != d:
        raise AssertionError("Jordan chains do not span the space")
    return chains


def relative_heller_oracle_counit(n: int, i: int, group: GroupSpec,
                                  cap: int | None = None) -> ModuleSum:
    """Kernel of the explicit counit Ind_{D_i}^D Res_{D_i} J_n ->> J_n,
    minimized over direct summands.

    The counit cover is decomposed into explicit Jordan chains; the shortest
    chain-spanned summand on which the counit stays surjective is the
    minimized cover, and the kernel of the restricted surjection is
    decomposed by the rank sequence.  Heavier than `relative_heller_oracle`
    (the whole nq-dimensional module is decomposed) and used to
    cross-check it.
    """
    if not 0 <= i <= group.ell:
        raise ValueError(f"subgroup index {i} out of range 0..{group.ell}")
    p = group.p
    q = group.p ** (group.ell - i)
    dim = n * q
    check_capacity(dim, cap)
    block = _shift_block(n, p)
    # induced-restricted module: q blocks of the restricted space, the
    # generator shifts blocks and wraps through A^q
    big = np.zeros((dim, dim), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    a_q = matpow_mod(block, q, p)
    for j in range(q - 1):
        big[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = eye
    big[0:n, (q - 1) * n : q * n] = a_q
    nilpotent = (big - np.eye(dim, dtype=np.int64)) % p
    chains = jordan_chains(nilpotent, p)
    lengths = tuple(sorted((len(c) for c in chains), reverse=True))
    if lengths != jordan_type(MatrixModule(group, big)).parts:
        raise AssertionError("Jordan chains disagree with the rank sequence")
    # counit: g^j (x) v  |->  A^j v
    eps = np.zeros((n, dim), dtype=np.int64)
    a_pow = np.eye(n, dtype=np.int64)
    for j in range(q):
        eps[:, j * n : (j + 1) * n] = a_pow
        a_pow = matmul_mod(a_pow, block, p)
    # minimize: shortest chain summand still covering the target (the
    # target is uniserial, so some single chain always surjects)
    usable = sorted((c for c in chains if len(c) >= n), key=len)
    for chain in usable:
        span = np.column_stack(chain)
        basis, _ = nullspace_mod(matmul_mod(eps, span, p), p)
        if len(chain) - basis.shape[1] < n:
            continue
        kernel_vecs = matmul_mod(span, basis, p)  # in ambient coordinates
        if kernel_vecs.shape[1] == 0:
            return ModuleSum(group, ())
        # action of the generator on the kernel, in the coordinates read off
        # the identity rows of the echelon basis
        coords, rows = _gauss_jordan(kernel_vecs, p)
        image = matmul_mod(big, coords, p)
        action = image[rows]
        if not np.array_equal(matmul_mod(coords, action, p), image):
            raise AssertionError("counit kernel is not invariant under the action")
        return jordan_type(MatrixModule(group, action))
    raise AssertionError("no single chain summand covers the target")


def validate_by_sweep(t: BrauerTree) -> list[str]:
    """All structural and numerical invariants of `t`, each violation named,
    with tree-ness decided by the sweep alone; [] for a valid tree."""
    violations: list[str] = []
    vset = set(t.vertices)
    if len(vset) != len(t.vertices):
        violations.append("duplicate vertex identifiers")
    if not vset:
        violations.append("no vertices")
        return violations
    for v in t.planar:
        if v not in vset:
            violations.append(f"planar order for unknown vertex {v!r}")
    neighbour_sets = {v: set(ns) for v, ns in t.planar.items()}
    for v, neighbours in t.planar.items():
        if len(neighbour_sets[v]) != len(neighbours):
            violations.append(f"repeated neighbour in cyclic order at {v!r}")
        for w in neighbours:
            if w not in vset:
                violations.append(f"edge to unknown vertex {w!r} at {v!r}")
            elif v not in neighbour_sets.get(w, ()):
                violations.append(f"edge {v!r}-{w!r} not mirrored at {w!r}")
        if v in neighbour_sets[v]:
            violations.append(f"loop at {v!r}")
    if violations:
        return violations

    # every edge is mirrored and no order repeats a vertex or holds a loop,
    # so each edge appears exactly twice
    e = t.num_edges
    if e < 1:
        violations.append("no edges")
    if len(vset) != e + 1:
        violations.append("not a tree: |vertices| != |edges| + 1")
    # connectivity (with |V| = |E| + 1 this also rules out cycles)
    seen, level = {t.vertices[0]}, [t.vertices[0]]
    while level:  # each vertex is marked when first reached
        level = [w for v in level for w in t.planar.get(v, ())
                 if w not in seen and not seen.add(w)]
    if seen != vset:
        violations.append("not a tree: graph is disconnected or has a cycle")

    group = t.defect
    if t.multiplicity < 1:
        violations.append("multiplicity must be positive")
    if t.exceptional is not None and t.exceptional not in vset:
        violations.append(f"exceptional vertex {t.exceptional!r} unknown")
    if t.exceptional is None and t.multiplicity != 1:
        violations.append("multiplicity > 1 requires an exceptional vertex")
    m, order = t.multiplicity, group.order
    if e * m != order - 1:
        violations.append(f"e*m != p^ell - 1 ({e}*{m} != {order - 1})")
    if e >= 1 and (group.p - 1) % e != 0:
        violations.append(
            f"e does not divide p - 1 ({e} does not divide {group.p - 1})")
    return violations
