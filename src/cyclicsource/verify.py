"""Verification sweeps: the closed forms against the matrix oracle.

Each suite enumerates a family of cases for one (p, ell), recomputes the
closed-form answer through explicit matrices (`characters` checks closed
forms against each other), and records any mismatch with its full witness.
A clean run has zero mismatches by construction; a mismatch means a formula
(or the oracle) is wrong.  A module that should be capped but is not is
such a mismatch, recorded with the module and the reason.  The capacity is
the `cap` argument (the oracle's default if None), and every oracle call
goes through `SuiteResult.oracle`: a case the oracle refuses as over the
capacity counts as skipped, in every suite.  `CERTIFIED` names the closed
forms that the suites hold to matrices.
"""

from __future__ import annotations

from itertools import product

from . import dade, modules, oracle
from .dade import DadeElement
from .groups import GroupSpec, _Value
from .modules import ModuleSum


class SuiteResult(_Value, frozen=False):
    def __init__(self, name: str, cases: int = 0, skipped: int = 0,
                 mismatches: list[dict] | None = None) -> None:
        self.name = name
        self.cases = cases
        self.skipped = skipped
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def check(self, ok: bool, witness: dict) -> None:
        self.cases += 1
        if not ok:
            self.mismatches.append(witness)

    def oracle(self, fn, *args):
        """fn(*args), or None after counting the case as skipped when the
        oracle refuses it as over the capacity."""
        try:
            return fn(*args)
        except oracle.OracleCapacityError:
            self.skipped += 1
            return None

    def against(self, witness: dict, closed, fn, *args) -> None:
        """Check a closed form against the oracle's fn(*args), with both in
        the witness of a mismatch, formatted only then; a skipped case
        records nothing."""
        by_oracle = self.oracle(fn, *args)
        if by_oracle is not None:
            ok = closed == by_oracle
            self.check(ok, witness if ok else {
                **witness, "closed": str(closed), "oracle": str(by_oracle)})

    def cap(self, m: ModuleSum, witness: dict) -> int | None:
        """The cap of m, or None after recording m as a mismatch: a module
        without a cap is a wrong formula to report, not a crash."""
        try:
            return modules.cap_part(m)
        except modules.NotCappedError as exc:
            self.check(False, {**witness, "module": str(m), "error": str(exc)})
            return None


def suite_dade_law(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """cap(J_w(a) (x) J_w(b)) = J_w(a XOR b), all pairs, by tensor oracle."""
    result = SuiteResult("dade-law")
    elements = list(dade.enumerate_elements(group))
    for a, b in product(elements, repeat=2):
        tensor = result.oracle(oracle.tensor_decompose, dade.w_module_sum(a),
                               dade.w_module_sum(b), cap)
        if tensor is None:
            continue
        witness = {"a": str(a), "b": str(b), "tensor": str(tensor)}
        got = result.cap(tensor, witness)
        if got is None:
            continue
        expected = dade.w_module(dade.dade_add(a, b))
        result.check(got == expected,
                     {**witness, "cap": got, "expected": expected})
    return result


def suite_classification(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """alpha -> Jordan size is injective, images are coprime to p, and each
    image passes the oracle endo-permutation and cap checks where capacity
    permits."""
    result = SuiteResult("classification")
    elements = list(dade.enumerate_elements(group))
    sizes = [dade.w_module(e) for e in elements]
    result.check(len(set(sizes)) == len(sizes), {
        "check": "injectivity", "sizes": sizes,
    })
    for e, n in zip(elements, sizes):
        result.check(n % group.p != 0, {
            "check": "full vertex", "alpha": str(e), "jordan": n,
        })
        m = dade.w_module_sum(e)
        endo = result.oracle(oracle.is_endo_permutation, m, cap)
        if endo is None:
            continue
        result.check(endo, {
            "check": "endo-permutation", "alpha": str(e), "jordan": n,
        })
        witness = {"check": "cap", "alpha": str(e), "jordan": n}
        got = result.cap(m, witness)
        if got is not None:
            result.check(got == n, witness)
    return result


def suite_characters(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """Lift-character coherence: the Heller shift negates all layer values
    and complements the degree, and the sign pattern equals the sign vector
    of the element.  Odd p only."""
    result = SuiteResult("characters")
    if group.p == 2:
        result.skipped += 1
        return result
    heller_gen = DadeElement(group, (1,) + (0,) * (group.ell - 1))
    for e in dade.enumerate_elements(group):
        char = dade.lift_character(e)
        shifted = dade.lift_character(dade.dade_add(e, heller_gen))
        result.check(
            shifted.dim == group.order - char.dim
            and shifted.layer_values == tuple(-v for v in char.layer_values),
            {"check": "heller shift", "alpha": str(e),
             "char": (char.dim, char.layer_values),
             "shifted": (shifted.dim, shifted.layer_values)},
        )
        signs = tuple(1 if v > 0 else -1 for v in char.layer_values)
        result.check(signs == dade.psi(e).signs, {
            "check": "sign pattern", "alpha": str(e),
            "layers": char.layer_values, "psi": dade.psi(e).signs,
        })
        result.check(char.dim == dade.w_module(e), {
            "check": "degree", "alpha": str(e),
            "dim": char.dim, "jordan": dade.w_module(e),
        })
        result.check(dade.psi_inverse(dade.psi(e)) == e, {
            "check": "psi inverse", "alpha": str(e),
        })
    for a, b in product(dade.enumerate_elements(group), repeat=2):
        lhs = dade.psi(dade.dade_add(a, b)).signs
        rhs = tuple(x * y for x, y in zip(dade.psi(a).signs, dade.psi(b).signs))
        result.check(lhs == rhs, {
            "check": "psi multiplicative", "a": str(a), "b": str(b),
        })
    return result


def _sweep(name: str, group: GroupSpec, closed, fn, cap) -> SuiteResult:
    """closed(J_n, i) against the oracle's fn(J_n, i, cap) for every Jordan
    size n and every subgroup index i."""
    result = SuiteResult(name)
    for n in range(1, group.order + 1):
        for i in range(0, group.ell + 1):
            m = ModuleSum(group, (n,))
            result.against({"n": n, "i": i}, closed(m, i), fn, m, i, cap)
    return result


def suite_relative_heller(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """Closed form of the relative syzygy against the matrix oracle for
    every Jordan size and every subgroup index."""
    return _sweep("relative-heller", group, modules.relative_heller,
                  oracle.relative_heller_oracle, cap)


def suite_restriction(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """Closed-form restriction against the oracle's step matrices, plus the
    cap-chain property along subgroup chains for the classified modules."""
    result = _sweep("restriction", group, modules.restrict,
                    oracle.restrict_oracle, cap)
    for e in dade.enumerate_elements(group):
        n = dade.w_module(e)
        m = ModuleSum(group, (n,))
        for i in range(1, group.ell + 1):
            for j in range(1, i + 1):
                witness = {"check": "cap chain", "alpha": str(e),
                           "i": i, "j": j}
                # the first module without a cap ends the case
                direct = result.cap(modules.restrict(m, j), witness)
                if direct is None:
                    continue
                mid = result.cap(modules.restrict(m, i), witness)
                if mid is None:
                    continue
                mid_module = ModuleSum(group.subgroup(i), (mid,))
                chained = result.cap(modules.restrict(mid_module, j), witness)
                if chained is not None:
                    result.check(direct == chained, {
                        **witness, "direct": direct, "chained": chained})
    return result


def suite_operator_composition(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """Applying the relative syzygy operators literally, innermost first,
    agrees with the bit-vector recursion; spot-checked against the oracle
    within capacity."""
    result = SuiteResult("operator-composition")
    for e in dade.enumerate_elements(group):
        m = _compose(e, modules.relative_heller)
        result.check(m.parts == (dade.w_module(e),), {
            "alpha": str(e), "composed": str(m), "recursion": dade.w_module(e),
        })
        m_oracle = result.oracle(
            _compose, e, lambda m, i: oracle.relative_heller_oracle(m, i, cap))
        if m_oracle is not None:
            result.check(m_oracle.parts == (dade.w_module(e),), {
                "check": "oracle composition", "alpha": str(e),
                "composed": str(m_oracle), "recursion": dade.w_module(e),
            })
    return result


def _compose(e: DadeElement, syzygy) -> ModuleSum:
    """J_1 under syzygy(-, i) for each set bit i of e, innermost first."""
    m = ModuleSum(e.group, (1,))
    for i in reversed(range(e.group.ell)):
        if e.alpha[i]:
            m = syzygy(m, i)
    return m


def suite_induction(group: GroupSpec, cap: int | None = None) -> SuiteResult:
    """Closed-form induction against the explicit block-matrix oracle."""
    result = SuiteResult("induction")
    for i in range(0, group.ell + 1):
        sub = group.subgroup(i)
        for a in range(1, sub.order + 1):
            m = ModuleSum(sub, (a,))
            result.against({"i": i, "a": a}, modules.induce(m, group),
                           oracle.induce_oracle, m, group, cap)
    return result


SUITES = {
    "dade-law": suite_dade_law,
    "classification": suite_classification,
    "characters": suite_characters,
    "relative-heller": suite_relative_heller,
    "restriction": suite_restriction,
    "operator-composition": suite_operator_composition,
    "induction": suite_induction,
}

# Each public closed form of `modules`, `dade` and `blocks` that a suite
# holds to the oracle's matrices, or only to other closed forms, with the
# suites that do it.
CERTIFIED = {
    "modules.restrict": ("restriction",),
    "modules.induce": ("induction",),
    "modules.relative_heller": ("relative-heller",),
    "dade.w_module": ("dade-law", "classification"),
    "dade.dade_add": ("dade-law",),
}
CROSS_CHECKED = {
    "dade.lift_character": ("characters",),
    "dade.psi": ("characters",),
    "dade.psi_inverse": ("characters",),
}


def run_suites(group: GroupSpec, names: list[str] | None = None,
               cap: int | None = None) -> list[SuiteResult]:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return [SUITES[name](group, cap) for name in names]
