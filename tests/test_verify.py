"""The oracle sweep runner used by `cyclicsource verify`."""

import pytest

import cyclicsource
from cyclicsource import dade, verify
from cyclicsource.dade import DadeElement
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import ModuleSum


def by_name(results):
    return {r.name: r for r in results}


class TestRunSuites:
    def test_all_suites_pass_for_c9(self):
        results = by_name(verify.run_suites(GroupSpec(3, 2)))
        assert set(results) == set(verify.SUITES)
        for name, result in results.items():
            assert result.passed, (name, result.mismatches[:3])
            if name != "characters":
                assert result.cases > 0, name

    def test_character_suite_skips_p_two(self):
        result = verify.suite_characters(GroupSpec(2, 2))
        assert result.cases == 0 and result.skipped == 1

    def test_classification_reports_p_two_collision(self, monkeypatch):
        # D(C_4) has rank 1 (Dade 1978): the top bit names the trivial
        # class, so the sweep sees two classes with distinct sizes
        c4 = GroupSpec(2, 2)
        result = verify.suite_classification(c4)
        assert result.passed, result.mismatches
        sizes = [dade.w_module(e) for e in dade.enumerate_elements(c4)]
        assert sizes == [1, 3]
        assert result.cases == 1 + 3 * len(sizes)
        assert DadeElement(c4, (0, 1)) == DadeElement(c4, (0, 0))
        assert DadeElement(c4, (1, 1)) == DadeElement(c4, (1, 0))
        # a size map that does collide is reported, not hidden
        monkeypatch.setattr(dade, "w_module", lambda e: 1)
        result = verify.suite_classification(c4)
        assert not result.passed
        assert any(m.get("check") == "injectivity" for m in result.mismatches)

    def test_uncapped_modules_are_mismatches(self, monkeypatch):
        # J_3 over C_3 has no full-vertex part: every suite that takes a
        # cap records it with the module and the reason, once per case
        monkeypatch.setattr(dade, "w_module",
                            lambda e: 3 if any(e.alpha) else 1)
        results = by_name(verify.run_suites(
            GroupSpec(3, 1), ["dade-law", "classification", "restriction"]))
        reason = "not capped endo-permutation: full-vertex parts []"
        assert [(m["a"], m["b"], m["module"], m["error"])
                for m in results["dade-law"].mismatches] == [
            ("0", "1", "J_3", reason), ("1", "0", "J_3", reason),
            ("1", "1", "3*J_3", reason)]
        assert results["dade-law"].cases == 4
        assert {"check": "cap", "alpha": "1", "jordan": 3, "module": "J_3",
                "error": reason} in results["classification"].mismatches
        assert results["restriction"].mismatches == [
            {"check": "cap chain", "alpha": "1", "i": 1, "j": 1,
             "module": "J_3", "error": reason}]

    def test_module_suites_pass_for_p_two(self):
        # everything except classification is prime-agnostic
        for name in ("dade-law", "relative-heller", "restriction",
                     "operator-composition", "induction"):
            result = verify.SUITES[name](GroupSpec(2, 3))
            assert result.passed, (name, result.mismatches[:3])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suites(GroupSpec(3, 1), ["nope"])

    def test_capacity_skips_counted(self):
        results = verify.run_suites(GroupSpec(3, 2), ["dade-law"], cap=256)
        assert results[0].skipped > 0
        assert results[0].passed


class TestWitness:
    SUITES = ["relative-heller", "restriction", "induction"]

    def test_passing_cases_format_no_module(self, monkeypatch):
        calls = []
        to_str = ModuleSum.__str__
        monkeypatch.setattr(ModuleSum, "__str__",
                            lambda m: calls.append(m) or to_str(m))
        results = verify.run_suites(GroupSpec(3, 2), self.SUITES)
        assert all(r.passed and r.cases for r in results)
        assert calls == []

    def test_a_mismatch_carries_both_answers(self, monkeypatch):
        # an oracle that answers J_1 + J_1 to every induction
        monkeypatch.setattr(verify.oracle, "induce_oracle",
                            lambda m, to, cap: ModuleSum(to, (1, 1)))
        result = verify.suite_induction(GroupSpec(3, 2))
        assert result.cases == 13 and len(result.mismatches) == 13
        assert result.mismatches[0] == {
            "i": 0, "a": 1, "closed": "J_9", "oracle": "2*J_1"}
        assert {"i": 2, "a": 2, "closed": "J_2", "oracle": "2*J_1"} in \
            result.mismatches


class TestCapacitySkips:
    @pytest.mark.parametrize("group", [GroupSpec(3, 2), GroupSpec(2, 3)])
    @pytest.mark.parametrize("cap", [1, 16, 81, 700])
    def test_skips_are_the_cases_over_the_cap(self, group, cap):
        # the oracle refuses exactly the cases whose largest matrix, of the
        # dimension the closed forms predict, has more than `cap` entries,
        # and every suite counts such a case as skipped
        def over(dim):
            return dim * dim > cap

        sizes = [dade.w_module(e) for e in dade.enumerate_elements(group)]
        indices = range(group.ell + 1)
        q = [group.p ** (group.ell - i) for i in indices]
        jordan = range(1, group.order + 1)
        skips = {
            "dade-law": sum(over(a * b) for a in sizes for b in sizes),
            "classification": sum(over(n * n) for n in sizes),
            # the relative syzygy of J_n builds its cover J_(q ceil(n/q))
            "relative-heller": sum(over(q[i] * -(-n // q[i]))
                                   for n in jordan for i in indices),
            # the cap-chain half of restriction asks no oracle
            "restriction": sum(over(n) for n in jordan for i in indices),
            "induction": sum(over(a * q[i]) for i in indices
                             for a in range(1, group.p ** i + 1)),
        }
        results = by_name(verify.run_suites(group, cap=cap))
        assert {name: results[name].skipped for name in skips} == skips
        for name, result in results.items():
            assert result.passed, (name, result.mismatches[:3])
        classes = skips["classification"]
        assert results["dade-law"].cases + skips["dade-law"] == len(sizes) ** 2
        assert results["classification"].cases == (
            1 + len(sizes) + 2 * (len(sizes) - classes))

        # each case is checked or skipped, as often as at the default cap;
        # a skipped class stands for both of its oracle checks
        def total(r):
            return r.cases + r.skipped * (2 if r.name == "classification" else 1)

        assert {name: total(r) for name, r in results.items()} == {
            r.name: total(r) for r in verify.run_suites(group)}

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_cap_rejected(self, cap):
        with pytest.raises(ValueError,
                           match=f"cap must be a positive integer, got {cap}"):
            verify.run_suites(GroupSpec(3, 1), ["dade-law"], cap=cap)


def perturbed(result):
    """A wrong answer of the type of `result`: one more J_1 part, the
    Heller bit flipped, or the Jordan size plus one."""
    if isinstance(result, ModuleSum):
        return ModuleSum(result.group, result.parts + (1,))
    if isinstance(result, DadeElement):
        return DadeElement(result.group,
                           (1 - result.alpha[0],) + result.alpha[1:])
    return result + 1


class TestLedger:
    """Each closed form in `verify.CERTIFIED`, made wrong, fails every
    suite that the ledger names for it: no suite claims a closed form that
    it does not compare with the oracle.

    This cannot catch an assumption that the closed form and the oracle
    share.  Both take the relative syzygy of a part J_n above q = p^(ell-i)
    as the kernel of J_(q ceil(n/q)) ->> J_n, a cover that does not split
    on restriction to D_i (ROADMAP item 8), and they agree on it."""

    @pytest.mark.parametrize("group", [GroupSpec(3, 2), GroupSpec(2, 3)],
                             ids=["C9", "C8"])
    @pytest.mark.parametrize("name", verify.CERTIFIED)
    def test_a_wrong_closed_form_fails_its_suites(self, monkeypatch, name,
                                                  group):
        module, attr = name.split(".")
        owner = getattr(cyclicsource, module)
        right = getattr(owner, attr)
        monkeypatch.setattr(owner, attr,
                            lambda *args: perturbed(right(*args)))
        results = verify.run_suites(group, list(verify.CERTIFIED[name]))
        assert [r.name for r in results if not r.mismatches] == []
