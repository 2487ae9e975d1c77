"""Inference of the source module from block descriptors."""

import pytest
from hypothesis import given, strategies as st

from cyclicsource import blocks, dade, modules
from cyclicsource.blocks import (
    PROVENANCE_C4,
    PROVENANCE_CHARACTER,
    PROVENANCE_LOCAL,
    PROVENANCE_PRINCIPAL,
    BlockDescriptor,
    CharacterValueError,
    InconsistentDescriptorError,
    OddPrimeRequiredError,
    WResult,
    analyze,
    infer_w,
    is_trivial_by_signs,
    metadata_criteria,
)
from cyclicsource.dade import DadeElement
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import ModuleSum

C4 = GroupSpec(2, 2)
C9 = GroupSpec(3, 2)
C27 = GroupSpec(3, 3)


def synthetic_values(e: DadeElement, magnitudes, flip=False):
    signs = dade.psi(e).signs
    values = tuple(s * m for s, m in zip(signs, magnitudes))
    return tuple(-v for v in values) if flip else values


class TestBlockDescriptor:
    def test_chi_length_checked(self):
        with pytest.raises(ValueError, match="character values"):
            BlockDescriptor(C9, chi_values=(1,))

    def test_inertial_index_divides_p_minus_one(self):
        with pytest.raises(ValueError, match="does not divide p - 1"):
            BlockDescriptor(C9, inertial_index=4)
        BlockDescriptor(C9, inertial_index=2)

    def test_inertial_index_positive(self):
        with pytest.raises(ValueError, match="positive"):
            BlockDescriptor(C9, inertial_index=0)

    def test_defect_group_non_trivial(self):
        with pytest.raises(ValueError, match="defect group must be non-trivial"):
            BlockDescriptor(GroupSpec(3, 0))


class TestInferW:
    def test_trivial_from_all_positive(self):
        b = BlockDescriptor(C9, chi_values=(1, 1))
        w = infer_w(b)
        assert w.trivial and w.jordan == 1
        assert str(w.dade) == "00"
        assert w.provenance == PROVENANCE_CHARACTER

    def test_sign_change_detected(self):
        b = BlockDescriptor(C9, chi_values=(2, -1))
        w = infer_w(b)
        assert str(w.dade) == "01"
        assert w.jordan == 2

    def test_global_negation_gives_same_element(self):
        # a leading negative value marks the Heller translate; flip globally
        plain = infer_w(BlockDescriptor(C9, chi_values=(2, -1)))
        flipped = infer_w(BlockDescriptor(C9, chi_values=(-2, 1)))
        assert plain.dade == flipped.dade

    def test_zero_value_rejected(self):
        with pytest.raises(CharacterValueError, match="zero"):
            infer_w(BlockDescriptor(C9, chi_values=(0, 1)))

    def test_p_two_rejected(self):
        with pytest.raises(OddPrimeRequiredError):
            infer_w(BlockDescriptor(C4, chi_values=(1, 1)))

    def test_p_two_error_is_the_dade_class(self):
        import cyclicsource

        assert OddPrimeRequiredError is dade.OddPrimeRequiredError
        assert cyclicsource.OddPrimeRequiredError is dade.OddPrimeRequiredError
        with pytest.raises(dade.OddPrimeRequiredError):
            infer_w(BlockDescriptor(GroupSpec(2, 2), chi_values=(1, 1)))

    def test_missing_values_rejected(self):
        with pytest.raises(CharacterValueError, match="no character values"):
            infer_w(BlockDescriptor(C9))

    def test_output_has_leading_zero_bit(self):
        for e in dade.enumerate_elements(C27):
            if e.alpha[0] != 0:
                continue
            values = synthetic_values(e, (5, 3, 9))
            w = infer_w(BlockDescriptor(C27, chi_values=values))
            assert w.dade == e
            assert w.dade.alpha[0] == 0

    @given(st.data())
    def test_scaling_invariance(self, data):
        # only the sign pattern matters
        group = data.draw(st.sampled_from([C9, C27, GroupSpec(5, 2)]))
        signs = data.draw(st.lists(st.sampled_from([1, -1]),
                                   min_size=group.ell, max_size=group.ell))
        mags_a = data.draw(st.lists(st.integers(1, 10 ** 6),
                                    min_size=group.ell, max_size=group.ell))
        mags_b = data.draw(st.lists(st.integers(1, 10 ** 6),
                                    min_size=group.ell, max_size=group.ell))
        wa = infer_w(BlockDescriptor(group, chi_values=tuple(
            s * m for s, m in zip(signs, mags_a))))
        wb = infer_w(BlockDescriptor(group, chi_values=tuple(
            s * m for s, m in zip(signs, mags_b))))
        assert wa.dade == wb.dade

    @given(st.data())
    def test_triviality_agrees_with_sign_test(self, data):
        group = data.draw(st.sampled_from([C9, C27]))
        values = tuple(data.draw(st.lists(
            st.integers(-9, 9).filter(lambda v: v != 0),
            min_size=group.ell, max_size=group.ell)))
        b = BlockDescriptor(group, chi_values=values)
        assert is_trivial_by_signs(b) == infer_w(b).trivial

    @pytest.mark.parametrize("b, error", [
        (BlockDescriptor(C9, chi_values=(0, 1)), CharacterValueError),
        (BlockDescriptor(C4, chi_values=(1, 1)), OddPrimeRequiredError),
        (BlockDescriptor(C9), CharacterValueError)],
        ids=["zero", "p=2", "missing"])
    def test_sign_test_keeps_the_refusals(self, b, error):
        with pytest.raises(error):
            infer_w(b)
        with pytest.raises(error):
            is_trivial_by_signs(b)

    def test_sign_test_reads_the_signs_alone(self, monkeypatch):
        # criterion 6 compares two readings, so the sign test infers nothing
        def refused(b):
            raise AssertionError("infer_w called")

        monkeypatch.setattr(blocks, "infer_w", refused)
        assert is_trivial_by_signs(BlockDescriptor(C27, chi_values=(-3, -1, -7)))
        assert not is_trivial_by_signs(BlockDescriptor(C27, chi_values=(3, -1, 7)))


class TestMetadataCriteria:
    def test_principal(self):
        w = metadata_criteria(BlockDescriptor(C9, is_principal=True))
        assert w.trivial and w.provenance == PROVENANCE_PRINCIPAL

    def test_local_equalities(self):
        for flag in ("centralizer_equal", "normalizer_equal"):
            w = metadata_criteria(BlockDescriptor(C9, **{flag: True}))
            assert w.trivial and w.provenance == PROVENANCE_LOCAL

    def test_c4_defect(self):
        w = metadata_criteria(BlockDescriptor(C4))
        assert w.trivial and w.provenance == PROVENANCE_C4

    def test_no_criterion_is_none(self):
        assert metadata_criteria(BlockDescriptor(C9)) is None
        assert metadata_criteria(BlockDescriptor(C9, is_principal=False)) is None


class TestAnalyze:
    def test_prefers_flags_when_consistent(self):
        b = BlockDescriptor(C9, chi_values=(1, 1), is_principal=True)
        assert analyze(b).provenance == PROVENANCE_PRINCIPAL

    def test_conflict_is_an_error(self):
        b = BlockDescriptor(C9, chi_values=(2, -1), is_principal=True)
        with pytest.raises(InconsistentDescriptorError):
            analyze(b)

    def test_character_route(self):
        b = BlockDescriptor(C9, chi_values=(2, -1))
        assert analyze(b).provenance == PROVENANCE_CHARACTER

    def test_flags_rescue_p_two(self):
        b = BlockDescriptor(C4, chi_values=(1, 1))
        assert analyze(b).provenance == PROVENANCE_C4

    def test_nothing_to_analyze(self):
        with pytest.raises(CharacterValueError, match="neither"):
            analyze(BlockDescriptor(C9))

    # The whole decision table over flags (none | principal), character
    # values (none | all positive | a sign change | a zero) and p (2 | 3),
    # on C_8 and C_27 so that no defect-group criterion applies.  Each case
    # is pinned to (provenance, Jordan size) or (exception class, message).
    NEITHER = ("descriptor carries neither character values nor an "
               "applicable metadata criterion")
    ODD = ("character inference requires an odd prime and no metadata "
           "criterion applies")
    ZERO = "chi value at layer 1 is zero; a non-zero integer is required"
    CONFLICT = ("metadata flags assert a trivial source module but the "
                "character values give J_8")
    VALUES = {"none": None, "positive": (1, 1, 1),
              "sign-change": (2, -1, -1), "zero": (0, 1, 1)}
    TABLE = [
        (3, None, "none", CharacterValueError, NEITHER),
        (3, None, "positive", PROVENANCE_CHARACTER, 1),
        (3, None, "sign-change", PROVENANCE_CHARACTER, 8),
        (3, None, "zero", CharacterValueError, ZERO),
        (3, True, "none", PROVENANCE_PRINCIPAL, 1),
        (3, True, "positive", PROVENANCE_PRINCIPAL, 1),
        (3, True, "sign-change", InconsistentDescriptorError, CONFLICT),
        (3, True, "zero", CharacterValueError, ZERO),
        (2, None, "none", CharacterValueError, NEITHER),
        (2, None, "positive", OddPrimeRequiredError, ODD),
        (2, None, "sign-change", OddPrimeRequiredError, ODD),
        (2, None, "zero", OddPrimeRequiredError, ODD),
        (2, True, "none", PROVENANCE_PRINCIPAL, 1),
        (2, True, "positive", PROVENANCE_PRINCIPAL, 1),
        (2, True, "sign-change", PROVENANCE_PRINCIPAL, 1),
        (2, True, "zero", PROVENANCE_PRINCIPAL, 1),
    ]

    @pytest.mark.parametrize(
        "p, principal, values, outcome, detail", TABLE,
        ids=[f"p{p}-{'principal' if f else 'noflag'}-{v}"
             for p, f, v, _, _ in TABLE])
    def test_decision_table(self, p, principal, values, outcome, detail):
        b = BlockDescriptor(GroupSpec(p, 3), chi_values=self.VALUES[values],
                            is_principal=principal)
        if isinstance(outcome, str):
            w = analyze(b)
            assert (w.provenance, w.jordan) == (outcome, detail)
        else:
            with pytest.raises(Exception) as info:
                analyze(b)
            assert (type(info.value), str(info.value)) == (outcome, detail)


class TestRestrictW:
    """The source module of a covered block with defect group D_i is the
    cap of W restricted to D_i: cap_part(restrict(J_w, i))."""

    @staticmethod
    def _restricted_cap(group, bits, i):
        n = dade.w_module(DadeElement(group, bits))
        return modules.cap_part(modules.restrict(ModuleSum(group, (n,)), i))

    def test_witness_value(self):
        # J_8 over C_9 restricts to J_3 + J_3 + J_2; the cap is J_2
        assert modules.cap_part(modules.restrict(ModuleSum(C9, (8,)), 1)) == 2

    def test_trivial_restricts_trivially(self):
        assert self._restricted_cap(C9, (0, 0), 1) == 1

    def test_small_class_restricts_to_its_cap(self):
        assert dade.w_module(DadeElement(C9, (0, 1))) == 2
        assert self._restricted_cap(C9, (0, 1), 1) == 1

    def test_identity_at_full_group(self):
        assert self._restricted_cap(C9, (0, 1), 2) == 2

    @pytest.mark.parametrize("i", [3, -1])
    def test_rejects_index_out_of_range(self, i):
        # the trivial class is no shortcut past the subgroup range check
        with pytest.raises(ValueError, match=rf"^subgroup index {i} out of range"):
            self._restricted_cap(C9, (0, 0), i)


class TestWResultValidation:
    def test_leading_bit_must_be_zero(self):
        e = DadeElement(C9, (1, 0))
        with pytest.raises(ValueError, match="bottom-layer"):
            WResult(e, dade.psi(e), PROVENANCE_CHARACTER)

    def test_jordan_and_triviality_read_off_the_element(self):
        e = DadeElement(C9, (0, 1))
        w = WResult(e, dade.psi(e), PROVENANCE_CHARACTER)
        assert (w.jordan, w.trivial) == (2, False)
        zero = dade.dade_zero(C9)
        w = WResult(zero, dade.psi(zero), PROVENANCE_PRINCIPAL)
        assert (w.jordan, w.trivial) == (1, True)
