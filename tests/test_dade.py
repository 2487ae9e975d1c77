"""Dade group arithmetic: bit vectors, sign calculus, lift characters."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from cyclicsource import dade, modules, oracle
from cyclicsource.dade import (
    DadeElement,
    LiftCharacter,
    OddPrimeRequiredError,
    SignVector,
    dade_add,
    dade_zero,
    element_from_jordan,
    enumerate_elements,
    lift_character,
    psi,
    psi_inverse,
    w_module,
    w_module_sum,
)
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import GroupMismatchError, ModuleSum

C9 = GroupSpec(3, 2)
C27 = GroupSpec(3, 3)


def odd_groups():
    return st.sampled_from([GroupSpec(3, 1), C9, C27, GroupSpec(3, 4),
                            GroupSpec(5, 1), GroupSpec(5, 2), GroupSpec(5, 3),
                            GroupSpec(7, 1), GroupSpec(7, 2)])


@st.composite
def elements(draw, groups=odd_groups()):
    group = draw(groups)
    bits = draw(st.lists(st.integers(0, 1), min_size=group.ell,
                         max_size=group.ell))
    return DadeElement(group, tuple(bits))


class TestElements:
    def test_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            DadeElement(C9, (0,))

    def test_bits_validated(self):
        with pytest.raises(ValueError, match="bits"):
            DadeElement(C9, (0, 2))

    def test_zero(self):
        assert dade_zero(C9).is_zero
        assert not DadeElement(C9, (0, 1)).is_zero

    def test_add_is_xor(self):
        a = DadeElement(C9, (1, 0))
        b = DadeElement(C9, (1, 1))
        assert dade_add(a, b) == DadeElement(C9, (0, 1))

    def test_add_requires_same_group(self):
        # the group rule of modules, with its error class and text
        with pytest.raises(GroupMismatchError) as info:
            dade_add(DadeElement(C9, (1, 0)), DadeElement(GroupSpec(3, 1), (1,)))
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "group mismatch: C_9 vs C_3"

    @given(elements())
    def test_every_element_is_self_inverse(self, e):
        assert dade_add(e, e) == dade_zero(e.group)


class TestWModule:
    def test_known_values_c9(self):
        values = {str(e): w_module(e) for e in enumerate_elements(C9)}
        assert values == {"00": 1, "01": 2, "10": 8, "11": 7}

    def test_known_values_c27(self):
        values = {str(e): w_module(e) for e in enumerate_elements(C27)}
        assert values == {"000": 1, "001": 2, "010": 8, "011": 7,
                          "100": 26, "101": 25, "110": 19, "111": 20}

    @given(elements(groups=st.sampled_from(
        [GroupSpec(3, 1), C9, C27, GroupSpec(5, 2), GroupSpec(7, 2)])))
    def test_size_coprime_to_p(self, e):
        assert w_module(e) % e.group.p != 0

    @given(elements())
    def test_injective_for_odd_p(self, e):
        assert element_from_jordan(e.group, w_module(e)) == e

    def test_unclassified_size_rejected(self):
        with pytest.raises(ValueError, match="not a capped"):
            element_from_jordan(C9, 4)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_p_two_classes_are_the_odd_sizes(self, ell):
        group = GroupSpec(2, ell)
        for bits in product((0, 1), repeat=ell):
            e = DadeElement(group, bits)
            assert element_from_jordan(group, w_module(e)) == e
        for n in range(1, group.order + 1):
            if n % 2:
                e = element_from_jordan(group, n)
                assert w_module(e) == n and e.alpha[-1] == 0
            else:
                with pytest.raises(ValueError, match="not a capped"):
                    element_from_jordan(group, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_inverse_agrees_with_enumeration(self, p):
        # the closed form gives the class, or the error, that a search of
        # every class gives, also for sizes outside 1..p^ell
        for ell in range(6):
            group = GroupSpec(p, ell)
            by_size = {w_module(e): e for e in enumerate_elements(group)}
            for n in range(-2, group.order + 3):
                if n in by_size:
                    assert element_from_jordan(group, n) == by_size[n]
                else:
                    with pytest.raises(ValueError) as info:
                        element_from_jordan(group, n)
                    assert str(info.value) == (
                        f"J_{n} is not a capped endo-permutation class "
                        f"over {group}")

    def test_inverse_does_not_enumerate(self, monkeypatch):
        # C_{3^60} has 2^60 classes: the inverse must not search them
        def refuse(group):
            raise AssertionError("enumerated the Dade group")

        monkeypatch.setattr(dade, "enumerate_elements", refuse)
        group = GroupSpec(3, 60)
        ones = DadeElement(group, (1,) * 60)
        assert element_from_jordan(group, w_module(ones)) == ones

    def test_group_law_by_tensor_oracle(self):
        # cap(J_w(a) (x) J_w(b)) = J_w(a+b), checked with explicit matrices
        for a in enumerate_elements(C9):
            for b in enumerate_elements(C9):
                tensor = oracle.tensor_decompose(w_module_sum(a),
                                                 w_module_sum(b))
                assert modules.cap_part(tensor) == w_module(dade_add(a, b))


class TestFongShift:
    """The defect-zero covered-block reduction in the Dade group: the
    source class of the block is the class of the cap J_v of the covered
    simple module plus the source class w_hat of the reduced block."""

    @staticmethod
    def _shift(w_hat, cap_v):
        return dade_add(w_hat, element_from_jordan(w_hat.group, cap_v))

    def test_shift_is_xor_with_cap_class(self):
        w_hat = DadeElement(C9, (0, 1))
        shifted = self._shift(w_hat, 8)  # J_8 is the class (1, 0)
        assert shifted == DadeElement(C9, (1, 1))

    def test_shift_by_trivial_cap_is_identity(self):
        w_hat = DadeElement(C9, (0, 1))
        assert self._shift(w_hat, 1) == w_hat

    def test_unclassified_cap_rejected(self):
        with pytest.raises(ValueError, match="not a capped"):
            self._shift(DadeElement(C9, (0, 0)), 4)

    def test_well_defined_over_c8(self):
        # both names of a class over C_8 shift to the same class, and the
        # shift is the cap of the tensor product by the matrix oracle
        c8 = GroupSpec(2, 3)
        for bits in product((0, 1), repeat=2):
            w_hat = DadeElement(c8, bits + (0,))
            for cap_v in (1, 3, 5, 7):
                shifted = self._shift(w_hat, cap_v)
                assert self._shift(DadeElement(c8, bits + (1,)), cap_v) == \
                    shifted
                tensor = oracle.tensor_decompose(
                    w_module_sum(w_hat), ModuleSum(c8, (cap_v,)))
                assert modules.cap_part(tensor) == w_module(shifted)


class TestLiftCharacter:
    def test_trivial_element(self):
        char = lift_character(dade_zero(C9))
        assert char.dim == 1
        assert char.layer_values == (1, 1)

    def test_heller_of_trivial(self):
        char = lift_character(DadeElement(C9, (1, 0)))
        assert char.dim == 8
        assert char.layer_values == (-1, -1)

    def test_mixed_element(self):
        char = lift_character(DadeElement(C9, (1, 1)))
        assert char.dim == 7
        assert char.layer_values == (-2, 1)

    def test_rejects_p_two(self):
        with pytest.raises(OddPrimeRequiredError):
            lift_character(DadeElement(GroupSpec(2, 2), (0, 1)))

    @pytest.mark.parametrize("dim, values, message", [
        (2, (1,), "need 2 layer values, got 1"),
        (2, (1, 1, 1), "need 2 layer values, got 3"),
        (0, (1, 1), "degree must be positive"),
        (2, (1, 0), "layer values non-zero"),
    ])
    def test_fields_validated(self, dim, values, message):
        with pytest.raises(ValueError, match=message):
            LiftCharacter(C9, dim, values)

    @given(elements())
    def test_degree_matches_module(self, e):
        assert lift_character(e).dim == w_module(e)

    @given(elements())
    def test_heller_shift_negates_layers(self, e):
        gen = DadeElement(e.group, (1,) + (0,) * (e.group.ell - 1))
        char = lift_character(e)
        shifted = lift_character(dade_add(e, gen))
        assert shifted.dim == e.group.order - char.dim
        assert shifted.layer_values == tuple(-v for v in char.layer_values)


class TestSignCalculus:
    def test_psi_partial_sums(self):
        assert psi(DadeElement(C27, (1, 0, 1))).signs == (-1, -1, 1)
        assert psi(DadeElement(C27, (0, 1, 1))).signs == (1, -1, 1)

    def test_psi_inverse_reads_sign_changes(self):
        sv = SignVector(C27, (-1, -1, 1))
        assert psi_inverse(sv) == DadeElement(C27, (1, 0, 1))

    @pytest.mark.parametrize("signs, message", [
        ((1,), "signs must have length 2, got 1"),
        ((1, -1, 1), "signs must have length 2, got 3"),
        ((1, 0), "sign entries must be"),
        ((1, 2), "sign entries must be"),
    ])
    def test_sign_vector_validated(self, signs, message):
        with pytest.raises(ValueError, match=message):
            SignVector(C9, signs)

    @given(elements())
    def test_round_trip(self, e):
        assert psi_inverse(psi(e)) == e

    @given(elements(), st.data())
    def test_multiplicative(self, a, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=a.group.ell,
                                  max_size=a.group.ell))
        b = DadeElement(a.group, tuple(bits))
        lhs = psi(dade_add(a, b)).signs
        rhs = tuple(x * y for x, y in zip(psi(a).signs, psi(b).signs))
        assert lhs == rhs

    @given(elements())
    def test_signs_match_character_signs(self, e):
        layers = lift_character(e).layer_values
        assert psi(e).signs == tuple(1 if v > 0 else -1 for v in layers)
