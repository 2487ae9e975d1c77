"""Closed-form module arithmetic: units and properties."""

import pytest
from hypothesis import given, strategies as st

from cyclicsource.groups import GroupSpec
from cyclicsource.modules import (
    GroupMismatchError,
    ModuleSum,
    heller,
    induce,
    is_permutation,
    relative_heller,
    restrict,
    vertex,
)

C3 = GroupSpec(3, 1)
C9 = GroupSpec(3, 2)
C27 = GroupSpec(3, 3)


def small_groups():
    return st.sampled_from([GroupSpec(2, 1), GroupSpec(2, 2), GroupSpec(2, 3),
                            C3, C9, C27, GroupSpec(5, 1), GroupSpec(5, 2)])


@st.composite
def module_sums(draw):
    group = draw(small_groups())
    parts = draw(st.lists(st.integers(1, group.order), max_size=6))
    return ModuleSum(group, tuple(parts))


class TestModuleSum:
    def test_parts_sorted_descending(self):
        m = ModuleSum(C9, (1, 5, 3))
        assert m.parts == (5, 3, 1)

    def test_dim(self):
        assert ModuleSum(C9, (1, 5, 3)).dim == 9
        assert ModuleSum(C9, ()).dim == 0

    def test_part_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ModuleSum(C3, (4,))
        with pytest.raises(ValueError, match="out of range"):
            ModuleSum(C3, (0,))

    def test_str(self):
        assert str(ModuleSum(C9, (3, 3, 1))) == "2*J_3 + J_1"
        assert str(ModuleSum(C9, ())) == "0"


class TestHeller:
    def test_complements_dimension(self):
        assert heller(ModuleSum(C9, (2,))).parts == (7,)
        assert heller(ModuleSum(C9, (8,))).parts == (1,)

    def test_drops_projectives(self):
        assert heller(ModuleSum(C9, (9, 2))).parts == (7,)
        assert heller(ModuleSum(C3, (3,))).parts == ()

    @given(module_sums())
    def test_involution_on_projective_free(self, m):
        free = ModuleSum(m.group, tuple(n for n in m.parts
                                        if n != m.group.order))
        assert heller(heller(free)) == free


class TestRelativeHeller:
    def test_matches_ordinary_heller_at_zero(self):
        m = ModuleSum(C9, (2, 5))
        assert relative_heller(m, 0) == heller(m)

    def test_worked_value(self):
        assert relative_heller(ModuleSum(C9, (2,)), 1).parts == (1,)

    def test_drops_relatively_projective_parts(self):
        # parts divisible by p^(ell-i) are induced from D_i
        assert relative_heller(ModuleSum(C9, (3, 6, 2)), 1).parts == (1,)

    def test_top_index_is_identity_on_nothing(self):
        # i = ell: q = 1 divides everything, so everything is dropped
        assert relative_heller(ModuleSum(C9, (2, 5)), 2).parts == ()

    def test_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            relative_heller(ModuleSum(C9, (1,)), 3)
        with pytest.raises(ValueError, match="out of range"):
            relative_heller(ModuleSum(C9, (1,)), -1)

    @given(module_sums(), st.data())
    def test_double_application_reduces_mod_cover(self, m, data):
        # J_n -> J_(cover - n) -> J_(n mod q); an involution only below q
        i = data.draw(st.integers(0, m.group.ell))
        q = m.group.p ** (m.group.ell - i)
        twice = relative_heller(relative_heller(m, i), i)
        expected = tuple(sorted((n % q for n in m.parts if n % q != 0),
                                reverse=True))
        assert twice.parts == expected

    @given(module_sums(), st.data())
    def test_kernel_dimension(self, m, data):
        i = data.draw(st.integers(0, m.group.ell))
        q = m.group.p ** (m.group.ell - i)
        out = relative_heller(m, i)
        covers = sum(q * (-(-n // q)) for n in m.parts if n % q != 0)
        kept = sum(n for n in m.parts if n % q != 0)
        assert out.dim == covers - kept


class TestRestrict:
    def test_worked_value(self):
        assert restrict(ModuleSum(C9, (8,)), 1).parts == (3, 3, 2)

    def test_to_trivial_group(self):
        out = restrict(ModuleSum(C9, (5,)), 0)
        assert out.group == GroupSpec(3, 0)
        assert out.parts == (1,) * 5

    def test_identity_at_top(self):
        m = ModuleSum(C9, (5, 2))
        assert restrict(m, 2) == m

    @given(module_sums(), st.data())
    def test_preserves_dimension(self, m, data):
        i = data.draw(st.integers(0, m.group.ell))
        assert restrict(m, i).dim == m.dim

    @given(module_sums(), st.data())
    def test_transitive(self, m, data):
        i = data.draw(st.integers(0, m.group.ell))
        j = data.draw(st.integers(0, i))
        assert restrict(restrict(m, i), j) == restrict(m, j)


class TestInduce:
    def test_scales_parts(self):
        m = ModuleSum(C3, (2,))
        assert induce(m, C9).parts == (6,)
        assert induce(m, C27).parts == (18,)

    def test_identity_from_itself(self):
        m = ModuleSum(C9, (5,))
        assert induce(m, C9) == m

    def test_rejects_wrong_prime_or_bigger_group(self):
        with pytest.raises(GroupMismatchError,
                           match="^C_2 is not a subgroup of C_9$"):
            induce(ModuleSum(GroupSpec(2, 1), (1,)), C9)
        with pytest.raises(GroupMismatchError,
                           match="^C_27 is not a subgroup of C_9$"):
            induce(ModuleSum(C27, (1,)), C9)

    @given(module_sums())
    def test_induced_parts_are_relatively_projective(self, m):
        big = GroupSpec(m.group.p, m.group.ell + 1)
        out = induce(m, big)
        assert all(n % m.group.p == 0 for n in out.parts)
        assert out.dim == m.dim * m.group.p


class TestVertexAndPermutation:
    def test_vertex_values(self):
        assert vertex(9, C9) == 0       # projective
        assert vertex(1, C9) == 2       # full vertex
        assert vertex(3, C9) == 1
        assert vertex(6, C27) == 2

    def test_vertex_range(self):
        with pytest.raises(ValueError, match="out of range"):
            vertex(10, C9)

    def test_is_permutation(self):
        assert is_permutation(ModuleSum(C9, (9, 3, 1, 1)))
        assert not is_permutation(ModuleSum(C9, (2,)))
        assert is_permutation(ModuleSum(C9, ()))
