"""Term layer tests: interning, sort checking, operator overloads."""

import gc
from fractions import Fraction

import pytest

from repro.errors import SortError
from repro.smt import (
    And, BitVecSort, BoolSort, Equals, FALSE, Float32, FloatSort, Ite, Not,
    Or, RealSort, TRUE, Xor, bool_var, bv_add, bv_concat, bv_extract,
    bv_val, bv_var, fp_val, fp_var, real_val, real_var, select, store,
    array_var, apply_uf, uf,
)
from repro.smt.sorts import ArraySort
from repro.smt.terms import term_count


class TestSorts:
    def test_bv_sort_interned(self):
        assert BitVecSort(8) is BitVecSort(8)
        assert BitVecSort(8) is not BitVecSort(9)

    def test_bool_singleton(self):
        assert BoolSort() is BoolSort()

    def test_fp_sort_interned(self):
        assert FloatSort(8, 24) is Float32

    def test_fp_total_width(self):
        assert Float32.total_width == 32
        assert FloatSort(5, 11).total_width == 16

    def test_array_sort_interned(self):
        s1 = ArraySort(BitVecSort(4), BitVecSort(8))
        s2 = ArraySort(BitVecSort(4), BitVecSort(8))
        assert s1 is s2

    def test_zero_width_bv_rejected(self):
        with pytest.raises(SortError):
            BitVecSort(0)


class TestInterning:
    def test_vars_interned_by_name_and_sort(self):
        assert bv_var("x", 8) is bv_var("x", 8)
        assert bv_var("x", 8) is not bv_var("x", 9)
        assert bv_var("x", 8) is not bv_var("y", 8)

    def test_compound_terms_interned(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert bv_add(x, y) is bv_add(x, y)

    def test_constants_normalised_modulo_width(self):
        assert bv_val(256, 8) is bv_val(0, 8)
        assert bv_val(-1, 8) is bv_val(255, 8)

    def test_real_constants_by_value(self):
        assert real_val(Fraction(1, 2)) is real_val("1/2")

    def test_extract_params_distinguish(self):
        x = bv_var("x", 8)
        assert bv_extract(x, 3, 0) is not bv_extract(x, 4, 0)
        assert bv_extract(x, 3, 0) is bv_extract(x, 3, 0)

    def test_unreferenced_terms_leave_the_table(self):
        gc.collect()
        before = term_count()
        x = bv_var("weak_x", 8)
        terms = [bv_add(x, bv_val(k, 8)) for k in range(40)]
        assert term_count() > before + 40
        del x, terms
        gc.collect()
        assert term_count() == before

    def test_rebuilt_term_is_interned_again(self):
        x_id = bv_var("weak_y", 8).term_id
        gc.collect()
        x = bv_var("weak_y", 8)
        assert x.term_id != x_id  # the first one died with its last reference
        assert bv_add(x, x) is bv_add(x, x)
        assert bv_var("weak_y", 8) is x


class TestSortChecking:
    def test_width_mismatch_rejected(self):
        with pytest.raises(SortError):
            bv_add(bv_var("x", 8), bv_var("y", 9))

    def test_bool_bv_mix_rejected(self):
        with pytest.raises(SortError):
            And(bool_var("b"), bv_var("x", 1))

    def test_eq_across_sorts_rejected(self):
        with pytest.raises(SortError):
            Equals(bv_var("x", 8), real_var("r"))

    def test_fp_equals_requires_fp_eq(self):
        with pytest.raises(SortError):
            Equals(fp_var("a", 8, 24), fp_var("b", 8, 24))

    def test_ite_branch_mismatch(self):
        with pytest.raises(SortError):
            Ite(bool_var("c"), bv_var("x", 8), real_var("r"))

    def test_extract_out_of_range(self):
        with pytest.raises(SortError):
            bv_extract(bv_var("x", 8), 8, 0)

    def test_select_index_mismatch(self):
        a = array_var("a", BitVecSort(4), BitVecSort(8))
        with pytest.raises(SortError):
            select(a, bv_var("i", 5))

    def test_uf_arity_mismatch(self):
        f = uf("f", [BitVecSort(4), BitVecSort(4)], BoolSort())
        with pytest.raises(SortError):
            apply_uf(f, bv_var("i", 4))


class TestOverloads:
    def test_bv_arith_overloads(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert (x + y).op == "bv.add"
        assert (x - y).op == "bv.sub"
        assert (x * y).op == "bv.mul"
        assert (x & y).op == "bv.and"
        assert (x | y).op == "bv.or"
        assert (x ^ y).op == "bv.xor"
        assert (~x).op == "bv.not"
        assert (-x).op == "bv.neg"
        assert (x < y).op == "bv.ult"
        assert (x.slt(y)).op == "bv.slt"

    def test_int_coercion(self):
        x = bv_var("x", 8)
        assert (x + 1) is bv_add(x, bv_val(1, 8))

    def test_real_overloads(self):
        r, q = real_var("r"), real_var("q")
        assert (r + q).op == "real.add"
        assert (r < q).op == "real.lt"
        assert (r <= 1).op == "real.le"

    def test_bool_overloads(self):
        a, b = bool_var("a"), bool_var("b")
        assert (a & b).op == "bool.and"
        assert (a | b).op == "bool.or"
        assert (~a).op == "bool.not"

    def test_python_eq_is_identity_not_term(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert (x == y) is False
        assert (x == x) is True
        assert x.eq(y).op == "core.eq"


class TestNaryHelpers:
    def test_empty_and_is_true(self):
        assert And() is TRUE

    def test_empty_or_is_false(self):
        assert Or() is FALSE

    def test_singleton_collapses(self):
        b = bool_var("b")
        assert And(b) is b
        assert Or(b) is b

    def test_and_accepts_list(self):
        a, b = bool_var("a"), bool_var("b")
        assert And([a, b]) is And(a, b)

    def test_concat_widths(self):
        x, y = bv_var("x", 3), bv_var("y", 5)
        assert bv_concat(x, y).sort.width == 8

    def test_fp_val_masks(self):
        v = fp_val(1 << 40, 3, 4)  # width 7; high bits dropped
        assert v.payload < (1 << 7)
