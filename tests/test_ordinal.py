import pytest
from hypothesis import given, settings, strategies as st

from hypersel.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    format_ordinal,
    fund_index_at_least,
    left_difference,
    omega_power,
    ord_add,
    ord_fundamental,
    parse_ordinal,
    predecessor,
    successor,
)
from hypersel.scenario import witness_to_json
from hypersel.space import Point, Region, Space
from oracles import sym_add_equals, sym_compare

P = parse_ordinal


def ordinals(max_exp=3, max_coef=9, max_terms=3):
    term = st.tuples(
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=1, max_value=max_coef),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: _fold(sorted(ts, reverse=True))
    )


def _fold(terms):
    total = ZERO
    for e, c in terms:
        total = ord_add(total, omega_power(e, c))
    return total


def compare(a, b):
    """-1, 0 or 1 from the ordering operators."""
    return (a > b) - (a < b)


class TestCompare:
    def test_identity(self):
        assert ZERO == ZERO and compare(ZERO, ZERO) == 0

    def test_successor_larger(self):
        assert OMEGA < P("w+1")

    def test_mixed_degree(self):
        # frozen from the independent ordinal-arithmetic oracle
        assert sym_compare(P("w*2+3"), P("w^2")) == -1
        assert P("w*2+3") < P("w^2")

    @given(ordinals(), ordinals())
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        expected = sym_compare(a, b)
        assert compare(a, b) == expected
        assert (a == b) == (expected == 0)
        assert (a <= b) == (expected <= 0) and (a >= b) == (expected >= 0)
        # hashing, equality and order are those of the term tuples
        assert (a == b) == (a.terms == b.terms) and (a != b) == (a.terms != b.terms)
        assert (a < b) == (a.terms < b.terms) and (a > b) == (a.terms > b.terms)
        assert hash(a) == hash((a.terms,)) and (a != b or hash(a) == hash(b))

    @given(st.lists(ordinals(), max_size=8))
    @settings(max_examples=200)
    def test_sorted_matches_terms_and_oracle(self, xs):
        out = sorted(xs)
        assert [o.terms for o in out] == sorted(o.terms for o in xs)
        assert all(sym_compare(a, b) <= 0 for a, b in zip(out, out[1:]))
        assert len(set(xs)) == len({o.terms for o in xs})


class TestValueType:
    def test_no_repetition(self):
        for product in (lambda: OMEGA * 2, lambda: 2 * OMEGA, lambda: OMEGA * OMEGA):
            with pytest.raises(TypeError):
                product()

    def test_plus_is_ordinal_addition(self):
        assert ONE + OMEGA == OMEGA and OMEGA + ONE == P("w+1")
        assert OMEGA + 3 == P("w+3") and OMEGA + OMEGA == P("w*2")
        assert isinstance(OMEGA + ONE, Ordinal) and (OMEGA + ONE).terms == ((1, 1), (0, 1))

    def test_truth(self):
        assert not ZERO and not Ordinal() and ONE and OMEGA

    @pytest.mark.parametrize("terms", [((0, 0),), ((-1, 1),), ((1, 1), (1, 2)), ((0, 1), (1, 1))])
    def test_invalid_cnf_rejected(self, terms):
        with pytest.raises(ValueError):
            Ordinal(terms)

    def test_text(self):
        assert str(P("w^2*3 + w + 4")) == "w^2*3 + w + 4"
        assert repr(P("w*2+1")) == "Ordinal('w*2 + 1')" and repr(ZERO) == "Ordinal('0')"

    def test_witness_json(self):
        # an ordinal reaches a report as a position of a point or set witness
        space = Space([P("w^2")])
        tail = Region.make(space, [(0, OMEGA, P("w*2"), True)])
        assert witness_to_json(Point(0, ZERO)) == {"point": [0, "0"]}
        assert witness_to_json(("n", tail)) == ["n", {"set": [[0, "w", "w*2"]]}]


class TestAdd:
    def test_left_absorption_unit(self):
        assert ord_add(ONE, OMEGA) == OMEGA

    def test_successor_append(self):
        assert ord_add(OMEGA, ONE) == P("w+1")

    def test_mixed(self):
        # frozen from the independent oracle: (w*2+3) + (w+1) = w*3+1
        out = P("w*3+1")
        assert sym_add_equals(P("w*2+3"), P("w+1"), out)
        assert ord_add(P("w*2+3"), P("w+1")) == out

    @given(ordinals(), ordinals())
    @settings(max_examples=300)
    def test_matches_oracle(self, a, b):
        assert sym_add_equals(a, b, ord_add(a, b))

    @given(ordinals(), ordinals(), ordinals())
    @settings(max_examples=300)
    def test_associative(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ordinals(), ordinals(), ordinals())
    @settings(max_examples=300)
    def test_right_monotone(self, a, b, c):
        if b < c:
            assert ord_add(a, b) < ord_add(a, c)

    @given(ordinals(max_exp=2), st.integers(1, 3), st.integers(1, 9))
    @settings(max_examples=300)
    def test_left_absorption(self, a, e, c):
        if a < omega_power(e):
            assert ord_add(a, omega_power(e, c)) == omega_power(e, c)


class TestClassify:
    def test_zero(self):
        assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit

    def test_successor(self):
        w5 = P("w+5")
        assert w5.is_successor and not w5.is_limit and not w5.is_zero
        assert predecessor(P("w+5")) == P("w+4")

    def test_limit(self):
        wsq = P("w^2")
        assert wsq.is_limit and not wsq.is_successor and not wsq.is_zero

    def test_no_predecessor_of_limit(self):
        with pytest.raises(ValueError):
            predecessor(OMEGA)


class TestFundamental:
    def test_omega(self):
        assert ord_fundamental(OMEGA, 3) == Ordinal.from_int(3)

    def test_omega_two(self):
        # derived: checked against monotone-cofinal enumeration below
        assert ord_fundamental(P("w*2"), 4) == P("w+4")

    def test_omega_squared(self):
        assert ord_fundamental(P("w^2"), 2) == P("w*2")

    def test_rejects_non_limits(self):
        with pytest.raises(ValueError):
            ord_fundamental(ZERO, 1)
        with pytest.raises(ValueError):
            ord_fundamental(P("w+3"), 1)

    @pytest.mark.parametrize("lam", [OMEGA, P("w*2"), P("w^2"), P("w^2+w*2"), P("w^3")])
    def test_monotone_cofinal(self, lam):
        prev = None
        for n in range(64):
            cur = ord_fundamental(lam, n)
            assert cur < lam
            if prev is not None:
                assert cur > prev
            prev = cur
        # every grid point below lam is overtaken
        for beta in [ZERO, Ordinal.from_int(9), ord_fundamental(lam, 17)]:
            idx = fund_index_at_least(lam, beta)
            assert ord_fundamental(lam, idx) >= beta
            if idx:
                assert ord_fundamental(lam, idx - 1) < beta

    @given(ordinals(), st.integers(min_value=1, max_value=3), ordinals())
    @settings(max_examples=300)
    def test_index_at_least_is_the_least(self, head, e, x):
        lam = head + omega_power(e, 1)
        if x < lam:
            n = fund_index_at_least(lam, x)
            assert ord_fundamental(lam, n) >= x
            assert n == 0 or ord_fundamental(lam, n - 1) < x


class TestLeftDifference:
    @given(ordinals(), ordinals())
    @settings(max_examples=300)
    def test_defining_identity(self, a, b):
        if a <= b:
            assert ord_add(a, left_difference(a, b)) == b

    def test_rejects_descent(self):
        with pytest.raises(ValueError):
            left_difference(OMEGA, ONE)


class TestNotation:
    @pytest.mark.parametrize(
        "text", ["0", "5", "w", "w+1", "w*2 + 3", "w^2*3 + w + 4", "w^3 + w^2*2"]
    )
    def test_roundtrip(self, text):
        a = parse_ordinal(text)
        assert parse_ordinal(format_ordinal(a)) == a

    def test_rejects_garbage(self):
        for bad in ["", "w^", "omega", "w*0", "1 + + 2"]:
            with pytest.raises(ValueError):
                parse_ordinal(bad)

    def test_sum_literals_normalize(self):
        assert parse_ordinal("1 + w") == OMEGA

    def test_successor_helper(self):
        assert successor(P("w*2")) == P("w*2+1")
