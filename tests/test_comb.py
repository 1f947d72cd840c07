"""Tests for the contract every sparse algebra keeps: RationalQ structure
constants, and a unit key, tensor powers included."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsphere import coordalg, corep, fodc, haar, podles, scalar, spectral, uq
from qsphere.coordalg import TensorElement, gen_a, gen_b, gen_c, gen_d, mono_mul
from qsphere.errors import ArityError
from qsphere.fodc import Chain
from qsphere.podles import PodlesElement, gen_A, gen_B, gen_Bs
from qsphere.scalar import RationalQ
from qsphere.uq import UqElement, UqTensor

small = st.integers(0, 3)
coord_monos = st.tuples(small, small, small, small).map(
    lambda m: m if m[0] * m[3] == 0 else (m[0], m[1], m[2], 0)
)
uq_monos = st.tuples(small, st.integers(-3, 3), small)
podles_monos = st.tuples(small, st.integers(-3, 3))


def _pair(monos):
    return st.tuples(monos, monos)


@settings(max_examples=150)
@given(
    _pair(coord_monos),
    _pair(uq_monos),
    _pair(podles_monos),
    _pair(st.tuples(coord_monos, coord_monos)),
    _pair(st.tuples(uq_monos, uq_monos)),
    _pair(st.tuples(podles_monos, podles_monos)),
)
def test_every_monomial_product_weighs_by_rationalq(coord, uq, sphere, coord2, uq2, chain2):
    products = [
        mono_mul(*coord),
        UqElement._mono_mul(*uq),
        PodlesElement._mono_mul(*sphere),
        TensorElement.zero(2)._mono_mul(*coord2),
        UqTensor.zero(2)._mono_mul(*uq2),
        Chain.zero(2)._mono_mul(*chain2),
    ]
    for product in products:
        assert product
        for _, w in product:
            assert type(w) is RationalQ


def test_a_scalar_lifts_to_the_tensor_unit():
    t = Chain.of(gen_A, gen_B)
    lifted = t + 1
    assert lifted == t + Chain.of(1, 1)
    assert None not in lifted.terms
    assert lifted - t == 1 and lifted - t == Chain.one(2)
    assert Chain.one(2) != Chain.one(3)


def test_tensor_powers_have_a_unit():
    t = TensorElement.of(gen_a, gen_b)
    assert t ** 2 == TensorElement.of(gen_a * gen_a, gen_b * gen_b)
    assert t ** 3 == t * t * t
    assert t ** 0 == TensorElement.one(2)
    assert TensorElement.of(gen_c, gen_d) ** 0 == 1


def test_the_tensor_unit_equals_and_hashes_as_one():
    one = UqTensor.one(2)
    assert one == 1 and hash(one) == hash(1)
    assert one.scale(3) == 3 and hash(one.scale(3)) == hash(3)
    assert one in {1} and str(one) == "1"


def test_tensor_degree_and_rendering_are_slot_by_slot():
    assert fodc.eta().degree() == 3
    assert str(gen_a.coproduct()) == "b (x) c + a (x) a"
    assert str(fodc.eta()) == (
        "-q^-2*Bs (x) B (x) A + Bs (x) A (x) B + q^2*B (x) Bs (x) A"
        " - B (x) A (x) Bs - q^-2*A (x) Bs (x) B + q^2*A (x) B (x) Bs"
        " + (-q^-2 + q^6)*A (x) A (x) A"
    )
    assert str(Chain.of(gen_A, gen_B) + 2) == "2 + A (x) B"


def test_tensor_keys_are_checked_slot_by_slot():
    with pytest.raises(TypeError):
        Chain.of(gen_a, gen_b)  # coordinate elements are not sphere factors
    with pytest.raises(TypeError):
        UqTensor.of(gen_A, 1)
    with pytest.raises(ValueError):
        TensorElement(2, {((0, 0, 0, 1), (1, 0, 0, 1)): 1})  # a d mixes a and d
    with pytest.raises(ValueError):
        Chain(2, {((0, 1, 0, 0), (0, 0, 1, 0)): 1})  # coordinate keys in sphere slots
    with pytest.raises(ValueError):
        UqTensor(2, {((0, 0, 0), (-1, 0, 0)): 1})  # a negative F exponent
    with pytest.raises(ArityError):
        Chain(2, {((0, 1),): 1})
    assert Chain.of(gen_A, 2).terms == {((1, 0), (0, 0)): RationalQ(2)}
    assert Chain(2, {((1, 0), (0, -1)): 1}) == Chain.of(gen_A, gen_Bs)


def _names_laurent_poly(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "LaurentPoly" for a in node.names):
            return True
        if isinstance(node, ast.Name) and node.id == "LaurentPoly":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "LaurentPoly":
            return True
    return False


def test_only_scalar_and_coordalg_use_laurent_polynomials():
    # every other module computes in RationalQ alone
    src = Path(scalar.__file__).parent
    users = {p.name for p in src.glob("*.py") if _names_laurent_poly(ast.parse(p.read_text()))}
    assert users == {"scalar.py", "coordalg.py"}


def test_every_memo_table_is_bounded():
    # a table keyed by operands grows with every input a session sees
    modules = (scalar, coordalg, uq, podles, haar, corep, fodc, spectral)
    tables = {f for m in modules for f in vars(m).values() if hasattr(f, "cache_parameters")}
    assert len(tables) >= 14
    for f in tables:
        assert f.cache_parameters()["maxsize"] is not None, f
