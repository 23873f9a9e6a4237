from fractions import Fraction

import hypothesis.strategies as st
from expriordan.series import Series

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)

# Zeros and mixed denominators, for checks against the schoolbook oracles.
mixed_rationals = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-50, max_value=50, max_denominator=60)
)


def mixed_jets(order: int, head: tuple = ()) -> st.SearchStrategy[Series]:
    """Order-N jets over ``mixed_rationals`` whose leading coefficients are ``head``."""
    return st.lists(mixed_rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: Series((tuple(head) + tuple(cs[len(head) :]))[: order + 1])
    )


def jets(order: int = 6, constant=None, linear=None) -> st.SearchStrategy[Series]:
    """Random order-N jets; pin the constant/linear coefficient when given."""

    def assemble(coeffs: list[Fraction]) -> Series:
        if constant is not None:
            coeffs[0] = Fraction(constant)
        if linear is not None:
            coeffs[1] = Fraction(linear)
        return Series(tuple(coeffs))

    return st.lists(
        small_rationals, min_size=order + 1, max_size=order + 1
    ).map(assemble)


def units(order: int = 6) -> st.SearchStrategy[Series]:
    """Jets with constant term 1 (invertible, valid for log/pow)."""
    return jets(order, constant=1)


def sigmoid_like(order: int = 6) -> st.SearchStrategy[Series]:
    """Jets with f(0) = 0, f'(0) = 1 (composable and revertible)."""
    return jets(order, constant=0, linear=1)
