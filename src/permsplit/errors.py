"""Exception types, and the readers of JSON numbers, shared across the library."""

from fractions import Fraction


def _json_int(x) -> int:
    """An integer field of a JSON document; TypeError on true, 1.0, 2.7 or text."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_fraction(x) -> Fraction:
    """An exact field, an int or a fraction text; TypeError on true and floats."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not exact; a document takes integers and fraction texts")
    return Fraction(x)


class DomainError(ValueError):
    """Structurally well-formed input that violates a mathematical precondition."""


class ExchangeAxiomError(DomainError):
    """Basis exchange fails; carries a concrete witness (B1, B2, x)."""

    def __init__(self, basis1, basis2, element):
        self.basis1 = frozenset(basis1)
        self.basis2 = frozenset(basis2)
        self.element = element
        b1 = "{%s}" % ",".join(map(str, sorted(self.basis1)))
        b2 = "{%s}" % ",".join(map(str, sorted(self.basis2)))
        super().__init__(
            f"exchange axiom fails: B1={b1}, B2={b2}, x={element} has no exchange partner"
        )


class GaleOrderError(DomainError):
    """Componentwise comparison of sorted subsets fails; carries the first bad index."""

    def __init__(self, index, lo_value, hi_value):
        self.index = index
        super().__init__(
            f"Gale order violated at index {index}: {lo_value} > {hi_value}"
        )
