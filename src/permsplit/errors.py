"""Exception types, the readers of JSON numbers and the JSON writer, shared across the library."""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str


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


# the C encoder of each JSON leaf type
_JSON_LEAVES = {str: _json_str, int: int.__repr__, type(None): {None: "null"}.__getitem__,
                bool: {True: "true", False: "false"}.__getitem__}


def _json_text(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte (str keys), minus its pure-Python
    encoder: each leaf goes, with no call of its own, to the C encoder its exact
    type picks, else to ``json.dumps``; ``pad`` is the enclosing newline and indent."""
    inner = pad + "  "
    if isinstance(x, dict):
        ends, body = "{}", [
            _json_str(k) + ": " + (enc(v) if (enc := _JSON_LEAVES.get(type(v))) else _json_text(v, inner))
            for k, v in x.items()
        ]
    elif isinstance(x, (list, tuple)):
        ends, body = "[]", [enc(v) if (enc := _JSON_LEAVES.get(type(v))) else _json_text(v, inner) for v in x]
    else:
        return json.dumps(x)
    return ends[0] + inner + ("," + inner).join(body) + pad + ends[1] if body else ends


class DomainError(ValueError):
    """Structurally well-formed input that violates a mathematical precondition."""


class InvariantError(Exception):
    """A result the library proves impossible; a fault of the program, not of
    its input.  ``witness`` holds what breaks the invariant."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(message)


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
