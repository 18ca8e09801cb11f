"""Exact Cantor-normal-form arithmetic for ordinals below w^w.

An ordinal is a sum of terms ``w^e * c`` with strictly decreasing natural
exponents and positive coefficients; the empty sum is 0.  The term tuple is
canonical, so structural equality coincides with ordinal equality and plain
tuple comparison realizes the ordinal order.  Values are immutable.
"""
from __future__ import annotations

import re
from typing import NamedTuple

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "ord_add",
    "ord_fundamental",
    "successor",
    "predecessor",
    "left_difference",
    "limit_part",
    "finite_part",
    "omega_power",
    "parse_ordinal",
    "format_ordinal",
    "fund_index_at_least",
]


class _Terms(NamedTuple):
    terms: tuple[tuple[int, int], ...] = ()


class Ordinal(_Terms):
    """Ordinal below w^w in Cantor normal form.

    A one-field tuple, so hashing, equality and order run in C.  Tuple order
    on ``(terms,)`` is exactly the ordinal order: the first differing term
    decides (higher exponent, then higher coefficient), and a proper prefix
    is smaller than its extension.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[int, int], ...] = ()) -> "Ordinal":
        self = tuple.__new__(cls, (terms,))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        prev = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise ValueError(f"bad CNF term (exponent {e}, coefficient {c})")
            if prev is not None and e >= prev:
                raise ValueError("CNF exponents must strictly decrease")
            prev = e

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinal literals are non-negative")
        return Ordinal(((0, n),)) if n else Ordinal()

    def __add__(self, other: "Ordinal | int") -> "Ordinal":
        if isinstance(other, int):
            other = Ordinal.from_int(other)
        return ord_add(self, other)

    def __mul__(self, other):  # ordinals are not sequences: no repetition
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] != 0

    @property
    def degree(self) -> int:
        """Largest exponent appearing (0 for finite ordinals and 0 itself)."""
        return self.terms[0][0] if self.terms else 0

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return self.terms[0][1]
        raise ValueError(f"{self} is not finite")

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


def _cnf(terms: tuple[tuple[int, int], ...]) -> Ordinal:
    """Ordinal from terms that are in Cantor normal form by construction.

    Skips the validation of ``Ordinal(...)``.  The arithmetic below calls it
    on terms built from canonical operands.  The grids of ``space.Space``
    call it on terms (e >= 1, c >= 1) with falling exponents, a grid base
    (zero or a limit), and on a base followed by (0, j >= 1), which keeps CNF.
    ``decomp.ChainDecomposition._index`` calls it on the one term (0, n) with
    n >= 1, a finite level, which is CNF.
    """
    return tuple.__new__(Ordinal, (terms,))


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))


def omega_power(e: int, c: int = 1) -> Ordinal:
    if e == 0:
        return Ordinal.from_int(c)
    return Ordinal(((e, c),))


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum in CNF; terms of a below the leading exponent of b are absorbed."""
    ta, tb = a.terms, b.terms
    if not tb:
        return a
    lead = tb[0][0]
    i, n = 0, len(ta)
    while i < n and ta[i][0] > lead:
        i += 1
    if i < n and ta[i][0] == lead:
        return _cnf(ta[:i] + ((lead, ta[i][1] + tb[0][1]),) + tb[1:])
    return _cnf(ta[:i] + tb)


def successor(a: Ordinal) -> Ordinal:
    t = a.terms
    if t and t[-1][0] == 0:
        return _cnf(t[:-1] + ((0, t[-1][1] + 1),))
    return _cnf(t + ((0, 1),))


def predecessor(a: Ordinal) -> Ordinal:
    if not a.is_successor:
        raise ValueError(f"{a} has no predecessor")
    e, c = a.terms[-1]
    if c > 1:
        return _cnf(a.terms[:-1] + ((e, c - 1),))
    return _cnf(a.terms[:-1])


def limit_part(a: Ordinal) -> Ordinal:
    """a with its finite tail removed: the largest limit-or-zero ordinal <= a."""
    if a.terms and a.terms[-1][0] == 0:
        return _cnf(a.terms[:-1])
    return a


def finite_part(a: Ordinal) -> int:
    if a.terms and a.terms[-1][0] == 0:
        return a.terms[-1][1]
    return 0


def ord_fundamental(lam: Ordinal, n: int) -> Ordinal:
    """n-th member of the canonical strictly increasing sequence with supremum lam.

    For lam = xi + w^e*c (last CNF term, e >= 1) this is xi + w^e*(c-1) + w^(e-1)*n.
    """
    if not lam.is_limit:
        raise ValueError(f"{lam} is not a limit ordinal")
    if n < 0:
        raise ValueError("index must be a natural number")
    e, c = lam.terms[-1]
    head = list(lam.terms[:-1])
    if c > 1:
        head.append((e, c - 1))
    if n > 0:
        head.append((e - 1, n))
    return _cnf(tuple(head))


def left_difference(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique c with a + c = b, for a <= b."""
    if a > b:
        raise ValueError(f"{a} exceeds {b}; no left difference")
    ta, tb = a.terms, b.terms
    i = 0
    while i < len(ta) and i < len(tb) and ta[i] == tb[i]:
        i += 1
    if i == len(ta):
        return _cnf(tb[i:])
    ea, ca = ta[i]
    eb, cb = tb[i]
    if ea == eb:
        # coefficients differ; a smaller means ca < cb
        return _cnf(((ea, cb - ca),) + tb[i + 1 :])
    # ea < eb: everything of a from index i on is absorbed by b's tail
    return _cnf(tb[i:])


def fund_index_at_least(lam: Ordinal, x: Ordinal) -> int:
    """Least n with ord_fundamental(lam, n) >= x, for x < lam."""
    if x >= lam:
        raise ValueError(f"{x} is not below {lam}")
    base = ord_fundamental(lam, 0)
    if x <= base:
        return 0
    diff = left_difference(base, x)
    e = lam.terms[-1][0]
    m = 0
    rest = False
    for de, dc in diff.terms:
        if de == e - 1:
            m = dc
        elif de < e - 1:
            rest = True
    return m + 1 if rest else m


_TERM_RE = re.compile(
    r"^(?:w(?:\^(?P<exp>\d+))?(?:\*(?P<coef>\d+))?|(?P<nat>\d+))$"
)


def parse_ordinal(text: str) -> Ordinal:
    """Parse literals like ``w^2*3 + w + 4`` or ``0``."""
    if not isinstance(text, str):
        raise ValueError(f"an ordinal literal is a string, not {text!r}")
    chunks = [c.strip() for c in text.replace("+", " + ").split("+")]
    total = ZERO
    for chunk in chunks:
        if not chunk:
            raise ValueError(f"empty term in ordinal literal {text!r}")
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad ordinal term {chunk!r} in {text!r}")
        if m.group("nat") is not None:
            term = Ordinal.from_int(int(m.group("nat")))
        else:
            exp = int(m.group("exp") or 1)
            coef = int(m.group("coef") or 1)
            term = omega_power(exp, coef)
        total = ord_add(total, term)
    return total


def format_ordinal(a: Ordinal) -> str:
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("w" if c == 1 else f"w*{c}")
        else:
            parts.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
    return " + ".join(parts)
