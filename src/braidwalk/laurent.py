"""Laurent polynomials in one variable t with integer coefficients.

Stored sparsely as {exponent: coefficient} with no zero coefficients.
Only the operations the Burau/Alexander pipeline needs: ring arithmetic,
evaluation at an exact rational, and divisibility-checked exact division.
"""

from __future__ import annotations

from fractions import Fraction


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {} if coeffs is None else {e: v for e, v in coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *a):  # immutable by convention
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def t_power(e: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: v for e, v in self.coeffs.items()})

    def evaluate(self, value: Fraction | int) -> Fraction:
        total = Fraction(0)
        v = Fraction(value)
        if v == 0 and self.coeffs and self.min_exp() < 0:
            raise ZeroDivisionError("cannot evaluate negative powers at 0")
        for e, c in self.coeffs.items():
            total += c * v**e
        return total

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[t, 1/t]; raises ValueError on a nonzero
        remainder or non-integer quotient coefficients."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        # shift both to ordinary polynomials with nonzero constant term
        a_shift, b_shift = self.min_exp(), divisor.min_exp()
        a = {e - a_shift: v for e, v in self.coeffs.items()}
        b = {e - b_shift: v for e, v in divisor.coeffs.items()}
        deg_a, deg_b = max(a), max(b)
        lead_b = b[deg_b]
        quot: dict[int, int] = {}
        rem = dict(a)
        deg_r = deg_a
        while rem and deg_r >= deg_b:
            lead_r = rem.get(deg_r, 0)
            if lead_r != 0:
                if lead_r % lead_b != 0:
                    raise ValueError("non-exact Laurent division")
                q = lead_r // lead_b
                quot[deg_r - deg_b] = q
                for e, v in b.items():
                    k = e + deg_r - deg_b
                    nv = rem.get(k, 0) - q * v
                    if nv == 0:
                        rem.pop(k, None)
                    else:
                        rem[k] = nv
            deg_r -= 1
        if rem:
            raise ValueError("non-exact Laurent division: nonzero remainder")
        return LaurentPoly(quot).shift(a_shift - b_shift)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t" if abs(c) != 1 else ("t" if c > 0 else "-t"))
            else:
                parts.append(f"{c}*t^{e}" if abs(c) != 1 else (f"t^{e}" if c > 0 else f"-t^{e}"))
        out = " + ".join(parts).replace("+ -", "- ")
        return out


T = LaurentPoly.t_power(1)
ONE = LaurentPoly.const(1)
