"""Exact arithmetic over Q(q^(1/2)), the scalar field of the symbolic layer.

Elements are reduced fractions of Laurent polynomials in q^(1/2) with
rational coefficients.  The canonical form makes structural equality decide
field equality, so identity checks in the algebra layers are decidable.
All values are immutable; operations are pure functions.

A coefficient is a Python int when it is integral and a Fraction only when
it is not; floats are refused.  int and Fraction compare and hash alike, so
equality stays structural, while products of integral polynomials, the
bulk of the algebra layers' work, run on big ints alone.

Reduction runs on integers.  A nonzero p is content * s^lo * f(x) with f a
primitive integer coefficient list (`_primitive`) in the stride variable
x = s^g of the operands (`_stride`), so a polynomial in q^2 fills every
slot, packed into one int f(xi) at xi = 2^k and unpacked from its balanced
base-xi digits, which recover f when xi > 2 |f|_inf.  `poly_gcd` takes the
big-int gcd h of two such values (GCDHEU) and returns it with the cofactors
f/h and g/h that the exact divisions accepting h computed; `_reduce` makes
num/den canonical from these by one shift and one monic scale.  After
`_HEU_DOUBLINGS` doublings of k, Euclid over Fraction finds the gcd and
`poly_exact_div` the cofactors.  `sum_products` reduces a sum of products
once: it adds the numerators over each denominator and joins the few
distinct denominators over their lcm; `over_packed` reduces a packed
(`pack`, `to_ints`) numerator against a packed monic denominator in place.

`qpow`, `qhalfpow`, `qgeom` (a geometric sum of half powers), `qint` and
`qlambda` build the constants of the algebra layers; only `coordalg` keeps
`LaurentPoly` tables, where a power of q is a shift.  `power` is the one
square-and-multiply loop, of the scalars and of every algebra in `comb`.

At a rational q0 a value lies in Q(sqrt(q0)): a `Surd` (e + o sqrt(q0))/d
with int parts, exact under the field operations and rounded to a float
once (`evaluate`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, EvaluationPole


def _coeff(c):
    """c as a coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"float coefficient {c!r}: the exact field takes int or Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ratio(n, d):
    """n/d as a coefficient, for int or Fraction n and nonzero d."""
    if type(n) is int and type(d) is int and n % d == 0:
        return n // d
    r = Fraction(n, d)
    return r.numerator if r.denominator == 1 else r


def _wrap(d):
    """LaurentPoly on a trusted dict of nonzero coefficients."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = d
    out._hash = None
    return out


def _poly(d):
    """LaurentPoly on a dict of nonzero int or Fraction coefficients, each
    integral Fraction among them replaced by its int."""
    if Fraction in set(map(type, d.values())):
        for e, v in d.items():
            if type(v) is not int and v.denominator == 1:
                d[e] = v.numerator
    return _wrap(d)


class LaurentPoly:
    """Laurent polynomial in s = q^(1/2), coefficients exact rationals.

    Exponents count half powers of q: exponent 2 means q, exponent -3 means
    q^(-3/2).  No zero coefficients are stored, and each is an int when
    integral.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coeff(c)
                if c:
                    d[e] = c
        self.coeffs = d
        self._hash = None

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == _ONE_COEFFS

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def leading_coeff(self):
        """Coefficient of the highest power of q^(1/2); 0 for the zero poly."""
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = d.get(e)
            if v is None:
                d[e] = c
            else:
                v = v + c
                if not v:
                    del d[e]
                elif type(v) is int or v.denominator != 1:
                    d[e] = v
                else:
                    d[e] = v.numerator
        return _wrap(d)

    def __neg__(self):
        return _wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if not self.coeffs or not other.coeffs:
                return _LP_ZERO
            a, b = self.coeffs, other.coeffs
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1:  # c s^n: a shift, scaled unless c = +-1
                ((n, c),) = a.items()
                if c == 1 or c == -1:
                    return _wrap({e + n: v if c == 1 else -v for e, v in b.items()})
                return _poly({e + n: v * c for e, v in b.items()})
            d = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    v = d.get(e)
                    if v is None:
                        d[e] = c1 * c2
                    else:
                        v = v + c1 * c2
                        if v:
                            d[e] = v
                        else:
                            del d[e]
            return _poly(d)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return _LP_ZERO
        return _poly({e: v * c for e, v in self.coeffs.items()})

    def shift(self, n):
        """Multiply by q^(n/2): add n to every exponent."""
        if n == 0:
            return self
        return _wrap({e + n: c for e, c in self.coeffs.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("LaurentPoly power must be nonnegative")
        return power(self, n, _LP_ONE)

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)!r})"


_ONE_COEFFS = {0: 1}
_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly(_ONE_COEFFS)


def power(x, n, one):
    """x^n for an int n >= 0 by square and multiply, starting from the unit
    `one` of x's ring; the power loop of the scalars and of every algebra."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _dense_divmod(num, den):
    """Polynomial division on dense lists; den nonzero."""
    num = list(num)
    dn = len(den) - 1
    while den[dn] == 0:
        dn -= 1
    lead = den[dn]
    deg = len(num) - 1
    quot = [Fraction(0)] * max(deg - dn + 1, 1)
    while deg >= dn:
        while deg >= 0 and num[deg] == 0:
            deg -= 1
        if deg < dn:
            break
        f = num[deg] / lead
        quot[deg - dn] = f
        for i in range(dn + 1):
            num[deg - dn + i] -= f * den[i]
        deg -= 1
    return quot, num


def _euclid_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of nonzero a, b by Euclid over Fraction: the fallback of
    `poly_gcd` and the reference its tests compare against."""
    x, y = ([Fraction(v) for v in _primitive(p)[1]] for p in (a, b))
    while any(y):
        _, r = _dense_divmod(x, y)
        while r and r[-1] == 0:
            r.pop()
        x, y = y, r if r else [Fraction(0)]
    return LaurentPoly({e: v / x[-1] for e, v in enumerate(x)})


_HEU_DOUBLINGS = 3  # doublings of k before the integer path gives up


def _stride(*polys: LaurentPoly) -> int:
    """The largest g with each nonzero p = s^lo times a polynomial in s^g,
    by one pass per operand; 1 when every operand is a monomial."""
    g = 0
    for p in polys:
        e0 = next(iter(p.coeffs))
        g = math.gcd(g, *(e - e0 for e in p.coeffs))
    return g or 1


def _primitive(p: LaurentPoly, g=1):
    """(content, f): p = content * s^min_exp * sum f[i] s^(g i), for g
    dividing p's exponent offsets, with the content a positive int or
    Fraction and f integer with coprime entries."""
    coeffs = p.coeffs
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    if den != 1:
        coeffs = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
    f = to_ints(coeffs, min(coeffs), g)
    g = math.gcd(*f)
    if g != 1:
        f = [v // g for v in f]
    return (g if den == 1 else Fraction(g, den)), f


def to_ints(coeffs: dict, lo: int, g: int = 1) -> list:
    """The int list f with s^lo sum f[i] s^(g i) = sum c s^e over {e: c}."""
    f = [0] * ((max(coeffs) - lo) // g + 1)
    for e, c in coeffs.items():
        f[(e - lo) // g] = c
    return f


def _from_ints(f, lo, c, g=1):
    """The LaurentPoly c * s^lo * sum f[i] s^(g i), for an integer list f
    and a nonzero int or Fraction c."""
    n, d = c.numerator, c.denominator
    if d == 1:
        return _wrap({lo + g * i: n * v for i, v in enumerate(f) if v})
    return _wrap({lo + g * i: _ratio(n * v, d) for i, v in enumerate(f) if v})


def pack(f, k: int) -> int:
    """f(2^k) for an int list f; `_unpack` recovers f if |f|_inf < 2^(k-1)."""
    x = 0
    for c in reversed(f):
        x = (x << k) + c
    return x


def _unpack(x, k):
    """Balanced base-2^k digits of x, low to high, each in (-2^(k-1), 2^(k-1)]."""
    if k < 2:  # the digits {0, 1} would leave a negative x as it is, forever
        raise ValueError(f"_unpack needs k >= 2, not {k}")
    mask, half, xi = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    while x:
        d = x & mask
        if d > half:
            d -= xi
        out.append(d)
        x = (x - d) >> k
    return out


def _lifts(q, hh, k) -> bool:
    """Whether q(2^k) h(2^k) = f(2^k), |f|_inf < 2^(k-1), proves q h = f."""
    return 2 * sum(map(abs, q)) * hh < 1 << k


def _int_quo(f, h):
    """f/h for integer lists when h divides f and the packed division proves
    it, else None.  The remainder of f(xi) by h(xi) vanishes when h | f; the
    quotient q unpacked from f(xi) // h(xi) satisfies q(xi) h(xi) = f(xi),
    and multiplying back holds as polynomials once xi exceeds twice the
    coefficient bounds |q|_1 |h|_inf of q h and |f|_inf of f (`_lifts`)."""
    if len(h) > len(f) or not h[0] or f[-1] % h[-1] or f[0] % h[0]:
        return None
    hh = max(map(abs, h))
    k = (2 * max(max(map(abs, f)), hh) + 1).bit_length() + len(f).bit_length()
    for _ in range(_HEU_DOUBLINGS + 1):
        quo, rem = divmod(pack(f, k), pack(h, k))
        if rem:
            return None
        q = _unpack(quo, k)
        if _lifts(q, hh, k):
            return q
        k *= 2
    return None


def poly_gcd(a: LaurentPoly, b: LaurentPoly):
    """(h, a/h, b/h): the monic gcd h of a and b (as polynomials in q^(1/2),
    up to unit powers of q^(1/2), so min_exp(h) = 0) with its cofactors.
    gcd(0, 0) is 0, with cofactors 0.

    GCDHEU (Char, Geddes and Gonnet, 1989) on the primitive integer lists f,
    g of the operands: with xi = 2^k > 2 min(|f|_inf, |g|_inf) + 1, the
    primitive part h of the balanced digits of the big-int gcd(f(xi), g(xi))
    is the gcd as soon as it divides both f and g (`_int_quo`), and those
    two quotients give the cofactors.  Otherwise k doubles, `_HEU_DOUBLINGS`
    times, and then Euclid over Fraction decides.  In the stride variable
    x = s^g, gcd(A(x^g), B(x^g)) = gcd(A, B)(x^g) by Bezout."""
    if not (a and b):
        p = a or b
        if not p:
            return p, p, p
        lo, lc = p.min_exp(), p.leading_coeff()
        h, unit = p.shift(-lo).scale(Fraction(1, lc)), LaurentPoly({lo: lc})
        return (h, unit, _LP_ZERO) if p is a else (h, _LP_ZERO, unit)
    stride = _stride(a, b)
    ca, f = _primitive(a, stride)
    cb, g = _primitive(b, stride)
    k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
    for _ in range(_HEU_DOUBLINGS + 1):
        h = _unpack(math.gcd(pack(f, k), pack(g, k)), k)
        c = math.gcd(*h)
        h = [v // c for v in h]
        if len(h) == 1:
            return _LP_ONE, a, b
        qf = _int_quo(f, h)
        qg = None if qf is None else _int_quo(g, h)
        if qg is not None:
            lc = h[-1]  # > 0: the leading digit of a positive int
            return (
                _from_ints(h, 0, Fraction(1, lc), stride),
                _from_ints(qf, a.min_exp(), ca * lc, stride),
                _from_ints(qg, b.min_exp(), cb * lc, stride),
            )
        k *= 2
    h = _euclid_gcd(a, b)
    return h, poly_exact_div(a, h), poly_exact_div(b, h)


def poly_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division num/den; a nonzero remainder raises ValueError.

    The primitive parts divide by one packed big-int divmod, checked by
    multiplying back (`_int_quo`); the contents and the powers of q^(1/2)
    divide apart.  If D(x^g) divides N(x^g) in the stride variable, division
    with remainder in Q[x] shows that D divides N.  When the packed path
    cannot prove the division, polynomial division over Fraction decides."""
    if num.is_zero():
        return _LP_ZERO
    shift, stride = num.min_exp() - den.min_exp(), _stride(num, den)
    cn, f = _primitive(num, stride)
    cd, h = _primitive(den, stride)
    q = _int_quo(f, h)
    if q is None:
        q, r = _dense_divmod([Fraction(v) for v in f], h)
        if any(r):
            raise ValueError("non-exact polynomial division")
        q = [int(v) for v in q]  # integral by Gauss's lemma: h is primitive
    return _from_ints(q, shift, _ratio(cn, cd), stride)


class RationalQ:
    """Reduced fraction num/den over Q(q^(1/2)).

    Canonical form: den is a genuine polynomial in q^(1/2) with nonzero
    constant term, monic in its top power, and gcd(num, den) = 1; the zero
    element is 0/1.  Structural equality on (num, den) then decides field
    equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly({0: num})
        if den is None:
            den = _LP_ONE
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly({0: den})
        if den.is_zero():
            raise DivisionByZero("zero denominator in Q(q^(1/2))")
        if not den.is_one():
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def _raw(num, den=_LP_ONE):
        """Trusted constructor: (num, den) already canonical."""
        out = RationalQ.__new__(RationalQ)
        out.num = num
        out.den = den
        out._hash = None
        return out

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.coeffs)

    def __eq__(self, other):
        if type(other) is not RationalQ:  # first: Fraction's isinstance is an ABC check
            if isinstance(other, (int, Fraction)):
                other = RationalQ(other)
            elif not isinstance(other, RationalQ):
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that value
        if self._hash is None:
            coeffs = self.num.coeffs
            if self.den.is_one() and coeffs.keys() <= {0}:
                self._hash = hash(coeffs.get(0, 0))
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    # -- field arithmetic -------------------------------------------------

    def __add__(self, other):
        if type(other) is not RationalQ:
            if isinstance(other, (int, Fraction)):
                other = RationalQ(other)
            elif not isinstance(other, RationalQ):
                return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RationalQ._raw(self.num + other.num)
        return sum_products(((self, Q_ONE), (other, Q_ONE)))

    __radd__ = __add__

    def __neg__(self):
        return RationalQ._raw(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalQ(other)
        elif not isinstance(other, RationalQ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not RationalQ:
            if isinstance(other, (int, Fraction)):
                return RationalQ._raw(self.num.scale(other), self.den) if other else Q_ZERO
            if not isinstance(other, RationalQ):
                return NotImplemented
        # a polynomial times a polynomial, or a unit c q^(n/2) times a reduced
        # fraction, is reduced: a unit shares no factor with a denominator
        a, b = (other, self) if other.den.is_one() else (self, other)
        if a.den.is_one() and (b.den.is_one() or len(a.num.coeffs) == 1):
            return RationalQ._raw(self.num * other.num, b.den)
        return RationalQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalQ(other)
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero in Q(q^(1/2))")
        if self.den.is_one() and len(self.num.coeffs) == 1:  # 1/(c s^n) = s^-n / c
            return RationalQ._raw(_wrap({-n: _ratio(1, c) for n, c in self.num.coeffs.items()}))
        return RationalQ(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, Q_ONE)

    def __repr__(self):
        return f"RationalQ({render(self)!r})"

    def __str__(self):
        return render(self)


def _reduce(num: LaurentPoly, den: LaurentPoly):
    """Bring num/den to canonical form: the cofactors of their gcd, shifted
    and scaled so that den has min-exp 0 and leading coefficient 1."""
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    _, num, den = poly_gcd(num, den)
    shift, lc = -den.min_exp(), den.leading_coeff()
    if lc == 1:
        return num.shift(shift), den.shift(shift)
    return tuple(
        _wrap({e + shift: _ratio(v, lc) for e, v in p.coeffs.items()}) for p in (num, den)
    )


Q_ZERO = RationalQ._raw(_LP_ZERO)
Q_ONE = RationalQ._raw(_LP_ONE)


def sum_products(pairs) -> RationalQ:
    """sum x y over the (x, y) pairs of RationalQ, reduced once; the sums
    over distinct denominators join over their lcm by the gcd cofactors."""
    groups = {}
    for x, y in pairs:
        if x and y:
            den, num = x.den * y.den, x.num * y.num
            groups[den] = groups[den] + num if den in groups else num
    if not groups:
        return Q_ZERO
    (den, num), *rest = groups.items()
    for d, n in rest:
        _, u, v = poly_gcd(den, d)
        num, den = num * v + n * u, den * v
    return RationalQ(num, den)


def is_integral(x: RationalQ) -> bool:
    """Whether x is a polynomial with int coefficients."""
    return x.den.is_one() and all(type(v) is int for v in x.num.coeffs.values())


def over_packed(total: int, lo: int, k: int, g: int, den: LaurentPoly, dp: int) -> RationalQ:
    """s^lo f(s^g) / den reduced, for total = f(2^k), |f|_inf < 2^(k-1), and
    a monic integer den = D(s^g), D(0) != 0, dp = D(2^k), 2^k >= 2 |D|_inf + 2.
    GCDHEU in place: the primitive part h of the digits of gcd(total, dp), if
    it divides f and D, is their gcd h t, as t(2^k) | content <= 2^(k-1), but
    a t of positive degree has roots below 1 + |D|_inf (Cauchy).  Else `poly_gcd`."""
    if not total:
        return Q_ZERO
    h = _unpack(math.gcd(total, dp), k)
    c = math.gcd(*h)
    h = [v // c for v in h]
    if len(h) == 1:
        return RationalQ._raw(_from_ints(_unpack(total, k), lo, 1, g), den)
    hp, hh = pack(h, k), max(map(abs, h))
    (qf, rf), (qd, rd) = divmod(total, hp), divmod(dp, hp)
    if not (rf or rd):
        qf, qd = _unpack(qf, k), _unpack(qd, k)
        if _lifts(qf, hh, k) and _lifts(qd, hh, k):
            return RationalQ._raw(_from_ints(qf, lo, 1, g), _from_ints(qd, 0, 1, g))
    return RationalQ(_from_ints(_unpack(total, k), lo, 1, g), den)


def qpow(k):
    """q^k for integer k."""
    return RationalQ._raw(_wrap({2 * k: 1}))


def qhalfpow(n, coeff=1):
    """coeff * q^(n/2) for integer n."""
    return RationalQ._raw(LaurentPoly({n: coeff}))


def qgeom(n: int, start: int, step: int) -> RationalQ:
    """The sum of the n half powers q^((start + i step)/2), i = 0..n-1, for
    step != 0."""
    return RationalQ._raw(_wrap({start + i * step: 1 for i in range(n)}))


def qint(n: int) -> RationalQ:
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n); [-n] = -[n]."""
    return -qint(-n) if n < 0 else qgeom(n, 2 * n - 2, -4)


def qlambda() -> RationalQ:
    """q - q^-1."""
    return RationalQ._raw(LaurentPoly({2: 1, -2: -1}))


def _reduced(e: int, o: int, d: int, q0: Fraction) -> Surd:
    """The Surd (e + o sqrt(q0)) / d, for d > 0, by one gcd of the parts."""
    g = math.gcd(e, o, d)
    return Surd(e // g, o // g, d // g, q0) if g != 1 else Surd(e, o, d, q0)


def _poly_at(poly: LaurentPoly, q0: Fraction) -> Surd:
    """poly at q0 = p/r, its even and odd half powers in ints, each by
    Horner's rule in p/r; the odd part is folded into the even one when
    sqrt(q0) is rational."""
    p, r = q0.numerator, q0.denominator
    scale = math.lcm(*(c.denominator for c in poly.coeffs.values()))
    lo, hi = min(poly.coeffs, default=0) // 2, max(poly.coeffs, default=0) // 2
    ints = [0] * (2 * (hi - lo) + 2)  # at 2 (k - lo) + i, the c of q^(k + i/2)
    for e, c in poly.coeffs.items():
        ints[e - 2 * lo] = c.numerator * scale // c.denominator
    # sum_k c p^(k-lo) r^(hi-k) from k = hi down, r^(hi-k) in rk, then
    # times p^lo r^-hi over one denominator
    even, odd, rk = 0, 0, 1
    for i in range(len(ints) - 2, -1, -2):
        even, odd, rk = even * p + ints[i] * rk, odd * p + ints[i + 1] * rk, rk * r
    t = p ** max(lo, 0) * r ** max(-hi, 0)
    even, odd, d = even * t, odd * t, scale * p ** max(-lo, 0) * r ** max(hi, 0)
    if odd and math.isqrt(p) ** 2 == p and math.isqrt(r) ** 2 == r:
        even, odd, d = even * math.isqrt(r) + odd * math.isqrt(p), 0, d * math.isqrt(r)
    return _reduced(even, odd, d, q0)


class Surd:
    """(e + o sqrt(q0)) / d in Q(sqrt(q0)), q0 = p/r > 0, for ints e, o and
    d > 0 without a common factor: a RationalQ at q0 (`at`), exact under +,
    unary -, * and /.  Sums and products by a rational cancel part by part
    as Fraction does; other products and quotients by one gcd."""

    __slots__ = ("e", "o", "d", "q0")

    def __init__(self, e: int, o: int, d: int, q0: Fraction):
        self.e, self.o, self.d, self.q0 = e, o, d, q0

    @staticmethod
    def at(x: RationalQ, q0: Fraction) -> Surd:
        """x at q0; EvaluationPole when its denominator vanishes there."""
        num = _poly_at(x.num, q0)
        return num if x.den.is_one() else num / _poly_at(x.den, q0)

    def __add__(self, other):
        # a prime of one denominator alone divides no sum of the parts
        g = math.gcd(self.d, other.d)
        d, f = self.d // g, other.d // g
        e, o = self.e * f + other.e * d, self.o * f + other.o * d
        h = math.gcd(g, e, o)
        return Surd(e // h, o // h, d * (other.d // h), self.q0)

    def __neg__(self):
        return Surd(-self.e, -self.o, self.d, self.q0)

    def __mul__(self, other):
        x, y = (other, self) if other.o else (self, other)
        if y.o:  # both odd parts
            p, r = self.q0.numerator, self.q0.denominator
            return _reduced(r * x.e * y.e + p * x.o * y.o, r * (x.e * y.o + x.o * y.e),
                            r * x.d * y.d, self.q0)
        # y is rational: cancel x's parts against y.d and y.e against x.d
        g, h = math.gcd(x.e, x.o, y.d), math.gcd(y.e, x.d)
        f = y.e // h
        return Surd(x.e // g * f, x.o // g * f, x.d // h * (y.d // g), self.q0)

    def __truediv__(self, other):
        """x / (f + g sqrt(q0)) = x (f - g sqrt(q0)) r / (r f^2 - p g^2)."""
        e, o, f, g, q0 = self.e, self.o, other.e, other.o, self.q0
        if g:
            p, r = q0.numerator, q0.denominator
            e, o, f = r * e * f - p * o * g, r * (o * f - e * g), r * f * f - p * g * g
        if not f:
            raise EvaluationPole(f"division by 0 at q0 = {q0}")
        if f < 0:
            e, o, f = -e, -o, -f
        return _reduced(e * other.d, o * other.d, self.d * f, q0)

    def __eq__(self, other):
        if not isinstance(other, Surd):
            return NotImplemented
        return (self.e, self.o, self.d, self.q0) == (other.e, other.o, other.d, other.q0)

    def __bool__(self):
        return bool(self.e or self.o)

    def __float__(self):
        """Rounded once; parts of opposite signs would cancel, so they round
        as (e^2 - q0 o^2) / (d (e - o sqrt(q0))), exact over a like-sign sum."""
        e, o, d, q0 = self.e, self.o, self.d, self.q0
        root = math.sqrt(q0)
        if e and o and (e < 0) != (o < 0):
            p, r = q0.numerator, q0.denominator
            return (r * e * e - p * o * o) / (r * d * d) / (e / d - o / d * root)
        return e / d + o / d * root

    def __repr__(self):
        return f"Surd(({self.e} + {self.o}*sqrt({self.q0}))/{self.d})"


def evaluate(x: RationalQ, q0) -> float:
    """Value of x at 0 < q0 < 1, exact in Q(sqrt(q0)) and rounded once.
    Raises EvaluationPole when the denominator vanishes at q0."""
    q0 = Fraction(q0)
    if not 0 < q0 < 1:
        raise ValueError("q0 must satisfy 0 < q0 < 1")
    return float(Surd.at(x, q0))


# -- rendering ---------------------------------------------------------------


def _render_exp(e):
    if e == 2:
        return "q"
    if e % 2 == 0:
        return f"q^{e // 2}"
    return f"q^({e}/2)"


def render_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs):
        c = p.coeffs[e]
        neg = c < 0
        c = abs(c)
        if e == 0:
            body = str(c)
        elif c == 1:
            body = _render_exp(e)
        else:
            body = f"{c}*{_render_exp(e)}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def render(x: RationalQ) -> str:
    """Canonical text form, e.g. "(-1 + q^2)/(1 - q^4)"."""
    if x.den.is_one():
        return render_poly(x.num)
    return f"({render_poly(x.num)})/({render_poly(x.den)})"
