"""The 2-dimensional covariant differential calculus on the quantum sphere
and the twisted cyclic cohomology machinery, including the volume 2-form
pairing and the distinguished 2-cocycle.

A one-form dx is represented by its two multiplication components
(q^(-1/2) R_F(x), q^(1/2) R_E(x)); the global unit i of dx = i[D, x] is
dropped, which no checked identity is sensitive to.  The wedge of two
one-forms is reduced against the central volume form w via

    x dy ^ dz = x (R_F(y) R_E(z) - q^2 R_E(y) R_F(z)) w,

so every 2-form is recorded by its unique coefficient in the sphere algebra.

Chains are tensors over the sphere.  A cochain h o psi, as tau is with psi =
x0 times the kernel of x1, x2, is held by psi's Haar content, and the pairing
with a chain joins the cochain's values.  Chains and cochains share one
twisted boundary map and one twisted cyclic map (sigma an algebra
automorphism), each a generator of signed argument tuples: a chain sums the
tensors of those tuples, a cochain adds phi's contents at them and applies h
once.  So <b_sigma phi, eta> = <phi, b_sigma eta>, and the same for lambda_sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .comb import TensorComb, merge_into
from .coordalg import CoordElement, gen_a, gen_b, gen_c, gen_d
from .errors import ArityError
from .haar import haar_content, haar_podles, haar_product, haar_sum
from .podles import (
    PodlesElement,
    embed,
    gen_A,
    gen_B,
    gen_Bs,
    recognize,
    sigma,
)
from .scalar import Q_ONE, RationalQ, qhalfpow, qlambda, qpow, sum_products
from .uq import UqElement, act_left, gen_E, gen_F, gen_Kinv, r_action, uq_coproduct


@lru_cache(maxsize=256)
def r_e(x: PodlesElement) -> CoordElement:
    return r_action(gen_E, embed(x))


@lru_cache(maxsize=256)
def r_f(x: PodlesElement) -> CoordElement:
    return r_action(gen_F, embed(x))


@dataclass(frozen=True)
class OneForm:
    """Off-diagonal pair of multiplication symbols representing a 1-form."""

    fcomp: CoordElement
    ecomp: CoordElement

    def __add__(self, other):
        return OneForm(self.fcomp + other.fcomp, self.ecomp + other.ecomp)

    def __sub__(self, other):
        return OneForm(self.fcomp - other.fcomp, self.ecomp - other.ecomp)

    def is_zero(self):
        return self.fcomp.is_zero() and self.ecomp.is_zero()


def differential(x: PodlesElement) -> OneForm:
    """dx as the pair (q^(-1/2) R_F(x), q^(1/2) R_E(x))."""
    return OneForm(r_f(x).scale(qhalfpow(-1)), r_e(x).scale(qhalfpow(1)))


@lru_cache(maxsize=32)
def _kernel(y: PodlesElement, z: PodlesElement) -> CoordElement:
    return r_f(y) * r_e(z) - (r_e(y) * r_f(z)).scale(qpow(2))


def wedge_kernel(y: PodlesElement, z: PodlesElement) -> PodlesElement:
    """The coefficient of dy ^ dz against the volume form:
    R_F(y) R_E(z) - q^2 R_E(y) R_F(z), recognized back into the sphere."""
    return recognize(_kernel(y, z))


def wedge_coeff(eta_pairs, rho_pairs) -> PodlesElement:
    """Volume coefficient of (sum_i x_i dy_i) ^ (sum_j z_j dw_j).

    The left factors of the second form are absorbed with the Leibniz rule
    dy z = d(y z) - y dz before applying the kernel.
    """
    out = PodlesElement.zero()
    for x, y in eta_pairs:
        for z, w in rho_pairs:
            out = out + x * wedge_kernel(y * z, w) - x * (y * wedge_kernel(z, w))
    return out


_P_MATRIX = {
    (1, 1): gen_A,
    (1, 2): gen_Bs,
    (2, 1): gen_B,
    (2, 2): PodlesElement.one() - gen_A.scale(qpow(2)),
}


def volume_check() -> PodlesElement:
    """Volume coefficient of the invariant 2-form built from the projector
    matrix [[A, B*], [B, 1 - q^2 A]]; the expected value is 1."""
    total = PodlesElement.zero()
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                coeff = qpow(2 - 2 * i)
                term = wedge_kernel(_P_MATRIX[(i, j)], _P_MATRIX[(j, k)])
                total = total + (term * _P_MATRIX[(k, i)]).scale(coeff)
    return total


def localized_commutator_check(x: PodlesElement) -> tuple[bool, bool]:
    """Check that the derivations are inner once b and c are inverted,
    R_F(x) = q^(1/2) lambda^-1 [d b^-1, x] and R_E(x) = -q^(-1/2) lambda^-1
    [a c^-1, x], multiplied on the right by b and by c.

    ab = q ba, bc = cb and bd = q db give b^-1 a b = q a, b^-1 c b = c and
    b^-1 d b = q^-1 d; ac = q ca and cd = q dc give the same with c.  So
    conjugation by b or c multiplies a^i b^j c^k d^l by q^(i-l), as K^-1 |>
    does on the sphere, where i + j = k + l.  With t = K^-1 |> x, b t = x b
    and c t = x c, and the identities become R_F(x) b = q^(1/2) lambda^-1
    (d t - x d) and R_E(x) c = -q^(-1/2) lambda^-1 (a t - x a), equivalent to
    the localized ones since b and c are not zero divisors.  Each flag also
    checks its own twist identity, b t = x b or c t = x c.
    """
    lam_inv, y = qlambda().inverse(), embed(x)
    t = act_left(gen_Kinv, y)
    rf_b = (gen_d * t - y * gen_d).scale(qhalfpow(1) * lam_inv)
    re_c = (gen_a * t - y * gen_a).scale(qhalfpow(-1, -1) * lam_inv)
    ok_f = gen_b * t == y * gen_b and r_f(x) * gen_b == rf_b
    ok_e = gen_c * t == y * gen_c and r_e(x) * gen_c == re_c
    return ok_f, ok_e


# -- twisted cyclic cohomology ------------------------------------------------


class Cochain:
    """(n+1)-linear form h o psi on the sphere algebra, held extensionally by
    content(*xs), the Haar content of psi(*xs).  Its value is h of that,
    unless an evaluator, such as the memoised tau, gives it."""

    __slots__ = ("arity", "content", "evaluator", "name")

    def __init__(self, arity, content, name="", evaluator=None):
        self.arity, self.content, self.name = arity, content, name
        self.evaluator = evaluator or (lambda *xs: haar_sum(content(*xs)))

    def __call__(self, *args: PodlesElement) -> RationalQ:
        if len(args) != self.arity:
            raise ArityError(f"{self.name or 'cochain'} expects {self.arity} arguments")
        return self.evaluator(*args)


class Chain(TensorComb):
    """Element of the (n+1)-fold tensor power of the sphere algebra."""

    __slots__ = ()

    FACTOR = PodlesElement

    def slots(self):
        """Iterate (coeff, tuple of basis PodlesElements)."""
        for key, coeff in self.terms.items():
            yield coeff, tuple(PodlesElement.monomial(m) for m in key)


def _boundary(xs):
    """(odd, args) of the twisted boundary at xs: the adjacent products, then
    the wrap sigma(x_last) x_0, the j-th term with sign (-1)^j."""
    n = len(xs) - 1
    for j in range(n):
        yield j % 2, (*xs[:j], xs[j] * xs[j + 1], *xs[j + 2 :])
    yield n % 2, (sigma(xs[-1]) * xs[0], *xs[1:-1])


def _cyclic(xs):
    """(odd, args) of the twisted cyclic permutation, sign (-1)^(len(xs)-1)."""
    yield (len(xs) - 1) % 2, (sigma(xs[-1]), *xs[:-1])


def _cochain(phi: Cochain, arity, terms, name) -> Cochain:
    """xs -> the Haar content of the signed sum of phi over terms(xs)."""

    def content(*xs):
        acc = {}
        for odd, args in terms(xs):
            merge_into(acc, phi.content(*args), -Q_ONE if odd else Q_ONE)
        return acc

    return Cochain(arity, content, f"{name}({phi.name})")


def _chain(eta: Chain, arity, terms) -> Chain:
    """The signed sum of the chains of terms(xs) over the slots of eta."""
    acc = {}
    for coeff, xs in eta.slots():
        for odd, args in terms(xs):
            merge_into(acc, Chain.of(*args).terms, -coeff if odd else coeff)
    return Chain._raw(acc, arity)


def b_sigma(phi: Cochain) -> Cochain:
    """Twisted coboundary: phi summed over the boundary terms of its arguments."""
    return _cochain(phi, phi.arity + 1, _boundary, "b_sigma")


def lambda_sigma(phi: Cochain) -> Cochain:
    """Twisted cyclic permutation of the arguments, with sign (-1)^(arity-1)."""
    return _cochain(phi, phi.arity, _cyclic, "lambda_sigma")


def b_sigma_chain(eta: Chain) -> Chain:
    return _chain(eta, eta.arity - 1, _boundary)


def lambda_sigma_chain(eta: Chain) -> Chain:
    return _chain(eta, eta.arity, _cyclic)


def pair_chain(phi: Cochain, eta: Chain) -> RationalQ:
    if phi.arity != eta.arity:
        raise ArityError("cochain/chain arity mismatch")
    return sum_products((phi(*xs), coeff) for coeff, xs in eta.slots())


def act_on_chain(f: UqElement, eta: Chain) -> Chain:
    """Diagonal left action through the iterated coproduct."""
    out = Chain.zero(eta.arity)
    for key, coeff in uq_coproduct(f, eta.arity).terms.items():
        legs = [UqElement.monomial(m) for m in key]
        for ccoeff, xs in eta.slots():
            factors = [recognize(act_left(leg, embed(x))) for leg, x in zip(legs, xs)]
            out = out + Chain.of(*factors).scale(coeff * ccoeff)
    return out


@lru_cache(maxsize=256)
def tau(x0: PodlesElement, x1: PodlesElement, x2: PodlesElement) -> RationalQ:
    """The twisted cyclic 2-cocycle
    tau(x0, x1, x2) = h(x0 (R_F(x1) R_E(x2) - q^2 R_E(x1) R_F(x2))), with
    the derivations cached and h(x0 kernel) read by `haar_product`; memoised,
    since cyclic checks and sweeps in L repeat triples."""
    return haar_product(embed(x0), _kernel(x1, x2))


TAU = Cochain(3, lambda x0, x1, x2: haar_content(embed(x0), _kernel(x1, x2)), "tau", tau)


def tau_via_volume(x0, x1, x2) -> RationalQ:
    """tau computed through the volume form: h applied to the wedge
    coefficient of x0 dx1 ^ dx2 (independent route)."""
    return haar_podles(wedge_coeff([(x0, x1)], [(PodlesElement.one(), x2)]))


def eta() -> Chain:
    """The twisted 2-cycle whose pairing with tau is -1."""
    A, B, Bs = gen_A, gen_B, gen_Bs
    q2 = qpow(2)
    qm2 = qpow(-2)
    return (
        Chain.of(Bs, A, B)
        + Chain.of(B, Bs, A).scale(q2)
        + Chain.of(A, B, Bs).scale(q2)
        + Chain.of(Bs, B, A).scale(-qm2)
        + Chain.of(A, Bs, B).scale(-qm2)
        + Chain.of(B, A, Bs).scale(RationalQ(-1))
        + Chain.of(A, A, A).scale(qpow(6) - qm2)
    )
