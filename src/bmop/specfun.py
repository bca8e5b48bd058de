"""Scalar special functions: gamma ratios, modified Bessel functions and
the scaled weights w_mu (first kind, growing) and r_nu (second kind,
decaying) that everything downstream is built from.

Double mode is backed by scipy.special (exponentially scaled ive/kve); a value
outside their range, a large order at a small argument, comes from the extended
evaluator at 64 bits.  Extended mode has one evaluator per family, and each
gives a pair of adjacent orders.  besselk_mp gives (K_nu(z), K_{nu+1}(z))
by the same steps for every real order: Temme's series for the base pair of
order |mu| <= 1/2 while 2z <= (bits + 20) ln 2, the large-z expansion
beyond, the closed form at half-integer orders, then the three-term
recurrence up to nu.  besseli_mp gives (I_nu(z), I_{nu+1}(z)) for nu > -1:
the large-z expansion once 2z > (bits + 20) ln 2 and (2nu + 3)^2 < 8z, the
power series otherwise.  The second condition makes the expansion's
alternating terms fall from the first for both orders; the ladder's top
order for I can be large, and without it the alternating sum cancels
(nu = 40 at z = 47.6 and 116 bits loses 28 bits).  K needs no such
condition, since its base order is at most 1/2.  Every series is summed in
fixed point, on Python ints scaled by 2^wp (mpmath.libmp.to_fixed in,
from_man_exp out), since a term in pure-Python mpf arithmetic costs several
times more; only starting values and prefactors are formed in mpf.  The
large-z expansions of both families share one such summation.  Every
shifted weight comes from one besselk_mp or besseli_mp pair, times one power
of x, by the weights' own three-term recurrence, run in each family's stable
direction (omega_ladder_mp, rho_ladder_mp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, to_fixed
from scipy import special as sp

from .errors import DomainError, PoleError
from .precision import DOUBLE, LogValue, PrecisionConfig


@dataclass(frozen=True)
class Params:
    """Parameter quadruple governing the whole weight system.

    mu > -1, nu > 0 and b > a > 0 are required; products of the two weight
    families are integrable on (0, inf) exactly under these constraints.
    """

    mu: float
    nu: float
    a: float
    b: float

    def __post_init__(self):
        if not self.mu > -1:
            raise DomainError(f"mu must be > -1, got {self.mu}")
        if not self.nu > 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if not (self.b > self.a > 0):
            raise DomainError(f"need b > a > 0, got a={self.a}, b={self.b}")

    @property
    def gap(self) -> float:
        """b^2 - a^2, the scale entering every explicit coefficient."""
        return self.b * self.b - self.a * self.a


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def pochhammer(x: float, k: int) -> float:
    """Rising factorial x(x+1)...(x+k-1); empty product is 1."""
    if k < 0:
        raise DomainError("pochhammer requires k >= 0")
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def log_gamma(p: float) -> LogValue:
    if _is_nonpositive_integer(p):
        raise PoleError(f"gamma pole at {p}")
    return LogValue(float(sp.gammaln(p)), int(sp.gammasgn(p)))


# the result is a log, so 64 bits hold it to double accuracy
_BEYOND_SCIPY = PrecisionConfig(mode="extended", mantissa_bits=64)


def bessel_i(mu: float, z: float, precision: PrecisionConfig = DOUBLE) -> LogValue:
    """Modified Bessel function of the first kind, order mu > -1, z >= 0."""
    if not mu > -1:
        raise DomainError(f"bessel_i requires mu > -1, got {mu}")
    if z < 0:
        raise DomainError("bessel_i requires z >= 0")
    if z == 0.0:
        if mu == 0.0:
            return LogValue(0.0, 1)
        if mu > 0:
            return LogValue.zero()
        return LogValue(math.inf, 1)  # -1 < mu < 0 diverges at 0
    if precision.extended:
        with mp.workprec(precision.mantissa_bits):
            return LogValue.from_mpf(besseli_mp(mu, z, precision.mantissa_bits)[0])
    scaled = float(sp.ive(mu, z))  # I_mu(z) * exp(-z)
    if scaled > 0 and math.isfinite(scaled):
        return LogValue(math.log(scaled) + z, 1)
    return bessel_i(mu, z, _BEYOND_SCIPY)  # ive underflows: large order, small z


def bessel_k(nu: float, z: float, precision: PrecisionConfig = DOUBLE) -> LogValue:
    """Modified Bessel function of the second kind (Macdonald function), z > 0."""
    if z <= 0:
        raise DomainError("bessel_k requires z > 0")
    if precision.extended:
        with mp.workprec(precision.mantissa_bits):
            return LogValue.from_mpf(besselk_mp(nu, z, precision.mantissa_bits)[0])
    scaled = float(sp.kve(nu, z))  # K_nu(z) * exp(z)
    if scaled > 0 and math.isfinite(scaled):
        return LogValue(math.log(scaled) - z, 1)
    return bessel_k(nu, z, _BEYOND_SCIPY)  # kve overflows: large order, small z


def omega(mu: float, a: float, x: float, precision: PrecisionConfig = DOUBLE) -> LogValue:
    """First-kind weight x^(mu/2) I_mu(2 a sqrt(x)); positive on (0, inf)."""
    if x <= 0:
        raise DomainError("omega requires x > 0; use omega_at_zero for the limit")
    i = bessel_i(mu, 2.0 * a * math.sqrt(x), precision)
    return LogValue(i.log_magnitude + 0.5 * mu * math.log(x), i.sign)


def rho(nu: float, b: float, x: float, precision: PrecisionConfig = DOUBLE) -> LogValue:
    """Second-kind weight x^(nu/2) K_nu(2 b sqrt(x)); positive on (0, inf)."""
    if x <= 0:
        raise DomainError("rho requires x > 0; use rho_at_zero for the limit")
    k = bessel_k(nu, 2.0 * b * math.sqrt(x), precision)
    return LogValue(k.log_magnitude + 0.5 * nu * math.log(x), k.sign)


def omega_at_zero(mu: float, a: float) -> float:
    """lim_{x->0} of the first-kind weight: (a x)^mu / Gamma(mu+1) at x=0."""
    if mu > 0:
        return 0.0
    if mu == 0:
        return 1.0
    return math.inf


def rho_at_zero(nu: float, b: float) -> LogValue:
    """lim_{x->0} of the second-kind weight: Gamma(nu) / (2 b^nu)."""
    if nu <= 0:
        raise DomainError("rho_at_zero requires nu > 0")
    g = log_gamma(nu)
    return LogValue(g.log_magnitude - math.log(2.0) - nu * math.log(b), 1)


def omega_mp(mu, a, x, bits: int = 200):
    """Extended-precision first-kind weight as an mpf: the ladder's first rung."""
    return omega_ladder_mp(mu, a, x, 0, bits)[0]


def rho_mp(nu, b, x, bits: int = 200):
    """Extended-precision second-kind weight as an mpf: the ladder's first rung."""
    return rho_ladder_mp(nu, b, x, 0, bits)[0]


def _large_z_pair(mu, z, bits: int, sign: int):
    """(K_mu(z), K_{mu+1}(z)) for sign = 1 and (I_mu(z), I_{mu+1}(z)) for
    sign = -1, from the large-z expansion sum_k sign^k a_k(nu) / z^k
    (DLMF 10.40.1-2); valid once e^(-2z) < 2^-bits.

    Each ratio series is summed in fixed point, on integers scaled by 2^wp,
    as mpmath's own hypergeometric summation does: a term is one multiply
    and one divide of Python ints instead of several mpf operations.  Only
    the factor sqrt(pi/2z) e^(-z), or e^z / sqrt(2 pi z), is formed in mpf.
    """
    wp = bits + 30  # 10 bits above the tolerance for the truncated divisions
    with mp.workprec(wp):
        z, mu = mp.mpf(z), mp.mpf(mu)
        one = 1 << wp
        z8 = sign * 8 * to_fixed(z._mpf_, wp)
        tol = 1 << (wp - bits - 10)  # 2^-(bits+10)
        kmax = 2 * float(z)  # past the optimal truncation point
        if sign > 0:
            prefactor = mpmath.sqrt(mp.pi / (2 * z)) * mpmath.exp(-z)
        else:
            prefactor = mpmath.exp(z) / mpmath.sqrt(2 * mp.pi * z)
        pair = []
        for nu in (mu, mu + 1):
            four_nu2 = to_fixed((4 * nu * nu)._mpf_, wp)
            s = term = one
            k = 0
            while abs(term) > tol:
                k += 1
                term = term * (four_nu2 - (2 * k - 1) ** 2 * one) // (k * z8)
                if k > kmax:
                    break
                s += term
            pair.append(prefactor * mp.make_mpf(from_man_exp(s, -wp)))
        return tuple(pair)


def _besselk_temme(mu, z, bits: int):
    """(K_mu(z), K_{mu+1}(z)) for |mu| <= 1/2 by Temme's series (N. M. Temme,
    J. Comput. Phys. 19 (1975) 324-337).

    The series cancel to e^(-z) out of terms growing like e^z, hence the
    2z/ln2 guard bits; 1/Gamma(1-mu) - 1/Gamma(1+mu) loses log2(1/|mu|).
    The starting values f, p, q are formed in mpf; the terms are summed in
    fixed point, on integers scaled by 2^wp.  The loop carries the products
    c f, c p and c q with c = (z^2/4)^i / i!, not c and f, p, q apart: f, p
    and q shrink like 1/i! while c grows, so in fixed point the small factor
    alone would keep no relative precision.  A term is then three
    multiply-divides of Python ints.  Below z = 2 the scale gains log2(2/z)
    bits: the sum for K_{mu+1}, about (z/2)^-mu, falls below 1 for mu < 0.
    """
    guard = 2 * float(z) / math.log(2.0) + 20 - (math.log2(abs(mu)) if mu else 0)
    with mp.workprec(bits + int(guard)):
        z, mu = mp.mpf(z), mp.mpf(mu)
        rg_minus, rg_plus = mpmath.rgamma(1 - mu), mpmath.rgamma(1 + mu)
        gam1 = (rg_minus - rg_plus) / (2 * mu) if mu else -mp.euler
        gam2 = (rg_minus + rg_plus) / 2
        d = -mpmath.log(z / 2)
        e = mu * d
        f = (mp.pi * mu / mpmath.sin(mp.pi * mu) if mu else 1) * (
            gam1 * mpmath.cosh(e) + gam2 * (mpmath.sinh(e) / e if e else 1) * d)
        p = mpmath.exp(e) / (2 * rg_plus)    # (z/2)^-mu Gamma(1+mu) / 2
        q = mpmath.exp(-e) / (2 * rg_minus)  # (z/2)^mu Gamma(1-mu) / 2
        zf = float(z)
        wp = mp.prec + 10 + max(0, int(math.log2(2 / zf)))  # 10 for the truncations
        one = 1 << wp
        h, m, m2, cf, cp, cq = (to_fixed(v._mpf_, wp) for v in (z * z / 4, mu, mu * mu, f, p, q))
        s0, s1 = cf, cp
        i = 0
        while True:
            i += 1
            hi = h // i
            cf = hi * (i * cf + cp + cq) // (i * i * one - m2)
            cp = hi * cp // (i * one - m)
            cq = hi * cq // (i * one + m)
            t1 = cp - i * cf
            s0 += cf
            s1 += t1
            # past the largest term (near i = z/2) a small term bounds the tail
            if i > zf and abs(cf) < 4 and abs(t1) < 4:
                break
        s0, s1 = (mp.make_mpf(from_man_exp(s, -wp)) for s in (s0, s1))
        return s0, 2 * s1 / z


def besselk_mp(nu, z, bits: int = 200):
    """The pair (K_nu(z), K_{nu+1}(z)) as mpfs at the requested precision,
    for any real order nu.

    With nu = mu + n and -1/2 <= mu < 1/2, the base pair (K_mu, K_{mu+1})
    is elementary at mu = -1/2, Temme's series while 2z <= (bits + 20) ln 2
    and the large-z expansion beyond.  The three-term recurrence then
    carries it n steps up, its stable direction, or -n steps down for
    nu < -1/2.
    """
    with mp.workprec(bits + 20):
        z, nu = mp.mpf(z), mp.mpf(nu)
        n = int(mpmath.floor(nu + 0.5))
        mu = nu - n
        if mu == -0.5:
            k0 = k1 = mpmath.sqrt(mp.pi / (2 * z)) * mpmath.exp(-z)
        elif 2 * z <= (bits + 20) * math.log(2.0):
            k0, k1 = _besselk_temme(mu, z, bits)
        else:
            k0, k1 = _large_z_pair(mu, z, bits, 1)
        for j in range(n):
            k0, k1 = k1, k0 + 2 * (mu + j + 1) / z * k1
        for j in range(-n):
            k0, k1 = k1 - 2 * (mu - j) / z * k0, k0
        return k0, k1


def _besseli_series(nu, z, bits: int):
    """(I_nu(z), I_{nu+1}(z)) from the power series, DLMF 10.25.2:
    I_nu = (z/2)^nu / Gamma(nu+1) sum_k t_k with t_0 = 1 and
    t_k = t_{k-1} (z^2/4) / (k (nu+k)), and I_{nu+1} = (z/2)^(nu+1) /
    Gamma(nu+1) sum_k t_k / (nu+k+1).

    For nu > -1 every term is positive, so both sums are summed in one loop
    in fixed point, on integers scaled by 2^wp, with only the truncation
    guard bits; the prefactor is formed in mpf.
    """
    wp = bits + 30  # 10 bits above the tolerance for the truncated divisions
    with mp.workprec(wp):
        z, nu = mp.mpf(z), mp.mpf(nu)
        one = 1 << wp
        h, m = (to_fixed(v._mpf_, wp) for v in (z * z / 4, nu))
        d = m + one  # nu + k + 1
        t = s0 = one
        s1 = (one << wp) // d
        k = 0
        # past the largest term the ratios h / (k (nu + k)) fall; once the
        # next is below 1/2, the tail of the first sum is below t, and that
        # of the second below t / (nu + k + 2) <= s1 t / s0; a stop relative
        # to s0 (>= 1) therefore bounds both tails to 2^-(bits+10) of their sums
        while t > s0 >> (bits + 10) or 2 * h >= (k + 1) * d:
            k += 1
            t = t * h // (k * d)
            d += one
            s0 += t
            s1 += (t << wp) // d
        prefactor = mpmath.power(z / 2, nu) * mpmath.rgamma(nu + 1)
        s0, s1 = (mp.make_mpf(from_man_exp(s, -wp)) for s in (s0, s1))
        return prefactor * s0, prefactor * z / 2 * s1


def besseli_mp(nu, z, bits: int = 200):
    """The pair (I_nu(z), I_{nu+1}(z)) as mpfs at the requested precision,
    for nu > -1 and z > 0.

    The large-z expansion once 2z > (bits + 20) ln 2, as for K, and
    (2nu + 3)^2 < 8z, so that its alternating terms fall from the first;
    the power series otherwise.
    """
    zf, nuf = float(z), float(nu)  # compared as floats: mpf comparisons cost more
    if not zf > 0:
        raise DomainError(f"besseli_mp requires z > 0, got {z}")
    if not nuf > -1:
        raise DomainError(f"besseli_mp requires nu > -1, got {nu}")
    if 2 * zf > (bits + 20) * math.log(2.0) and (2 * nuf + 3) ** 2 < 8 * zf:
        return _large_z_pair(nu, z, bits, -1)
    return _besseli_series(nu, z, bits)


# Order ladders: one Bessel pair per point, the other orders by the
# three-term recurrence in its stable direction (W. Gautschi, SIAM Rev. 9
# (1967) 24-82): downward for I, upward for K.  The recurrence runs on the
# weights themselves, whose terms are all positive:
#   omega_{mu+j} = (omega_{mu+j+2} + ((mu+j+1)/a) omega_{mu+j+1}) / x,
#   rho_{nu+j} = x rho_{nu+j-2} + ((nu+j-1)/b) rho_{nu+j-1},
# so the starting pair takes the only power of x, x^(order/2) and that times
# sqrt(x).  Both work at bits + 20.

def omega_ladder_mp(mu, a, x, jmax: int, bits: int = 200) -> list:
    """[omega_{mu+j,a}(x) for j = 0..jmax] as mpfs, down from I at the top pair."""
    with mp.workprec(bits + 20):
        x, mu, a = mp.mpf(x), mp.mpf(mu), mp.mpf(a)
        s = mpmath.sqrt(x)
        i0, i1 = besseli_mp(mu + jmax, 2 * a * s, bits + 20)
        pw = x ** ((mu + jmax) / 2)
        ladder = [mp.mpf(0)] * jmax + [pw * i0, pw * s * i1]
        for j in range(jmax - 1, -1, -1):
            ladder[j] = (ladder[j + 2] + (mu + (j + 1)) / a * ladder[j + 1]) / x
        return ladder[:jmax + 1]


def rho_ladder_mp(nu, b, x, jmax: int, bits: int = 200) -> list:
    """[rho_{nu+j,b}(x) for j = 0..jmax] as mpfs, up from K at the base pair."""
    with mp.workprec(bits + 20):
        x, nu, b = mp.mpf(x), mp.mpf(nu), mp.mpf(b)
        s = mpmath.sqrt(x)
        k0, k1 = besselk_mp(nu, 2 * b * s, bits + 20)
        pw = x ** (nu / 2)
        ladder = [pw * k0, pw * s * k1]
        for j in range(2, jmax + 1):
            ladder.append(x * ladder[j - 2] + (nu + (j - 1)) / b * ladder[j - 1])
        return ladder[:jmax + 1]


def hyp_terminating(numerator, denominator, z: float) -> float:
    """Terminating hypergeometric sum pFq(numerator; denominator; z).

    The first numerator parameter must be a non-positive integer -n, so
    the series has n+1 terms; they are summed with math.fsum.
    """
    first = numerator[0]
    if not (first <= 0 and first == math.floor(first)):
        raise DomainError(f"hypergeometric sum requires a terminating first parameter, "
                          f"got {first}")
    term = 1.0
    terms = [term]
    for k in range(int(-first)):
        ratio = z / (k + 1.0)
        for p in numerator:
            ratio *= p + k
        for q in denominator:
            qk = q + k
            if qk == 0.0:
                raise PoleError(f"denominator parameter {q} hits a pole at term {k}")
            ratio /= qk
        term *= ratio
        terms.append(term)
    return math.fsum(terms)
