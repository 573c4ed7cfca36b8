"""Fixed-width unsigned arithmetic and modular algorithms.

Every quantity handled by this package is a non-negative integer below
2**256.  A ciphertext value sums term_count products below 2**ring_bits
* p, so it needs at most ring_bits + prime_bits + bit_length(term_count)
bits; the wire format reserves max(8, bit_length(term_count)) margin
bits (ParameterSet.value_bits), 208 bits in every shipped profile, and
256 leaves headroom.  Python integers are exact at any size, so the
capacity contract is checked once, where a value enters, instead of on
every operation: :func:`ensure_wide` on a value built by hand (a ring
modulus, a hand-built ciphertext block), and kem.deserialize_ct's
stricter width rule (below 2**value_bits) on a parsed ciphertext.  A
ciphertext that block.encrypt_blocks computes is not checked again: the
stacked public key's entries lie in [0, 2**ring_bits), and the
ring-size precondition then keeps every value and intermediate in range.

The poly_* functions do arithmetic in F_p[t], for the factor-label rule
of analysis.  No floating point is used anywhere in this module.
Nothing here is constant-time: operand-dependent timing is accepted, and
timing side channels are out of scope for this artifact.
"""

from functools import lru_cache
from itertools import zip_longest
from math import gcd

from .errors import CapacityExceeded, DegenerateEquation, NotCoprime

WIDE_BITS = 256
WIDE_MAX = (1 << WIDE_BITS) - 1

# The first twelve primes serve twice: as trial divisors, which also keep
# every Miller-Rabin witness below n, and as the witness set, which proves
# primality for all n < 3.3 * 10**24 and so for every integer below 2**64.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def ensure_wide(value, what="value"):
    """Check the 256-bit capacity contract; returns the value unchanged."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise CapacityExceeded(f"{what} is negative: {value}")
    if value > WIDE_MAX:
        raise CapacityExceeded(f"{what} exceeds {WIDE_BITS} bits")
    return value


def mod_inverse(a, m):
    """Return v with a*v = 1 (mod m), 0 < v < m.

    Requires 0 < a < m.  Raises NotCoprime when gcd(a, m) != 1.
    """
    if not 0 < a < m:
        raise ValueError(f"need 0 < a < m, got a={a}, m={m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprime(f"gcd({a}, {m}) = {gcd(a, m)}") from None


def batch_inverse(values, m):
    """Inverses mod m of every value, in order, with a single mod_inverse.

    Montgomery's trick: invert the running product once, then peel each
    inverse off it with two multiplications.  Every value must be a unit
    of Z_m in (0, m): one non-unit spoils the product, and with it the
    whole batch, so callers check each value first.
    """
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % m
    inv = mod_inverse(acc, m)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % m
        inv = inv * values[i] % m
    return out


@lru_cache(maxsize=32)
def is_prime_64(n):
    """Deterministic primality for 0 <= n < 2**64.

    Memoized: every profile on a prime checks it once per process.
    """
    if n < 0 or n >= 1 << 64:
        raise ValueError("is_prime_64 expects an unsigned 64-bit integer")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# CPython's three-argument pow squares bit by bit up to a 60-bit exponent
# and switches to a 5-bit window, with a 32-entry table to build, above it:
# pow(a, 1 << 60, p) costs about a third more than pow(a, 1 << 59, p) at a
# 64-bit p.  So a run of squarings takes at most 59 at a time.
_POW_RUN = 59


def _signed_runs(e):
    """The square-and-multiply walk from a**1 to a**e, e >= 0, as (1 << run,
    digit) steps: square run times, then multiply by a for digit 1, by
    a**-1 for digit -1, by nothing for 0.

    The digits are e's non-adjacent signed-digit form (Knuth, TAOCP Vol. 2
    4.6.3), with the fewest nonzero digits; its top digit is the walk's
    start a.  e = 0 is the one step 1 - 1: no squaring, then a**-1.
    """
    if e == 0:
        return ((1, -1),)
    digits = []  # lowest first
    while e:
        d = 2 - (e & 3) if e & 1 else 0
        digits.append(d)
        e = (e - d) >> 1
    steps, run = [], 0
    for d in reversed(digits[:-1]):
        run += 1
        if d or run == _POW_RUN:
            steps.append((1 << run, d))
            run = 0
    if run:
        steps.append((1 << run, 0))
    return tuple(steps)


@lru_cache(maxsize=32)
def _tonelli_constants(p):
    """(q, s, z**q mod p, the _signed_runs walk to (q-1)/2) with
    p - 1 = q * 2**s, q odd, z the least non-residue."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p), _signed_runs((q - 1) // 2)


def sqrt_mod(a, p, a_inv=None):
    """All square roots of a modulo an odd prime p, sorted ascending.

    Returns [] when a is a non-residue, [0] when a = 0, and the pair
    [r, p - r] otherwise.  Tonelli-Shanks with the per-prime constants
    cached: one exponentiation w = a**((q-1)/2) gives both the candidate
    root r = a*w = a**((q+1)/2) and t = r*w = a**q, whose order 2**i
    measures how far r is from a root.  A non-residue shows up as t of
    order 2**s, so no separate Euler-criterion test is needed; when
    p = 3 (mod 4), s = 1 and the loop never runs for a residue.

    w comes from the prime's cached signed-digit walk, runs of at most
    59 squarings between multiplications by a or its inverse: at
    p = 2**64 - 59, (q-1)/2 = 2**61 - 2**3 is 61 squarings and one
    multiplication by a**-1.  a_inv, when given, must be that inverse
    mod p (decrypt_blocks takes it from its batch inversion); without it
    the inverse comes from mod_inverse.  A zero a returns before a_inv
    is read.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return [0]
    if a_inv is None:
        a_inv = mod_inverse(a, p)
    q, m, c, runs = _tonelli_constants(p)
    w = a
    for power, digit in runs:
        w = pow(w, power, p)
        if digit > 0:
            w = w * a % p
        elif digit:
            w = w * a_inv % p
    r = a * w % p
    t = r * w % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            return []  # t has full order 2**s: a is a non-residue
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return sorted((r, p - r))


def solve_linear(a, b, p):
    """The x with a*x = b (mod p); raises DegenerateEquation when a = 0 mod p."""
    a %= p
    if a == 0:
        raise DegenerateEquation("linear coefficient vanishes mod p")
    return b % p * mod_inverse(a, p) % p


def solve_quadratic(a, b, c, p):
    """All x with a*x**2 + b*x + c = 0 (mod p), sorted ascending.

    Falls back to solve_linear when a = 0 mod p.  p must be odd.
    Raises DegenerateEquation when both a and b vanish mod p.
    """
    if p % 2 == 0:
        raise ValueError("p must be odd")
    a %= p
    b %= p
    c %= p
    if a == 0:
        if b == 0:
            raise DegenerateEquation("quadratic and linear coefficients both vanish")
        return [solve_linear(b, -c, p)]
    disc = (b * b - 4 * a * c) % p
    roots = sqrt_mod(disc, p)
    if not roots:
        return []
    inv_2a = mod_inverse(2 * a % p, p)
    xs = {(-b + s) * inv_2a % p for s in roots}
    return sorted(xs)


# -- polynomials over F_p
#
# A polynomial is a list of coefficients from the constant term up, reduced
# mod p and trimmed: its last entry is nonzero, and the zero polynomial is [].


def poly_trim(f, p):
    """f reduced mod p, without its zero top coefficients."""
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    return f


def poly_sub(f, g, p):
    """f - g."""
    return poly_trim([a - b for a, b in zip_longest(f, g, fillvalue=0)], p)


def poly_divmod(f, g, p):
    """(q, r) with f = q*g + r and deg r < deg g, for a nonzero g."""
    shift = len(f) - len(g) + 1
    if shift <= 0:
        return [], list(f)
    r = list(f)
    lead = 1 if g[-1] == 1 else mod_inverse(g[-1], p)
    low = g[:-1]
    q = [0] * shift
    for i in range(shift - 1, -1, -1):
        c = q[i] = r.pop() * lead % p
        if c:
            for j, b in enumerate(low, i):
                r[j] = (r[j] - c * b) % p
    while r and not r[-1]:
        r.pop()
    return q, r


def poly_gcd(f, g, p):
    """The monic gcd of f and g, not both zero."""
    while g:
        if len(g) == 1:
            return [1]  # g is a nonzero constant
        f, g = g, poly_divmod(f, g, p)[1]
    lead = mod_inverse(f[-1], p)
    return [c * lead % p for c in f]


def poly_mulmod(f, g, m, p):
    """f*g mod m, for a nonzero m."""
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return poly_divmod(poly_trim(prod, p), m, p)[1]


def poly_powmod(f, n, m, p):
    """f**n mod m, for n >= 0 and m of degree at least 1."""
    out = [1]
    f = poly_divmod(f, m, p)[1]
    while n:
        if n & 1:
            out = poly_mulmod(out, f, m, p)
        n >>= 1
        if n:
            f = poly_mulmod(f, f, m, p)
    return out


def poly_split(f, d, p):
    """The monic factors of f, a monic product of distinct irreducible
    polynomials of degree d over F_p, p odd (Cantor-Zassenhaus).

    The gcd of f with the probe (t + a)^((p^d - 1)/2) - 1, for a = 0, 1,
    2, ..., keeps the factors h of f for which t + a is a nonzero square
    mod h, in F_p[t]/(h) = F_(p^d).  The first probe whose gcd is a proper
    divisor splits f, and each part is split again.  No draw is needed:
    any two distinct factors differ at some a below p.  For d = 1 and
    roots r1 != r2, the Jacobi sum sum_a chi((a + r1)(a + r2)) is -1, so
    some a makes exactly one of a + r1, a + r2 a square.  For d = 2, t + a
    is a square mod an irreducible q exactly when its norm q(-a) is a
    square of F_p, and the Weil bound |sum_a chi(q1(-a) q2(-a))| <= 3
    sqrt(p) < p gives such an a when p > 9; an exhaustive check of every
    pair of irreducible quadratics at p <= 13 found none without one.
    """
    n = len(f) - 1
    if n <= d:
        return [f] if n else []
    power = (p**d - 1) // 2
    for a in range(p):
        h = poly_gcd(f, poly_sub(poly_powmod([a, 1], power, f, p), [1], p), p)
        if 0 < len(h) - 1 < n:
            q = poly_divmod(f, h, p)[0]
            return poly_split(h, d, p) + poly_split(q, d, p)
    raise AssertionError(f"no probe below {p} splits {f}")


def poly_roots(f, p):
    """The distinct roots in F_p of a nonzero f, sorted ascending, p odd.

    Up to degree 2 they come from solve_quadratic; above it, from the
    linear factors of gcd(f, t^p - t), split by poly_split.
    """
    if len(f) == 1:
        return []
    if len(f) <= 3:
        return solve_quadratic(f[2] if len(f) == 3 else 0, f[1], f[0], p)
    t = [0, 1]
    linear = poly_gcd(f, poly_sub(poly_powmod(t, p, f, p), t, p), p)
    return sorted(-h[0] % p for h in poly_split(linear, 1, p))
