"""Fixed-width unsigned arithmetic and modular algorithms.

Every quantity handled by this package is a non-negative integer below
2**256.  A ciphertext value sums term_count products below 2**ring_bits
* p, so it needs at most ring_bits + prime_bits + bit_length(term_count)
bits; the wire format reserves max(8, bit_length(term_count)) margin
bits (ParameterSet.value_bits), 208 bits in every shipped profile, and
256 leaves headroom.  Python integers are exact at any size, so the
capacity contract is enforced at construction and parsing boundaries
with :func:`ensure_wide` instead of on every operation; the ring-size
precondition guarantees intermediate values stay in range.

No floating point is used anywhere in this module.  Nothing here is
constant-time: operand-dependent timing is accepted, and timing side
channels are out of scope for this artifact.
"""

from functools import lru_cache
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


def is_prime_64(n):
    """Deterministic primality for 0 <= n < 2**64."""
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


@lru_cache(maxsize=32)
def _tonelli_constants(p):
    """(q, s, z**q mod p) with p - 1 = q * 2**s, q odd, z the least non-residue."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def sqrt_mod(a, p):
    """All square roots of a modulo an odd prime p, sorted ascending.

    Returns [] when a is a non-residue, [0] when a = 0, and the pair
    [r, p - r] otherwise.  Tonelli-Shanks with the per-prime constants
    cached: one exponentiation w = a**((q-1)/2) gives both the candidate
    root r = a*w = a**((q+1)/2) and t = r*w = a**q, whose order 2**i
    measures how far r is from a root.  A non-residue shows up as t of
    order 2**s, so no separate Euler-criterion test is needed; when
    p = 3 (mod 4), s = 1 and the loop never runs for a residue.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return [0]
    q, m, c = _tonelli_constants(p)
    w = pow(a, (q - 1) // 2, p)
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
