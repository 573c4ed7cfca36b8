"""Desk-scale executable oracles for the security arguments.

Everything here treats attacks as verification instruments: the mod-p
view of a ciphertext, exhaustive solution enumeration, the
indistinguishability game, factor-ratio recovery from plain maps, and
tiny hidden-ring key search.  Every enumeration carries an explicit
search-space guard; none of this is a practical attack at production
parameters, and the complexity claims are checked as growth trends, not
absolute numbers.  Factor-label recovery enumerates nothing: it finds
the labels by gcd and root finding over F_p[t] (the poly_* helpers of
modmath) at any prime, but it reads plain maps, which only the secret
key unmasks.

A public congruence in the secret x and the noise has one type: a
ModPSystem holds any number of them, two for a ciphertext block and one
for a round of the indistinguishability game.  ModPSystem.forms(x) fixes
x and returns each congruence as a pair (noise coefficients, right-hand
side), a linear form in the noise built by column_values; enumerating
solutions and counting them both go through it.

A factor f is named by its label, f / f[-1] without the leading 1.  A
column c of a plain map accepts the monic factor g of degree e <=
factor_degree when c's top factor_degree - e coefficients vanish and g
divides the rest; ratio recovery, the scalar ring search and the ring
search's label table all apply this one rule, through _map_labels.

The ring search unmasks a public entry c one way, whatever the shape:
_residue_row computes (c * V mod S) mod p over a row of (S, V) pairs,
and narrow grids keep those rows in a residue table.  Both public maps
read their rows over one slice of each chunk's pairs, and both acceptance
kernels read the rows: the p^3 label table for degree-1 shapes over
small primes, _map_labels pair by pair for every other shape.  The second
map's kernel takes a mask of the pairs whose modulus the first accepted,
and accepts, or labels, no other pair.
"""

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from operator import mul
from typing import NamedTuple

import numpy as np

from .block import sample_keypair
from .errors import NoConsistentRatio, SearchSpaceTooLarge
from .modmath import (
    mod_inverse,
    poly_divmod,
    poly_gcd,
    poly_powmod,
    poly_roots,
    poly_split,
    poly_sub,
    poly_trim,
)

_BRUTE_FORCE_GUARD = 1 << 26
_LIKELIHOOD_GUARD = 1 << 20
_RING_SEARCH_MAX_BITS = 14
_ROOT_TABLE_MAX_PRIME = 31  # vectorized ring search builds a p^3 root table
# A ring width's moduli fall into chunks of about _RING_SEARCH_CHUNK (modulus,
# unit) pairs, fixed by the width alone so that every search at that width
# shares one coprime grid per chunk.  A 14-bit chunk holds at most 55,690
# coprime pairs, 0.64 MiB as three int32 arrays (moduli, units, inverses), so
# the cache holds at most 11.5 MiB; the 12 chunks of every width up to 10 bits
# fit in it together, and a wider width caches its first _UNIT_GRID_CACHE
# chunks.  A cached grid also gets a residue table, one uint8 per pair and per
# entry below its last modulus, when the table is no larger than that largest
# grid: the 7-bit table takes 0.46 MiB and the 8-bit one would take 3.6 MiB, so
# only widths up to 7 bits get one, for every shape of map.
# _RESIDUE_TABLE_CACHE tables, one per (grid, prime), stay built: at most 2.6 MiB.
_RING_SEARCH_CHUNK = 1 << 16
_UNIT_GRID_CACHE = 18  # chunks whose grids stay built
_RESIDUE_TABLE_BYTES = 12 * 55_690  # the largest grid's bytes
_RESIDUE_TABLE_CACHE = 4


# -- the mod-p view of one ciphertext block


def column_values(coeffs, x, p):
    """Per-noise-variable coefficient polynomials evaluated at x, mod p.

    coeffs is a (degree+1) x noise_vars matrix whose row i multiplies
    x**i; entry j of the result is the coefficient of noise variable j.
    """
    out = [0] * len(coeffs[0])
    power = 1
    for row in coeffs:
        for j, c in enumerate(row):
            out[j] = (out[j] + c * power) % p
        power = power * x % p
    return out


def _dot(cols, noise, p):
    return sum(map(mul, cols, noise)) % p


def _noise_solutions(forms, p, m):
    """Noise vectors in F_p^m, in product order, satisfying every form.

    The first form is tested on its own before the rest: it rejects all
    but about 1/p of the vectors, so the others are rarely evaluated.
    """
    (first, rhs), rest = forms[0], forms[1:]
    for noise in itertools.product(range(p), repeat=m):
        if sum(map(mul, first, noise)) % p == rhs and all(
            _dot(cols, noise, p) == t for cols, t in rest
        ):
            yield noise


@dataclass(frozen=True)
class ModPSystem:
    """Congruences sum(coeffs[i][j] * x^i * noise_j) = rhs (mod prime), one
    (coeffs, rhs) pair each; there must be at least one.
    """

    prime: int
    congruences: tuple

    def __post_init__(self):
        if not self.congruences:
            raise ValueError("a system needs at least one congruence")
        for coeffs, rhs in self.congruences:
            if any(not 0 <= c < self.prime for c in (rhs, *itertools.chain(*coeffs))):
                raise ValueError("system entries must be reduced mod p")

    @property
    def noise_vars(self):
        return len(self.congruences[0][0][0])

    def forms(self, x):
        return tuple((column_values(c, x, self.prime), rhs) for c, rhs in self.congruences)


def reduce_mod_p(pk, ct, prime):
    """View a public key and block ciphertext modulo the field prime."""
    return ModPSystem(prime, tuple(
        (tuple(tuple(c % prime for c in row) for row in m), value % prime)
        for m, value in ((pk.p1, ct.value1), (pk.p2, ct.value2))
    ))


# -- exhaustive solving


def brute_force_solutions(system):
    """Every assignment (x, *noise) over F_p satisfying the system, as a
    tuple in lexicographic order.

    The search space p**variables must stay at or below 2**26; larger
    requests raise SearchSpaceTooLarge.
    """
    p = system.prime
    m = system.noise_vars
    if p ** (1 + m) > _BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(f"{p}**{1 + m} assignments exceed the guard")
    return tuple(
        (x, *noise)
        for x in range(p)
        for noise in _noise_solutions(system.forms(x), p, m)
    )


def _rows(flat, width):
    """A row-major draw split into rows of the given width."""
    return tuple(tuple(flat[i : i + width]) for i in range(0, len(flat), width))


def random_planted_system(params, rng):
    """A random system of the profile's shape with a planted witness.

    Coefficient tables are drawn uniformly and the right-hand sides set
    by evaluating at a random assignment, which is returned alongside.
    This is the generic-instance model under which the expected solution
    count is p**(noise_vars - 1).
    """
    p = params.prime
    rows = params.message_degree + 1
    m = params.noise_vars
    size = rows * m
    draws = rng.below_many(p, 2 * size + 1 + m)
    tables = _rows(draws[:size], m), _rows(draws[size : 2 * size], m)
    x, *noise = draws[2 * size :]
    congruences = tuple((c, _dot(column_values(c, x, p), noise, p)) for c in tables)
    return ModPSystem(p, congruences), (x, *noise)


# -- the indistinguishability game


def ind_cpa_game(params, adversary, trials, rng):
    """Measured distinguishing advantage of an adversary over the game.

    Each round draws a fresh instance polynomial in the message variable
    and noise_vars - 1 noise variables, two distinct candidate messages,
    a hidden bit, and noise; the adversary receives both messages and the
    challenge and guesses the bit.  The challenge is a one-congruence
    ModPSystem: its coefficients are the instance polynomial H (the
    normalized public key) and its right-hand side is H's value at the
    hidden message and noise.  Returns |win_rate - 1/2|.
    """
    if params.noise_vars < 2:
        raise ValueError("the game needs at least one noise variable")
    if trials < 1:
        raise ValueError("the game needs at least one trial")
    p = params.prime
    rows = params.message_degree + 1
    m = params.noise_vars - 1
    wins = 0
    done = 0
    while done < trials:
        *flat, m0, m1 = rng.below_many(p, rows * m + 2)
        table = _rows(flat, m)
        while m1 == m0:
            m1 = rng.below(p)
        hidden = rng.bits(1)
        message = m1 if hidden else m0
        cols = column_values(table, message, p)
        if all(c == 0 for c in cols):
            continue  # evaluation identically zero; redraw the instance
        evaluation = 0
        while evaluation == 0:
            noise = rng.below_many(p, m)
            evaluation = _dot(cols, noise, p)
        wins += adversary(m0, m1, ModPSystem(p, ((table, evaluation),))) == hidden
        done += 1
    return abs(wins / trials - 0.5)


class RandomGuessAdversary:
    """Flips a coin; the baseline whose advantage concentrates at zero."""

    def __init__(self, rng):
        self._rng = rng

    def __call__(self, m0, m1, challenge):
        return self._rng.bits(1)


class ConstantAdversary:
    """Always answers the same bit."""

    def __init__(self, bit):
        self._bit = bit

    def __call__(self, m0, m1, challenge):
        return self._bit


class ExhaustiveLikelihoodAdversary:
    """Counts, for each candidate message, the noise vectors explaining the
    evaluation, and guesses the likelier one; ties are coin flips.

    This is the statistically optimal strategy given the challenge, and
    its measured advantage decays as the noise dimension grows.
    """

    def __init__(self, rng):
        self._rng = rng

    def __call__(self, m0, m1, challenge):
        p = challenge.prime
        m = challenge.noise_vars
        if p**m > _LIKELIHOOD_GUARD:
            raise SearchSpaceTooLarge("likelihood enumeration exceeds the guard")
        counts = [
            sum(1 for _ in _noise_solutions(challenge.forms(x), p, m)) for x in (m0, m1)
        ]
        if counts[0] != counts[1]:
            return int(counts[1] > counts[0])
        return self._rng.bits(1)


def likelihood_advantage(params):
    """The advantage of ExhaustiveLikelihoodAdversary in ind_cpa_game.

    With m = noise_vars - 1, a message whose column vector is nonzero
    explains exactly p^(m-1) noise vectors, as the evaluation is nonzero.
    The hidden message's vector is nonzero, so the guess is a coin flip
    unless the other's is zero, which makes it right.  Over a uniform
    table of two or more rows both vectors are independent and uniform,
    so that happens with probability p^-m: the win rate is 1/2 + p^-m/2.
    """
    return params.prime ** -(params.noise_vars - 1) / 2


# -- factor-ratio recovery from plain maps


def true_ratio(factor, prime):
    """The label of a factor f: its monic form f / f[-1] without the leading 1.

    Coefficients run from the constant up, and key generation keeps the
    leading one nonzero: f0 + f1*t is labelled (f0/f1,).
    """
    lead = mod_inverse(factor[-1] % prime, prime)
    return tuple(c * lead % prime for c in factor[:-1])


def _divisor_labels(g, e, prime):
    """The labels of the monic degree-e divisors of a nonzero g.

    For e = 0 the label is (); for e = 1 the labels name t - r for each
    root r of g.  For e = 2 they name the products of two distinct roots,
    the squares of double roots (checked by division) and the irreducible
    quadratic factors of g, found in gcd(g, t^(p^2) - t) / gcd(g, t^p - t).
    """
    p = prime
    if e == 0:
        return {()}
    roots = poly_roots(g, p)
    if e == 1:
        return {(-r % p,) for r in roots}
    labels = {(r * s % p, -(r + s) % p) for r, s in itertools.combinations(roots, 2)}
    for r in roots:
        square = [r * r % p, -2 * r % p, 1]
        if not poly_divmod(g, square, p)[1]:
            labels.add(tuple(square[:2]))
    if len(g) - 1 - len(roots) >= 2:  # room left for an irreducible quadratic
        t = [0, 1]
        frobenius = poly_powmod(t, p, g, p)
        linear = poly_gcd(g, poly_sub(frobenius, t, p), p)
        both = poly_gcd(g, poly_sub(poly_powmod(frobenius, p, g, p), t, p), p)
        quadratics = poly_divmod(both, linear, p)[0]
        labels.update(tuple(q[:2]) for q in poly_split(quadratics, 2, p))
    return labels


def _map_labels(columns, prime, base_degree, factor_degree):
    """The labels every live column accepts, by the rule of recover_f_ratio.

    A live column c of degree d has its top factor_degree - e coefficients
    zero exactly when e >= d - base_degree, so the factor degrees e to try
    run from the live columns' highest degree less base_degree up to
    factor_degree.  Dropping zero top coefficients leaves a polynomial as
    it is, so for each such e the monic degree-e factors dividing every
    live column are the monic degree-e divisors of g, a gcd of the live
    columns; the labels are theirs.
    """
    p = prime
    live = [f for f in (poly_trim(col, p) for col in columns) if f]
    if not live:
        return set()  # a zero map has no product structure
    lowest = max(0, max(map(len, live)) - 1 - base_degree)
    g = live[0]
    for f in live[1:]:
        if len(g) == 1:
            break  # only constants divide every column
        g = poly_gcd(g, f, p)
    labels = set()
    for e in range(lowest, factor_degree + 1):
        labels |= _divisor_labels(g, e, p)
    return labels


def recover_f_ratio(plain1, plain2, params):
    """Recover the factor labels of both plain central maps.

    Each plain map is the product b*f of a base polynomial and a factor,
    column by column.  Each result is the set of labels (see true_ratio)
    of the monic factors g of degree at most factor_degree that every
    live column c of the map accepts: c's top factor_degree - deg g
    coefficients vanish and g divides the rest.  A shorter label, such as
    () for a constant, fits only where the top coefficients of every live
    column vanish.  The true factor's label is always a member.  The
    labels come from gcd and root finding over F_p[t] (see _map_labels),
    at any prime and factor degree.  Raises NoConsistentRatio when a map
    admits no product structure.
    """
    shape = (params.prime, params.base_degree, params.factor_degree)
    out = []
    for rows in (plain1, plain2):
        candidates = _map_labels(zip(*rows), *shape)
        if not candidates:
            raise NoConsistentRatio("no factor divides every live column")
        out.append(frozenset(candidates))
    return tuple(out)


# -- hidden-ring key search


def random_ring_instance(params, s_bits, rng):
    """A key pair over an s_bits-wide ring, for search experiments.

    The ring width is deliberately not held to the decryption size
    condition: the search target only needs the masked product structure,
    and shrinking the ring is what makes enumeration tractable.
    """
    return sample_keypair(params, s_bits, rng)


class RingCandidate(NamedTuple):
    modulus: int
    r1_options: tuple
    r2_options: tuple


@dataclass
class RingSearchResult:
    candidates: tuple
    work: int

    @property
    def total_triples(self):
        return sum(len(c.r1_options) * len(c.r2_options) for c in self.candidates)

    def contains(self, modulus, r1, r2):
        for c in self.candidates:
            if c.modulus == modulus:
                return r1 in c.r1_options and r2 in c.r2_options
        return False


@cache
def _root_exists_table(p):
    """Bitmask of the labels each column (c0, c1, c2) accepts, flattened at
    (c0*p + c1)*p + c2: bit a for the label (a,), bit p for ().
    """
    columns = itertools.product(range(p), repeat=3)
    next(columns)  # the zero column accepts every label
    masks = [(1 << (p + 1)) - 1]
    for col in columns:
        masks.append(sum(1 << (g[0] if g else p) for g in _map_labels([col], p, 1, 1)))
    table = np.array(masks, dtype=np.uint32)
    table.flags.writeable = False  # one cached table is shared by every search
    return table


def _table_accepts(columns, params, where=None):
    """Which pairs (S, V) give a cipher map a product structure.

    columns holds, per column of the map, its three residue rows: entry i
    of the row of a coefficient c is (c * V mod S) mod p for the i-th
    tested pair, from a residue table or from _residue_row.  A pair is
    accepted when the columns of its unmasking share a label, read from the
    p^3 label table, and some column is live.  A boolean where, one entry
    per tested pair, accepts only the pairs it marks.
    """
    p = params.prime
    masks = _root_exists_table(p)
    labels = key = None
    for r0, r1, r2 in columns:
        if key is None:  # one key buffer serves every column
            key = np.empty(len(r0), dtype=np.int16)  # keys stay below 31^3 = 29,791
        np.multiply(r0, p, out=key, dtype=np.int16)
        key += r1
        key *= p
        key += r2
        # numpy gathers through an intp index about 3x faster than through a
        # narrower one
        column = masks[key.astype(np.intp)]
        if labels is None:
            labels = column
        else:
            labels &= column
    # a live column has at most 2 roots, fewer than p, so only the zero
    # column accepts every label, and a full mask marks a zero unmasking
    ok = (labels != 0) & (labels != masks[0])
    if where is not None:
        ok &= where
    return ok


def _residue_row(c, mods, inverses, p):
    """(c * inverses mod mods) mod p, as int32."""
    # int32 holds every product c * V (below 2^28 under the cap); numpy takes
    # an integer remainder one element at a time but vectorises floor division
    # by a scalar, so the row is reduced mod p as r - r // p * p
    row = c * inverses
    row %= mods
    quotient = row // p
    quotient *= p
    row -= quotient
    return row


def _scalar_accepts(columns, params, where=None):
    """The same acceptance from the same residue rows, one pair at a time
    through _map_labels, for any shape.  A boolean where skips the pairs it
    does not mark: they are rejected without a call to _map_labels.
    """
    shape = (params.prime, params.base_degree, params.factor_degree)
    # a memoryview yields a row's entries as Python ints without copying it
    unmasked = zip(*(zip(*map(memoryview, rows)) for rows in columns))
    marked = itertools.repeat(True) if where is None else where.tolist()
    return np.fromiter(
        (w and bool(_map_labels(cols, *shape)) for w, cols in zip(marked, unmasked)),
        dtype=bool,
    )


def _map_columns(matrix, row):
    """Per column of a public map, the residue rows of its entries, each
    entry's row read by row(entry).
    """
    return ([row(c) for c in col] for col in zip(*matrix))


def _ring_options(mods, units, moduli):
    """Per modulus of the array moduli, the tuple of its entries in units.

    mods is ascending and holds every modulus of moduli, and units ascend
    within each modulus, as the grid holds them.
    """
    starts = mods.searchsorted(moduli).tolist()
    ends = mods.searchsorted(moduli, side="right").tolist()
    units = units.tolist()
    return [tuple(units[a:b]) for a, b in zip(starts, ends)]


@cache
def _chunk_bounds(s_bits):
    """The first modulus of each chunk of the s_bits-wide ring, then 2^s_bits.

    A modulus joins the chunk in which its last (modulus, unit) pair falls,
    counting pairs from the ring's lowest modulus 2^(s_bits - 1).
    """
    high = 1 << s_bits
    moduli = np.arange(high >> 1, high, dtype=np.int64)
    chunk_of = (np.cumsum(moduli - 1) - 1) // _RING_SEARCH_CHUNK
    starts = moduli[np.flatnonzero(np.diff(chunk_of, prepend=-1))]
    return (*starts.tolist(), high)


@lru_cache(maxsize=_UNIT_GRID_CACHE)
def _unit_grid(start, stop):
    """Every (modulus, unit) pair with start <= modulus < stop and the unit
    prime to it, in ascending order, and each unit's inverse, as three
    read-only int32 arrays (mods, units, inverses).

    Each modulus m is factored by trial division, and the multiples of each
    prime factor are struck from its units 1..m-1 with one strided slice.
    The inverse of a unit u is u^(phi(m) - 1) mod m, by Euler's theorem.
    """
    # int32 holds every product of two residues (below 2^28 under the cap)
    # and divides faster than int64
    chunk = np.arange(start, stop, dtype=np.int32)
    sizes = chunk - 1
    offsets = np.cumsum(sizes, dtype=np.int32) - sizes
    keep = np.ones(int(sizes.sum()), dtype=bool)
    phis = []
    for m, off in zip(range(start, stop), offsets.tolist()):
        phi, n, q = m, m, 2
        while q * q <= n:
            if n % q == 0:
                keep[off + q - 1 : off + m - 1 : q] = False
                phi -= phi // q
                while n % q == 0:
                    n //= q
            q += 1
        if n > 1:
            keep[off + n - 1 : off + m - 1 : n] = False
            phi -= phi // n
        phis.append(phi)
    mods = np.repeat(chunk, phis)
    units = (np.arange(1, len(keep) + 1, dtype=np.int32) - np.repeat(offsets, sizes))[keep]
    exponents = np.repeat(np.array(phis, dtype=np.int32) - 1, phis)
    inverses = np.ones_like(units)
    product = np.empty_like(units)
    for bit in reversed(range((max(phis) - 1).bit_length())):  # square and multiply
        inverses *= inverses
        inverses %= mods
        np.multiply(inverses, units, out=product)
        product %= mods
        np.copyto(inverses, product, where=(exponents >> bit & 1).astype(bool))
    for a in (mods, units, inverses):
        a.flags.writeable = False  # one cached grid is shared by every search
    return mods, units, inverses


@lru_cache(maxsize=_RESIDUE_TABLE_CACHE)
def _residue_table(start, stop, p):
    """Row c holds (c * V mod S) mod p for every pair (S, V) of the grid
    (start, stop), for 0 <= c < stop, as one read-only uint8 array.

    A searched modulus exceeds every public entry, so the entries of a
    search over this grid are all below stop.  The table is built a row at
    a time, so no table-sized temporary is made.
    """
    mods, _, inverses = _unit_grid(start, stop)
    # a table serves widths up to 7 bits, and a search's ring is wider than
    # its prime, so p < 2^6 and every residue fits a uint8
    table = np.empty((stop, len(mods)), dtype=np.uint8)
    for c, row in enumerate(table):
        row[:] = _residue_row(c, mods, inverses, p)
    table.flags.writeable = False  # one cached table is shared by every search
    return table


def ring_key_search(pk, params, s_bits):
    """Enumerate (S, R1, R2) triples that reproduce a product structure.

    Brute-force over ring moduli of the given bit length and their units;
    a pair (S, R) is kept when R^-1 times a cipher map, reduced mod S and
    then mod p, is consistent with some factor ratio.  Moduli at or below
    the largest public coefficient are skipped (coefficients are reduced
    mod S, so S must exceed them all).  The result groups accepted R1 and
    R2 values per modulus, in ascending modulus order.

    s_bits must exceed the prime's bit length, so that every searched S
    exceeds p and the true key's unmasking is the plain map itself; under
    that condition the true key is always present, usually among many
    indistinguishable companions.  Narrower rings raise ValueError, and
    s_bits is capped at 14.  A negative public entry raises ValueError: the
    entries are residues mod S.  An entry of 2^s_bits or more leaves no
    modulus to search, and the result is empty.

    The (modulus, unit) pairs are scanned a chunk of consecutive moduli at
    a time.  The chunks depend on s_bits alone, about _RING_SEARCH_CHUNK
    pairs each.  A chunk's grid lists its coprime pairs (S, R) in ascending
    order with each R^-1, built from each modulus's prime factors.  The
    grids of a width's first _UNIT_GRID_CACHE chunks (every chunk up to
    10 bits) are built once per process and kept in a bounded cache (at
    most 11.5 MiB, at 14 bits), so searches at one width share them; later
    chunks are built per search.
    A search skips the chunks below its floor and cuts the one holding the
    floor; both maps read the pairs from the cut on, one slice of the grid.
    Each entry of a map is unmasked mod p into a residue row over that
    slice, whatever the shape.  A cached grid whose residue table fits in
    _RESIDUE_TABLE_BYTES (every width up to 7 bits) gets one on the first
    search that needs it, holding the row of every entry a search can meet,
    and both maps read their rows as slices of it.  Other grids compute each
    row per search (_residue_row).  The shape picks, once per search, the
    kernel that reads the rows: for degree-1 factors over a degree-1 base
    and p <= 31 a p^3 label table (_table_accepts), otherwise _map_labels
    pair by pair (_scalar_accepts).  The second map accepts a unit only
    where the first accepted a unit of its modulus: its kernel takes that
    mask, and the scalar kernel labels no pair outside it.  work counts
    every tested unit once, plus again each unit of a modulus where the
    first map accepted a unit.

    Each candidate is a RingCandidate, a named tuple (modulus, r1_options,
    r2_options).  Its options are the values R, ascending, whose inverse its
    map accepted, taken only for moduli both maps accept.  They are sliced
    from the grid, so nothing is inverted or sorted during a search.
    Every option is held as a Python int, so the option count bounds any
    wide search by memory: one 14-bit search at p = 13 with 2 noise
    variables, no zero row and all 8192 moduli searched returned 16.9M
    options, peaked at 691 MiB RSS and took 15 s.  A map with a zero row
    accepts every unit, so the result then lists nearly every unit of every
    candidate modulus: one such 12-bit search returned 4.1M options and
    peaked at 187 MiB.
    """
    if s_bits > _RING_SEARCH_MAX_BITS:
        raise SearchSpaceTooLarge(f"ring search capped at {_RING_SEARCH_MAX_BITS} bits")
    if s_bits <= params.prime_bits:
        raise ValueError(
            f"ring search needs more than the prime's {params.prime_bits} bits"
        )
    entries = [c for m in (pk.p1, pk.p2) for row in m for c in row]
    if min(entries) < 0:
        raise ValueError("ring search needs non-negative public entries")
    p = params.prime
    # the p^3 label table serves degree-1 factors over a degree-1 base
    labelled = params.factor_degree == params.base_degree == 1 and p <= _ROOT_TABLE_MAX_PRIME
    accepts = _table_accepts if labelled else _scalar_accepts
    high = 1 << s_bits
    low = min(max(high >> 1, max(entries) + 1), high)
    bounds = _chunk_bounds(s_bits)
    first = bisect_right(bounds, low) - 1  # the chunk holding low, if any
    work = 0
    found = []
    for index in range(first, len(bounds) - 1):
        start, stop = bounds[index], bounds[index + 1]
        # only a width's first chunks enter the cache: a search walks its
        # chunks in order, so caching every chunk of a wider width would evict
        # each grid before the next search reaches it
        cached = index < _UNIT_GRID_CACHE
        mods, units, inverses = (_unit_grid if cached else _unit_grid.__wrapped__)(start, stop)
        cut = int(np.searchsorted(mods, max(start, low)))
        # both maps read every pair from cut on, through views of the grid
        tested, units, inverses = mods[cut:], units[cut:], inverses[cut:]
        if cached and stop * len(mods) <= _RESIDUE_TABLE_BYTES:
            row = _residue_table(start, stop, p)[:, cut:].__getitem__
        else:
            row = partial(_residue_row, mods=tested, inverses=inverses, p=p)
        ok1 = accepts(_map_columns(pk.p1, row), params)
        hit = np.zeros(stop - start, dtype=bool)
        hit[tested[ok1] - start] = True
        # map 2 tests a unit only where map 1 accepted a unit of its modulus
        where = hit.take(tested - start)
        work += len(tested) + int(np.count_nonzero(where))
        ok2 = accepts(_map_columns(pk.p2, row), params, where)
        # the moduli map 2 accepted a unit of; np.unique would load numpy.ma,
        # 1.2 MiB of peak RSS
        both = np.flatnonzero(np.bincount(tested[ok2] - start)) + start
        options1 = _ring_options(tested[ok1], units[ok1], both)
        options2 = _ring_options(tested[ok2], units[ok2], both)
        found += map(RingCandidate, both.tolist(), options1, options2)
    return RingSearchResult(candidates=tuple(found), work=work)
