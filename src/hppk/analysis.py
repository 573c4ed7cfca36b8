"""Desk-scale executable oracles for the security arguments.

Everything here treats attacks as verification instruments: the mod-p
view of a ciphertext, its normalization, Gaussian reduction to a single
equation, exhaustive solution enumeration, the indistinguishability
game, factor-ratio recovery from plain maps, and tiny hidden-ring key
search.  Every enumeration carries an explicit search-space guard; none
of this is a practical attack at production parameters, and the
complexity claims are checked as growth trends, not absolute numbers.

A system of congruences in the secret x and the noise is read one way:
forms(x) fixes x and returns each congruence as a pair (noise
coefficients, right-hand side), a linear form in the noise built by
column_values.  The two-congruence ModPSystem and its one-congruence
ReducedNormalForm both expose it, and checking, extending and
enumerating solutions all go through it.
"""

import itertools
from dataclasses import dataclass, field
from functools import cache
from operator import mul

import numpy as np

from .block import build_plain_central_map, sample_keypair
from .errors import (
    DegenerateEquation,
    EliminationFailed,
    NoConsistentRatio,
    SearchSpaceTooLarge,
    ZeroRhs,
)
from .modmath import batch_inverse, mod_inverse, solve_quadratic

_BRUTE_FORCE_GUARD = 1 << 26
_LIKELIHOOD_GUARD = 1 << 20
_RING_SEARCH_MAX_BITS = 14
_RATIO_SCAN_GUARD = 1 << 14  # largest prime for exhaustive ratio scans
_ROOT_TABLE_MAX_PRIME = 31  # vectorized ring search builds a p^3 root table
_RING_SEARCH_CHUNK = 1 << 16  # (modulus, unit) pairs per numpy pass of the ring search


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


class _Congruences:
    """A system read through forms(x); see the module docstring."""

    def is_solution(self, x, noise):
        return all(_dot(cols, noise, self.prime) == t for cols, t in self.forms(x))


@dataclass(frozen=True)
class ModPSystem(_Congruences):
    """Two congruences sum(coeffs[i][j] * x^i * noise_j) = rhs (mod prime)."""

    prime: int
    coeffs1: tuple
    rhs1: int
    coeffs2: tuple
    rhs2: int

    def __post_init__(self):
        entries = [c for m in (self.coeffs1, self.coeffs2) for row in m for c in row]
        entries += [self.rhs1, self.rhs2]
        if any(not 0 <= c < self.prime for c in entries):
            raise ValueError("system entries must be reduced mod p")

    @property
    def noise_vars(self):
        return len(self.coeffs1[0])

    @property
    def degree(self):
        return len(self.coeffs1) - 1

    def forms(self, x):
        p = self.prime
        return (
            (column_values(self.coeffs1, x, p), self.rhs1),
            (column_values(self.coeffs2, x, p), self.rhs2),
        )


def reduce_mod_p(pk, ct, prime):
    """View a public key and block ciphertext modulo the field prime."""
    return ModPSystem(
        prime=prime,
        coeffs1=tuple(tuple(c % prime for c in row) for row in pk.p1),
        rhs1=ct.value1 % prime,
        coeffs2=tuple(tuple(c % prime for c in row) for row in pk.p2),
        rhs2=ct.value2 % prime,
    )


def normalize_system(sys):
    """Scale each congruence by the inverse of its right-hand side.

    Raises ZeroRhs when either right-hand side is 0 mod p, where
    normalization is undefined.
    """
    if sys.rhs1 == 0 or sys.rhs2 == 0:
        raise ZeroRhs("right-hand side is 0 mod p")
    p = sys.prime
    u1 = mod_inverse(sys.rhs1, p)
    u2 = mod_inverse(sys.rhs2, p)
    return ModPSystem(
        prime=p,
        coeffs1=tuple(tuple(c * u1 % p for c in row) for row in sys.coeffs1),
        rhs1=1,
        coeffs2=tuple(tuple(c * u2 % p for c in row) for row in sys.coeffs2),
        rhs2=1,
    )


# -- reduction to a single equation


@dataclass(frozen=True)
class ReducedNormalForm(_Congruences):
    """Single equation H(x, remaining noise) - 1 = 0 over F_p.

    H has no constant term: the elimination constant is scaled to -1 and
    absorbed.  noise_coeffs[i][k] multiplies x^i times the k-th surviving
    noise variable (source order with the eliminated one removed);
    pure_coeffs[i] multiplies the bare power x^i (index 0 is always 0).
    The source system and eliminated index are kept so solutions can be
    mapped back.
    """

    prime: int
    noise_coeffs: tuple
    pure_coeffs: tuple
    eliminated: int
    source: ModPSystem = field(compare=False)

    @property
    def noise_vars(self):
        return len(self.noise_coeffs[0])

    def forms(self, x):
        """H(x, noise) = 1 as the one form: noise part = 1 - H(x, 0)."""
        p = self.prime
        (pure,) = column_values([(c,) for c in self.pure_coeffs], x, p)
        return ((column_values(self.noise_coeffs, x, p), (1 - pure) % p),)

    def extend_solution(self, x, noise):
        """Values of the eliminated variable completing (x, noise) in the source.

        Both source congruences are linear in the eliminated variable;
        returns every consistent value (all residues when both of its
        coefficients vanish and the remainders agree).
        """
        p = self.prime
        (a, rhs1), (b, rhs2) = self.source.forms(x)
        e = self.eliminated
        rest = list(noise)
        rest[e:e] = [0]  # placeholder at the eliminated slot
        d1 = (rhs1 - _dot(a, rest, p)) % p
        d2 = (rhs2 - _dot(b, rest, p)) % p
        if a[e] != 0:
            t = d1 * mod_inverse(a[e], p) % p
            return [t] if b[e] * t % p == d2 else []
        if b[e] != 0:
            t = d2 * mod_inverse(b[e], p) % p
            return [t] if d1 == 0 else []
        return list(range(p)) if d1 == 0 and d2 == 0 else []


def reduce_to_single(sys):
    """Eliminate one noise variable, producing the single-equation form.

    Cross-multiplying the two congruences by each other's coefficient
    polynomial for the chosen variable cancels it exactly; the surviving
    constant is scaled to -1.  A variable is eliminable when it appears
    in the second congruence and the combination leaves a nonzero
    constant.  Raises EliminationFailed when no variable qualifies.
    """
    p = sys.prime
    for e in range(sys.noise_vars):
        a_e = [row[e] for row in sys.coeffs1]
        b_e = [row[e] for row in sys.coeffs2]
        constant = (sys.rhs2 * a_e[0] - sys.rhs1 * b_e[0]) % p
        if not any(b_e) or constant == 0:
            continue
        # column j of the result is b_e * a_j - a_e * b_j over the columns j != e
        cross, minus = (
            build_plain_central_map([row[:e] + row[e + 1 :] for row in rows], col, p)
            for rows, col in ((sys.coeffs1, b_e), (sys.coeffs2, a_e))
        )
        pure = [(sys.rhs2 * a - sys.rhs1 * b) % p for a, b in zip(a_e, b_e)]
        pure[0] = 0  # the constant moves into the -1
        pure += [0] * sys.degree
        scale = mod_inverse(-constant % p, p)
        return ReducedNormalForm(
            prime=p,
            noise_coeffs=tuple(
                tuple((c - d) * scale % p for c, d in zip(crow, drow))
                for crow, drow in zip(cross, minus)
            ),
            pure_coeffs=tuple(c * scale % p for c in pure),
            eliminated=e,
            source=sys,
        )
    raise EliminationFailed("no noise variable admits elimination")


# -- exhaustive solving


@dataclass(frozen=True)
class SolutionSet:
    """Exhaustive enumeration result; every member satisfies the system."""

    solutions: tuple

    @property
    def count(self):
        return len(self.solutions)

    def __contains__(self, assignment):
        return tuple(assignment) in set(self.solutions)


def brute_force_solutions(target):
    """Enumerate all assignments over F_p satisfying the system or reduced form.

    The search space p**variables must stay at or below 2**26; larger
    requests raise SearchSpaceTooLarge.
    """
    p = target.prime
    m = target.noise_vars
    if p ** (1 + m) > _BRUTE_FORCE_GUARD:
        raise SearchSpaceTooLarge(f"{p}**{1 + m} assignments exceed the guard")
    return SolutionSet(
        tuple(
            (x, *noise)
            for x in range(p)
            for noise in _noise_solutions(target.forms(x), p, m)
        )
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
    coeffs1, coeffs2 = _rows(draws[:size], m), _rows(draws[size : 2 * size], m)
    x, *noise = draws[2 * size :]
    rhs1, rhs2 = (_dot(column_values(c, x, p), noise, p) for c in (coeffs1, coeffs2))
    sys = ModPSystem(p, coeffs1, rhs1, coeffs2, rhs2)
    return sys, (x, *noise)


# -- the indistinguishability game


@dataclass(frozen=True)
class IndCpaChallenge:
    """What the adversary sees in one round of the game.

    public_coeffs is the instance polynomial H (the normalized public
    key); evaluation is its value at the hidden message and noise.  The
    normalized challenge, H scaled by the inverse of evaluation, follows
    from the two.
    """

    prime: int
    public_coeffs: tuple
    evaluation: int

    @property
    def noise_vars(self):
        return len(self.public_coeffs[0])


def ind_cpa_game(params, adversary, trials, rng):
    """Measured distinguishing advantage of an adversary over the game.

    Each round draws a fresh instance polynomial in the message variable
    and noise_vars - 1 noise variables, two distinct candidate messages,
    a hidden bit, and noise; the adversary receives both messages and the
    challenge and guesses the bit.  Returns
    |win_rate - 1/2|.
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
        challenge = IndCpaChallenge(
            prime=p,
            public_coeffs=table,
            evaluation=evaluation,
        )
        guess = adversary(m0, m1, challenge)
        wins += 1 if guess == hidden else 0
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
        counts = []
        for candidate in (m0, m1):
            cols = column_values(challenge.public_coeffs, candidate, p)
            form = (cols, challenge.evaluation)
            counts.append(sum(1 for _ in _noise_solutions((form,), p, m)))
        if counts[0] > counts[1]:
            return 0
        if counts[1] > counts[0]:
            return 1
        return self._rng.bits(1)


# -- factor-ratio recovery from plain maps


RATIO_INFINITE = (1, 0)  # projective marker: constant coefficient is zero


def true_ratio(factor, prime):
    """Projective ratio (f1 * f0^-1, 1) of a degree-1 factor, or (1, 0)."""
    if factor[0] % prime == 0:
        return RATIO_INFINITE
    return (factor[1] * mod_inverse(factor[0], prime) % prime, 1)


def _ratio_consistent(column, u, v, base_degree, prime):
    """Check one column against scaled factor coefficients (u, v) = (f1, f2)/f0."""
    b_prev = b_prev2 = 0
    for i, value in enumerate(column):
        residual = (value - u * b_prev - v * b_prev2) % prime
        if i <= base_degree:
            b_prev2, b_prev = b_prev, residual
        else:
            if residual != 0:
                return False
            b_prev2, b_prev = b_prev, 0
    return True


def _column_ratio_roots(column, base_degree, prime):
    """All finite ratios consistent with one column (degree-1 factors)."""
    if base_degree == 1:
        # r^2 * p0 - r * p1 + p2 = 0
        try:
            return set(
                solve_quadratic(column[0], -column[1] % prime, column[2], prime)
            )
        except DegenerateEquation:
            return set()  # column is (0, 0, c) with c != 0: nothing fits
    if prime > _RATIO_SCAN_GUARD:
        raise SearchSpaceTooLarge("ratio scan needs a small prime")
    return {
        r
        for r in range(prime)
        if _ratio_consistent(column, r, 0, base_degree, prime)
    }


def _map_ratio_candidates(rows, prime, base_degree, factor_degree):
    p = prime
    nb = base_degree
    columns = [[row[j] for row in rows] for j in range(len(rows[0]))]
    live = [col for col in columns if any(col)]
    if not live:
        raise NoConsistentRatio("zero map constrains nothing")
    if factor_degree == 1:
        finite = None
        for col in live:
            roots = _column_ratio_roots(col, nb, p)
            finite = roots if finite is None else finite & roots
            if not finite:
                break
        candidates = {(r, 1) for r in finite} if finite else set()
        if all(col[0] == 0 for col in columns):
            candidates.add(RATIO_INFINITE)
        return candidates
    # degree-2 factors: exhaustive scan over both scaled coefficients
    if p * p > 1 << 22:
        raise SearchSpaceTooLarge("pair scan needs a small prime")
    candidates = {
        (u, v)
        for u in range(p)
        for v in range(p)
        if all(_ratio_consistent(col, u, v, nb, p) for col in live)
    }
    return candidates


def recover_f_ratio(plain1, plain2, params):
    """Recover the factor-coefficient ratios from both plain central maps.

    For degree-1 factors each result is a set of projective pairs
    (ratio, 1), plus (1, 0) when the constant coefficient must vanish;
    the true ratio of the generating factor is always a member.  For
    degree-2 factors each result is a set of pairs (f1/f0, f2/f0).
    Raises NoConsistentRatio when a map admits no product structure.
    """
    out = []
    for rows in (plain1, plain2):
        candidates = _map_ratio_candidates(
            rows, params.prime, params.base_degree, params.factor_degree
        )
        if not candidates:
            raise NoConsistentRatio("no ratio satisfies every column")
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


@dataclass(frozen=True)
class RingCandidate:
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
def _root_exists_table(prime):
    """Bitmask of the roots r of a*r^2 - b*r + c for every column (a, b, c).

    That is the ratio equation of one column (see _column_ratio_roots);
    the table is flattened at (a*p + b)*p + c.
    """
    size = prime**3
    table = np.zeros(size, dtype=np.uint32)
    a = np.arange(size, dtype=np.int64) // (prime * prime)
    b = (np.arange(size, dtype=np.int64) // prime) % prime
    c = np.arange(size, dtype=np.int64) % prime
    for r in range(prime):
        hits = (a * r * r - b * r + c) % prime == 0
        table[hits] |= np.uint32(1 << r)
    table.flags.writeable = False  # one cached table is shared by every search
    return table


def _table_accepts(matrix, mods, units, params):
    """Which pairs (mods[i], units[i]) give the cipher map a product structure.

    A pair (S, V) is accepted when the live columns of (V * matrix mod S)
    mod p share a quadratic ratio root, read from the p^3 root table, or
    all their constant-row entries vanish.
    """
    p = params.prime
    table = _root_exists_table(p)
    roots = np.full(len(units), (1 << p) - 1, dtype=np.uint32)
    infinite = np.ones(len(units), dtype=bool)
    live = np.zeros(len(units), dtype=bool)
    for j in range(len(matrix[0])):
        c0, c1, c2 = (units * row[j] % mods % p for row in matrix)
        column = (c0 * p + c1) * p + c2
        roots &= table[column]
        infinite &= column < p * p  # the constant-row entry c0 is 0
        live |= column != 0
    return ((roots != 0) | infinite) & live


def _scalar_accepts(matrix, mods, units, params):
    """The same acceptance, one pair at a time through ratio recovery."""
    p, nb, nf = params.prime, params.base_degree, params.factor_degree
    accepted = []
    for modulus, v in zip(mods.tolist(), units.tolist()):
        rows = [[v * c % modulus % p for c in row] for row in matrix]
        try:
            accepted.append(bool(_map_ratio_candidates(rows, p, nb, nf)))
        except NoConsistentRatio:
            accepted.append(False)
    return np.array(accepted, dtype=bool)


def _ring_options(mods, units, moduli):
    """Per modulus of moduli, the sorted inverses of its accepted units.

    mods is ascending and holds every modulus of moduli.
    """
    starts = np.searchsorted(mods, moduli).tolist()
    ends = np.searchsorted(mods, moduli, side="right").tolist()
    units = units.tolist()
    return [
        tuple(sorted(batch_inverse(units[a:b], modulus)))
        for modulus, a, b in zip(moduli, starts, ends)
    ]


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
    s_bits is capped at 14.

    The (modulus, unit) pairs are scanned in chunks of consecutive moduli,
    about _RING_SEARCH_CHUNK pairs each, as flat numpy arrays.  Each chunk
    tests the first map on every unit, then the second map only on the
    moduli where the first accepted a unit; work counts the units tested.
    Inverses are taken only for moduli both maps accept.  The shape picks
    the unit test: a p^3 root table for degree-1 factors over a degree-1
    base and p <= 31, per-pair ratio recovery otherwise.
    """
    if s_bits > _RING_SEARCH_MAX_BITS:
        raise SearchSpaceTooLarge(f"ring search capped at {_RING_SEARCH_MAX_BITS} bits")
    if s_bits <= params.prime_bits:
        raise ValueError(
            f"ring search needs more than the prime's {params.prime_bits} bits"
        )
    p = params.prime
    if params.factor_degree == params.base_degree == 1 and p <= _ROOT_TABLE_MAX_PRIME:
        accepts = _table_accepts
    else:
        accepts = _scalar_accepts
    max_entry = max(max(max(row) for row in m) for m in (pk.p1, pk.p2))
    high = 1 << s_bits
    low = min(max(high >> 1, max_entry + 1), high)
    # int32 holds every product unit * entry (below 2^28 under the cap) and
    # divides faster than int64
    moduli = np.arange(low, high, dtype=np.int32)
    # a modulus joins the chunk in which its last (modulus, unit) pair falls
    chunk_of = (np.cumsum(moduli - 1) - 1) // _RING_SEARCH_CHUNK
    bounds = np.flatnonzero(np.diff(chunk_of)) + 1
    chunks = np.split(moduli, bounds) if len(moduli) else []  # np.split([]) is [[]]
    work = 0
    found = []
    for chunk in chunks:
        sizes = chunk - 1
        mods = np.repeat(chunk, sizes)
        offsets = np.cumsum(sizes, dtype=np.int32) - sizes
        units = np.arange(1, len(mods) + 1, dtype=np.int32) - np.repeat(offsets, sizes)
        coprime = np.gcd(units, mods) == 1
        mods, units = mods[coprime], units[coprime]
        accepted = []
        for matrix in (pk.p1, pk.p2):
            work += len(units)
            ok = accepts(matrix, mods, units, params)
            accepted.append((mods[ok], units[ok]))
            # the next map is tested only where this one accepted a unit
            hit = np.zeros(len(chunk), dtype=bool)
            hit[mods[ok] - chunk[0]] = True
            survives = hit[mods - chunk[0]]
            mods, units = mods[survives], units[survives]
        both = chunk[hit].tolist()
        options1, options2 = (_ring_options(m, u, both) for m, u in accepted)
        found += map(RingCandidate, both, options1, options2)
    return RingSearchResult(candidates=tuple(found), work=work)
