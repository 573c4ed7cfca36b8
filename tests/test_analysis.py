import itertools
import math
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppk import analysis, fhe
from hppk.block import PublicKey, encrypt_block, keygen, keypair_from_values
from hppk.errors import NoConsistentRatio, SearchSpaceTooLarge
from hppk.params import PARAMETER_SETS, ParameterSet
from hppk.rng import DeterministicStream

P5M2 = ParameterSet(prime=5, base_degree=1, factor_degree=1, noise_vars=2,
                    label="p5m2")
P5M3 = ParameterSet(prime=5, base_degree=1, factor_degree=1, noise_vars=3,
                    label="p5m3")
P13M2 = ParameterSet(prime=13, base_degree=1, factor_degree=1, noise_vars=2,
                     label="p13m2")
P13M3 = ParameterSet(prime=13, base_degree=1, factor_degree=1, noise_vars=3,
                     label="p13m3")


def _plain_maps(sk, pk, prime):
    return (
        fhe.decrypt_coeffs(sk.key1, pk.p1, prime),
        fhe.decrypt_coeffs(sk.key2, pk.p2, prime),
    )


# -- mod-p view


def _satisfies(system, x, noise):
    """Whether (x, *noise) satisfies every congruence of the system."""
    return all(sum(map(mul, cols, noise)) % system.prime == rhs
               for cols, rhs in system.forms(x))


def test_reduce_mod_p_toy(toy_params, toy_keypair, toy_block):
    _, pk = toy_keypair
    sys_ = analysis.reduce_mod_p(pk, toy_block, 13)
    (coeffs1, rhs1), (coeffs2, rhs2) = sys_.congruences
    assert coeffs1 == ((8, 12), (6, 0), (0, 3))
    assert coeffs2 == ((3, 8), (4, 3), (6, 10))
    assert (rhs1, rhs2) == (198082 % 13, 192229 % 13) == (1, 11)
    # the encrypting witness satisfies both congruences
    assert _satisfies(sys_, 8, (3, 6))


def test_reduce_mod_p_zero_ciphertext(toy_params, toy_keypair):
    from hppk.block import BlockCiphertext

    _, pk = toy_keypair
    sys_ = analysis.reduce_mod_p(pk, BlockCiphertext(0, 0), 13)
    assert [rhs for _, rhs in sys_.congruences] == [0, 0]


@pytest.mark.parametrize(
    "rhs1, coeffs2, rhs2",
    [(1, ((0, -1), (2, 3)), 4), (13, ((0, 1), (2, 3)), 4), (1, ((0, 1), (2, 3)), 13)],
    ids=["negative-coefficient", "rhs1-equals-p", "rhs2-equals-p"],
)
def test_mod_p_system_rejects_unreduced_entries(rhs1, coeffs2, rhs2):
    with pytest.raises(ValueError, match="reduced mod p"):
        analysis.ModPSystem(13, ((((1, 2), (3, 4)), rhs1), (coeffs2, rhs2)))


def test_mod_p_system_needs_a_congruence():
    with pytest.raises(ValueError, match="at least one congruence"):
        analysis.ModPSystem(13, ())


# -- exhaustive solving


def test_brute_force_toy_contains_witness(toy_params, toy_keypair, toy_block):
    _, pk = toy_keypair
    sys_ = analysis.reduce_mod_p(pk, toy_block, 13)
    sols = analysis.brute_force_solutions(sys_)
    assert (8, 3, 6) in sols
    assert len(sols) == 11
    for x, *noise in sols:
        assert _satisfies(sys_, x, noise)


def test_brute_force_planted_instances_mean_count():
    rng = DeterministicStream(b"planted-3")
    counts = []
    for _ in range(100):
        sys_, witness = analysis.random_planted_system(P5M2, rng)
        sols = analysis.brute_force_solutions(sys_)
        assert witness in sols
        assert len(sols) >= 1
        counts.append(len(sols))
    mean = sum(counts) / len(counts)
    assert 0.5 * 5 <= mean <= 1.5 * 5  # expected p**(m-1) = 5


def test_brute_force_inconsistent_system_is_empty():
    zero = ((0, 0), (0, 0))
    sys_ = analysis.ModPSystem(prime=2, congruences=((zero, 1), (zero, 0)))
    assert analysis.brute_force_solutions(sys_) == ()


def test_brute_force_guard():
    params = ParameterSet(prime=251, base_degree=1, factor_degree=1,
                          noise_vars=4, label="too-big")
    rng = DeterministicStream(b"guard")
    sys_, _ = analysis.random_planted_system(params, rng)
    with pytest.raises(SearchSpaceTooLarge):
        analysis.brute_force_solutions(sys_)


def test_hppk_ciphertext_witness_always_found():
    rng = DeterministicStream(b"hppk-witness")
    for _ in range(100):
        sk, pk = keygen(P5M2, rng)
        x = rng.below(5)
        noise = [rng.below(5) for _ in range(2)]
        while all(v == 0 for v in noise):
            noise = [rng.below(5) for _ in range(2)]
        ct = encrypt_block(pk, P5M2, x, noise)
        sols = analysis.brute_force_solutions(analysis.reduce_mod_p(pk, ct, 5))
        assert (x, *noise) in sols


# -- indistinguishability game


def test_ind_cpa_random_guess_near_half():
    rng = DeterministicStream(b"game-rng")
    adversary = analysis.RandomGuessAdversary(DeterministicStream(b"adv-rng"))
    advantage = analysis.ind_cpa_game(P13M3, adversary, 10_000, rng)
    assert advantage < 0.02


def test_ind_cpa_constant_adversary_near_half():
    rng = DeterministicStream(b"game-const")
    advantage = analysis.ind_cpa_game(P13M3, analysis.ConstantAdversary(0),
                                      10_000, rng)
    assert advantage < 0.02


def test_ind_cpa_challenge_is_one_congruence():
    # the adversary sees the instance polynomial in the message and m - 1
    # noise variables, and its nonzero value at the hidden message and noise
    challenges = []

    def adversary(m0, m1, challenge):
        challenges.append(challenge)
        return 0

    analysis.ind_cpa_game(P5M3, adversary, 50, DeterministicStream(b"game-challenge"))
    assert len(challenges) == 50
    for challenge in challenges:
        ((coeffs, rhs),) = challenge.congruences
        assert challenge.prime == 5 and challenge.noise_vars == 2
        assert len(coeffs) == P5M3.message_degree + 1 and rhs != 0


def test_ind_cpa_likelihood_advantage_decays_with_noise():
    adversary = analysis.ExhaustiveLikelihoodAdversary(
        DeterministicStream(b"bayes-coin")
    )
    a2 = analysis.ind_cpa_game(P5M2, adversary, 4000,
                               DeterministicStream(b"game-m2"))
    a3 = analysis.ind_cpa_game(P5M3, adversary, 4000,
                               DeterministicStream(b"game-m3"))
    assert 0 <= a3 < a2 <= 0.5
    assert a2 > 0.05  # with one noise variable the gap is clearly visible


@pytest.mark.parametrize("prime, noise_vars", [(5, 2), (5, 3), (7, 2), (13, 2)])
def test_ind_cpa_likelihood_advantage_matches_prediction(prime, noise_vars):
    params = ParameterSet(prime=prime, base_degree=1, factor_degree=1,
                          noise_vars=noise_vars, label="likelihood")
    adversary = analysis.ExhaustiveLikelihoodAdversary(DeterministicStream(b"lik-coin"))
    trials = 4000
    rng = DeterministicStream(f"lik-{prime}-{noise_vars}".encode())
    advantage = analysis.ind_cpa_game(params, adversary, trials, rng)
    predicted = analysis.likelihood_advantage(params)
    assert predicted == prime ** -(noise_vars - 1) / 2
    assert abs(advantage - predicted) <= 2 / trials**0.5  # 4 binomial sigma


# -- factor ratio recovery


def test_recover_f_ratio_toy(toy_params, toy_keypair):
    sk, pk = toy_keypair
    plain1, plain2 = _plain_maps(sk, pk, 13)
    assert plain1 == ((6, 7), (9, 11), (11, 8))
    set1, set2 = analysis.recover_f_ratio(plain1, plain2, toy_params)
    # labels of f1 = 4 + 9t and f2 = 10 + 7t: 4 * 9^-1 = 12 and 10 * 7^-1 = 7 mod 13
    assert set1 == frozenset({(12,)})
    assert set2 == frozenset({(7,)})
    assert (6 + 9 + 11) % 13 == 0  # t + 12 divides column 0: it vanishes at t = 1


@pytest.mark.parametrize("base_degree", [1, 2])
@pytest.mark.parametrize("prime", [13, 251])
def test_recover_f_ratio_from_keygen(prime, base_degree):
    params = ParameterSet(prime=prime, base_degree=base_degree,
                          factor_degree=1, noise_vars=2,
                          label=f"fr-{prime}-{base_degree}")
    rng = DeterministicStream(f"fratio-{prime}-{base_degree}".encode())
    for _ in range(100):
        sk, pk = keygen(params, rng)
        plain1, plain2 = _plain_maps(sk, pk, prime)
        set1, set2 = analysis.recover_f_ratio(plain1, plain2, params)
        assert analysis.true_ratio(sk.f1, prime) in set1
        assert analysis.true_ratio(sk.f2, prime) in set2


def test_recover_f_ratio_zero_constant_coefficient(toy_params):
    # f1 = 9t is t up to scale: its label is (0,)
    sk, pk = keypair_from_values(
        toy_params, 6798, 4267, 6475, (0, 9), (10, 7), ((8, 5), (7, 11))
    )
    plain1, plain2 = _plain_maps(sk, pk, 13)
    set1, set2 = analysis.recover_f_ratio(plain1, plain2, toy_params)
    assert (0,) in set1
    assert analysis.true_ratio((0, 9), 13) == (0,)
    assert (7,) in set2


def test_recover_f_ratio_rejects_random_matrices():
    rng = DeterministicStream(b"non-product")
    rejected = 0
    trials = 100
    for _ in range(trials):
        m1 = tuple(tuple(rng.below(13) for _ in range(2)) for _ in range(3))
        m2 = tuple(tuple(rng.below(13) for _ in range(2)) for _ in range(3))
        try:
            analysis.recover_f_ratio(m1, m2, P13M2)
        except NoConsistentRatio:
            rejected += 1
    assert rejected >= 90


def test_recover_f_ratio_degree2():
    params = ParameterSet(prime=257, base_degree=1, factor_degree=2,
                          noise_vars=2, label="fr-deg2")
    rng = DeterministicStream(b"fratio-deg2")
    for _ in range(20):
        sk, pk = keygen(params, rng)
        plain1, plain2 = _plain_maps(sk, pk, 257)
        set1, set2 = analysis.recover_f_ratio(plain1, plain2, params)
        assert analysis.true_ratio(sk.f1, 257) in set1
        assert analysis.true_ratio(sk.f2, 257) in set2


def _divides(label, column, prime):
    """Whether the monic polynomial named by a label of length 1 or 2 divides
    column: t + a when column(-a) = 0 (Horner), t^2 + a1*t + a0 by division
    from the top, whose remainder's t coefficient is checked first.
    """
    if len(label) == 1:
        value = 0
        for c in reversed(column):
            value = value * -label[0] + c
        return value % prime == 0
    a0, a1 = label
    b0 = b1 = 0  # quotient coefficients, from the top
    for c in column[:1:-1]:
        b0, b1 = c - a1 * b0 - a0 * b1, b0
    remainder_t = column[1] - a1 * b0 - a0 * b1
    return remainder_t % prime == 0 and (column[0] - a0 * b0) % prime == 0


def _scan_labels(columns, prime, base_degree, factor_degree):
    """The labels of recover_f_ratio's rule found by trying all p^e labels of
    each factor degree e: the reference for analysis._map_labels.
    """
    p = prime
    live = [col for col in columns if any(col)]
    if not live:
        return set()
    labels = set()
    for e in range(factor_degree + 1):
        rest = len(live[0]) - (factor_degree - e)
        if any(any(col[rest:]) for col in live):
            continue  # some column is too high in degree for a factor of degree e
        found = itertools.product(range(p), repeat=e)
        if e:  # the constant factor, label (), divides every column
            for col in live:
                head = col[:rest]
                found = [g for g in found if _divides(g, head, p)]
        labels.update(found)
    return labels


def _times(f, g, prime):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % prime
    return out


def _label_test_map(kind, rng, prime, base_degree, factor_degree):
    """Two or three columns of the given kind, of degree base + factor degree."""
    p = prime
    width = base_degree + factor_degree + 1
    count = 2 + rng.bits(1)

    def draw(n):
        return [rng.below(p) for _ in range(n)]

    if kind == "uniform":
        return [draw(width) for _ in range(count)]
    if kind == "half-zero":
        return [[c if rng.bits(1) else 0 for c in draw(width)] for _ in range(count)]
    factor = draw(factor_degree) + [1 + rng.below(p - 1)]
    if kind == "key":
        return [_times(draw(base_degree + 1), factor, p) for _ in range(count)]
    if kind == "single-live-column":
        columns = [[0] * width for _ in range(count)]
        columns[rng.below(count)] = _times(draw(base_degree + 1), factor, p)
        return columns
    # repeated-root: t - r divides the factor and every base column
    linear = [-rng.below(p) % p, 1]
    factor = _times(linear, draw(1) + [1], p) if factor_degree == 2 else linear
    return [_times(_times(linear, draw(base_degree), p), factor, p)
            for _ in range(count)]


LABEL_TEST_KINDS = ("key", "uniform", "half-zero", "single-live-column",
                    "repeated-root")


def test_map_labels_match_the_scan():
    rng = DeterministicStream(b"map-labels-scan")
    nonempty = 0
    for prime, base_degree, factor_degree, kind in itertools.product(
        (5, 7, 13, 37, 251), (1, 2, 3), (1, 2), LABEL_TEST_KINDS
    ):
        shape = (prime, base_degree, factor_degree)
        # a degree-2 scan at p = 251 tries 63001 labels per map
        for _ in range(1 if prime == 251 and factor_degree == 2 else 6):
            columns = _label_test_map(kind, rng, *shape)
            expected = _scan_labels(columns, *shape)
            assert analysis._map_labels(columns, *shape) == expected, (kind, shape, columns)
            nonempty += bool(expected)
    assert nonempty > 400


# (len(set1), len(set2)) per map, or x for NoConsistentRatio, recorded
# when labels were projective ratios (f1/f0 : 1); relabelling keeps each count
PINNED_RATIO_COUNTS = {
    (13, 1): "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 2/2 1/1 "
             "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/2 x x x x x 1/1 1/1 x x 1/1 x "
             "2/1 x x x 2/1 x x x x x 2/1 x",
    (13, 2): "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 2/2 1/1 1/1 1/1 1/1 1/1 1/1 1/1 "
             "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 x 1/3 1/3 x x 1/2 x x x x x 1/1 x "
             "1/1 2/2 2/2 1/1 x x x x 3/1 x x x",
    (37, 1): "1/1 1/1 1/1 2/2 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 2/2 1/1 1/1 "
             "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/2 x x x x x x x 1/1 x 1/1 x x "
             "1/1 x 1/1 x x x x 2/1 x x x",
    (37, 2): "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 "
             "1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 1/1 x x x x x x x x x x x 2/1 1/1 x "
             "x 1/1 x 1/1 2/1 x x x x x",
}


@pytest.mark.parametrize("prime, base_degree", list(PINNED_RATIO_COUNTS))
def test_recover_f_ratio_counts_match_recorded(prime, base_degree):
    # 25 keys' plain maps, then 25 pairs of random matrices about half zero
    params = ParameterSet(prime=prime, base_degree=base_degree, factor_degree=1,
                          noise_vars=2, label="pin")
    rng = DeterministicStream(f"fratio-pin-{prime}-{base_degree}".encode())
    maps = [_plain_maps(*keygen(params, rng), prime) for _ in range(25)]
    maps += [
        tuple(
            tuple(tuple(rng.below(prime) if rng.bits(1) else 0 for _ in range(2))
                  for _ in range(base_degree + 2))
            for _ in range(2)
        )
        for _ in range(25)
    ]
    counts = []
    for plain1, plain2 in maps:
        try:
            set1, set2 = analysis.recover_f_ratio(plain1, plain2, params)
        except NoConsistentRatio:
            counts.append("x")
        else:
            counts.append(f"{len(set1)}/{len(set2)}")
    assert " ".join(counts) == PINNED_RATIO_COUNTS[prime, base_degree]


@pytest.mark.parametrize("prime, base_degree, factor_degree", [
    (16411, 2, 1),  # the first prime above 2^14
    (2053, 1, 2),  # the first prime above 2^11, so p^2 > 2^22
])
def test_recover_f_ratio_scan_bounds(prime, base_degree, factor_degree):
    # primes just past the sizes an exhaustive label scan can afford
    params = ParameterSet(prime=prime, base_degree=base_degree,
                          factor_degree=factor_degree, noise_vars=2, label="bound")
    sk, pk = keygen(params, DeterministicStream(b"scan-bound"))
    found = analysis.recover_f_ratio(*_plain_maps(sk, pk, prime), params)
    true = ({analysis.true_ratio(sk.f1, prime)}, {analysis.true_ratio(sk.f2, prime)})
    recorded = {16411: ({(7111,)}, {(14985,)}), 2053: ({(393, 957)}, {(229, 1639)})}
    assert found == true == recorded[prime]


PRODUCTION_PRIME = (1 << 64) - 59
PRODUCTION_SHAPES = {
    label: PARAMETER_SETS[label] for label in ("level1-nb2", "level3-nb2", "level5-nb2")
}
PRODUCTION_SHAPES["factor-degree-2"] = ParameterSet(
    prime=PRODUCTION_PRIME, base_degree=2, factor_degree=2, noise_vars=3,
    label="fr-deg2-64",
)


@pytest.mark.parametrize("label", list(PRODUCTION_SHAPES))
def test_recover_f_ratio_at_the_production_prime(label):
    params = PRODUCTION_SHAPES[label]
    assert params.prime == PRODUCTION_PRIME
    rng = DeterministicStream(f"fratio-64-{label}".encode())
    for _ in range(5):
        sk, pk = keygen(params, rng)
        set1, set2 = analysis.recover_f_ratio(*_plain_maps(sk, pk, params.prime), params)
        assert set1 == {analysis.true_ratio(sk.f1, params.prime)}
        assert set2 == {analysis.true_ratio(sk.f2, params.prime)}


def test_recover_f_ratio_finds_no_quadratic_divisor_of_a_rootless_cubic():
    # t^3 + t + 5 has no root mod 2039, so no quadratic divides it either:
    # a cubic with a quadratic factor has the linear cofactor's root
    params = ParameterSet(prime=2039, base_degree=1, factor_degree=2,
                          noise_vars=2, label="bound")
    irreducible = ((5, 0), (1, 0), (0, 0), (1, 0))
    with pytest.raises(NoConsistentRatio):
        analysis.recover_f_ratio(irreducible, irreducible, params)


# -- hidden ring search


def test_ring_search_finds_toy_key(toy_params, toy_keypair):
    sk, pk = toy_keypair
    result = analysis.ring_key_search(pk, toy_params, 13)
    assert result.contains(6798, 4267, 6475)
    assert result.total_triples >= 1


@pytest.mark.parametrize("label", ["toy", "level1-nb1"])
def test_ring_instance_at_profile_width_is_keygen(label):
    params = PARAMETER_SETS[label]
    seed = f"ring-instance-{label}".encode()
    assert analysis.random_ring_instance(
        params, params.ring_bits, DeterministicStream(seed)
    ) == keygen(params, DeterministicStream(seed))


def test_ring_search_work_grows_with_ring_bits(toy_params):
    rng = DeterministicStream(b"ring-growth")
    sk10, pk10 = analysis.random_ring_instance(toy_params, 10, rng)
    res10 = analysis.ring_key_search(pk10, toy_params, 10)
    assert res10.contains(sk10.modulus, sk10.r1, sk10.r2)
    sk12, pk12 = analysis.random_ring_instance(toy_params, 12, rng)
    res12 = analysis.ring_key_search(pk12, toy_params, 12)
    assert res12.contains(sk12.modulus, sk12.r1, sk12.r2)
    assert res12.work > 4 * res10.work


def _reference_ring_search(pk, params, s_bits):
    """(candidates, work) with every unit tested on its unmasking by the rule of
    recover_f_ratio: some label fits every live column.
    """
    shape = (params.prime, params.base_degree, params.factor_degree)
    max_entry = max(c for m in (pk.p1, pk.p2) for row in m for c in row)
    work = 0
    found = []
    for modulus in range(max(1 << (s_bits - 1), max_entry + 1), 1 << s_bits):
        units = [v for v in range(1, modulus) if math.gcd(v, modulus) == 1]
        options = []
        for matrix in (pk.p1, pk.p2):
            work += len(units)
            kept = []
            for v in units:
                key = fhe.HomomorphicKey(modulus, pow(v, -1, modulus))
                plain = fhe.decrypt_coeffs(key, matrix, params.prime)
                if analysis._map_labels(zip(*plain), *shape):
                    kept.append(key.mult)
            if not kept:
                break
            options.append(tuple(sorted(kept)))
        else:
            found.append((modulus, *options))
    return tuple(found), work


# id: (prime, base_degree, noise_vars, s_bits, seed, what the instance exercises)
RING_REFERENCE_CASES = {
    "toy-shape-table": (13, 1, 2, 9, "ring-ref-13-1", None),
    "nb2-scalar": (13, 2, 2, 9, "ring-ref-13-2", None),
    "p37-scalar": (37, 1, 2, 9, "ring-ref-37-1", None),
    "two-chunks": (13, 1, 2, 9, "ring-ref-chunks-11", "chunks"),
    "floor-raised": (13, 1, 3, 7, "ring-ref-floor", "floor"),
    "map1-rejects": (13, 1, 4, 7, "ring-ref-map1-1", "map1-rejects"),
    "p31-table": (31, 1, 3, 8, "ring-ref-p31-table", None),
    "floor-in-later-chunk": (13, 1, 2, 9, "ring-ref-floor-chunk-9", "floor-chunk"),
    "m5-table": (13, 1, 5, 8, "ring-ref-13-5", None),
    "zero-row": (13, 1, 3, 7, "ring-ref-zero-row-1", "all-units"),
    "nb2-scalar-table": (13, 2, 2, 7, "ring-ref-13-2-7", "table"),
    "p61-scalar-table": (61, 1, 2, 7, "ring-ref-61-1-7", "table"),
}


@pytest.mark.parametrize("case", list(RING_REFERENCE_CASES))
def test_ring_search_matches_reference(case):
    prime, base_degree, noise_vars, s_bits, seed, exercises = RING_REFERENCE_CASES[case]
    params = ParameterSet(prime=prime, base_degree=base_degree, factor_degree=1,
                          noise_vars=noise_vars, label=f"ring-ref-{case}")
    sk, pk = analysis.random_ring_instance(params, s_bits,
                                           DeterministicStream(seed.encode()))
    table_reads = sum(analysis._residue_table.cache_info()[:2])  # hits and misses
    result = analysis.ring_key_search(pk, params, s_bits)
    candidates, work = _reference_ring_search(pk, params, s_bits)
    assert (result.candidates, result.work) == (candidates, work)
    assert result.contains(sk.modulus, sk.r1, sk.r2)
    max_entry = max(c for m in (pk.p1, pk.p2) for row in m for c in row)
    moduli = range(max(1 << (s_bits - 1), max_entry + 1), 1 << s_bits)
    bounds = analysis._chunk_bounds(s_bits)
    if exercises == "chunks":
        # a chunk boundary falls inside the searched range
        assert any(moduli.start < b < moduli.stop for b in bounds)
    if exercises == "floor-chunk":
        # the floor cuts a chunk after the first, so whole chunks are skipped
        assert bounds[1] < moduli.start and moduli.start not in bounds
    if exercises == "floor":
        assert moduli.start > 1 << (s_bits - 1)
    if exercises == "map1-rejects":
        # every unit is tested once, and again only where map 1 accepted one
        units = sum(1 for s in moduli for v in range(1, s) if math.gcd(v, s) == 1)
        assert work < 2 * units
    if exercises == "table":
        # a scalar shape reads the residue table of its one 7-bit chunk
        assert sum(analysis._residue_table.cache_info()[:2]) == table_reads + 1
    if exercises == "all-units":
        # map 2's row 0 is zero, so it accepts every unit of every candidate
        assert not any(pk.p2[0]) and len(result.candidates) == 30
        for c in result.candidates:
            units = tuple(v for v in range(1, c.modulus) if math.gcd(v, c.modulus) == 1)
            assert c.r2_options == units


def test_ring_search_matches_reference_on_benchmark_shape():
    rng = DeterministicStream(b"ring-ref-sweep")
    for _ in range(40):
        sk, pk = analysis.random_ring_instance(P13M3, 7, rng)
        result = analysis.ring_key_search(pk, P13M3, 7)
        assert (result.candidates, result.work) == _reference_ring_search(pk, P13M3, 7)
        assert result.contains(sk.modulus, sk.r1, sk.r2)


def test_scalar_ring_search_labels_only_the_pairs_it_counts(monkeypatch):
    # the scalar kernel runs _map_labels once per unit that work counts: map 2
    # labels no unit of a modulus where map 1 accepted none
    calls = 0
    map_labels = analysis._map_labels

    def counted(*args):
        nonlocal calls
        calls += 1
        return map_labels(*args)

    monkeypatch.setattr(analysis, "_map_labels", counted)
    masked = []
    # computed rows at 9 bits, and a residue table at 7 bits
    for case in ("nb2-scalar", "p61-scalar-table"):
        prime, base_degree, noise_vars, s_bits, seed, _ = RING_REFERENCE_CASES[case]
        params = ParameterSet(prime=prime, base_degree=base_degree, factor_degree=1,
                              noise_vars=noise_vars, label=f"ring-ref-{case}")
        _, pk = analysis.random_ring_instance(params, s_bits,
                                              DeterministicStream(seed.encode()))
        calls = 0
        result = analysis.ring_key_search(pk, params, s_bits)
        assert calls == result.work, case
        max_entry = max(c for m in (pk.p1, pk.p2) for row in m for c in row)
        moduli = range(max(1 << (s_bits - 1), max_entry + 1), 1 << s_bits)
        units = sum(math.gcd(v, s) == 1 for s in moduli for v in range(1, s))
        masked.append(2 * units - result.work)
    # map 1 accepts a unit of every modulus in the 9-bit case but not in the
    # 7-bit one, so labelling every pair twice would show there
    assert masked[0] == 0 < masked[1]


@st.composite
def _ring_shapes(draw):
    """A small shape and a ring width above its prime's bits, up to 7 bits."""
    prime = draw(st.sampled_from([5, 7, 11, 13, 31, 37]))
    params = ParameterSet(prime=prime, base_degree=draw(st.integers(1, 2)),
                          factor_degree=1, noise_vars=draw(st.integers(2, 3)),
                          label="ring-property")
    return params, draw(st.integers(prime.bit_length() + 1, 7))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_ring_shapes(), st.binary(min_size=8, max_size=8))
def test_ring_search_matches_reference_on_drawn_shapes(shape, seed):
    params, s_bits = shape
    sk, pk = analysis.random_ring_instance(params, s_bits, DeterministicStream(seed))
    result = analysis.ring_key_search(pk, params, s_bits)
    assert (result.candidates, result.work) == _reference_ring_search(pk, params, s_bits)
    assert result.contains(sk.modulus, sk.r1, sk.r2)


def test_ring_search_reuses_each_width_grid():
    rng = DeterministicStream(b"ring-grid-cache")
    _, pk8 = analysis.random_ring_instance(P13M3, 8, rng)
    _, pk9 = analysis.random_ring_instance(P13M3, 9, rng)
    first = analysis.ring_key_search(pk8, P13M3, 8)
    analysis.ring_key_search(pk9, P13M3, 9)
    hits = analysis._unit_grid.cache_info().hits
    assert analysis.ring_key_search(pk8, P13M3, 8) == first
    assert analysis._unit_grid.cache_info().hits > hits
    grids = analysis._unit_grid(*analysis._chunk_bounds(8))
    assert len(grids) == 3
    for grid in grids:
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0


def test_ring_search_caches_the_first_chunks_of_a_wide_width():
    # an 11-bit search walks more chunks than the cache holds, and only its
    # first chunks stay built for the next search at that width
    _, pk = analysis.random_ring_instance(P13M3, 11, DeterministicStream(b"ring-grid-11"))
    max_entry = max(c for m in (pk.p1, pk.p2) for row in m for c in row)
    assert max_entry < analysis._chunk_bounds(11)[1]
    assert len(analysis._chunk_bounds(11)) - 1 > analysis._UNIT_GRID_CACHE
    first = analysis.ring_key_search(pk, P13M3, 11)
    for _ in range(2):
        hits = analysis._unit_grid.cache_info().hits
        assert analysis.ring_key_search(pk, P13M3, 11) == first
        assert analysis._unit_grid.cache_info().hits > hits


def test_table_accepts_matches_scalar_at_the_ring_cap():
    # entries and units near 2^14 take the int32 products to about 2^28; a
    # 14-bit grid has no residue table, so its rows are computed per search
    params = ParameterSet(prime=31, base_degree=1, factor_degree=1, noise_vars=3,
                          label="p31m3")
    sk, pk = analysis.random_ring_instance(params, 9, DeterministicStream(b"ring-int32"))
    plain = fhe.decrypt_coeffs(sk.key1, pk.p1, 31)
    start, stop = analysis._chunk_bounds(14)[-2:]
    mods, units, inverses = analysis._unit_grid.__wrapped__(start, stop)
    assert stop * len(mods) > analysis._RESIDUE_TABLE_BYTES
    mods, units, inverses = mods[-2000:], units[-2000:], inverses[-2000:]
    modulus, mult = int(mods[1000]), int(units[1000])
    matrix = fhe.encrypt_coeffs(fhe.HomomorphicKey(modulus, mult), plain)
    assert max(c for row in matrix for c in row) > 1 << 13
    columns = [[analysis._residue_row(c, mods, inverses, 31) for c in col]
               for col in zip(*matrix)]
    table = analysis._table_accepts(columns, params)
    assert table[1000]
    assert (table == analysis._scalar_accepts(columns, params)).all()


@pytest.mark.parametrize("prime", [13, 31])
def test_residue_table_rows_are_the_unmasked_residues(prime):
    # every width that gets a table: above the prime's bits, up to 7 bits
    for s_bits in range(prime.bit_length() + 1, 8):
        start, stop = analysis._chunk_bounds(s_bits)
        mods, _, inverses = analysis._unit_grid(start, stop)
        assert stop * len(mods) <= analysis._RESIDUE_TABLE_BYTES
        table = analysis._residue_table(start, stop, prime)
        assert table.shape == (stop, len(mods)) and table.dtype == np.uint8
        assert not table.flags.writeable
        for c in range(stop):
            expected = c * inverses.astype(np.int64) % mods % prime
            assert np.array_equal(table[c], expected)


def test_residue_tables_stop_at_7_bits():
    # the 8-bit grid's table would take 3.6 MiB, above the largest grid
    start, stop = analysis._chunk_bounds(8)[:2]
    assert stop * len(analysis._unit_grid(start, stop)[0]) > analysis._RESIDUE_TABLE_BYTES
    # drawing instances builds no table: the first search that reads one does
    analysis._residue_table.cache_clear()
    rng = DeterministicStream(b"ring-table-bound")
    _, pk8 = analysis.random_ring_instance(P13M3, 8, rng)
    _, pk7 = analysis.random_ring_instance(P13M3, 7, rng)
    assert analysis._residue_table.cache_info().currsize == 0
    analysis.ring_key_search(pk8, P13M3, 8)
    assert analysis._residue_table.cache_info().currsize == 0
    result = analysis.ring_key_search(pk7, P13M3, 7)
    assert analysis._residue_table.cache_info().currsize == 1
    assert analysis.ring_key_search(pk7, P13M3, 7) == result
    assert analysis._residue_table.cache_info().hits == 1


def test_ring_search_entries_outside_the_ring():
    # a table has one row per entry below its grid's last modulus, and numpy
    # wraps a negative index silently: a negative entry raises, and an entry
    # of 2^s_bits or more leaves no modulus to search
    _, pk = analysis.random_ring_instance(P13M3, 7, DeterministicStream(b"ring-entries"))
    for entry, found in ((-1, None), (1 << 7, ((), 0)), (126, None)):
        rows = (tuple(pk.p1[0][:-1]) + (entry,), *pk.p1[1:])
        hostile = PublicKey(rows, pk.p2)
        if entry < 0:
            with pytest.raises(ValueError, match="non-negative"):
                analysis.ring_key_search(hostile, P13M3, 7)
            continue
        result = analysis.ring_key_search(hostile, P13M3, 7)
        reference = _reference_ring_search(hostile, P13M3, 7)
        assert (result.candidates, result.work) == reference
        if found is not None:
            assert reference == found
        else:  # only S = 127 exceeds the entry, the highest row a search reads
            assert 0 < result.work <= 2 * 126


def test_ring_search_zero_map_accepts_no_pair():
    # every column of a zero map accepts every label, yet a zero map has no
    # product structure: the label table alone would accept it everywhere
    _, pk = analysis.random_ring_instance(P13M3, 7, DeterministicStream(b"ring-zero-map"))
    zero = PublicKey(tuple((0,) * len(row) for row in pk.p1), pk.p2)
    result = analysis.ring_key_search(zero, P13M3, 7)
    assert (result.candidates, result.work) == _reference_ring_search(zero, P13M3, 7)
    assert result.candidates == ()


def _gcd_grid(start, stop):
    """The (modulus, unit) grid of start <= modulus < stop, by one gcd per pair."""
    chunk = np.arange(start, stop, dtype=np.int32)
    sizes = chunk - 1
    mods = np.repeat(chunk, sizes)
    offsets = np.cumsum(sizes, dtype=np.int32) - sizes
    units = np.arange(1, len(mods) + 1, dtype=np.int32) - np.repeat(offsets, sizes)
    coprime = np.gcd(units, mods) == 1
    return mods[coprime], units[coprime]


@pytest.mark.parametrize("s_bits", range(5, 15))
def test_unit_grid_matches_the_gcd_grid(s_bits):
    bounds = analysis._chunk_bounds(s_bits)
    for start, stop in {bounds[:2], bounds[-2:]}:
        mods, units, inverses = analysis._unit_grid.__wrapped__(start, stop)
        expected_mods, expected_units = _gcd_grid(start, stop)
        assert mods.dtype == units.dtype == inverses.dtype == np.int32
        assert np.array_equal(mods, expected_mods)
        assert np.array_equal(units, expected_units)
        assert ((0 < inverses) & (inverses < mods)).all()
        assert (units.astype(np.int64) * inverses % mods == 1).all()


@pytest.mark.parametrize("s_bits", [0, 4])
def test_ring_search_rejects_rings_not_wider_than_the_prime(toy_params, toy_keypair,
                                                            s_bits):
    # below 5 bits a modulus can be at most 13, so unmasking no longer
    # returns the plain map and the true key could be missed
    _, pk = toy_keypair
    with pytest.raises(ValueError, match="prime's 4 bits"):
        analysis.ring_key_search(pk, toy_params, s_bits)


def test_ring_search_below_public_entries_is_empty():
    params = ParameterSet(prime=13, base_degree=1, factor_degree=1, noise_vars=2,
                          ring_bits=100, label="ring-100")
    _, pk = keygen(params, DeterministicStream(b"ring-100"))
    result = analysis.ring_key_search(pk, params, 10)
    assert (result.candidates, result.work) == ((), 0)


def test_ring_search_guard():
    params = PARAMETER_SETS["toy"]
    sk, pk = keypair_from_values(
        params, 6798, 4267, 6475, (4, 9), (10, 7), ((8, 5), (7, 11))
    )
    with pytest.raises(SearchSpaceTooLarge):
        analysis.ring_key_search(pk, params, 20)
