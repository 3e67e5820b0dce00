import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpcmo import variation
from dpcmo.core import Bounds, Population
from dpcmo.selection import rank_and_crowd
from dpcmo.variation import (
    ETA_CROSSOVER,
    ETA_MUTATION,
    F_CHOICES,
    _distinct_triples,
    de_current_to_pbest,
    de_current_to_rand,
    de_rand_1,
    de_transfer,
    ga_draws,
    ga_offspring,
    random_pool,
    tournament_pool,
)

from oracles import (
    distinct_triples_reference,
    polynomial_mutation,
    sbx_crossover,
    tournament_pool_reference,
)

UNIT = Bounds(np.zeros(10), np.ones(10))


def population(X, F=None, cv=None):
    """Objectives default to the first two decisions, violations to zero."""
    X = np.asarray(X, dtype=float)
    return Population(X, X[:, :2] if F is None else F, np.zeros(len(X)) if cv is None else cv)


def rand_pop(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    return Population(X, rng.random((n, 2)), np.zeros(n))


class TestPools:
    def test_singleton_tournament(self):
        pop = population(np.zeros((1, 4)))
        pool = tournament_pool(pop, 3, 0.0, np.random.default_rng(0))
        assert pool.tolist() == [0, 0, 0]

    def test_feasible_beats_infeasible_at_eps_zero(self):
        pop = population([np.ones(4), np.zeros(4)], [[0.0, 0.0], [1.0, 1.0]], [2.0, 0.0])
        pool = tournament_pool(pop, 10_000, 0.0, np.random.default_rng(1))
        share = np.mean(pool == 1)
        assert share >= 0.95

    def test_dominant_wins_under_infinite_eps(self):
        pop = population([np.zeros(4), np.ones(4)], [[0.0, 0.0], [1.0, 1.0]], [9.0, 0.0])
        pool = tournament_pool(pop, 2000, np.inf, np.random.default_rng(2))
        assert np.all(pool == 0)

    def test_random_pool_singleton_and_empty(self):
        pop = population(np.zeros((1, 4)))
        assert len(random_pool(pop, 2, np.random.default_rng(0))) == 2
        assert len(random_pool(pop, 0, np.random.default_rng(0))) == 0

    def test_random_pool_uniformity(self):
        pop = rand_pop(4, 4, seed=3)
        pool = random_pool(pop, 100_000, np.random.default_rng(4))
        counts = np.bincount(pool, minlength=4) / 100_000
        assert np.all(np.abs(counts - 0.25) < 0.01)


def generator_pair(seed, warm):
    """Two generators in one state: fresh, or after `warm` 32-bit draws."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.integers(0, 1000, size=warm)
    return pair


def same_stream_after(a, b):
    return a.bit_generator.state == b.bit_generator.state and a.random() == b.random()


SEEDS = st.integers(0, 2**32 - 1)
WARM = st.sampled_from([0, 1, 5])


class TestStreamFacts:
    """The numpy behaviour the whole-array draws rely on."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 120), st.integers(0, 40), SEEDS, WARM)
    def test_array_highs_draw_like_scalar_calls(self, n, k, seed, warm):
        a, b = generator_pair(seed, warm)
        whole = a.integers(0, [n - 1, n, 2, 1], size=(k, 4))
        rows = [[b.integers(0, n - 1), b.integers(0, n), b.integers(0, 2), b.integers(0, 1)]
                for _ in range(k)]
        assert np.array_equal(whole, np.array(rows, dtype=int).reshape(k, 4))
        assert same_stream_after(a, b)

    def test_range_one_draws_nothing(self):
        rng = np.random.default_rng(0)
        rng.integers(0, 7)
        state = rng.bit_generator.state
        rng.integers(0, 1)
        rng.integers(0, [1, 1], size=(3, 2))
        assert rng.bit_generator.state == state

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 120), SEEDS, WARM)
    def test_choice_of_two_is_floyd_plus_swap(self, n, seed, warm):
        a, b = generator_pair(seed, warm)
        pair = a.choice(n, size=2, replace=False).tolist()
        first = int(b.integers(0, n - 1))
        second = int(b.integers(0, n))
        if second == first:
            second = n - 1
        swap = int(b.integers(0, 2))
        assert pair == ([second, first] if swap == 0 else [first, second])
        assert same_stream_after(a, b)

    @pytest.mark.parametrize("warm", [0, 1])
    def test_coin_flip_takes_one_64_bit_draw_and_keeps_the_32_bit_half(self, warm):
        a, b = generator_pair(3, warm)
        a.random()
        b.bit_generator.random_raw()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.bit_generator.state["has_uint32"] == warm


@st.composite
def ranked_populations(draw):
    """Integer-grid objectives and violations, so that full ties are common."""
    n = draw(st.integers(1, 120))
    grid = draw(st.integers(0, 3))
    F = draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(0, grid))).astype(float)
    cv = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2))) * 0.5
    return Population(np.zeros((n, 1)), F, cv)


class TestStreamEquivalence:
    """Whole-array draws against one-call-per-draw loops: equal indices and
    the generator left in the same state."""

    @settings(max_examples=200, deadline=None)
    @given(ranked_populations(), st.integers(0, 300), st.sampled_from([0.0, math.inf]),
           SEEDS, WARM)
    def test_tournament_pool_matches_scalar_loop(self, pop, k, epsilon, seed, warm):
        a, b = generator_pair(seed, warm)
        pool = tournament_pool(pop, k, epsilon, a)
        reference = tournament_pool_reference(*rank_and_crowd(pop, epsilon), k, b)
        assert np.array_equal(pool, reference)
        assert same_stream_after(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(4, 120), SEEDS, WARM)
    def test_distinct_triples_match_scalar_loop(self, n, seed, warm):
        a, b = generator_pair(seed, warm)
        assert np.array_equal(_distinct_triples(n, a), distinct_triples_reference(n, b))
        assert same_stream_after(a, b)


def reference_children(X, eta_m, bounds, rng):
    """One parent block through the reference operators: SBX, then
    mutation, cut to one child per parent."""
    return polynomial_mutation(sbx_crossover(X, ETA_CROSSOVER, rng), bounds, eta_m, rng)[:len(X)]


def without_sites(draws):
    """``ga_draws`` with every mutation-site draw at 1: nothing mutates."""
    u, sign, swap, site, mu = draws
    return u, sign, swap, np.ones_like(site), mu


def mutated(X, bounds, eta_m, rng):
    """The kernel on every row paired with itself. Crossover returns such a
    pair unchanged, so only mutation acts; rows come back doubled."""
    doubled = np.repeat(X, 2, axis=0)
    return doubled, ga_offspring([doubled], [ga_draws(len(doubled), X.shape[1], rng)],
                                 eta_m, bounds)


WIDE = Bounds(np.full(6, -2.0), np.full(6, 3.0))


class TestGaKernel:
    """``ga_draws`` plus ``ga_offspring`` against the reference SBX and
    mutation: equal children bit for bit, block by block, and the generator
    in the same state after each block's draws."""

    def breed_both(self, pops, n, stage, bounds, seed, warm):
        """Stage 1's order: a pool and its GA draws per population, then one
        kernel pass; the reference breeds each population in turn."""
        a, b = generator_pair(seed, warm)
        blocks, draws, expected = [], [], []
        for pop in pops:
            blocks.append(pop.X[random_pool(pop, n, a)])
            draws.append(ga_draws(n, pop.X.shape[1], a))
            expected.append(reference_children(pop.X[random_pool(pop, n, b)],
                                               ETA_MUTATION[stage], bounds, b))
            assert a.bit_generator.state == b.bit_generator.state
        children = ga_offspring(blocks, draws, ETA_MUTATION[stage], bounds)
        assert children.shape == (n * len(pops), bounds.dimension)
        assert [c.tobytes() for c in np.split(children, len(pops))] == [e.tobytes() for e in expected]
        assert same_stream_after(a, b)
        return draws

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 31])
    @pytest.mark.parametrize("stage", sorted(ETA_MUTATION))
    def test_stacked_blocks_equal_a_reference_call_per_block(self, n, stage):
        pops = [population(WIDE.sample(11, np.random.default_rng(n))),
                population(WIDE.sample(5, np.random.default_rng(n + 1)))]
        self.breed_both(pops, n, stage, WIDE, seed=100 * n + stage, warm=1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 2),
           st.sampled_from(sorted(ETA_MUTATION)), SEEDS, WARM)
    def test_any_blocks_equal_the_reference(self, n, d, blocks, stage, seed, warm):
        bounds = Bounds(np.linspace(-1.0, 0.0, d), np.linspace(0.5, 4.0, d))
        pops = [population(bounds.sample(k, np.random.default_rng(seed + k)))
                for k in (3, 8)[:blocks]]
        self.breed_both(pops, n, stage, bounds, seed, warm)

    @pytest.mark.parametrize("siteless", [0, 1])
    def test_block_without_a_mutation_site_beside_one_with_sites(self, siteless):
        pops = [rand_pop(9, 10, seed=50), rand_pop(9, 10, seed=51)]
        want = [i != siteless for i in range(2)]
        for seed in range(200):
            draws = self.breed_both(pops, 1, 1, UNIT, seed, warm=0)
            if [bool((dr[3] < 0.1).any()) for dr in draws] == want:
                return
        pytest.fail("no seed below 200 leaves just that block without a site")


class TestGaOffspring:
    def test_identical_parents_without_mutation(self):
        x = np.full(10, 0.3)
        pool = np.tile(x, (6, 1))
        draws = without_sites(ga_draws(6, 10, np.random.default_rng(5)))
        children = ga_offspring([pool], [draws], ETA_MUTATION[1], UNIT)
        assert np.array_equal(children, pool)

    def test_children_inside_parent_box_when_unmutated(self):
        X = rand_pop(20, 10, seed=6).X
        draws = without_sites(ga_draws(20, 10, np.random.default_rng(7)))
        children = ga_offspring([X], [draws], ETA_MUTATION[1], UNIT)
        for pair in range(10):
            lo = np.minimum(X[2 * pair], X[2 * pair + 1])
            hi = np.maximum(X[2 * pair], X[2 * pair + 1])
            assert np.all(children[2 * pair:2 * pair + 2] >= lo)
            assert np.all(children[2 * pair:2 * pair + 2] <= hi)

    def test_odd_pool_padded(self):
        pools = [rand_pop(k, 10, seed=8 + k).X for k in (5, 4, 3)]
        rng = np.random.default_rng(9)
        draws = [ga_draws(len(pool), 10, rng) for pool in pools]
        children = ga_offspring(pools, draws, ETA_MUTATION[2], UNIT)
        assert children.shape == (12, 10)
        # Each odd block's pad row pairs within its block, and its child is dropped.
        alone = [ga_offspring([pool], [dr], ETA_MUTATION[2], UNIT) for pool, dr in zip(pools, draws)]
        assert np.array_equal(children, np.concatenate(alone))

    def test_bounds_fuzz(self):
        pool = rand_pop(100_000, 10, seed=10).X
        children = ga_offspring([pool], [ga_draws(100_000, 10, np.random.default_rng(11))],
                                ETA_MUTATION[2], UNIT)
        assert children.shape == (100_000, 10)
        assert np.all(children >= 0.0) and np.all(children <= 1.0)


class TestPolynomialMutation:
    def test_rate_is_one_over_dimension_and_bounds_hold(self):
        rng = np.random.default_rng(40)
        for bounds in (UNIT, Bounds(np.full(4, -2.0), np.full(4, 3.0))):
            d = bounds.dimension
            X, out = mutated(bounds.sample(10_000, rng), bounds, ETA_MUTATION[1], rng)
            assert abs(np.mean(out != X) - 1.0 / d) < 0.01
            assert bounds.contains(out)

    def test_stage2_index_moves_mutated_coordinates_farther(self):
        X = np.random.default_rng(41).random((10_000, 10))
        moves = {}
        for stage, eta in ETA_MUTATION.items():
            doubled, out = mutated(X, UNIT, eta, np.random.default_rng(42))
            moves[stage] = np.abs(out - doubled)[out != doubled].mean()
        assert moves[2] > 2 * moves[1]


class TestDeRand1:
    def test_identical_population_is_fixed_point(self):
        pool = np.full((6, 10), 0.4)
        out = de_rand_1(pool, UNIT, np.random.default_rng(12))
        assert out == pytest.approx(np.full((6, 10), 0.4))

    def test_rejects_small_population(self):
        with pytest.raises(ValueError, match="at least 4"):
            de_rand_1(np.zeros((3, 10)), UNIT, np.random.default_rng(0))

    def test_full_crossover_reconstructs_mutant(self, monkeypatch):
        # with CR pinned at 1 every trial equals x_r1 + F (x_r2 - x_r3) for
        # some admissible index triple and F choice
        monkeypatch.setattr(variation, "CR_CHOICES_DE", (1.0,))
        wide = Bounds(np.full(3, -100.0), np.full(3, 100.0))
        rng_pop = np.random.default_rng(13)
        X = rng_pop.random((5, 3))
        out = de_rand_1(X, wide, np.random.default_rng(14))
        for i, child in enumerate(out):
            found = False
            for r1 in range(5):
                for r2 in range(5):
                    for r3 in range(5):
                        if len({r1, r2, r3, i}) < 4:
                            continue
                        for F in F_CHOICES:
                            if np.array_equal(child, X[r1] + F * (X[r2] - X[r3])):
                                found = True
            assert found

    def test_symmetric_population_keeps_symmetric_offspring(self):
        # members mirrored around 0.5 produce offspring whose mean stays there
        base = np.linspace(0.1, 0.4, 8)
        X = np.concatenate([0.5 + base, 0.5 - base])
        pool = np.repeat(X[:, None], 10, axis=1)
        rng = np.random.default_rng(15)
        means = []
        for _ in range(200):
            out = de_rand_1(pool, UNIT, rng)
            means.append(out.mean())
        assert abs(np.mean(means) - 0.5) < 0.01

    def test_bounds_and_determinism(self):
        pool = rand_pop(100, 10, seed=16).X
        batches = [de_rand_1(pool, UNIT, np.random.default_rng(17)) for _ in range(2)]
        assert np.array_equal(batches[0], batches[1])
        big = np.vstack([de_rand_1(pool, UNIT, np.random.default_rng(s)) for s in range(1000)])
        assert np.all(big >= 0.0) and np.all(big <= 1.0)


class TestDeCurrentToRand:
    def test_zero_population(self):
        wide = Bounds(np.full(10, -1.0), np.full(10, 1.0))
        out = de_current_to_rand(np.zeros((5, 10)), wide, np.random.default_rng(18))
        assert out == pytest.approx(np.zeros((5, 10)))

    def test_rejects_small_population(self):
        with pytest.raises(ValueError):
            de_current_to_rand(np.zeros((2, 10)), UNIT, np.random.default_rng(0))

    def test_bounds_fuzz(self):
        pool = rand_pop(100, 10, seed=19).X
        big = np.vstack([de_current_to_rand(pool, UNIT, np.random.default_rng(s))
                         for s in range(1000)])
        assert np.all(big >= 0.0) and np.all(big <= 1.0)


class TestDeCurrentToPbest:
    def test_singleton_main_is_always_attractor(self):
        # zero auxiliary decisions leave offspring = F * attractor
        wide = Bounds(np.full(4, -100.0), np.full(4, 100.0))
        attractor = np.array([1.0, 2.0, 3.0, 4.0])
        main = population([attractor], [[0.0, 0.0]])
        aux = np.zeros((6, 4))
        out = de_current_to_pbest(aux, main, 0.1, wide, np.random.default_rng(20))
        for child in out:
            ratios = child / attractor
            assert np.allclose(ratios, ratios[0])
            assert ratios[0] in F_CHOICES

    def test_elite_restriction(self):
        # one clearly best feasible member: every offspring points at it
        wide = Bounds(np.full(4, -100.0), np.full(4, 100.0))
        values = [30.0, 31.0, 32.0, 33.0, 7.0, 34.0, 35.0, 36.0, 37.0]
        objectives = [[5.0, 5.0], [6.0, 6.0], [7.0, 7.0], [8.0, 8.0], [0.0, 0.0],
                      [9.0, 9.0], [10.0, 10.0], [11.0, 11.0], [12.0, 12.0]]
        main = population([np.full(4, v) for v in values], objectives)
        aux = np.zeros((8, 4))
        out = de_current_to_pbest(aux, main, 0.1, wide, np.random.default_rng(21))
        for child in out:
            assert child[0] / 7.0 in F_CHOICES

    def test_full_fraction_draws_all_members(self):
        wide = Bounds(np.full(4, -100.0), np.full(4, 100.0))
        values = [1.0, 2.1, 4.41, 9.261]  # powers of 2.1: products with any
        main = population([np.full(4, v) for v in values],  # F stay distinct
                          [[v, v] for v in values])
        aux = np.zeros((4, 4))
        rng = np.random.default_rng(22)
        seen = {v: 0 for v in values}
        draws = 3000
        for _ in range(draws // 4):
            out = de_current_to_pbest(aux, main, 1.0, wide, rng)
            for child in out:
                candidates = [v for v in values for F in F_CHOICES
                              if child[0] == F * v]
                assert len(set(candidates)) == 1
                seen[candidates[0]] += 1
        freqs = np.array([seen[v] for v in values]) / draws
        assert np.all(np.abs(freqs - 0.25) < 0.05)


class TestDeTransfer:
    def test_full_rate_copies_main(self, monkeypatch):
        monkeypatch.setattr(variation, "CR_CHOICES_TRANSFER", (1.0,))
        main = rand_pop(6, 10, seed=23).X
        aux = rand_pop(6, 10, seed=24).X
        out = de_transfer(main, aux, len(aux), np.random.default_rng(25))
        main_rows = {tuple(x) for x in main}
        assert all(tuple(row) in main_rows for row in out)

    def test_identical_populations_identity(self):
        main = rand_pop(6, 10, seed=26).X
        out = de_transfer(main, main.copy(), len(main), np.random.default_rng(27))
        rows = {tuple(x) for x in main}
        assert all(tuple(r) in rows for r in out)

    def test_zero_rate_changes_exactly_one_coordinate(self, monkeypatch):
        monkeypatch.setattr(variation, "CR_CHOICES_TRANSFER", (0.0,))
        out = de_transfer(np.ones((5, 10)), np.zeros((5, 10)), 50, np.random.default_rng(28))
        for row in out:
            assert row.sum() == 1.0  # a single coordinate came from main

    def test_each_offspring_mixes_one_aligned_pair(self):
        M = rand_pop(8, 10, seed=29).X
        A = rand_pop(8, 10, seed=30).X
        out = de_transfer(M, A, 200, np.random.default_rng(31))
        for row in out:
            assert any(
                all(row[d] == M[r, d] or row[d] == A[r, d] for d in range(10))
                for r in range(8)
            )

    def test_count_parameter(self):
        main = rand_pop(6, 10, seed=32).X
        aux = rand_pop(4, 10, seed=33).X
        out = de_transfer(main, aux, 17, np.random.default_rng(34))
        assert out.shape == (17, 10)
