"""Property tests: the fast two-objective selection paths, the windowed IGD
and the vectorised hypervolume against their dense and loop forms, element
for element."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpcmo.core import Population
from dpcmo.engine import _survivors, feasible_front
from dpcmo.metrics import hypervolume, igd
from dpcmo.selection import (
    crowding_distances,
    environmental_select,
    nondominated_ranks,
    rank_and_crowd,
    ranks_of,
    unconstrained_nondominated,
)

from oracles import (
    crowding_per_front,
    dense_ranks,
    epsilon_ranks,
    hypervolume_loop,
    igd_dense,
    truncation_scan,
)

EPSILONS = st.sampled_from([0.0, 0.15, math.inf])
# The two fixed orderings plus any relaxation the schedule may reach.
ANY_EPSILON = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0, 0.5))


@st.composite
def instances(draw, max_n=300, m=2):
    """Integer-grid objectives (ties and duplicates are common) with an
    all-feasible, all-infeasible or mixed violation vector on a 0.05 grid."""
    n = draw(st.integers(1, max_n))
    grid = draw(st.integers(1, 12))
    F = draw(hnp.arrays(np.int64, (n, m), elements=st.integers(0, grid))).astype(float)
    mix = draw(st.sampled_from(["feasible", "infeasible", "mixed"]))
    low = {"feasible": 0, "infeasible": 1, "mixed": 0}[mix]
    high = 0 if mix == "feasible" else 8
    cv = draw(hnp.arrays(np.int64, n, elements=st.integers(low, high))) * 0.05
    return F, cv


@settings(max_examples=150, deadline=None)
@given(instances(), EPSILONS)
def test_ranks_equal_dense_path(inst, epsilon):
    F, cv = inst
    np.testing.assert_array_equal(nondominated_ranks(F, cv, epsilon), dense_ranks(F, cv, epsilon))


@settings(max_examples=100, deadline=None)
@given(instances(max_n=40), EPSILONS)
def test_ranks_equal_front_oracle(inst, epsilon):
    F, cv = inst
    assert nondominated_ranks(F, cv, epsilon).tolist() == epsilon_ranks(F, cv, epsilon)


@settings(max_examples=50, deadline=None)
@given(instances(max_n=40, m=3), EPSILONS)
def test_dense_oracle_equals_front_oracle_on_three_objectives(inst, epsilon):
    F, cv = inst
    assert dense_ranks(F, cv, epsilon).tolist() == epsilon_ranks(F, cv, epsilon)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_unconstrained_nondominated_equals_dense(inst):
    F, _ = inst
    want = np.flatnonzero(dense_ranks(F, np.zeros(len(F)), 0.0) == 0)
    np.testing.assert_array_equal(unconstrained_nondominated(F), want)


@settings(max_examples=150, deadline=None)
@given(instances(), EPSILONS)
def test_crowding_equals_per_front_loop(inst, epsilon):
    F, cv = inst
    ranks = nondominated_ranks(F, cv, epsilon)
    np.testing.assert_array_equal(crowding_distances(F, ranks), crowding_per_front(F, ranks))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 200), st.just(2)),
                  elements=st.floats(0, 1, allow_subnormal=False)))
def test_crowding_equals_per_front_loop_on_real_values(F):
    ranks = dense_ranks(F, np.zeros(len(F)), 0.0)
    np.testing.assert_array_equal(crowding_distances(F, ranks), crowding_per_front(F, ranks))


@settings(max_examples=150, deadline=None)
@given(instances(), EPSILONS, st.data())
def test_environmental_select_equals_scan(inst, epsilon, data):
    F, cv = inst
    union = Population(F, F, cv)
    n = data.draw(st.integers(1, len(union)))
    ranks = nondominated_ranks(F, cv, epsilon)
    crowd = crowding_per_front(F, ranks)
    want = truncation_scan(ranks, crowd, n) if n < len(union) else range(n)
    assert environmental_select(union, n, epsilon).tolist() == list(want)


@settings(max_examples=150, deadline=None)
@given(instances(), ANY_EPSILON)
def test_split_front_crowding_equals_union_crowding(inst, epsilon):
    """Crowding one front on its own gives the union's distances on it."""
    F, cv = inst
    ranks = nondominated_ranks(F, cv, epsilon)
    union_crowd = crowding_per_front(F, ranks)
    for r in np.unique(ranks):
        front = np.flatnonzero(ranks == r)
        alone = crowding_distances(F[front], np.zeros(len(front), dtype=int))
        np.testing.assert_array_equal(alone, union_crowd[front])


@settings(max_examples=150, deadline=None)
@given(instances(), ANY_EPSILON, st.data())
def test_survivors_inherit_their_own_ranks(inst, epsilon, data):
    """The ranks survivors take from their union are those of the survivor
    set ranked on its own."""
    F, cv = inst
    union = Population(F, F, cv)
    n = data.draw(st.integers(1, len(union)))
    survivors = _survivors(union, n, epsilon)
    assert (epsilon in survivors.ranks) == (n < len(union))
    want = dense_ranks(survivors.F, survivors.cv, epsilon)
    np.testing.assert_array_equal(ranks_of(survivors, epsilon), want)
    assert not ranks_of(survivors, epsilon).flags.writeable


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from([None, 0.0, 0.15, math.inf]))
def test_feasible_front_equals_filter_then_nondominated(inst, memo_epsilon):
    """The rank-0 feasible rows are the nondominated feasible rows, in row
    order, whether or not ranks are already memoised."""
    F, cv = inst
    pop = Population(F, F, cv)
    if memo_epsilon is not None:
        ranks_of(pop, memo_epsilon)
    feasible = pop.take(cv == 0.0)
    want = feasible.take(unconstrained_nondominated(feasible.F))
    got = feasible_front(pop)
    for a, b in ((got.X, want.X), (got.F, want.F), (got.cv, want.cv)):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)


class _Replay:
    """Stands in for ``st.data()`` in an ``@example``: returns the given
    values in draw order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


def _igd_example(front, ref):
    front, ref = np.array(front), np.array(ref)
    return example(front.shape[1], _Replay(len(front), front, len(ref), ref))


# In the first two pairs the squared distances underflow to 0, so the search
# window's half-width needs its |df1| term; the third needs its rounding
# slack. Without either, a window misses the nearer neighbour.
@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.data())
@_igd_example([[0.0, 0.0]], [[2.2e-308, 2.2e-308]])
@_igd_example([[8.78e-285, 8.78e-285]], [[1.42e-281, 1.42e-281]])
@_igd_example([[-1.05777292e-296, 0.0]], [[-2.49254922e-284, -2.49254922e-284]])
def test_igd_equals_dense_formula_exactly(m, data):
    rows = data.draw(st.integers(1, 150))
    front = data.draw(hnp.arrays(float, (rows, m), elements=st.floats(-2, 2, allow_subnormal=False),
                                 fill=st.nothing()))
    ref = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 300)), m),
                               elements=st.floats(-2, 2, allow_subnormal=False), fill=st.nothing()))
    assert igd(front, ref) == igd_dense(front, ref)


_COORD = st.floats(-2, 2, allow_subnormal=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.data())
def test_igd_equals_dense_formula_on_tied_and_repeated_rows(m, data):
    """Fronts whose rows share first-objective values and repeat whole rows;
    reference points may sit on those shared values too."""
    f1 = np.array(data.draw(st.lists(_COORD, min_size=1, max_size=4)))
    rows = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 20)), m), elements=_COORD,
                                fill=st.nothing()))
    rows[:, 0] = f1[data.draw(hnp.arrays(np.int64, len(rows), elements=st.integers(0, len(f1) - 1)))]
    front = rows[data.draw(hnp.arrays(np.int64, data.draw(st.integers(1, 60)),
                                      elements=st.integers(0, len(rows) - 1)))]
    ref = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 100)), m), elements=_COORD,
                               fill=st.nothing()))
    on_f1 = data.draw(hnp.arrays(bool, len(ref)))
    ref[on_f1, 0] = f1[0]
    assert igd(front, ref) == igd_dense(front, ref)


# Coordinates on a 0.1 grid against the unit reference: duplicates, points
# on the reference (1.0) and beyond it (1.1, 1.2) are common.
_GRID = st.integers(0, 12).map(lambda k: k / 10)
_REAL = st.floats(0, 1.2, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.sampled_from([_GRID, _REAL]), st.booleans(), st.data())
def test_hypervolume_equals_loop_sweep(m, coords, staircase, data):
    front = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 60)), m), elements=coords,
                                 fill=st.nothing()))
    if staircase:
        # f1 ascending against f2 descending: the rows are mutually
        # nondominated, so the sweep adds many rectangles and the order of
        # the additions shows in the bits.
        front[:, 0].sort()
        front[:, 1] = -np.sort(-front[:, 1])
    ref = np.ones(m)
    assert hypervolume(front, ref) == hypervolume_loop(front, ref)


def test_population_ranks_once_per_epsilon():
    rng = np.random.default_rng(3)
    F = rng.integers(0, 5, size=(60, 2)).astype(float)
    cv = rng.integers(0, 4, size=60) * 0.1
    pop = Population(F, F, cv)
    first = rank_and_crowd(pop, 0.0)
    assert rank_and_crowd(pop, 0.0) is first
    assert rank_and_crowd(pop, math.inf) is not first
    ranks = nondominated_ranks(F, cv, 0.0)
    for got, want in zip(first, (ranks, crowding_distances(F, ranks))):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
    with pytest.raises(ValueError):
        first[0][0] = 7
