"""Property tests: the fast two-objective selection paths, the staircase IGD
search and the vectorised hypervolume against their dense and loop forms,
element for element."""

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
    _adjusted_cv,
    _peel,
    _staircase_crowding,
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
    """Integer-grid objectives (ties and duplicates are common) or real ones
    (long chains of fronts, as in the runs' unions), with an all-feasible,
    all-infeasible or mixed violation vector on a 0.05 grid."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        F = draw(hnp.arrays(float, (n, m), elements=st.floats(0, 1, allow_subnormal=False),
                            fill=st.nothing()))
    else:
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
    ranks = dense_ranks(F, cv, epsilon)
    crowd = crowding_per_front(F, ranks)
    want = truncation_scan(ranks, crowd, n) if n < len(union) else range(n)
    got = environmental_select(union, n, epsilon)
    assert got.tolist() == list(want)
    if n < len(union):
        np.testing.assert_array_equal(union.kept_ranks[(epsilon, n)], ranks[got])


# A split front (cv 0.3) behind a lower-violation group (cv 0) that also
# dominates it, so it is the second front at every epsilon. Its exact repeats
# sit at both f1 ends and in its interior, and index order is not peel order.
_SPLIT_FRONT = np.array([[1.0, 5.0], [5.0, 1.0], [2.0, 4.0], [1.0, 5.0], [3.0, 3.0],
                         [2.0, 4.0], [5.0, 1.0], [4.0, 2.0], [1.0, 5.0], [2.0, 4.0]])
_AHEAD = np.array([[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("epsilon", [0.0, 0.15, math.inf])
def test_split_front_with_repeats_at_both_ends(epsilon):
    for parts in ([(_AHEAD, 0.0), (_SPLIT_FRONT, 0.3)], [(_SPLIT_FRONT, 0.3), (_AHEAD, 0.0)]):
        F = np.concatenate([rows for rows, _ in parts])
        cv = np.concatenate([np.full(len(rows), c) for rows, c in parts])
        ranks = dense_ranks(F, cv, epsilon)
        assert sorted(set(ranks.tolist())) == [0, 1]
        crowd = crowding_per_front(F, ranks)
        np.testing.assert_array_equal(crowding_distances(F, ranks), crowd)
        for n in range(len(_AHEAD) + 1, len(F)):
            want = truncation_scan(ranks, crowd, n)
            assert environmental_select(Population(F, F, cv), n, epsilon).tolist() == want


@settings(max_examples=150, deadline=None)
@given(instances(), ANY_EPSILON)
def test_split_front_crowding_equals_union_crowding(inst, epsilon):
    """Crowding one front on its own, in the peel's order, gives the union's
    distances on it."""
    F, cv = inst
    union_crowd = crowding_per_front(F, dense_ranks(F, cv, epsilon))
    order, fronts = _peel(F, _adjusted_cv(cv, epsilon), len(F))
    for front in fronts:
        rows = order[front]
        np.testing.assert_array_equal(_staircase_crowding(F[rows]), union_crowd[rows])


@settings(max_examples=150, deadline=None)
@given(instances(), ANY_EPSILON, st.data())
def test_peeled_ranks_are_exact_up_to_the_split_front(inst, epsilon, data):
    """Peeling for n gives exactly the fronts that hold the n best rows, in
    rank order, each as ascending positions in the sort order."""
    F, cv = inst
    n = data.draw(st.integers(1, len(F)))
    want = dense_ranks(F, cv, epsilon)
    split = np.sort(want)[n - 1]
    order, fronts = _peel(F, _adjusted_cv(cv, epsilon), n)
    assert len(fronts) == split + 1
    for rank, front in enumerate(fronts):
        assert (np.diff(front) > 0).all()
        np.testing.assert_array_equal(np.sort(order[front]), np.flatnonzero(want == rank))


@settings(max_examples=100, deadline=None)
@given(instances(), ANY_EPSILON, st.data())
def test_truncation_leaves_the_union_rank_memo_full(inst, epsilon, data):
    """The partial ranks of a truncation never stand in for full ranks."""
    F, cv = inst
    union = Population(F, F, cv)
    environmental_select(union, data.draw(st.integers(1, len(union))), epsilon)
    np.testing.assert_array_equal(ranks_of(union, epsilon), dense_ranks(F, cv, epsilon))


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


@settings(max_examples=100, deadline=None)
@given(instances(), ANY_EPSILON, st.data())
def test_whole_union_survivors_keep_its_memoised_ranks(inst, epsilon, data):
    """A union of at most n rows survives whole, and its survivors take the
    union's memoised ranks instead of ranking again."""
    F, cv = inst
    union = Population(F, F, cv)
    ranks = ranks_of(union, epsilon)
    survivors = _survivors(union, data.draw(st.integers(len(union), len(union) + 3)), epsilon)
    assert survivors.ranks.get(epsilon) is ranks


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


_COORD = st.floats(-2, 2, allow_subnormal=False)


def _is_staircase(front) -> bool:
    """Sorted stably by f1, f2 never rises: the order ``igd`` bounds its
    nearest-row search by."""
    front = np.asarray(front, dtype=float)
    return bool((np.diff(front[np.argsort(front[:, 0], kind="stable"), 1]) <= 0).all())


def _staircase_example(front, ref):
    """Replays the front and reference as given, with no reference
    coordinate moved onto the front."""
    front, ref = np.array(front), np.array(ref)
    unmoved = (np.zeros(len(ref), bool), np.empty(0, np.int64))
    return example(_Replay(front, len(ref), ref, *unmoved, *unmoved))


@st.composite
def staircase_fronts(draw):
    """Distinct f1 values paired with non-increasing f2 values, whole rows
    repeated and shuffled (so f1 ties only ever repeat a row), optionally
    shifted beyond every reference point in both objectives."""
    shift = draw(st.sampled_from([0.0, 0.0, 5.0, -5.0]))
    # Shifted before np.unique, since the shift may merge nearby f1 values.
    f1 = np.unique(np.array(draw(st.lists(_COORD, min_size=1, max_size=30))) + shift)
    f2 = np.sort(draw(hnp.arrays(float, len(f1), elements=_COORD, fill=st.nothing())) + shift)
    rows = np.column_stack([f1, f2[::-1]])
    return rows[draw(hnp.arrays(np.int64, draw(st.integers(1, 60)),
                                elements=st.integers(0, len(rows) - 1)))]


# Multi-row staircases around coordinates so small that their squared
# distances underflow to 0.
@settings(max_examples=200, deadline=None)
@given(st.data())
@_staircase_example([[0.0, 2.2e-308], [2.2e-308, 0.0]], [[2.2e-308, 2.2e-308]])
@_staircase_example([[8.78e-285, 1.42e-281], [8.78e-285, 1.42e-281], [1.42e-281, 8.78e-285]],
                    [[1.42e-281, 1.42e-281]])
@_staircase_example([[-2.49254922e-284, 0.0], [-1.05777292e-296, 0.0],
                     [0.0, -2.49254922e-284]], [[-2.49254922e-284, -2.49254922e-284]])
def test_igd_equals_dense_formula_on_staircase_fronts(data):
    """Two-objective fronts whose f2 never rises in f1 order, which ``igd``
    searches within each reference point's range in both orders; reference
    points may sit on the front's coordinates."""
    front = data.draw(staircase_fronts())
    ref = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 100)), 2), elements=_COORD,
                               fill=st.nothing()))
    for j in range(2):
        on_front = data.draw(hnp.arrays(bool, len(ref)))
        ref[on_front, j] = front[data.draw(hnp.arrays(
            np.int64, int(on_front.sum()), elements=st.integers(0, len(front) - 1))), j]
    assert _is_staircase(front)
    assert igd(front, ref) == igd_dense(front, ref)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_feasible_front_is_a_staircase(inst):
    """Every front the run log measures takes ``igd``'s staircase search."""
    F, cv = inst
    front = feasible_front(Population(F, F, cv)).F
    assert len(front) == 0 or _is_staircase(front)


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
