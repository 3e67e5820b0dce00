import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu, wilcoxon

import dpcmo
from dpcmo.stats import (
    EXACT_RANKSUM_LIMIT,
    EXACT_SIGNEDRANK_LIMIT,
    _doubled_midranks,
    _subset_sum_counts,
    ranksum_test,
    signed_rank_multiproblem,
)
from oracles import (
    approx_ranksum_p,
    approx_signedrank_p,
    exact_ranksum_p,
    exact_signedrank_p,
    midranks,
    ranksum_reference,
    signed_rank_reference,
)


class TestMidranks:
    def test_plain(self):
        assert midranks([30.0, 10.0, 20.0]).tolist() == [3.0, 1.0, 2.0]

    def test_ties_share_mean_rank(self):
        assert midranks([1.0, 2.0, 2.0, 3.0]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_doubled_midranks_match_oracle(self):
        values = np.array([3.0, 1.0, 3.0, 2.0, 3.0, -1.0, 1.0, 7.0])
        assert (_doubled_midranks(values) / 2.0).tolist() == midranks(values).tolist()


class TestRanksum:
    def test_identical_multisets(self):
        report = ranksum_test([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert report.p_value == 1.0
        assert report.verdict == "equal"

    def test_fully_separated_exact(self):
        report = ranksum_test([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert report.p_value == 0.1
        assert report.verdict == "equal"  # 0.1 >= alpha

    def test_fully_separated_verdicts(self):
        low = [1.0, 2.0, 3.0, 4.0, 5.0]
        high = [10.0, 11.0, 12.0, 13.0, 14.0]
        report = ranksum_test(low, high, alpha=0.05)
        assert report.p_value < 0.05
        assert report.verdict == "better"  # smaller is better by default
        assert ranksum_test(low, high, larger_is_better=True).verdict == "worse"

    def test_large_separation_tiny_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 30)
        b = rng.normal(5.0, 1.0, 30)
        assert ranksum_test(a, b).p_value < 1e-9

    def test_constant_identical_samples(self):
        report = ranksum_test([2.0] * 20, [2.0] * 20)
        assert report.p_value == 1.0
        assert report.verdict == "equal"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.random(8)
        b = rng.random(9)
        p1 = ranksum_test(a, b).p_value
        p2 = ranksum_test(np.exp(a), np.exp(b)).p_value
        assert p1 == pytest.approx(p2)

    def test_exact_vs_approx_grid(self):
        # agreement holds over the whole statistic range once both samples
        # have at least 5 observations
        rng = np.random.default_rng(2)
        for n_a, n_b in ((5, 5), (5, 7), (6, 6), (6, 8), (8, 8)):
            for _ in range(10):
                pooled = rng.random(n_a + n_b)
                ranks = midranks(pooled)
                w = float(ranks[:n_a].sum())
                exact = exact_ranksum_p(ranks, n_a, w)
                approx = approx_ranksum_p(ranks, n_a, w)
                assert abs(exact - approx) <= 0.02

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            ranksum_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("n", [3, 10], ids=["exact", "asymptotic"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_nan_rejected(self, n, side):
        a = list(range(n))
        b = [v + 0.5 for v in range(n)]
        (a if side == "a" else b)[1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            ranksum_test(a, b)

    @pytest.mark.parametrize("n", [3, 10], ids=["exact", "asymptotic"])
    def test_inf_ranks_as_the_largest_value(self, n):
        # An empty final front has IGD inf; it ranks above every finite value.
        a = [float(v) for v in range(1, n)]
        b = [v + n for v in range(n)]
        finite = ranksum_test(a + [1e300], b).p_value
        assert ranksum_test(a + [math.inf], b).p_value == finite
        if n == 3:
            assert finite == 0.7


class TestSignedRank:
    def test_all_positive_six(self):
        report = signed_rank_multiproblem([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert report.extras["r_plus"] == 21.0
        assert report.extras["r_minus"] == 0.0
        assert report.p_value == pytest.approx(2.0 / 64.0)
        assert report.verdict == "better"

    def test_symmetric_deltas(self):
        report = signed_rank_multiproblem([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        assert report.extras["r_plus"] == report.extras["r_minus"]
        assert report.p_value == 1.0
        assert report.verdict == "equal"

    def test_rank_sum_partition(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            deltas = rng.normal(0, 1, n)
            deltas = deltas[deltas != 0]
            report = signed_rank_multiproblem(deltas)
            n_eff = report.extras["n"]
            assert report.extras["r_plus"] + report.extras["r_minus"] == pytest.approx(
                n_eff * (n_eff + 1) / 2)

    def test_magnitude_transform_invariance(self):
        deltas = np.array([0.2, -0.5, 1.0, 2.0, -3.0, 0.7, 0.9])
        p1 = signed_rank_multiproblem(deltas).p_value
        p2 = signed_rank_multiproblem(np.sign(deltas) * np.abs(deltas) ** 3).p_value
        assert p1 == pytest.approx(p2)

    def test_zero_deltas_dropped(self):
        with_zeros = [0.0, 1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0]
        without = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert signed_rank_multiproblem(with_zeros).p_value == pytest.approx(
            signed_rank_multiproblem(without).p_value)

    def test_all_zero_is_equal(self):
        report = signed_rank_multiproblem([0.0, 0.0, 0.0])
        assert report.p_value == 1.0
        assert report.verdict == "equal"

    def test_too_few_nonzero(self):
        with pytest.raises(ValueError):
            signed_rank_multiproblem([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("n", [6, 20], ids=["exact", "asymptotic"])
    def test_nan_rejected(self, n):
        deltas = [(-1.0) ** k * (k + 1) for k in range(n)]
        deltas[2] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            signed_rank_multiproblem(deltas)

    @pytest.mark.parametrize("n", [6, 20], ids=["exact", "asymptotic"])
    def test_inf_ranks_as_the_largest_magnitude(self, n):
        deltas = [(-1.0) ** k * (k + 1) for k in range(n)]
        finite = signed_rank_multiproblem(deltas[:-1] + [math.copysign(1e300, deltas[-1])])
        infinite = signed_rank_multiproblem(deltas[:-1] + [math.copysign(math.inf, deltas[-1])])
        assert (infinite.p_value, infinite.extras) == (finite.p_value, finite.extras)

    def test_reported_shape_from_comparison_tables(self):
        # 61 magnitudes ranked 1..61 with ranks {48, 61} negative:
        # R+ = 1782, R- = 109
        signs = np.ones(61)
        signs[47] = -1.0
        signs[60] = -1.0
        deltas = signs * np.arange(1, 62, dtype=float)
        report = signed_rank_multiproblem(deltas)
        assert report.extras["r_plus"] == 1782.0
        assert report.extras["r_minus"] == 109.0
        assert 1e-9 <= report.p_value <= 4e-9
        assert report.verdict == "better"

    def test_exact_vs_approx_grid(self):
        # agreement holds over the whole statistic range for 9..12 deltas
        rng = np.random.default_rng(4)
        for n in (9, 10, 11, 12):
            for _ in range(10):
                deltas = rng.normal(0.4, 1.0, n)
                deltas = deltas[deltas != 0]
                ranks = midranks(np.abs(deltas))
                r_plus = float(ranks[deltas > 0].sum())
                exact = exact_signedrank_p(ranks, r_plus)
                approx = approx_signedrank_p(ranks, r_plus)
                assert abs(exact - approx) <= 0.02


_RNG = np.random.default_rng(5)


class TestExactCounting:
    """The counting paths against the brute-force oracles, at the sizes and
    tie patterns that the hypothesis draws below rarely reach."""

    @pytest.mark.parametrize("pooled,n_a", [
        (_RNG.random(16), 8),
        (_RNG.integers(0, 4, 16).astype(float), 8),
        (_RNG.random(16), 2),
        (_RNG.integers(0, 3, 16).astype(float), 2),
        (np.full(16, 3.0), 8),
        (np.arange(16.0), 8),
    ], ids=["8+8", "8+8-tied", "2+14", "2+14-tied", "16-all-tied", "8+8-separated"])
    def test_ranksum_p_equals_oracle(self, pooled, n_a):
        report = ranksum_test(pooled[:n_a], pooled[n_a:])
        ranks = midranks(pooled)
        assert report.p_value == exact_ranksum_p(ranks, n_a, float(ranks[:n_a].sum()))

    @pytest.mark.parametrize("deltas", [
        _RNG.choice([-1.0, 1.0], 12) * _RNG.integers(1, 4, 12),
        _RNG.choice([-1.0, 1.0], 12) * 0.5,
        np.r_[np.full(6, 2.0), np.full(6, -2.0)],
        np.full(12, 1.0),
        _RNG.normal(0.3, 1.0, 12),
    ], ids=["12-tied", "12-all-tied", "12-balanced", "12-all-positive", "12"])
    def test_signed_rank_p_equals_oracle(self, deltas):
        report = signed_rank_multiproblem(deltas)
        ranks = midranks(np.abs(deltas))
        assert report.p_value == exact_signedrank_p(ranks, float(ranks[deltas > 0].sum()))

    @pytest.mark.parametrize("values", [np.arange(16.0), np.full(16, 2.0),
                                        np.array([1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 9.0])])
    def test_counts_cover_every_arrangement(self, values):
        counts = _subset_sum_counts(_doubled_midranks(values))
        n = len(values)
        assert [int(row.sum()) for row in counts] == [math.comb(n, k) for k in range(n + 1)]
        assert int(counts.sum()) == 2 ** n


_SRC = str(Path(dpcmo.__file__).resolve().parents[1])
# A meta-path finder that records and refuses every scipy import, so a
# lazy or guarded import fails the check even when scipy is installed.
_BLOCK_SCIPY = """import sys
attempts = []
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
            raise ImportError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, BlockScipy())
"""
_NO_SCIPY = ("loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
             "assert not attempts and not loaded, f'scipy imports: {attempts}, loaded: {loaded}'\n")
_NO_SCIPY_STATS = "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
_SCIPY_NOT_LOADED = ("loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
                     "assert not loaded, f'scipy modules loaded: {loaded}'\n")


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports dpcmo from this
    checkout; return its stdout."""
    env = {**os.environ, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _stats_entry(tmp_path: Path, n_problems: int, n_seeds: int) -> tuple[str, str]:
    summary = tmp_path / "summary.csv"
    summary.write_text("problem,variant,seed,final_hv,final_igd\n" + "".join(
        f"Q{q},{variant},{seed},0.{q:02d}{k}{seed:02d},0.0{q:02d}{k}{seed:02d}\n"
        for q in range(1, n_problems + 1) for k, variant in enumerate(("full", "WoOP"))
        for seed in range(1, n_seeds + 1)))
    return f"from dpcmo import cli\nassert cli.main(['stats', {str(summary)!r}]) == 0\n", "R+="


def _run_and_plotdata_entry(tmp_path: Path) -> tuple[str, str]:
    # One small cell: the run logs IGD and HV every generation.
    outdir = tmp_path / "out"
    config = tmp_path / "exp.cfg"
    config.write_text(f"problems = P1-overlap\nN = 10\nmaxFE = 300\nseeds = 1\noutdir = {outdir}\n")
    return (f"from dpcmo import cli\nassert cli.main(['run', {str(config)!r}]) == 0\n"
            f"assert cli.main(['plotdata', {str(outdir)!r}]) == 0\n", "completed 1 runs")


_ENTRIES = {
    "import dpcmo": lambda tmp_path: ("import dpcmo\n", ""),
    "import dpcmo.cli": lambda tmp_path: ("import dpcmo.cli\n", ""),
    "run and plotdata": _run_and_plotdata_entry,
    # Two seeds per cell and six problems: both tests take their exact path.
    "exact stats": lambda tmp_path: _stats_entry(tmp_path, 6, 2),
    # 9 + 9 runs per comparison and 13 problems: both take the normal approximation.
    "asymptotic stats": lambda tmp_path: _stats_entry(tmp_path, 13, 9),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_entry_point_runs_with_scipy_blocked(entry, tmp_path):
    code, expected = _ENTRIES[entry](tmp_path)
    out = _run_fresh(_BLOCK_SCIPY + code + _NO_SCIPY)
    assert expected in out


# The same imports with scipy left importable: nothing pulls it in, neither
# scipy.stats nor any other scipy module.
@pytest.mark.parametrize("entry", ["import dpcmo", "import dpcmo.cli"])
def test_import_leaves_scipy_stats_unloaded(entry):
    _run_fresh(f"import sys\n{entry}\n{_NO_SCIPY_STATS}")


@pytest.mark.parametrize("entry", ["import dpcmo", "import dpcmo.cli"])
def test_import_leaves_scipy_unloaded(entry):
    _run_fresh(f"import sys\n{entry}\n{_SCIPY_NOT_LOADED}")


# Only a parallel grid or a mistyped config key needs these; every CLI
# process would otherwise pay for their imports at start-up.
def test_cli_import_leaves_the_pool_and_difflib_unloaded():
    _run_fresh("import sys\nimport dpcmo.cli\n"
               "loaded = [m for m in ('multiprocessing', 'concurrent.futures', 'difflib') if m in sys.modules]\n"
               "assert not loaded, f'loaded at start-up: {loaded}'\n")


# Samples on an integer grid tie often; unique floats never tie. Sizes
# straddle both exact-enumeration limits.
_TIED = st.integers(0, 4).map(float)
_TIE_FREE = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def two_samples(draw):
    n_a = draw(st.integers(2, 10))
    n_b = draw(st.integers(2, 10))
    if draw(st.booleans()):
        values = draw(st.lists(_TIED, min_size=n_a + n_b, max_size=n_a + n_b))
    else:
        values = draw(st.lists(_TIE_FREE, min_size=n_a + n_b, max_size=n_a + n_b, unique=True))
    return values[:n_a], values[n_a:]


@st.composite
def nonzero_deltas(draw):
    n = draw(st.integers(5, EXACT_SIGNEDRANK_LIMIT + 4))
    if draw(st.booleans()):
        magnitudes = draw(st.lists(st.integers(1, 4).map(float), min_size=n, max_size=n))
    else:
        magnitudes = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n, unique=True))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    return [s * m for s, m in zip(signs, magnitudes)]


@settings(max_examples=60, deadline=None)
@given(two_samples(), st.booleans())
def test_ranksum_matches_oracle(samples, larger_is_better):
    a, b = samples
    report = ranksum_test(a, b, larger_is_better=larger_is_better)
    w, p, verdict = ranksum_reference(a, b, larger_is_better=larger_is_better)
    assert (report.statistic, report.verdict) == (w, verdict)
    if len(a) + len(b) <= EXACT_RANKSUM_LIMIT:
        assert report.p_value == p
    else:
        assert abs(report.p_value - p) <= 1e-15
        assert abs(report.p_value - mannwhitneyu(a, b, method="asymptotic").pvalue) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(nonzero_deltas())
def test_signed_rank_matches_oracle(deltas):
    report = signed_rank_multiproblem(deltas)
    r_plus, p, verdict, extras = signed_rank_reference(deltas)
    assert (report.statistic, report.verdict, report.extras) == (r_plus, verdict, extras)
    if len(deltas) <= EXACT_SIGNEDRANK_LIMIT:
        assert report.p_value == p
    else:
        assert abs(report.p_value - p) <= 1e-15
        scipy_p = wilcoxon(deltas, correction=True, method="approx").pvalue
        assert abs(report.p_value - scipy_p) <= 1e-15
