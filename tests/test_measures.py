"""Distances and measure containers, checked against hand-computed and
brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov import mckean_vlasov
from nlmarkov.diagnostics import Binning
from nlmarkov.measures import (
    DiscreteMeasure,
    weighted_tv_distance,
)


def tv_distance(p, q):
    """d_tv(p, q) = sum_i |p_i - q_i|: the weighted distance at unit weight."""
    return weighted_tv_distance(p, q, np.ones(len(p)))


# ---------------------------------------------------------------------------
# DiscreteMeasure


def test_discrete_measure_accepts_probability_vector():
    mu = DiscreteMeasure(np.array([0.3, 0.7]))
    assert mu.size == 2
    assert not mu.weights.flags.writeable


def test_discrete_measure_rejects_bad_input():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.5, 0.6]))  # sums to 1.1
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[0.5, 0.5]]))  # not 1-d
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([]))


def test_weights_that_sum_past_the_float_range_are_named_without_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="weights sum to inf, not 1 within 1e-12"):
            DiscreteMeasure(np.array([1e308, 1e308]))
    assert caught == []


def test_discrete_measure_constructors():
    d = DiscreteMeasure.dirac(2, 4)
    assert d.weights.tolist() == [0.0, 0.0, 1.0, 0.0]
    u = DiscreteMeasure.uniform(5)
    assert np.allclose(u.weights, 0.2)
    t = DiscreteMeasure.two_point(0.3)
    assert t.weights.tolist() == [0.3, 0.7]
    with pytest.raises(ValueError):
        DiscreteMeasure.dirac(4, 4)
    with pytest.raises(ValueError):
        DiscreteMeasure.two_point(1.5)


def test_discrete_measure_as_array():
    mu = DiscreteMeasure.two_point(0.25)
    assert np.asarray(mu).tolist() == [0.25, 0.75]


# ---------------------------------------------------------------------------
# Total variation


def test_tv_distance_hand_value():
    # |0.3-0.5| + |0.7-0.5| = 0.4
    assert tv_distance([0.3, 0.7], [0.5, 0.5]) == pytest.approx(0.4, abs=1e-15)


def test_tv_distance_range():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    assert tv_distance([0.4, 0.6], [0.4, 0.6]) == 0.0


def test_tv_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        tv_distance([0.5, 0.5], [1.0 / 3] * 3)


def test_tv_is_a_metric_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q, r = (rng.dirichlet(np.ones(4)) for _ in range(3))
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


def test_weighted_tv_hand_value():
    # 2*0.2 + 10*0.2 = 2.4
    got = weighted_tv_distance([0.3, 0.7], [0.5, 0.5], [2.0, 10.0])
    assert got == pytest.approx(2.4, abs=1e-15)


def test_weighted_tv_with_unit_weight_is_tv():
    rng = np.random.default_rng(3)
    p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
    assert weighted_tv_distance(p, q, np.ones(5)) == pytest.approx(np.abs(p - q).sum())


def test_weighted_tv_rejects_negative_weight():
    with pytest.raises(ValueError):
        weighted_tv_distance([0.5, 0.5], [0.4, 0.6], [1.0, -1.0])


@st.composite
def measure_pairs(draw):
    """Two probability vectors on one state space of 1 to 8 states."""
    n = draw(st.integers(1, 8))
    pair = []
    for _ in range(2):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        if w.sum() == 0.0:
            w[:] = 1.0
        pair.append(w / w.sum())
    return pair


@settings(deadline=None)
@given(pair=measure_pairs())
def test_tv_distance_overlap_identity(pair):
    # the mass a maximal coupling keeps in place, sum_i min(p_i, q_i),
    # is 1 - d_tv(p, q) / 2 in the sum |p - q| convention
    p, q = pair
    assert np.minimum(p, q).sum() == pytest.approx(1.0 - tv_distance(p, q) / 2.0)


# ---------------------------------------------------------------------------
# Histograms: binned clouds and their TV, through diagnostics.Binning


def cloud(*values):
    return np.array(values, dtype=float)


def test_histogram_basic_binning():
    m = Binning(0.0, 1.0, 2).masses(cloud(0.1, 0.1, 0.9, 1.4))
    assert m.tolist() == [0.5, 0.25, 0.25]  # two cells, then the overflow
    with pytest.raises(ValueError, match="finite"):
        Binning(0.0, 1.0, 2).masses(cloud(0.1, np.nan))


def test_histogram_upper_edge_is_overflow():
    # cells are half-open [l, u); the upper bound itself is outside
    assert Binning(0.0, 1.0, 4).masses(cloud(1.0)).tolist() == [0, 0, 0, 0, 1]
    assert Binning(0.0, 1.0, 4).masses(cloud(0.0)).tolist() == [1, 0, 0, 0, 0]
    # the float just below the bound is clamped into the top cell
    assert Binning(0.0, 1.0, 4).masses(cloud(np.nextafter(1.0, 0.0)))[3] == 1.0


def test_tv_between_histograms_singular_clouds():
    bn = Binning(0.0, 1.0, 2)
    a, b = bn.masses(cloud(*[0.1] * 10)), bn.masses(cloud(*[0.9] * 10))
    assert bn.tv(a, b) == 2.0
    assert bn.tv(a, a) == 0.0


def test_tv_between_histograms_counts_overflow():
    bn = Binning(0.0, 1.0, 1)
    # half the mass moved out of the box
    assert bn.tv(bn.masses(cloud(0.5, 0.5)), bn.masses(cloud(0.5, 9.0))) == 1.0


def _cell_counts(points, bn):
    """Per-point pure-Python oracle of Binning.masses, as counts."""
    counts = [0] * (bn.bins + 1)
    width = (bn.upper - bn.lower) / bn.bins
    for v in points.tolist():
        if bn.lower <= v < bn.upper:
            counts[min(math.floor((v - bn.lower) / width), bn.bins - 1)] += 1
        else:
            counts[-1] += 1
    return counts


@st.composite
def binned_clouds(draw):
    bins = draw(st.integers(1, 12))
    lower = draw(st.floats(-5.0, 5.0))
    upper = lower + draw(st.floats(0.01, 10.0))
    bn = Binning(lower, upper, bins)
    edges = [lower, upper, np.nextafter(upper, lower)] + [
        lower + k * (upper - lower) / bins for k in range(bins)]
    coord = st.one_of(st.sampled_from(edges), st.floats(lower - 2.0, upper + 2.0))
    n = draw(st.integers(1, 20))
    clouds = [np.array(draw(st.lists(coord, min_size=n, max_size=n))) for _ in range(2)]
    return bn, clouds


@settings(max_examples=200, deadline=None)
@given(binned_clouds())
def test_binned_tv_properties(case):
    bn, (a, b) = case
    p, q = bn.masses(a), bn.masses(b)
    for pts, m in ((a, p), (b, q)):
        assert m.sum() == pytest.approx(1.0)
        assert (m * len(pts)).round().astype(int).tolist() == _cell_counts(pts, bn)
    assert bn.tv(p, q) == bn.tv(q, p)
    # in [0, 2] up to the rounding of the float sum, which can pass 2 by an ulp
    assert 0.0 <= bn.tv(p, q) <= 2.0 + 1e-12
    assert bn.tv(p, bn.masses(a.copy())) == 0.0


def _one_shot_masses(bn, points):
    """Binning.masses binned in one pass over the whole cloud, as it was
    before the blocked version: the blocked version's reference."""
    width = (bn.upper - bn.lower) / bn.bins
    cells = np.clip(np.floor((points - bn.lower) / width), 0, bn.bins - 1).astype(int)
    inside = (points >= bn.lower) & (points < bn.upper)
    flat = np.where(inside, cells, bn.bins)
    return np.bincount(flat, minlength=bn.bins + 1) / len(points)


@settings(max_examples=200, deadline=None)
@given(binned_clouds(), st.integers(1, 8))
def test_blocked_masses_equal_one_shot_masses(case, block_rows):
    # blocks of at most 8 rows, so a cloud of up to 20 points spans many
    bn, clouds = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mckean_vlasov, "_BLOCK_BYTES", 8 * block_rows)
        for pts in clouds:
            assert bn.masses(pts).tobytes() == _one_shot_masses(bn, pts).tobytes()


def test_blocked_masses_of_a_wide_cloud():
    # several blocks of the real size, with points on both bounds and
    # outside the box
    bn = Binning(-1.0, 1.0, 7)
    pts = np.random.default_rng(1).normal(0.0, 1.0, 50_000)
    pts[::97] = -1.0
    pts[::89] = 1.0
    pts[::83] = np.nextafter(1.0, 0.0)
    assert len(mckean_vlasov._row_blocks(len(pts))) > 3
    assert bn.masses(pts).tobytes() == _one_shot_masses(bn, pts).tobytes()
