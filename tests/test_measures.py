"""Distances and measure containers, checked against hand-computed and
brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov.measures import (
    DiscreteMeasure,
    EmpiricalMeasure,
    HistogramDensity,
    histogram_of,
    tv_between_histograms,
    tv_distance,
    weighted_tv_distance,
)


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
    assert weighted_tv_distance(p, q, np.ones(5)) == pytest.approx(tv_distance(p, q))


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
# Histograms


def test_empirical_measure_shapes():
    e = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    assert e.points.shape == (3, 1)
    assert e.n_samples == 3 and e.dimension == 1
    assert e.mean()[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([np.inf]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.empty((0, 1)))


def test_histogram_basic_binning():
    e = EmpiricalMeasure(np.array([0.1, 0.1, 0.9, 1.4]))
    h = histogram_of(e, (0.0, 1.0), 2)
    assert h.masses.tolist() == [0.5, 0.25]
    assert h.overflow == pytest.approx(0.25)
    assert h.masses.sum() + h.overflow == pytest.approx(1.0)


def test_histogram_upper_edge_is_overflow():
    # bins are half-open [l, u); the upper bound itself is outside
    h = histogram_of(EmpiricalMeasure(np.array([1.0])), (0.0, 1.0), 4)
    assert h.overflow == 1.0
    assert h.masses.sum() == 0.0
    h2 = histogram_of(EmpiricalMeasure(np.array([0.0])), (0.0, 1.0), 4)
    assert h2.masses[0] == 1.0 and h2.overflow == 0.0


def test_histogram_two_dimensional():
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [2.5, 2.5]])
    h = histogram_of(EmpiricalMeasure(pts), (0.0, 2.0), 2)
    assert h.masses.shape == (2, 2)
    assert h.masses[0, 0] == pytest.approx(1 / 3)
    assert h.masses[1, 0] == pytest.approx(1 / 3)
    assert h.overflow == pytest.approx(1 / 3)


def test_histogram_density_validates_mass():
    with pytest.raises(ValueError):
        HistogramDensity(0.0, 1.0, (2,), np.array([0.5, 0.4]), 0.0)
    with pytest.raises(ValueError):
        HistogramDensity(0.0, 1.0, (2,), np.array([0.5, 0.5]), -0.1)
    with pytest.raises(ValueError):
        HistogramDensity(1.0, 0.0, (2,), np.array([0.5, 0.5]), 0.0)


def test_tv_between_histograms_singular_clouds():
    lo, hi = 0.0, 1.0
    a = histogram_of(EmpiricalMeasure(np.full(10, 0.1)), (lo, hi), 2)
    b = histogram_of(EmpiricalMeasure(np.full(10, 0.9)), (lo, hi), 2)
    assert tv_between_histograms(a, b) == pytest.approx(2.0)
    assert tv_between_histograms(a, a) == 0.0


def test_tv_between_histograms_counts_overflow():
    a = histogram_of(EmpiricalMeasure(np.array([0.5, 0.5])), (0.0, 1.0), 1)
    b = histogram_of(EmpiricalMeasure(np.array([0.5, 9.0])), (0.0, 1.0), 1)
    # half the mass moved out of the box
    assert tv_between_histograms(a, b) == pytest.approx(1.0)


def test_tv_between_histograms_requires_same_binning():
    a = histogram_of(EmpiricalMeasure(np.array([0.5])), (0.0, 1.0), 2)
    b = histogram_of(EmpiricalMeasure(np.array([0.5])), (0.0, 1.0), 4)
    with pytest.raises(ValueError):
        tv_between_histograms(a, b)
