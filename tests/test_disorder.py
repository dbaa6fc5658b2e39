import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaglass.disorder import (DistributionSpec, sample_couplings,
                              super_satisfy, supersatisfied_threshold)
from eaglass.errors import ConfigError
from eaglass.lattice import build_box

GAUSS = DistributionSpec("gaussian", sigma=1.0)


def test_distribution_validation():
    with pytest.raises(ConfigError):
        DistributionSpec("gaussian", sigma=0.0)
    with pytest.raises(ConfigError):
        DistributionSpec("uniform_symmetric", half_width=-1.0)
    with pytest.raises(ConfigError):
        DistributionSpec("uniform", half_width=1.0)  # asymmetric laws rejected
    with pytest.raises(ConfigError):
        DistributionSpec.from_dict({"kind": "gaussian", "lo": 0.9, "hi": 1.1})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 1000))
def test_sampling_deterministic(seed, index):
    g = build_box(3, 3)
    a = sample_couplings(g, GAUSS, seed, index)
    b = sample_couplings(g, GAUSS, seed, index)
    assert np.array_equal(a.values, b.values)


def test_distinct_indices_differ():
    g = build_box(3, 3)
    a = sample_couplings(g, GAUSS, 0, 0)
    b = sample_couplings(g, GAUSS, 0, 1)
    assert not np.array_equal(a.values, b.values)


def test_different_realizations_compare_unequal():
    # equality must not ignore the coupling values
    g = build_box(3, 3)
    a = sample_couplings(g, GAUSS, 0, 0)
    assert a == a
    assert a != sample_couplings(g, GAUSS, 0, 1)
    assert a != a.with_value(0, a.value(0) + 1.0)


def test_values_are_stored_as_float64():
    from eaglass.disorder import CouplingConfig
    g = build_box(3, 3)
    # integer input must not truncate later replacements
    J = CouplingConfig(g, np.ones(g.n_edges, dtype=int))
    assert J.with_value(0, 0.5).value(0) == 0.5
    assert CouplingConfig(g, np.ones(g.n_edges, dtype=np.float32)
                          ).values.dtype == np.float64
    vals = np.ones(g.n_edges)
    assert CouplingConfig(g, vals).values is vals


def test_couplings_whose_sums_can_overflow_are_a_config_error():
    # inf, NaN, and finite values whose magnitudes sum past the largest
    # double: a free 3x3 solve of couplings near 1e308 used to overflow its
    # sums to inf and NaN and raise "no admissible configuration"
    from eaglass.disorder import CouplingConfig
    from eaglass.solver import brute_force, solve
    g = build_box(3, 3)
    signs = np.where(np.arange(g.n_edges) % 3, 1.0, -1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError):
            CouplingConfig(g, np.where(np.arange(g.n_edges) == 4, bad, signs))
    with pytest.raises(ConfigError):
        CouplingConfig(g, signs * 1e308)
    with pytest.raises(ConfigError):     # the sum is finite, twice it is not
        CouplingConfig(g, signs * (np.finfo(float).max / g.n_edges * 0.75))
    # just inside the bound, every sum stays finite and the solver agrees
    # with the oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = rng.normal(size=g.n_edges)
        vals *= np.finfo(float).max / (2.0 * np.abs(vals).sum()) * 0.999
        J = CouplingConfig(g, vals)
        a, b = solve(g, J), brute_force(J)
        assert np.array_equal(a.signs, b.signs)
        assert a.energy == b.energy and np.isfinite(a.energy)


def test_nested_boxes_share_edge_values():
    small = build_box(5, 5)
    big = build_box(7, 7)
    js = sample_couplings(small, GAUSS, 99, 4)
    jb = sample_couplings(big, GAUSS, 99, 4)
    shared = 0
    for e in small.edges:
        if e.wrap:
            continue
        other = big.edge_by_key[e.key]
        assert js.values[e.id] == jb.values[other]
        shared += 1
    assert shared == small.n_edges - small.height


def test_gaussian_moments():
    # one draw per edge of a box with ~1e5 edges; bounds are ~6 standard
    # errors of the mean and of the variance estimate
    g = build_box(100, 500)
    n = g.n_edges
    assert n > 9 * 10**4
    J = sample_couplings(g, GAUSS, 2024, 0)
    assert abs(float(J.values.mean())) < 0.02
    assert abs(float(J.values.var()) - 1.0) < 0.03


def test_uniform_support():
    g = build_box(10, 20)
    spec = DistributionSpec("uniform_symmetric", half_width=0.5)
    J = sample_couplings(g, spec, 5, 0)
    assert float(np.abs(J.values).max()) <= 0.5
    assert abs(float(J.values.mean())) < 0.05


def test_threshold_formula():
    # x's other couplings {0.5, 0.3}; y's others {2.0, 1.0, 0.2}
    g = build_box(4, 3)
    b = g.edge_by_key[("h", 0, 1)]
    e = g.edges[b]
    vals = np.zeros(g.n_edges)
    others_x = [eid for eid in g.incident[e.u] if eid != b]
    others_y = [eid for eid in g.incident[e.v] if eid != b]
    for eid, v in zip(others_x, [0.5, -0.3, 0.0]):
        vals[eid] = v
    for eid, v in zip(others_y, [-2.0, 1.0, 0.2]):
        vals[eid] = v
    from eaglass.disorder import CouplingConfig
    J = CouplingConfig(g, vals)
    assert math.isclose(supersatisfied_threshold(J, b), 0.8)


def test_threshold_single_edge_graph():
    g = build_box(1, 2)
    from eaglass.disorder import CouplingConfig
    J = CouplingConfig(g, np.array([3.0]))
    assert supersatisfied_threshold(J, 0) == 0.0
    # at threshold 0 the margin 1e-6 * (1 + threshold) is 1e-6
    J2 = super_satisfy(J, 0, +1)
    assert J2.value(0) == 1e-6
    J3 = super_satisfy(J, 0, -1)
    assert J3.value(0) == -1e-6


def test_threshold_independent_recompute():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 31, 2)
    for b in range(g.n_edges):
        e = g.edges[b]
        sums = []
        for x in (e.u, e.v):
            total = 0.0
            for other in g.edges:
                if other.id == b:
                    continue
                if x in (other.u, other.v):
                    total += abs(J.values[other.id])
            sums.append(total)
        assert math.isclose(supersatisfied_threshold(J, b), min(sums))


def test_super_satisfy_strict_and_logged():
    g = build_box(3, 3)
    J = sample_couplings(g, GAUSS, 1, 1)
    b = 7
    J2 = super_satisfy(J, b, -1)
    assert abs(J2.value(b)) > supersatisfied_threshold(J2, b)
    assert J2.value(b) < 0
    # original untouched
    assert J.value(b) != J2.value(b)
