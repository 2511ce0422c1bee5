"""Rearrangement-invariant norm engine tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plsmooth.errors import InvalidInputError, ParseError
from plsmooth.norms import (RINorm, StepFunction, parse_norm, rearrangement,
                            rozumny_check)


def test_rearrangement_simple():
    vals = np.array([1.0, 3.0, 2.0])
    wts = np.array([0.5, 0.25, 0.25])
    f = rearrangement(vals, wts)
    assert np.array_equal(f.values, [3.0, 2.0, 1.0])
    assert np.allclose(np.cumsum([0.25, 0.25, 0.5]), f.breaks)
    # decreasing step function evaluation
    assert f(0.1) == 3.0
    assert f(0.3) == 2.0
    assert f(0.9) == 1.0


def test_lp_matches_direct_quadrature():
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, 4.0):
        norm = RINorm("lp", p=p)
        for _ in range(50):
            vals = rng.uniform(0, 5, 200)
            wts = rng.uniform(0.001, 1, 200)
            direct = np.sum(wts * vals ** p) ** (1.0 / p)
            via_rearr = norm(vals, wts)
            assert via_rearr == pytest.approx(direct, rel=1e-6)


def test_lorentz_pp_equals_lp():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0, 3, 100)
    wts = rng.uniform(0.01, 1, 100)
    lp = RINorm("lp", p=2.0)(vals, wts)
    lorentz = RINorm("lorentz", p=2.0, q=2.0)(vals, wts)
    assert lorentz == pytest.approx(lp, rel=1e-10)


def test_lorentz_indicator_closed_form():
    # ||M chi_E||_{p,q} = M (p/q)^{1/q} |E|^{1/p}
    M, measure, p, q = 2.5, 0.3, 2.0, 1.0
    norm = RINorm("lorentz", p=p, q=q)
    val = norm(np.array([M]), np.array([measure]))
    assert val == pytest.approx(M * (p / q) ** (1 / q) * measure ** (1 / p),
                                rel=1e-12)
    assert norm.fundamental(measure) == pytest.approx(
        (p / q) ** (1 / q) * measure ** (1 / p), rel=1e-12)


def test_linf_norm():
    vals = np.array([0.5, 4.0, 1.0])
    wts = np.array([1.0, 1e-6, 1.0])
    assert RINorm("linf")(vals, wts) == pytest.approx(4.0)


def test_fundamental_function_properties():
    # phi monotone nondecreasing with phi(0+) = 0 for all supported kinds
    for norm in (RINorm("lp", p=2.0), RINorm("lp", p=4.0),
                 RINorm("lorentz", p=2.0, q=1.0)):
        s = np.linspace(1e-12, 2.0, 500)
        phis = np.array([norm.fundamental(v) for v in s])
        assert np.all(np.diff(phis) >= -1e-15)
        assert phis[0] < 1e-2


def test_rozumny_monotone_to_zero():
    deltas = 0.5 ** np.arange(21)
    for norm in (RINorm("lp", p=2.0), RINorm("lp", p=4.0),
                 RINorm("lorentz", p=2.0, q=1.0)):
        rows = rozumny_check(norm, 3.0, deltas, total_measure=2.0)
        vals = [v for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1 * vals[0]
        # closed-form oracle for L^p: M (delta L)^{1/p} / L
        if norm.kind == "lp":
            for (d, v) in rows:
                assert v == pytest.approx(3.0 * (d * 2.0) ** (1 / norm.p) / 2.0,
                                          rel=1e-12)


def test_parse_norm():
    n = parse_norm("lp:2")
    assert n.kind == "lp" and n.p == 2.0
    n = parse_norm("lorentz:2:1")
    assert n.kind == "lorentz" and n.p == 2.0 and n.q == 1.0
    assert parse_norm("linf").kind == "linf"
    with pytest.raises(ParseError):
        parse_norm("sobolev:1")
    with pytest.raises((ParseError, InvalidInputError)):
        parse_norm("lp:0.5")


def test_rejects_sub_one_exponents():
    with pytest.raises(InvalidInputError):
        RINorm("lp", p=0.5)
    with pytest.raises(InvalidInputError):
        RINorm("lorentz", p=2.0, q=0.2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_rearrangement_invariance(seed):
    # the norm only depends on the distribution of values
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 60)
    vals = rng.uniform(0, 4, n)
    wts = rng.uniform(0.01, 1, n)
    perm = rng.permutation(n)
    norm = RINorm("lorentz", p=2.0, q=1.0)
    a = norm(vals, wts)
    b = norm(vals[perm], wts[perm])
    assert a == pytest.approx(b, rel=1e-10)


def test_step_function_total_measure():
    f = rearrangement(np.array([2.0, 1.0]), np.array([0.3, 0.7]))
    assert f.breaks[-1] == pytest.approx(1.0)
    assert f(1.5) == 0.0


def test_linf_difference_centre_does_not_follow_rounding_among_ties():
    # equal largest differences, as along a cylinder column, moved by a few
    # ulps: the refinement starts from the first of them either way
    from plsmooth.builders import perturbed_kuhn_map
    from plsmooth.norms import linf_difference
    from plsmooth.pipeline import assemble, choose_params
    pl = perturbed_kuhn_map()
    g = assemble(pl, choose_params(pl))
    pts, wts = g.difference_quadrature()
    pts = pts[wts > 0][::50]
    rng = np.random.default_rng(4)
    tied = rng.choice(len(pts), 8, replace=False)
    diff = np.zeros(len(pts))
    diff[tied] = 1e-15
    ref = linf_difference(pl, g, pts, diff, rng=0)
    for _ in range(4):
        moved = diff.copy()
        moved[tied] *= 1.0 + np.finfo(float).eps * rng.integers(0, 5, 8)
        assert linf_difference(pl, g, pts, moved, rng=0) == ref
