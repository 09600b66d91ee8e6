"""Finite-support distributions, base families, mixing, and the payoff functional."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blottokit.distributions import (
    U_EVEN,
    U_ODD,
    U_ODD_UP,
    V,
    W,
    Dist,
    base_dist,
    base_vector,
    dist_from_json,
    dist_to_json,
    gain_table,
    hull_height,
    mean,
    mix,
    normalized,
    payoff_H,
    point_mass,
    upper_hull,
    vbar,
    vec_add,
    vec_scale,
)
from blottokit.errors import BadIndex, BadM, BadWeights


def dist_of(weights: dict[int, Fraction]) -> Dist:
    return Dist.from_weights(weights)


small_counts = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=5,
)
small_dists = small_counts.map(normalized)


def test_base_vector_examples():
    assert base_vector(U_ODD, 2) == {1: 1, 3: 1}
    assert base_vector(U_EVEN, 1) == {0: 1, 2: 1}
    assert base_vector(V, 1, j=1) == {1: 1, 2: 2}


def test_base_dist_examples():
    assert base_dist(U_ODD, 2) == dist_of({1: Fraction(1, 2), 3: Fraction(1, 2)})
    assert base_dist(U_EVEN, 2) == dist_of(
        {0: Fraction(1, 3), 2: Fraction(1, 3), 4: Fraction(1, 3)}
    )
    assert base_dist(V, 1, j=1) == dist_of({1: Fraction(1, 3), 2: Fraction(2, 3)})


def test_base_vector_rejects_bad_parameters():
    with pytest.raises(BadM):
        base_vector(U_ODD, 0)
    with pytest.raises(BadM):
        base_vector(U_ODD_UP, 1)
    with pytest.raises(BadIndex):
        base_vector(W, 2, j=2)
    with pytest.raises(BadIndex):
        base_vector(V, 2, j=3)
    with pytest.raises(BadIndex):
        base_vector("U_SIDEWAYS", 2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: base_vector(U_ODD, 2.0), BadM),
        (lambda: base_vector(U_ODD, True), BadM),
        (lambda: base_vector(U_EVEN, Fraction(2)), BadM),
        (lambda: base_vector(W, 3.0, j=1), BadM),
        (lambda: base_vector(V, 2, j=1.0), BadIndex),
        (lambda: base_vector(W, 3, j=True), BadIndex),
        (lambda: vbar(2.0), BadM),
        (lambda: vbar(True), BadM),
    ],
    ids=["U_ODD-float", "U_ODD-bool", "U_EVEN-Fraction", "W-float-m", "V-float-j",
         "W-bool-j", "vbar-float", "vbar-bool"],
)
def test_base_families_reject_parameters_that_are_not_ints(call, error):
    # A float raised a bare TypeError or built float points; True built the
    # m = 1 member.
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "kind, m, j, error",
    [(U_EVEN, 0, None, BadM), (W, 1, None, BadM), (V, 0, None, BadM), (U_ODD, 2, 1, BadIndex)],
)
def test_base_vector_rejects_each_family_out_of_range(kind, m, j, error):
    with pytest.raises(error):
        base_vector(kind, m, j)


def test_w_family_has_total_2m_and_mean_m():
    for m in range(2, 13):
        for j in range(1, m):
            counts = base_vector(W, m, j)
            assert sum(counts.values()) == 2 * m
            assert mean(normalized(counts)) == m


def test_vbar_examples():
    assert vbar(1) == dist_of({1: Fraction(1, 3), 2: Fraction(2, 3)})
    halves = mix([(Fraction(1, 2), base_dist(V, 2, j=1)), (Fraction(1, 2), base_dist(V, 2, j=2))])
    assert vbar(2) == halves
    assert mean(vbar(2)) == mean(halves)
    for m in range(1, 25):
        share = Fraction(1, m)
        mixture = mix([(share, base_dist(V, m, j)) for j in range(1, m + 1)])
        assert vbar(m).items == mixture.items
    with pytest.raises(BadM):
        vbar(0)


def test_mix_examples():
    d = base_dist(U_ODD, 3)
    assert mix([(1, d)]) == d
    assert mix([(Fraction(1, 2), point_mass(0)), (Fraction(1, 2), point_mass(2))]) == dist_of(
        {0: Fraction(1, 2), 2: Fraction(1, 2)}
    )
    thirds = mix(
        [(Fraction(1, 3), base_dist(U_ODD, 1)), (Fraction(2, 3), base_dist(U_EVEN, 1))]
    )
    assert thirds == dist_of({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})


def test_mix_rejects_bad_weights():
    d = point_mass(1)
    with pytest.raises(BadWeights):
        mix([(Fraction(1, 2), d)])
    with pytest.raises(BadWeights):
        mix([(Fraction(3, 2), d), (Fraction(-1, 2), point_mass(0))])
    # Exact as they are, 0.5, 1.0 and True are not ints or Fractions.
    for weight in (0.5, 1.0, True):
        with pytest.raises(BadWeights):
            mix([(weight, d), (1 - Fraction(weight), point_mass(2))])


@pytest.mark.parametrize(
    "weights",
    [
        {0.5: 1},
        {1.0: 1},
        {True: 1},
        {0: 0.5, 1: 0.5},
        {0: 1.0},
        {0: True},
        {Fraction(1): 1},
    ],
)
def test_from_weights_rejects_inexact_points_and_weights(weights):
    # A float point used to be truncated ({0.5: 1} gave the point mass at 0).
    with pytest.raises(BadWeights):
        Dist.from_weights(weights)


def test_mix_drops_zero_weight_parts():
    kept = mix([(0, point_mass(9)), (1, point_mass(1))])
    assert kept == point_mass(1)
    assert 9 not in kept.support()


def test_mean_examples():
    assert mean(point_mass(5)) == 5
    assert mean(base_dist(U_EVEN, 3)) == 3
    assert mean(base_dist(V, 1, j=1)) == Fraction(5, 3)


def test_payoff_examples():
    assert payoff_H(point_mass(1), point_mass(0)) == 1
    d = base_dist(U_EVEN, 2)
    assert payoff_H(d, d) == 0
    assert payoff_H(base_dist(U_ODD, 2), point_mass(2)) == 0


@given(small_dists, small_dists)
def test_payoff_antisymmetry(x, y):
    assert payoff_H(x, y) == -payoff_H(y, x)


@given(small_counts, st.integers(min_value=0, max_value=12))
def test_gain_table_is_payoff_of_point_masses(counts, top):
    table = gain_table(counts, top)
    total = sum(counts.values())
    assert len(table) == top + 1
    for t, gain in enumerate(table):
        assert type(gain) is int
        assert gain == total * payoff_H(point_mass(t), normalized(counts))


@given(small_counts, st.integers(min_value=0, max_value=12), st.data())
def test_gain_table_prefix_is_the_shorter_table(counts, top, data):
    # Each entry depends on t alone, so the certifier's DP can read the first
    # cap + 1 entries of a matrix's table up to top.
    cap = data.draw(st.integers(min_value=0, max_value=top))
    assert gain_table(counts, top)[: cap + 1] == gain_table(counts, cap)


def sorted_sweep_gain_table(counts, top):
    """The gain table by one sweep over the sorted support, entry by entry."""
    total = sum(counts.values())
    points = sorted(counts)
    table = []
    below = 0
    index = 0
    for t in range(top + 1):
        while index < len(points) and points[index] < t:
            below += counts[points[index]]
            index += 1
        table.append(2 * below + counts.get(t, 0) - total)
    return table


@given(small_counts, st.data())
def test_gain_table_matches_the_sorted_sweep(counts, data):
    # Tops from below the largest point, which the table then never reaches,
    # to past it, where the table is flat.
    top = data.draw(st.integers(min_value=0, max_value=max(counts) + 4))
    assert gain_table(counts, top) == sorted_sweep_gain_table(counts, top)


@given(small_counts, st.integers(min_value=0, max_value=4), st.integers(1, 6), st.data())
def test_hull_height_is_the_best_chord_and_flat_past_the_table(counts, extra, den, data):
    top = max(counts) + 1 + extra
    gain = gain_table(counts, top)
    num = data.draw(st.integers(min_value=0, max_value=(top + 2) * den))
    n, d = hull_height(upper_hull(gain, range(top + 1)), num, den)
    x = Fraction(num, den)
    chords = [
        gain[i] + (gain[j] - gain[i]) * (x - i) / (j - i)
        for i in range(top + 1)
        for j in range(i + 1, top + 1)
        if i <= x <= j
    ]
    assert type(n) is int and type(d) is int and d > 0
    assert Fraction(n, d) == (max(chords) if x < top else gain[top])


def test_gain_table_rejects_empty_or_negative_counts():
    with pytest.raises(BadWeights):
        gain_table({}, 3)
    with pytest.raises(BadWeights):
        gain_table({0: 2, 1: -1}, 3)
    with pytest.raises(BadWeights):
        gain_table({-1: 1, 2: 1}, 3)


@given(small_dists, small_dists, st.integers(min_value=0, max_value=6))
def test_mean_of_mix_is_mix_of_means(x, y, sixths):
    w = Fraction(sixths, 6)
    assert mean(mix([(w, x), (1 - w, y)])) == w * mean(x) + (1 - w) * mean(y)


def test_grid_family_means():
    for m in range(1, 13):
        assert mean(base_dist(U_ODD, m)) == m
        assert mean(base_dist(U_EVEN, m)) == m
        if m >= 2:
            assert mean(base_dist(U_ODD_UP, m)) == m


def test_zero_padded_odd_up_equals_shifted_even_grid():
    # (1 - b/m)*d0 + (b/m)*U_ODD_UP(m) == (1 - b/(m-1))*d0 + (b/(m-1))*U_EVEN(m-1);
    # both sides are probability mixtures only while b <= m - 1.
    rng = random.Random(11)
    for m in range(2, 11):
        for _ in range(4):
            b = Fraction(rng.randint(1, 6 * (m - 1)), 6)
            lhs = mix([(1 - b / m, point_mass(0)), (Fraction(b, m), base_dist(U_ODD_UP, m))])
            rhs = mix(
                [(1 - b / (m - 1), point_mass(0)), (b / (m - 1), base_dist(U_EVEN, m - 1))]
            )
            assert lhs == rhs
        beyond = Fraction(2 * m - 1, 2)
        with pytest.raises(BadWeights):
            mix(
                [
                    (1 - beyond / (m - 1), point_mass(0)),
                    (beyond / (m - 1), base_dist(U_EVEN, m - 1)),
                ]
            )


def test_vec_helpers():
    assert vec_add({0: 1, 2: 1}, {2: 2, 4: 1}) == {0: 1, 2: 3, 4: 1}
    assert vec_scale(3, {1: 1, 3: 2}) == {1: 3, 3: 6}


def test_normalized_counts():
    assert normalized({0: 2, 2: 2, 4: 2}) == base_dist(U_EVEN, 2)


@pytest.mark.parametrize(
    "counts",
    [{1: 0.5}, {1: True}, {0: 1, 1: 2.0}, {0: 1, 1: Fraction(1)}],
    ids=["float", "bool", "float-beside-int", "fraction"],
)
def test_normalized_rejects_counts_that_are_not_ints(counts):
    # {1: 0.5} used to raise a bare TypeError and {1: True} gave a point mass.
    with pytest.raises(BadWeights, match="^counts must be ints"):
        normalized(counts)


def test_json_round_trip():
    d = mix([(Fraction(1, 3), point_mass(0)), (Fraction(2, 3), base_dist(U_ODD, 2))])
    blob = dist_to_json(d)
    assert blob == {"weights": {"0": "1/3", "1": "1/3", "3": "1/3"}}
    assert dist_from_json(blob) == d


@given(small_dists)
def test_json_round_trip_random(d):
    assert dist_from_json(dist_to_json(d)) == d
