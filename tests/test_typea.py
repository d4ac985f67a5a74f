"""The reindexing onto the rational family with a marked origin."""

from fractions import Fraction

import pytest

from trigbethe import bethe, typea
from trigbethe.typea import (RationalTarget, TrigSource, check_sample,
                             integer_point, marked_points, reindex_map,
                             sample_z, spans_match, sums_to_zero)


def fracs(*vals):
    return tuple(Fraction(v) for v in vals)


def verdicts(src, tgt, z):
    """check_sample at the integer point of z, on the images of src's
    span there."""
    x = integer_point(z)
    return check_sample(tgt, x, [reindex_map(src, tgt, vec)
                                 for vec in src.bethe_span(x)])


def tau(src, k):
    """The source vector tau_k."""
    vec = src.zero()
    vec[len(src.pairs) + k - 1] = 1
    return vec


def test_reindex_n1():
    src = TrigSource(1)
    tgt = RationalTarget(1)
    # tau_1 maps to -t_{01}; the lone rational element at (0, z) is t_{01}/z
    img = reindex_map(src, tgt, tau(src, 1))
    vec = tgt.zero()
    tgt.add_pair(vec, 0, 1, -1)
    assert img == vec
    z = fracs(7)
    assert verdicts(src, tgt, z) == ([], True)


def test_reindex_fixture_n2():
    src = TrigSource(2)
    tgt = RationalTarget(2)
    x = (2, 3)
    # u = x1/x2 = 2/3, weight -u/(u-1) = 2, so B_1 = tau_1 + 2 t_{12},
    # times P_1 = x1 - x2 = -1
    b1 = src.bethe_span(x)[0]
    expected = src.zero()
    expected[src._index[(1, 2)]] = -2
    expected[len(src.pairs)] = -1
    assert b1 == expected
    # image: t_{01} - 2 t_{12}
    img = reindex_map(src, tgt, b1)
    vec = tgt.zero()
    tgt.add_pair(vec, 0, 1, 1)
    tgt.add_pair(vec, 1, 2, -2)
    assert img == vec
    # the rational element at (0, 2, 3), t_{01}/2 - t_{12}, times its
    # scale (2 - 0)(2 - 3) = -2 = x_1 P_1; the image is minus that
    points = marked_points(x)
    g1 = tgt.gaudin(points, 1)
    assert tgt.scale(points, 1) == -2
    assert g1 == [-1, 0, 2]
    assert img == [-c for c in g1]


def test_identity_all_indices_n2_n3():
    for n in (2, 3):
        src = TrigSource(n)
        tgt = RationalTarget(n)
        for seed in range(6):
            assert verdicts(src, tgt, sample_z(n, seed)) == ([], True)


def test_identity_fails_without_marked_point_scaling():
    src = TrigSource(2)
    tgt = RationalTarget(2)
    x = (2, 3)
    img = reindex_map(src, tgt, src.bethe_span(x)[0])
    g1 = tgt.gaudin(marked_points(x), 1)
    assert img == [-c for c in g1]
    assert img != g1                              # the sign is needed
    assert img != [-x[0] * c for c in g1]         # and no further z_k


def test_check_sample_names_the_failing_index():
    class Shifted(TrigSource):
        # the third element loses its tau entry, so neither identity holds
        def bethe_span(self, z):
            span = super().bethe_span(z)
            span[2][len(self.pairs) + 2] = Fraction(0)
            return span

    src = Shifted(3)
    tgt = RationalTarget(3)
    assert verdicts(src, tgt, sample_z(3, 0)) == ([3], False)


def test_each_pair_weight_is_computed_once_per_point(monkeypatch):
    # the weights are the engine's: bethe_family calls bethe.bethe_weight
    # once per root of A3 at each point
    calls = []

    def counted(u):
        calls.append(u.as_rational())
        return engine_weight(u)
    engine_weight = bethe.bethe_weight
    monkeypatch.setattr(bethe, "bethe_weight", counted)
    assert not hasattr(typea, "bethe_weight")
    src = TrigSource(4)
    points = [integer_point(sample_z(4, seed)) for seed in range(3)]
    fresh = [TrigSource(4).bethe_span(x) for x in points]
    calls.clear()
    # back and forth between points: each span is its point's alone
    for x, want in zip(points + points[:1], fresh + fresh[:1]):
        assert src.bethe_span(x) == want
    assert len(calls) == 4 * len(src.pairs)
    assert sorted(calls) == sorted(Fraction(x[i - 1], x[j - 1])
                                   for x in points + points[:1]
                                   for i, j in src.pairs)


def test_bethe_coincident_coordinates_rejected():
    src = TrigSource(2)
    with pytest.raises(ZeroDivisionError):
        src.bethe_span(fracs(5, 5))
    # one element per index 1..n
    assert len(src.bethe_span(fracs(2, 3))) == 2
    # rational coordinates are cleared by integer_point first
    with pytest.raises(ValueError):
        src.bethe_span((Fraction(1, 2), Fraction(1, 3)))


def test_gaudin_distinct_points_required():
    tgt = RationalTarget(2)
    with pytest.raises(ZeroDivisionError):
        tgt.gaudin(fracs(0, 0, 1), 1)


def test_sample_z_distinct_nonzero_deterministic():
    for n in (2, 3, 4):
        z1 = sample_z(n, 11)
        z2 = sample_z(n, 11)
        assert z1 == z2
        assert len(set(z1)) == n
        assert all(v != 0 for v in z1)


def test_size_mismatch_rejected():
    src = TrigSource(2)
    tgt = RationalTarget(3)
    with pytest.raises(ValueError):
        reindex_map(src, tgt, tau(src, 1))


def test_integer_point_clears_denominators_and_keeps_ratios():
    assert integer_point((Fraction(1, 2), Fraction(2, 3), 5)) == (3, 4, 30)
    assert integer_point((2, 3, 5)) == (2, 3, 5)
    assert integer_point((Fraction(-4, 6), Fraction(1, 9))) == (-6, 1)
    for n in (2, 3):
        for seed in range(10):
            z = sample_z(n, seed)
            x = integer_point(z)
            assert all(type(v) is int for v in x)
            assert len({Fraction(v) / z[i] for i, v in enumerate(x)}) == 1


def test_vectors_are_integer_and_verdicts_scale_free():
    # the identities are homogeneous of degree 0: the same verdicts for
    # int, Fraction and rescaled input, on integer vectors throughout
    src, tgt = TrigSource(3), RationalTarget(3)
    outs = []
    for z in ((2, 3, 5), fracs(2, 3, 5), (Fraction(2), 3, Fraction(5)),
              fracs(Fraction(2, 7), Fraction(3, 7), Fraction(5, 7))):
        x = integer_point(z)
        out = src.bethe_span(x)
        out += [reindex_map(src, tgt, v) for v in out]
        out += tgt.gaudin_span(marked_points(x)) + [tau(src, 2), tgt.zero()]
        assert all(type(c) is int for v in out for c in v), z
        assert verdicts(src, tgt, z) == ([], True)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2] == outs[3]
    assert all(type(v) is Fraction for v in sample_z(3, 0))


def test_rational_elements_sum_to_zero():
    tgt = RationalTarget(3)
    points = marked_points(integer_point(sample_z(3, 4)))
    elements = tgt.gaudin_span(points)
    scales = [tgt.scale(points, k) for k in tgt.indices]
    assert sums_to_zero(elements, scales)
    # a wrong scale or a changed entry breaks the sum
    assert not sums_to_zero(elements, [2 * scales[0], *scales[1:]])
    broken = [list(v) for v in elements]
    broken[2][0] += 1
    assert not sums_to_zero(broken, scales)


def count_hermite_forms(monkeypatch):
    """Count the Hermite forms spans_match computes: none when its
    certificate applies."""
    calls = []
    hnf = typea.hermite_normal_form

    def counted(rows):
        calls.append(len(rows))
        return hnf(rows)
    monkeypatch.setattr(typea, "hermite_normal_form", counted)
    return calls


def test_span_equality_falls_back_to_integer_ranks(monkeypatch):
    src, tgt = TrigSource(3), RationalTarget(3)
    x = integer_point(sample_z(3, 2))
    points = marked_points(x)
    images = [reindex_map(src, tgt, vec) for vec in src.bethe_span(x)]
    elements = tgt.gaudin_span(points)
    scales = [tgt.scale(points, k) for k in tgt.indices]
    calls = count_hermite_forms(monkeypatch)

    def settled(images, elements, scales):
        """The verdict, and whether the ranks were needed for it."""
        calls.clear()
        return spans_match(images, elements, scales), bool(calls)

    assert settled(images, elements, scales) == (True, False)
    # twice an image is the same span, and so are the images in another
    # order; the certificate does not apply, so the ranks decide
    doubled = [[2 * c for c in images[0]], *images[1:]]
    assert settled(doubled, elements, scales) == (True, True)
    assert settled(images[1:] + images[:1], elements, scales) == (True, True)
    # nor does it without a scale per element
    assert settled(images, elements, scales[:3]) == (True, True)
    assert settled(images, elements, [0, *scales[1:]]) == (True, True)
    # a lost image or a changed element is a different span
    assert settled(images[:2], elements, scales) == (False, True)
    assert settled([], elements, scales) == (False, True)
    broken = [list(v) for v in elements]
    broken[2][0] += 1
    assert settled(images, broken, scales) == (False, True)


def test_certificate_miss_takes_the_fallback(monkeypatch):
    monkeypatch.setattr(typea, "sums_to_zero", lambda vectors, scales: False)
    calls = count_hermite_forms(monkeypatch)
    for n in (2, 3):
        src, tgt = TrigSource(n), RationalTarget(n)
        for seed in range(4):
            assert verdicts(src, tgt, sample_z(n, seed)) == ([], True)
    assert len(calls) == 3 * 8
