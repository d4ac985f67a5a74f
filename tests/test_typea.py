"""The reindexing onto the rational family with a marked origin."""

from fractions import Fraction

import pytest

from trigbethe.typea import (RationalTarget, TrigSource, check_sample,
                             marked_points, reindex_map, sample_z,
                             spans_match)


def fracs(*vals):
    return tuple(Fraction(v) for v in vals)


def tau(src, k):
    """The source vector tau_k."""
    vec = src.zero()
    vec[len(src.pairs) + k - 1] = Fraction(1)
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
    assert check_sample(src, tgt, z) == ([], True)


def test_reindex_fixture_n2():
    src = TrigSource(2)
    tgt = RationalTarget(2)
    z = fracs(2, 3)
    # u = z1/z2 = 2/3, weight -u/(u-1) = 2, so B_1 = tau_1 + 2 t_{12}
    b1 = src.bethe(z, 1)
    expected = src.zero()
    expected[src._index[(1, 2)]] = Fraction(2)
    expected[len(src.pairs)] = Fraction(1)
    assert b1 == expected
    # image: -t_{01} + 2 t_{12}
    img = reindex_map(src, tgt, b1)
    vec = tgt.zero()
    tgt.add_pair(vec, 0, 1, -1)
    tgt.add_pair(vec, 1, 2, 2)
    assert img == vec
    # and that equals -z_1 times the rational element at (0, 2, 3)
    g1 = tgt.gaudin(marked_points(z), 1)
    assert img == [-(z[0] * c) for c in g1]


def test_identity_all_indices_n2_n3():
    for n in (2, 3):
        src = TrigSource(n)
        tgt = RationalTarget(n)
        for seed in range(6):
            z = sample_z(n, seed)
            assert check_sample(src, tgt, z) == ([], True)
            assert spans_match(src, tgt, z)


def test_identity_fails_without_marked_point_scaling():
    src = TrigSource(2)
    tgt = RationalTarget(2)
    z = fracs(2, 3)
    img = reindex_map(src, tgt, src.bethe(z, 1))
    g1 = tgt.gaudin(marked_points(z), 1)
    assert img != g1                       # unscaled comparison is false
    assert img != [z[0] * c for c in g1]   # positive scaling is false too


def test_check_sample_names_the_failing_index():
    class Shifted(TrigSource):
        # the third element loses its tau entry, so neither identity holds
        def bethe(self, z, k):
            vec = super().bethe(z, k)
            if k == 3:
                vec[len(self.pairs) + 2] = Fraction(0)
            return vec

    src = Shifted(3)
    tgt = RationalTarget(3)
    assert check_sample(src, tgt, sample_z(3, 0)) == ([3], False)


def test_bethe_coincident_coordinates_rejected():
    src = TrigSource(2)
    with pytest.raises(ZeroDivisionError):
        src.bethe(fracs(5, 5), 1)
    with pytest.raises(ValueError):
        src.bethe(fracs(2, 3), 0)


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


def test_int_and_fraction_input_give_fraction_entries():
    src, tgt = TrigSource(3), RationalTarget(3)
    outs = []
    for z in ((2, 3, 5), fracs(2, 3, 5), (Fraction(2), 3, Fraction(5))):
        out = [src.bethe(z, k) for k in (1, 2, 3)]
        out += [reindex_map(src, tgt, v) for v in out]
        out += tgt.gaudin_span(marked_points(z)) + [tau(src, 2), tgt.zero()]
        assert all(type(c) is Fraction for v in out for c in v), z
        assert check_sample(src, tgt, z) == ([], True)
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    # 1/d stays exact for int marked points too
    assert tgt.gaudin((0, 2, 3, 5), 1)[tgt._index[(1, 2)]] == Fraction(-1)
    assert all(type(v) is Fraction for v in sample_z(3, 0))
