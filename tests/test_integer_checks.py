"""check commutativity and check typea in integers, against their
rational reference.

Both checks evaluate their identities at the integer point of each
rational sample: the image identity on the built integer operator, span
equality by a certificate with integer ranks as the fallback (spin and
typea modules).  tests/oracles.py keeps the rational computation, on
dense operators from Kronecker products; the verdicts of every sample
must agree with it, a certificate that misses must leave the verdict to
the fallback, and a broken identity must fail the request.
"""

import json
import random

import pytest

from trigbethe import bethe, cli, spin, typea
from trigbethe.cli import main

from oracles import spin_failures, typea_verdicts

SEEDS = range(30)
SAMPLES = 9


@pytest.mark.parametrize("n", cli.SPIN_SIZES)
def test_every_sample_agrees_with_the_rational_reference(n):
    src, tgt = typea.TrigSource(n), typea.RationalTarget(n)
    for seed in SEEDS:
        for s in range(SAMPLES):
            # the samples both checks read, drawn as the request draws them
            rng = random.Random(f"spin-check-{n}-{seed}-{s}")
            z = typea.sample_z(n, seed * 1009 + s)
            x = typea.integer_point(z)
            images = [typea.reindex_map(src, tgt, vec)
                      for vec in src.bethe_span(x)]
            theta = [[rng.randint(-9, 9), 0], [0, rng.randint(-9, 9)]]
            got = cli._spin_failures(tgt, x, images, theta)
            assert got == spin_failures(z, theta) == [], (seed, s)
            assert typea.check_sample(tgt, x, images) == \
                typea_verdicts(z) == ([], True), (seed, s)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_a_missed_certificate_leaves_the_verdict_to_the_fallback(
        capsys, monkeypatch):
    argv = ["check", "all", "--seed", "3", "--samples", "2"]
    hnf = typea.hermite_normal_form
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return hnf(rows)
    monkeypatch.setattr(typea, "hermite_normal_form", counted)
    code, out = run(capsys, argv)
    assert code == 0 and calls == []
    monkeypatch.setattr(typea, "sums_to_zero", lambda vectors, scales: False)
    assert run(capsys, argv) == (code, out)
    # three ranks for each of the 2 samples of both chain sizes
    assert len(calls) == 3 * 2 * len(cli.SPIN_SIZES)


def test_one_request_builds_each_sample_once(capsys, monkeypatch):
    # commutativity and typea read one list of samples per request, and a
    # second request in the same process draws its own
    bethe_span = typea.TrigSource.bethe_span
    calls = []

    def counted(self, x):
        calls.append((self.n, x))
        return bethe_span(self, x)
    monkeypatch.setattr(typea.TrigSource, "bethe_span", counted)
    samples = cli.build_parser().parse_args(["check", "all"]).samples
    assert run(capsys, ["check", "all"])[0] == 0
    first = calls[:]
    assert len(first) == len(cli.SPIN_SIZES) * samples == 12
    calls.clear()
    assert run(capsys, ["check", "all"])[0] == 0
    assert calls == first
    calls.clear()
    assert run(capsys, ["check", "all", "--seed", "1"])[0] == 0
    assert len(calls) == len(first) and calls != first


def _drop_tau(monkeypatch):
    bethe_span = typea.TrigSource.bethe_span

    def dropped(self, x):
        span = bethe_span(self, x)
        for k, vec in enumerate(span):
            vec[len(self.pairs) + k] = 0
        return span
    monkeypatch.setattr(typea.TrigSource, "bethe_span", dropped)


def _reweight_rows(weight):
    """HolonomySpace.bethe_family with another weight of e^alpha = u in
    place of the Bethe weight -u/(u-1); nothing else reads it."""
    def apply(monkeypatch):
        family = bethe.HolonomySpace.bethe_family

        def reweighted(self, values, hs):
            with monkeypatch.context() as m:
                m.setattr(bethe, "bethe_weight", weight)
                return family(self, values, hs)
        monkeypatch.setattr(bethe.HolonomySpace, "bethe_family", reweighted)
    return apply


def _rescale_terms(kind, factor):
    def apply(monkeypatch):
        terms = spin.hamiltonian_terms

        def changed(theta, x, k, n):
            return [(factor * c if key[0] == kind else c, key)
                    for c, key in terms(theta, x, k, n)]
        monkeypatch.setattr(spin, "hamiltonian_terms", changed)
    return apply


MUTATIONS = {
    "dropped tau term": (_drop_tau, {"commutativity", "typea"}),
    "doubled omega2 coefficient": (_rescale_terms("omega2", 2),
                                   {"commutativity"}),
    "flipped lowering sign": (_rescale_terms("lower", -1), {"commutativity"}),
    "engine rows weighted +u/(u-1)": (
        _reweight_rows(lambda u: u.over_minus_one()),
        {"commutativity", "typea"}),
    "engine rows weighted -1/(u-1)": (
        _reweight_rows(lambda u: -(u - 1).inverse()),
        {"commutativity", "typea"}),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_a_broken_identity_fails_the_request(name, capsys, monkeypatch):
    mutate, failing = MUTATIONS[name]
    mutate(monkeypatch)
    assert main(["check", "all", "--samples", "1"]) == 1
    checks = {c["name"]: c["passed"]
              for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {name for name, passed in checks.items() if not passed} == failing
