"""Mixture.sample consumes the generator exactly as the searchsorted form did.

The reference below is the earlier algorithm, kept verbatim: one uniform
per draw, the component index from searchsorted clipped to k - 1, then one
masked draw per non-empty component in component order.  The faster form
must give the same bytes and leave the generator in the same state.
"""

import numpy as np
import pytest

from perpetuity.distributions import (
    Exponential,
    Gamma,
    JointInput,
    Mixture,
    Negated,
    PointMass,
    SurvivalDefined,
)
from perpetuity.oracle import get_case
from perpetuity.simulate import CHUNK, SimConfig, sample_batch


def _searchsorted_sample(self, rng, size):
    u = rng.random(size)
    cum = np.cumsum([w for w, _ in self.components])
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(self.components) - 1)
    out = np.empty(size)
    for j, (_, comp) in enumerate(self.components):
        mask = idx == j
        n = int(mask.sum())
        if n:
            out[mask] = comp.sample(rng, n)
    return out


POLY_EXP = SurvivalDefined(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2 * np.exp(-np.asarray(x, dtype=float)),
                           0.0, 1.0, "poly-exp")
ATOMS_EXP_A = Mixture(((0.5, PointMass(0.25)), (0.5, PointMass(0.75))))
LAWS = {
    "two-atom": ATOMS_EXP_A,
    "three-atom": Mixture(((0.2, PointMass(-1.0)), (0.7, PointMass(0.5)), (0.1, PointMass(1.0)))),
    "E5-B": get_case("E5").joint.B,
    "E4-B": get_case("E4").joint.B,
    "E2-B": get_case("E2").joint.B,
    "one-component": Mixture(((1.0, Exponential(1.5)),)),
    # a nested Mixture draws its own uniforms even when it holds a single atom
    "nested-atoms": Mixture((
        (0.4, Mixture(((0.5, PointMass(0.0)), (0.5, PointMass(1.0))))),
        (0.35, Mixture(((1.0, PointMass(-1.0)),))),
        (0.25, PointMass(2.0)),
    )),
    "one-atom-nested": Mixture(((0.5, Mixture(((1.0, PointMass(-1.0)),))), (0.5, PointMass(2.0)))),
    "sum-below-1": Mixture(((0.3, Exponential(1.0)), (0.2, PointMass(3.0)), (0.5 - 5e-13, Negated(Exponential(2.0))))),
    "gamma-part": Mixture(((0.6, Gamma(2.5, 1.0)), (0.4, Exponential(3.0)))),
    # the inversion-table sampler
    "survival-defined-part": Mixture(((0.45, POLY_EXP), (0.55, Negated(Exponential(1.0))))),
    # the 1e-6 component is empty at most sizes
    "six-with-a-tiny-weight": Mixture((
        (0.2, Exponential(1.0)), (0.2, PointMass(0.5)), (0.3 - 1e-6, Gamma(1.5, 2.0)),
        (1e-6, Exponential(9.0)), (0.15, Negated(Exponential(2.0))), (0.15, PointMass(-1.0)),
    )),
    "difference-of-mixtures-part": Mixture(((0.7, get_case("E4").joint.B), (0.3, PointMass(1.0)))),
}


def _draw(law, method, monkeypatch, size, rng):
    with monkeypatch.context() as m:
        m.setattr(Mixture, "sample", method)
        return law.sample(rng, size)


@pytest.mark.parametrize("size", [0, 1, 7, 65_536])
@pytest.mark.parametrize("name", list(LAWS))
def test_mixture_sample_keeps_the_random_stream(name, size, monkeypatch):
    law = LAWS[name]
    got_rng, want_rng = np.random.default_rng(23), np.random.default_rng(23)
    got = law.sample(got_rng, size)
    want = _draw(law, _searchsorted_sample, monkeypatch, size, want_rng)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


class _PresetUniforms:
    """The first random(size) call returns the given uniforms; every other call goes to a real generator."""

    def __init__(self, u, seed):
        self._u = np.asarray(u, dtype=float)
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        if self._u is not None:
            u, self._u = self._u, None
            assert u.size == size
            return u.copy()
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("name", ["three-atom", "E2-B", "sum-below-1"])
def test_mixture_index_at_the_cut_points(name, monkeypatch):
    """u equal to a cumulative weight picks the next component, and u past cum[-1] the last one."""
    law = LAWS[name]
    cum = np.cumsum([w for w, _ in law.components])
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, 1.0 - 2.0 ** -53]])
    u = u[u < 1.0]
    got = law.sample(_PresetUniforms(u, 5), u.size)
    want = _draw(law, _searchsorted_sample, monkeypatch, u.size, _PresetUniforms(u, 5))
    assert got.tobytes() == want.tobytes()


JOINTS = {
    "E2": get_case("E2").joint,
    "E4": get_case("E4").joint,
    "E5": get_case("E5").joint,
    "atoms_exp": JointInput(ATOMS_EXP_A, Exponential(1.0)),
}


@pytest.mark.parametrize("name", list(JOINTS))
def test_sample_batch_unchanged_at_one_and_two_streams(name, monkeypatch):
    joint = JOINTS[name]
    n = CHUNK + 4096  # two chunks, the second short
    with monkeypatch.context() as m:
        m.setattr(Mixture, "sample", _searchsorted_sample)
        want = sample_batch(joint, SimConfig(n_samples=n, master_seed=13))
    for streams in (1, 2):
        got = sample_batch(joint, SimConfig(n_samples=n, master_seed=13, n_streams=streams))
        assert got.values.tobytes() == want.values.tobytes()
        assert got.terms_used.tobytes() == want.terms_used.tobytes()
        assert got.truncated.tobytes() == want.truncated.tobytes()


def test_mixture_caches_leave_equality_and_hash_alone():
    again = Mixture(((0.5, PointMass(0.25)), (0.5, PointMass(0.75))))
    assert again == ATOMS_EXP_A and hash(again) == hash(ATOMS_EXP_A)
    assert repr(again) == "Mixture(components=((0.5, PointMass(value=0.25)), (0.5, PointMass(value=0.75))))"
