"""The fast samplers consume the generator exactly as numpy's own calls do.

Exponential draws rng.standard_exponential and scales it in place, Uniform
and Beta(p, 1) map rng.random in place and skip the passes that would leave
the bits as they are, and Affine maps its inner draws in place.  Each must
give the bytes of the plain numpy expression below and leave the generator
in the same state.
"""

import numpy as np
import pytest

from perpetuity.distributions import Affine, Beta, Exponential, Mixture, PointMass, Uniform

SIZES = [0, 1, 7, 65_536]


def _same_stream(law, reference, size):
    got_rng, want_rng = np.random.default_rng(29), np.random.default_rng(29)
    got = law.sample(got_rng, size)
    want = reference(want_rng, size)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == (size,)
    assert got.tobytes() == want.tobytes()
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("rate", [0.7, 1.0, 2.0])
def test_exponential_keeps_the_rng_exponential_stream(rate, size):
    _same_stream(Exponential(rate), lambda rng, n: rng.exponential(scale=1.0 / rate, size=n), size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.25, 1.0), (-0.5, 0.5)])
def test_uniform_keeps_the_rng_uniform_stream(lo, hi, size):
    _same_stream(Uniform(lo, hi), lambda rng, n: rng.uniform(lo, hi, size=n), size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_beta_p_1_is_the_inverted_cdf_stream(p, size):
    _same_stream(Beta(p, 1.0), lambda rng, n: rng.random(n) ** (1.0 / p), size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("law", [
    Affine(Exponential(2.0), -1.0),
    Affine(Beta(2.0, 1.0), -1.0, 1.0),
    Affine(Mixture(((0.5, PointMass(0.25)), (0.5, PointMass(0.75)))), 3.0, -0.5),
], ids=["negated", "shifted", "atoms"])
def test_affine_maps_its_draws_as_map_does(law, size):
    _same_stream(law, lambda rng, n: law._map(law.inner.sample(rng, n)), size)
