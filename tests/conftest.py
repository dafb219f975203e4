import numpy as np
from hypothesis import settings

# Property tests draw the same examples on every run, and keep no example database between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov distance between an empirical sample and a continuous CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - f)
    lo = np.max(f - np.arange(0, n) / n)
    return float(max(hi, lo))
