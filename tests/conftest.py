import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def all_buckets(samples) -> np.ndarray:
    """All N bucket values of a SampleSet in frame order, from one pass of
    its batches."""
    return np.concatenate([b for _, _, b in samples.iter_batches()])


@pytest.fixture
def lgamma_args(monkeypatch) -> list:
    """Every argument fracgi.theory._lgamma is given during the test, one per element."""
    from fracgi import theory

    seen = []
    lgamma = theory._lgamma

    def recorded(x):
        seen.extend(np.ravel(x).tolist())
        return lgamma(x)

    monkeypatch.setattr(theory, "_lgamma", recorded)
    return seen
