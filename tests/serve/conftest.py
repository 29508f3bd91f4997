"""Shared serving-test world: one dataset + untrained seeded forecaster.

Session-scoped because the world is immutable from the serving layer's
point of view (servers never write the dataset or the model), and the
synthetic-ERA5 construction is the slow part of every serve test.
"""

import pytest

from repro.serve.bench import build_serve_world


@pytest.fixture(scope="session")
def serve_world():
    return build_serve_world()


@pytest.fixture(scope="session")
def dataset(serve_world):
    return serve_world[0]


@pytest.fixture(scope="session")
def forecaster(serve_world):
    return serve_world[1]


class ForwardCounter:
    """Model proxy counting forwards and the batch width of each."""

    def __init__(self, model):
        self._model = model
        self.widths: list[int] = []

    def __call__(self, x, lead_hours):
        self.widths.append(len(x))
        return self._model(x, lead_hours)

    def clear_cache(self):
        self._model.clear_cache()


def counting(forecaster):
    """``(forecaster over a ForwardCounter of the same model, the counter)``."""
    from repro.eval.rollout import RolloutForecaster

    counter = ForwardCounter(forecaster.model)
    return RolloutForecaster(counter, forecaster.normalizer), counter
