"""One benchmark per registered experiment: times its :func:`run`, which
writes ``results/<name>.txt``, and asserts its shape check. All of them
share one :class:`DatasetBundle` per dataset at the default scale."""
import pytest

from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.runner import ExperimentConfig


@pytest.fixture(scope="session")
def bundles():
    """Bundle cache shared by every experiment of the session."""
    cache = {}
    yield cache
    for b in cache.values():
        b.close()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment(benchmark, spark, bundles, name):
    failed = benchmark.pedantic(
        lambda: run(spark, [name], ExperimentConfig(), bundles),
        rounds=1, iterations=1,
    )
    assert not failed
