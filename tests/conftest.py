"""Fixtures shared by the test modules."""

import pytest

from hetlora import baselines, server, tasks


def _clear_caches():
    for cache in (tasks.generate_task, baselines._batch_schedule,
                  server._selection_block):
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the process-wide caches of generated tasks, batch schedules
    and selection blocks, so that a test which counts draws, hashes or task
    builds sees every one its runs make, whatever ran before it. Returns
    the function that empties them, for a test that needs them cold again."""
    _clear_caches()
    return _clear_caches
