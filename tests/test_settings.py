"""settings.forked: the package's one way to run work in worker processes."""

import time

import pytest

from dropoutlab.settings import forked


def test_a_failed_call_cancels_the_queued_ones(tmp_path):
    """The first call raises while the rest wait in the queue: its error
    leaves the block, and the queued calls do not all run first."""
    def task(i):
        (tmp_path / str(i)).touch()
        if i == 0:
            raise ValueError("call 0 failed")
        time.sleep(0.1)

    with pytest.raises(ValueError, match="call 0 failed"):
        with forked(task, 1) as submit:
            results = [submit(i) for i in range(8)]
            for result in results:
                result()
    ran = {int(p.name) for p in tmp_path.iterdir()}
    assert 0 in ran and len(ran) < 8
