import pytest

from hypercong import series

# Every memo series keeps between calls; test_series checks that none is missing here.
MEMOS = (series._ratio_sum, series._binomial_sums, series._offset_walk)


@pytest.fixture
def memos():
    return MEMOS


@pytest.fixture
def clear_memos():
    """Empties the series memos at set-up and on each call: a test that swaps a kernel
    calls it after the swap, so the kernel runs instead of a sum an earlier call kept."""
    def clear():
        for memo in MEMOS:
            memo.cache_clear()

    clear()
    return clear
