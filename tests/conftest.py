"""Test-scale results several test modules read.

Figure 5 and Figure 6 at ``TEST_SCALE`` take seconds each; the golden
comparison (``test_golden_regression.py``) and the shape assertions
(``test_experiments_figures.py``) share one run of each. No test may
mutate a shared result: the golden comparison would then read the
mutation, not the run.
"""

import pytest

from repro.experiments.config import TEST_SCALE
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6


@pytest.fixture(scope="session")
def figure5():
    return run_figure5(TEST_SCALE)


@pytest.fixture(scope="session")
def figure6():
    return run_figure6(TEST_SCALE)
