import os

# One BLAS thread, as the benchmark runs: on a small host a multi-threaded
# BLAS can stall the first mid-sized QR of a process. BLAS reads these when
# numpy loads, so they only need to be set before that: freelines binds
# numpy lazily, and numpy loads at the first kernel or float call, or when a
# test module imports it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest  # noqa: E402

from freelines import fixtures  # noqa: E402


@pytest.fixture(scope="session")
def boolean():
    return fixtures.boolean_arrangement()


@pytest.fixture(scope="session")
def near_pencil5():
    return fixtures.near_pencil(5)


@pytest.fixture(scope="session")
def free13():
    return fixtures.free_13()


@pytest.fixture(scope="session")
def free19():
    return fixtures.free_19()


@pytest.fixture(scope="session")
def free20():
    return fixtures.free_20()


@pytest.fixture(scope="session")
def generic4():
    return fixtures.generic_four()
