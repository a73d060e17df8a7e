import tracemalloc

import pytest

from mhbound.kernel import MhKernel
from mhbound.models import DensityModel, ProposalModel


@pytest.fixture(scope="session")
def laplace_tri():
    return MhKernel(DensityModel("laplace"), ProposalModel("triangular"))


@pytest.fixture(scope="session")
def gauss_tri():
    return MhKernel(DensityModel("gauss"), ProposalModel("triangular"))


@pytest.fixture(scope="session", params=["laplace", "gauss"])
def builtin_kernel(request, laplace_tri, gauss_tri):
    return laplace_tri if request.param == "laplace" else gauss_tri


@pytest.fixture(scope="session")
def expr_laplace_tri():
    return MhKernel(DensityModel("expr", source="exp(-abs(x))"), ProposalModel("triangular"))


@pytest.fixture
def peak_mb():
    """Peak of the memory that Python and numpy allocate during a call, in MB
    (tracemalloc)."""

    def measure(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return measure
