import pytest

from campc.numqp import SoftQP, random_soft_qp  # noqa: F401, tests import it here


def scalar_qp(c=0.5, rho=10.0):
    """1-d problem: min v^2 - 2v + rho*eps  s.t.  v <= c + eps."""
    return SoftQP(H=[[2.0]], F=[[2.0]], W=[[1.0]], c=[c],
                  L=[[0.0]], rho=[rho])


@pytest.fixture(scope="session")
def thermal_setup():
    """Thermal benchmark model/problem built once per session."""
    from campc import thermal2d

    return thermal2d.build_thermal_benchmark()
