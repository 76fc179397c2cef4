import os
from pathlib import Path

import pytest

from knotcolour import abelian, classify

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """pythonpath in pyproject.toml puts src/ on sys.path of this process
    only; a child `python -m knotcolour.cli` finds it through PYTHONPATH."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def d6():
    return abelian.make_group(2, (3,), ((2,),))


@pytest.fixture(scope="session")
def d10():
    return abelian.make_group(2, (5,), ((4,),))


@pytest.fixture(scope="session")
def d14():
    return abelian.make_group(2, (7,), ((6,),))


@pytest.fixture(scope="session")
def c3z7():
    return abelian.make_group(3, (7,), ((2,),))


@pytest.fixture(scope="session")
def c4z5():
    return abelian.make_group(4, (5,), ((2,),))


@pytest.fixture(scope="session")
def a4():
    return classify.a4_spec()


@pytest.fixture(scope="session")
def c2_33():
    return abelian.make_group(2, (3, 3), ((2, 0), (0, 2)))


@pytest.fixture(scope="session")
def c2_35():
    return abelian.make_group(2, (3, 5), ((2, 0), (0, 4)))


@pytest.fixture(scope="session")
def c3_55():
    return abelian.make_group(3, (5, 5), ((0, 4), (1, 4)))


@pytest.fixture(scope="session")
def c7_222():
    return abelian.make_group(7, (2, 2, 2),
                              ((0, 0, 1), (1, 0, 1), (0, 1, 0)))


@pytest.fixture(scope="session")
def z46():
    # no valid action exists over Z/4 x Z/6; wedge-layer carrier only
    return abelian.unsafe_spec((4, 6))


@pytest.fixture(scope="session")
def z333():
    return abelian.make_group(2, (3, 3, 3), ((2, 0, 0), (0, 2, 0), (0, 0, 2)))


@pytest.fixture(scope="session")
def c6_93():
    # N^6 != I over Z, and no action lift: cu raises LiftFailure
    return abelian.make_group(6, (9, 3), ((2, 0), (1, 2)))


@pytest.fixture(scope="session")
def c6_93_lifted():
    # the same orders with an action that has a structured lift
    return abelian.make_group(6, (9, 3), ((2, 6), (1, 2)))
