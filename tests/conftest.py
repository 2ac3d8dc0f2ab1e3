"""Session fixtures shared by the test modules."""

from collections import namedtuple

import pytest

from pvsieve import orbits
from pvsieve.spaces import QUARTIC

from oracles import pair_bfs

Orbits3 = namedtuple("Orbits3", "entries labels bfs")


@pytest.fixture(scope="session")
def table3():
    """The pair space's orbits at p = 3: entries, decompose_orbits'
    {label: (size, rep)}, a census over the classes of B; and from the
    exhaustive breadth-first search of oracles.pair_bfs, labels, the
    LABELS index of every state code in code order, and bfs, its own
    {label: (size, rep)} table."""
    labels, bfs = pair_bfs(3)
    return Orbits3(orbits.decompose_orbits(QUARTIC, 3), labels, bfs)
