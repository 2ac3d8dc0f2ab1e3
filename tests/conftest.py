"""Session fixtures shared by the test modules."""

from collections import namedtuple

import pytest

from pvsieve import orbits
from pvsieve.spaces import QUARTIC

Orbits3 = namedtuple("Orbits3", "entries labels")


@pytest.fixture(scope="session")
def table3():
    """The pair space's orbits at p = 3, from two breadth-first searches:
    entries, decompose_orbits' {label: (size, rep)}, and labels, the LABELS
    index of every state code in code order, from a closure of its own
    (orbits._closure) whose representatives classify_batch labels, as
    decompose_orbits labels its own."""
    p = 3
    index, _, reps = orbits._closure(
        p ** 12, [orbits._pair_move(g2, g3, p)
                  for g2, g3 in orbits.generators(p)])
    rep_labels = orbits.classify_batch(QUARTIC, orbits.decode_states(reps, p),
                                       p)
    return Orbits3(orbits.decompose_orbits(QUARTIC, p), rep_labels[index])
