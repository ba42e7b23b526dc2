import random
from itertools import islice

import pytest

from braidforge.braid import Braid
from braidforge.degeneration import build_tt, phi8
from braidforge.factorization import COMPOSITE_TAG, Factor, Factorization
from braidforge.regeneration import DoublingMap, regen_rule2, regenerate


@pytest.fixture(scope="session")
def graph():
    return build_tt()


@pytest.fixture(scope="session")
def phi8_fz(graph):
    return phi8(graph)


@pytest.fixture(scope="session")
def regen_fz(graph):
    return regenerate(graph)


def splice_stage_a(graph, parent):
    """The regeneration of parent with each cabled parasitic factor replaced
    by the four node factors of `regen_rule2(.., "both")`, each transported
    by the cable of its parent's transport, under the parent's label."""
    dm = DoublingMap(range(1, graph.n_lines + 1))
    child = iter(regenerate(graph, parent).factors)
    out = []
    for f in parent.factors:
        if f.tag == COMPOSITE_TAG:
            out.extend(islice(child, 30))
            continue
        c = next(child).transport
        out.extend(Factor(h.core, 2, "node", h.transport * c, f.label)
                   for h in regen_rule2(Factor(f.core, 2, "node"), dm, "both"))
    out.extend(child)
    return Factorization(2 * graph.n_lines, out)


@pytest.fixture(scope="session")
def stage_a_splice(graph, phi8_fz):
    return splice_stage_a(graph, phi8_fz)


@pytest.fixture
def rng():
    return random.Random(20260824)


def random_braid(rng, n, length=6):
    return Braid(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(length)])
