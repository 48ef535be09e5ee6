from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from relalg import Carrier, Relation, from_pairs
from relalg.laws import KIND_VALIDATORS, REGISTRY


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def pack(na: int, nb: int, pairs, src: str = "A", dst: str = "B") -> Relation:
    """Build a package relation from oracle-style index pairs."""
    return from_pairs(Carrier(src, na), Carrier(dst, nb), sorted(pairs))


def unpack(r: Relation) -> frozenset:
    """Project a package relation down to the oracle representation."""
    return frozenset(r.pairs())


def failing_laws(law_ids, *args: Relation) -> list[str]:
    """The registry laws among law_ids that fail on this one instance.

    Each law takes the arguments in its variable order; its carriers are read
    off the arguments, which must have the kinds the law declares.
    """
    failed = []
    for law_id in law_ids:
        law = REGISTRY[law_id]
        carriers: dict[str, Carrier] = {}
        for v, r in zip(law.vars, args, strict=True):
            assert KIND_VALIDATORS[v.kind](r), (law_id, v.kind, r)
            for tv, c in ((v.src, r.src), (v.dst, r.dst)):
                assert carriers.setdefault(tv, c) == c, (law_id, tv)
        if not law.check(args, carriers):
            failed.append(law_id)
    return failed


@st.composite
def relations(draw, max_size: int = 4, src: str = "A", dst: str = "B"):
    na = draw(st.integers(min_value=1, max_value=max_size))
    nb = draw(st.integers(min_value=1, max_value=max_size))
    bits = draw(st.integers(min_value=0, max_value=(1 << (na * nb)) - 1))
    pairs = [(k // nb, k % nb) for k in range(na * nb) if (bits >> k) & 1]
    return pack(na, nb, pairs, src=src, dst=dst)


@st.composite
def homogeneous_relations(draw, max_size: int = 4, name: str = "A"):
    n = draw(st.integers(min_value=1, max_value=max_size))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * n)) - 1))
    pairs = [(k // n, k % n) for k in range(n * n) if (bits >> k) & 1]
    return pack(n, n, pairs, src=name, dst=name)


@pytest.fixture
def block():
    """Two-block difunction: a 2x2 full block plus an isolated loop."""
    return pack(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
