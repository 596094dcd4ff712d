import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import digraphsub
from digraphsub import cab
from digraphsub.core import Digraph, build_digraph


def rand_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    """Random digraph: each ordered pair becomes an arc with probability p."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return build_digraph(n, arcs)


def rand_out_digraph(rng: random.Random, n: int, k: int) -> Digraph:
    """Every vertex gets exactly k distinct random out-neighbours."""
    if k > n - 1:
        raise ValueError("k too large")
    arcs = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        for v in rng.sample(others, k):
            arcs.append((u, v))
    return build_digraph(n, arcs)


def grown_from(chain) -> "cab._Growth":
    """cab's growth state grown arc by arc to hold ``chain`` up to its
    last gadget-carrying arc; the chain's first arc must carry one."""
    growth = cab._Growth(chain.spine[0])
    for idx in sorted(chain.gadgets):
        if not growth.extend(chain.spine[growth.m + 1 : idx + 1], chain.gadgets[idx]):
            raise ValueError("the chain's spine repeats a vertex")
    return growth


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD1F)


def run_script(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter (with ``flags``, e.g. ``-O``)
    that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(digraphsub.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=60,
    )
