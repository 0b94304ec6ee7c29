"""A fixed piece of pure-Python work that measures the machine's current speed.

A shared virtual machine runs Python at a speed that shifts by up to a
quarter in phases of seconds to minutes, and a whole run can fall into
one slow phase.  The benchmark therefore runs a reference chunk between
commands and reports each command's time scaled to a fixed reference
speed: ``seconds * REFERENCE_S / chunk seconds``, with the chunk time
taken around that command.  A change to the program moves the scaled
time as much as the raw one; a change in the machine's speed moves both
the command and the chunk, and cancels.

The chunk is two breadth-first searches over a fixed random digraph of
3000 nodes: dict lookups, list appends and integer work, like the
interpreter-bound code of the package, on data small enough to stay in
cache.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# The chunk's time on an idle core of the 2-vCPU Intel Xeon virtual
# machine the reference figures in README.md come from.  Scaled times
# read as seconds on that machine at that speed.
REFERENCE_S = 0.0022

_NODES = 3000
_rng = random.Random(0)
_GRAPH = {v: [_rng.randrange(_NODES) for _ in range(3)] for v in range(_NODES)}


def _bfs() -> int:
    depth = {0: 0}
    queue = [0]
    i = 0
    while i < len(queue):
        v = queue[i]
        i += 1
        for w in _GRAPH[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return sum(depth.values())


def chunk() -> float:
    """Run the reference chunk once and return its wall time in seconds.

    One untimed search first brings the graph back into cache, so the
    timed ones measure the machine, not what the last command evicted.
    """
    _bfs()
    started = perf_counter()
    _bfs()
    _bfs()
    return perf_counter() - started


def chunk_median(repeats: int = 5) -> float:
    """The median time of ``repeats`` chunks, for work that is timed once."""
    return statistics.median(chunk() for _ in range(repeats))
