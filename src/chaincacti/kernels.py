"""Independent-set counting kernel: lowest-vertex branching with a memo table.

Given per-vertex neighbor bitmasks, the kernel counts the independent sets
of each size of the subgraph induced by any vertex set ``allowed``.  Let v
be the lowest vertex of ``allowed``; every independent set either skips v or
takes it and drops its closed neighborhood:

    i(allowed) = i(allowed - v) + x * i(allowed - N[v])

The counts are memoized on the ``allowed`` bitmask, in one table per graph
that every query on that graph shares.  Taking vertices in id order,
``allowed`` is the suffix after v minus the neighbors of vertices already
taken, so the number of distinct states of one query is at most V * 2^s,
where s is the vertex separation of the id order (Kinnersley, Inf. Process.
Lett. 42, 1992).  The chain builder numbers vertices cycle by cycle, which
keeps s at a few vertices, so on a chain the cost grows with V rather than
with the number of independent sets.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence


def subset_counter(masks: Sequence[int]) -> Callable[[int], list[int]]:
    """A function from a vertex bitmask to its induced subgraph's counts by size.

    The counts run from size 0 to the subgraph's independence number.  All
    queries share one memo and return its entries, which callers must not change.
    """
    n = len(masks)
    if n > 64:
        raise ValueError(f"kernel supports at most 64 vertices, got {n}")
    return partial(_count, [m | 1 << v for v, m in enumerate(masks)], {0: [1]})


def _count(closed: list[int], memo: dict[int, list[int]], allowed: int) -> list[int]:
    # Not nested in subset_counter: a nested function that calls itself is a
    # reference cycle, which would keep each memo alive until a collector pass.
    got = memo.get(allowed)
    if got is not None:
        return got
    low = allowed & -allowed
    skip = _count(closed, memo, allowed ^ low)
    take = _count(closed, memo, allowed & ~closed[low.bit_length() - 1])
    out = skip + [0] * (len(take) + 1 - len(skip))
    for k, c in enumerate(take, 1):
        out[k] += c
    memo[allowed] = out
    return out


def count_independent_sets(masks: Sequence[int]) -> list[int]:
    """Counts of independent sets grouped by size, padded to len(masks) + 1."""
    n = len(masks)
    counts = subset_counter(masks)((1 << n) - 1)
    return counts + [0] * (n + 1 - len(counts))
