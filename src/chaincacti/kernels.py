"""Independent-set counting kernel: lowest-vertex branching with a memo table.

Given per-vertex neighbor bitmasks, the kernel returns the number of
independent sets of each size, index 0 (the empty set) through len(masks).

For the set ``allowed`` of vertices still free to choose, let v be its
lowest vertex; every independent set either skips v or takes it and drops
its closed neighborhood:

    i(allowed) = i(allowed - v) + x * i(allowed - N[v])

The counts are memoized on the ``allowed`` bitmask for the length of one
call.  Taking vertices in id order, ``allowed`` is the suffix after v minus
the neighbors of vertices already taken, so the number of distinct states
is at most V * 2^s, where s is the vertex separation of the id order
(Kinnersley, Inf. Process. Lett. 42, 1992).  The chain builder numbers
vertices cycle by cycle, which keeps s at a few vertices, so on a chain the
cost grows with V rather than with the number of independent sets.
"""

from __future__ import annotations

from typing import Sequence


def count_independent_sets(masks: Sequence[int]) -> list[int]:
    """Counts of independent sets grouped by size, smallest size first."""
    n = len(masks)
    if n > 64:
        raise ValueError(f"kernel supports at most 64 vertices, got {n}")
    closed = [m | 1 << v for v, m in enumerate(masks)]
    memo = {0: [1]}

    def count(allowed: int) -> list[int]:
        got = memo.get(allowed)
        if got is not None:
            return got
        low = allowed & -allowed
        skip = count(allowed ^ low)
        take = count(allowed & ~closed[low.bit_length() - 1])
        out = skip + [0] * (len(take) + 1 - len(skip))
        for k, c in enumerate(take, 1):
            out[k] += c
        memo[allowed] = out
        return out

    counts = count((1 << n) - 1)
    return counts + [0] * (n + 1 - len(counts))
