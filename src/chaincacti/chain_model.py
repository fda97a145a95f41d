"""Chain cactus descriptions, construction, and enumeration.

A chain cactus is a connected graph whose blocks are cycles arranged in a
row: consecutive cycles share exactly one cut vertex and every cut vertex
lies in exactly two cycles.  A ChainSpec records the cycle sizes h_1..h_n and,
for each internal cycle C^(j) (j = 2..n-1), the position k_j at which the next
cycle attaches, measured along the cycle from the cut vertex shared with the
previous one.  Positions are canonical in 1..floor(h_j/2); a raw position past
the midpoint is the mirror image of its fold and is normalized to it.  The
attachment on the first cycle is fixed at position 1 by the labeling
convention (a single cut vertex makes all choices isomorphic).
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence


class SpecError(ValueError):
    """Malformed chain specification or vertex label."""


class VertexLabel(NamedTuple):
    """Address of a vertex as (cycle index, position within the cycle).

    Cut vertices carry two labels: position k on cycle j and position h on
    cycle j+1 resolve to the same vertex id.
    """

    cycle: int
    position: int

    def __str__(self) -> str:
        return f"{self.cycle}:{self.position}"


class ChainSpec:
    """Cycle sizes plus internal attachment positions, checked and canonical.

    Construction rejects an invalid spec with a SpecError: every cycle size
    must be at least 3; the positions sequence must have length
    max(n-2, 0); each raw position k_j must satisfy 1 <= k_j <= h_j - 1 and
    is folded to min(k_j, h_j - k_j).  So every ChainSpec is canonical, and
    two specs of the same chain compare equal.

    A spec is immutable, compares and hashes by value (caches key on it) and
    pickles through its constructor, so an unpickled spec is checked too.
    """

    __slots__ = ("cycle_sizes", "positions")

    cycle_sizes: tuple[int, ...]
    positions: tuple[int, ...]

    def __init__(self, cycle_sizes: Iterable[int], positions: Iterable[int]) -> None:
        sizes = tuple(cycle_sizes)
        positions = tuple(positions)
        for i, h in enumerate(sizes, start=1):
            if not isinstance(h, int) or h < 3:
                raise SpecError(f"cycle size {h} < 3 at cycle {i}")
        n = len(sizes)
        want = max(n - 2, 0)
        if len(positions) != want:
            raise SpecError(
                f"expected {want} position(s) for {n} cycle(s), got {len(positions)}"
            )
        canon = []
        for j, k in enumerate(positions, start=2):
            h = sizes[j - 1]
            if not isinstance(k, int) or not 1 <= k <= h - 1:
                raise SpecError(f"position {k} out of range 1..{h - 1} on cycle {j}")
            canon.append(min(k, h - k))
        object.__setattr__(self, "cycle_sizes", sizes)
        object.__setattr__(self, "positions", tuple(canon))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable ChainSpec")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable ChainSpec")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.cycle_sizes == other.cycle_sizes and self.positions == other.positions

    def __hash__(self) -> int:
        return hash((self.cycle_sizes, self.positions))

    def __repr__(self) -> str:
        return f"ChainSpec(cycle_sizes={self.cycle_sizes!r}, positions={self.positions!r})"

    def __reduce__(self) -> tuple:
        return (ChainSpec, (self.cycle_sizes, self.positions))

    @property
    def length(self) -> int:
        """Number of cycles n."""
        return len(self.cycle_sizes)

    @property
    def num_vertices(self) -> int:
        """Vertex count of the chain: consecutive cycles share one vertex."""
        return sum(self.cycle_sizes) - (self.length - 1)

    def to_text(self) -> str:
        """Render as ``h1,...,hn/k2,...,k(n-1)``; no slash when n <= 2."""
        sizes = ",".join(str(h) for h in self.cycle_sizes)
        if not self.positions:
            return sizes
        return sizes + "/" + ",".join(str(k) for k in self.positions)


def parse_spec(text: str) -> ChainSpec:
    """Parse ``h1,...,hn/k2,...,k(n-1)``, with the uniform shorthand ``h^n``
    for the sizes and ``k^m`` for the positions, e.g. ``6^400/2^398``.

    The slash is mandatory for n >= 3 so positions are never defaulted
    silently; for n <= 2 it may be omitted (a bare trailing slash is also
    accepted).
    """
    body = text.strip()
    if body.count("/") > 1:
        raise SpecError(f"more than one '/' in {text!r}")
    if "/" in body:
        sizes_part, pos_part = body.split("/")
        had_slash = True
    else:
        sizes_part, pos_part = body, ""
        had_slash = False
    sizes = _parse_sizes(sizes_part)
    if len(sizes) >= 3 and not had_slash:
        raise SpecError(
            f"{text!r} has {len(sizes)} cycles but no '/': positions are required"
        )
    positions = _parse_list(pos_part, "position")
    return ChainSpec(sizes, positions)


def _split(part: str) -> list[str]:
    part = part.strip()
    return part.split(",") if part else []


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token.strip())
    except ValueError as exc:
        raise SpecError(f"bad {what} {token.strip()!r}") from exc


def _parse_sizes(part: str) -> tuple[int, ...]:
    if not part.strip():
        raise SpecError("empty cycle size list")
    return _parse_list(part, "cycle size")


def _parse_list(part: str, what: str) -> tuple[int, ...]:
    # A comma list of ints, or ``v^m`` for m copies of v.
    part = part.strip()
    if "^" in part:
        base_s, _, rep_s = part.partition("^")
        base = _parse_int(base_s, what)
        rep = _parse_int(rep_s, "repeat count")
        if rep < 1:
            raise SpecError(f"repeat count {rep} < 1")
        return (base,) * rep
    return tuple(_parse_int(t, what) for t in _split(part))


def reversed_spec(spec: ChainSpec) -> ChainSpec:
    """The same chain read from the other end.

    Canonical positions measure the distance between a cycle's two cut
    vertices, which reversal preserves, so reversing both tuples suffices.
    """
    return ChainSpec(spec.cycle_sizes[::-1], spec.positions[::-1])


def all_ones_spec(cycle_sizes: Sequence[int]) -> ChainSpec:
    """The chain with every internal position 1 over a size list.

    It exists for every valid size list, so building it checks the sizes
    before an empty position range can hide a bad one.
    """
    sizes = tuple(cycle_sizes)
    if not sizes:
        raise SpecError("need at least one cycle")
    return ChainSpec(sizes, (1,) * max(len(sizes) - 2, 0))


def count_specs(cycle_sizes: Sequence[int]) -> int:
    """How many chains ``enumerate_specs`` yields without reversal dedupe.

    The product of floor(h/2) over the internal cycles, found without
    enumerating, as one power per distinct factor: a long uniform list such
    as ``10^300000`` costs one big-int power, not a multiply per cycle.  The
    sizes are checked as ``enumerate_specs`` checks them.
    """
    sizes = all_ones_spec(cycle_sizes).cycle_sizes
    factors = collections.Counter(h // 2 for h in sizes[1:-1])
    return math.prod(f**e for f, e in factors.items())


def enumerate_specs(
    cycle_sizes: Sequence[int], dedupe_reversal: bool = False
) -> Iterator[ChainSpec]:
    """All canonical ChainSpecs over a fixed size list, lexicographically.

    With ``dedupe_reversal`` and a palindromic size list, only the smaller of
    each {positions, reversed positions} pair is emitted.
    """
    sizes = all_ones_spec(cycle_sizes).cycle_sizes
    for positions in position_sequences(sizes, dedupe_reversal):
        yield ChainSpec(sizes, positions)


def position_sequences(
    sizes: tuple[int, ...], dedupe_reversal: bool = False, first: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The canonical position sequences of a checked size list, lexicographically.

    With ``dedupe_reversal`` and a palindromic size list, only the smaller of
    each {positions, reversed positions} pair is yielded.  ``first`` keeps
    the sequences whose first internal position is ``first``.
    """
    ranges = [range(1, h // 2 + 1) for h in sizes[1 : len(sizes) - 1]]
    if first is not None:
        if not (ranges and first in ranges[0]):
            raise SpecError(f"first position {first} outside the size list's range")
        ranges[0] = range(first, first + 1)
    palindrome = dedupe_reversal and sizes == sizes[::-1]
    for positions in itertools.product(*ranges):
        if palindrome and positions[::-1] < positions:
            continue
        yield positions


class LabeledGraph:
    """Simple undirected graph with dense vertex ids and a label map.

    Vertices are 0..num_vertices-1; edges are sorted pairs.  All addressing
    from outside goes through VertexLabels.  For the length-0 chain (a single
    vertex, no cycles) the lone vertex answers to label 1:1.
    """

    __slots__ = ("num_vertices", "edges", "labels", "_masks")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: dict[VertexLabel, int],
    ):
        self.num_vertices = num_vertices
        self.edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        self.labels = dict(labels)
        self._masks: list[int] | None = None

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (cached)."""
        if self._masks is None:
            masks = [0] * self.num_vertices
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = masks
        return self._masks

    def vertex_of(self, label: VertexLabel) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise SpecError(f"no vertex labeled {label}") from None

    def delete_vertices(self, labels: Iterable[VertexLabel]) -> "LabeledGraph":
        """Induced subgraph without the labeled vertices (labels preserved)."""
        return self.delete_vertex_ids(self.vertex_of(lab) for lab in labels)

    def delete_vertex_ids(self, ids: Iterable[int]) -> "LabeledGraph":
        """Induced subgraph without the given vertex ids, re-densified."""
        drop = set(ids)
        for v in drop:
            if not 0 <= v < self.num_vertices:
                raise SpecError(f"no vertex id {v}")
        keep = [v for v in range(self.num_vertices) if v not in drop]
        remap = {v: i for i, v in enumerate(keep)}
        edges = [
            (remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap
        ]
        labels = {lab: remap[v] for lab, v in self.labels.items() if v in remap}
        return LabeledGraph(len(keep), edges, labels)


def build(spec: ChainSpec) -> LabeledGraph:
    """Construct the chain cactus for a spec.

    Vertex ids are assigned densely cycle by cycle; each new cycle reuses the
    attachment vertex of the previous one as its position-h vertex.  The
    result has sum(h_i) - (n-1) vertices and sum(h_i) edges.
    """
    n = spec.length
    if n == 0:
        return LabeledGraph(1, (), {VertexLabel(1, 1): 0})
    labels: dict[VertexLabel, int] = {}
    edges: list[tuple[int, int]] = []
    next_id = 0
    attach = -1
    for i, h in enumerate(spec.cycle_sizes, start=1):
        if i == 1:
            ids = list(range(next_id, next_id + h))
            next_id += h
        else:
            ids = list(range(next_id, next_id + h - 1))
            next_id += h - 1
            ids.append(attach)
        for pos, vid in enumerate(ids, start=1):
            labels[VertexLabel(i, pos)] = vid
        for a in range(h):
            edges.append((ids[a], ids[(a + 1) % h]))
        if i < n:
            k = 1 if i == 1 else spec.positions[i - 2]
            attach = labels[VertexLabel(i, k)]
    return LabeledGraph(next_id, edges, labels)
