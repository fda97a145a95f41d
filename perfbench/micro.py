"""Layer timings on fixed inputs, outside the workloads.

- ``UniPoly.__mul__`` at three shapes: small (degree 10 by 3, as in the
  sweep's scan steps), skewed (degree 1,800 by 3 with 2,000-bit coefficients,
  a step of a long scan) and balanced (1,500 by 1,500, one product-tree
  merge).  The balanced operands get 64-bit coefficients, not the ~1,000 bits
  of a real merge, which keeps one product under a second.
- ``count_independent_sets`` on two chains, as sets counted per second.

Each figure is the median of several timed repeats.
"""

from __future__ import annotations

import random
import statistics
import time

from chaincacti import UniPoly, build, parse_spec
from chaincacti.kernels import count_independent_sets

# Fixed inputs: the same on every run and every seed.
_INPUT_SEED = 20110508


def _poly(rng: random.Random, degree: int, bits: int) -> UniPoly:
    return UniPoly([rng.getrandbits(bits) | 1 for _ in range(degree + 1)])


def _median_time(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the time of one call, each repeat making
    ``inner`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - started) / inner)
    return statistics.median(times)


def layer_metrics() -> dict[str, float]:
    rng = random.Random(_INPUT_SEED)
    small = (_poly(rng, 10, 24), _poly(rng, 3, 8))
    skewed = (_poly(rng, 1800, 2000), _poly(rng, 3, 8))
    balanced = (_poly(rng, 1500, 64), _poly(rng, 1500, 64))

    out = {
        "polynomial.mul_small_us": 1e6 * _median_time(lambda: small[0] * small[1], 7, 2000),
        "polynomial.mul_skewed_ms": 1e3 * _median_time(lambda: skewed[0] * skewed[1], 7, 20),
        "polynomial.mul_balanced_ms": 1e3 * _median_time(lambda: balanced[0] * balanced[1], 3),
    }
    for label, spec, repeats, inner in (("small", "6,6,6/2", 7, 50), ("large", "8,8,8,8/2,2", 3, 1)):
        masks = build(parse_spec(spec)).adjacency_masks()
        sets = sum(count_independent_sets(masks))
        seconds = _median_time(lambda: count_independent_sets(masks), repeats, inner)
        out[f"kernels.count_{label}_sets_per_s"] = sets / seconds
    return out
