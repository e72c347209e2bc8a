"""Fixed work that never touches citemap, timed by the benchmark to track host speed.

The benchmark runs this script as a process of its own between jobs. Its wall
time follows the host's speed, which on a shared 2-core VM drifts by 15-20%
over tens of seconds, but no change to citemap can move it, so dividing job
times by it cancels the drift. The mix mirrors a job: interpreter start-up, a
numpy import, dict and string work, sorting, and numpy pairwise-distance
arithmetic.
"""

from __future__ import annotations

import random

import numpy as np


def main() -> None:
    rng = random.Random(7)
    words = ["".join(rng.choice("bdfgklmnprtv") + rng.choice("aiou") for _ in range(3)) for _ in range(30000)]
    counts: dict[str, int] = {}
    for word in words:
        for k in range(1, 4):
            counts[word[:2 * k]] = counts.get(word[:2 * k], 0) + 1
    sorted(counts, key=lambda w: (-counts[w], w))
    x = np.random.default_rng(7).uniform(size=(200, 2))
    for _ in range(40):
        distance = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
        x = x - 0.001 * distance.sum(1)[:, None] * x


if __name__ == "__main__":
    main()
