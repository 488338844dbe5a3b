"""The falsifier's bulk draws against ``random.Random.randrange``.

``semantics._draws`` reads Mersenne Twister outputs 32 bits at a time for
spans of at most 8 bits, and relies on how CPython lays them out in
``getrandbits``.  This file needs no pytest, so it also runs as a plain
script on any interpreter:

    PYTHONPATH=src python tests/test_draws.py
"""

import random
import sys

from rieszlogic.semantics import _draws

SEEDS = range(51)
BOUNDS = (0, 1, 10, 127, 128, 2**20, 2**40)  # 127 the widest span read by bytes; from 128 on, randrange itself
TAKES = (0, 1, 7, 5000, 7)


def test_draws_equal_randrange():
    for seed in SEEDS:
        for bound in BOUNDS:
            rng = random.Random(seed)
            take = _draws(seed, bound)
            for n in TAKES:
                expected = [rng.randrange(2 * bound + 1) for _ in range(n)]
                assert list(take(n)) == expected, (seed, bound, n)


if __name__ == "__main__":
    test_draws_equal_randrange()
    print(f"draws equal randrange on Python {sys.version.split()[0]}")
