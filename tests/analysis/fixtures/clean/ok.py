"""Fixture: a clean file — seeded RNGs, safe iteration, suppressions.

The analyzer must produce zero findings here; the suppressed lines prove
``# repro: noqa[RULE]`` works.
"""

import random

import numpy as np


def seeded_things(seed):
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    return rng.randrange(10), np_rng.integers(0, 10), rng.random()


def deliberately_suppressed():
    jitter = random.random()  # repro: noqa[RA102] -- demo of a suppression
    noise = np.random.rand(2)  # repro: noqa
    return jitter, noise


def safe_iteration(nodes):
    for node in list(nodes):
        if node is None:
            nodes.remove(node)
    return nodes
