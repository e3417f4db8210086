import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from choquet_dist import make_game

# 3-attribute reference capacity used throughout; its exact figures are
# mean 0.495833 / sd 0.183210 (uniform), mean 0.966667 / sd 0.624500
# (exponential), orness 0.491667.
REF_VALUES = {(1,): 0.1, (2,): 0.2, (3,): 0.55,
              (1, 2): 0.7, (1, 3): 0.8, (2, 3): 0.6, (1, 2, 3): 1.0}

# capacity JSON texts that give one subset twice: under two spellings of its
# key, as both empty-set keys, and under one key repeated verbatim
_REST = '"2": 0.2, "1,2": 1.0'
DUPLICATE_SUBSET_JSON = {
    "spelling": '{"n": 2, "values": {"1": 0.5, " 1": 0.7, %s}}' % _REST,
    "empty_set": '{"n": 2, "values": {"": 0, "\u2205": 0, "1": 0.5, %s}}' % _REST,
    "verbatim": '{"n": 2, "values": {"1": 0.5, "1": 0.7, %s}}' % _REST,
}


@pytest.fixture
def ref_capacity():
    return make_game(3, REF_VALUES)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
