"""Lint fixture: sorts a whole array in core, which REP002 must flag."""

import numpy as np


def sort_in_core(data: np.ndarray) -> np.ndarray:
    return np.sort(data)
