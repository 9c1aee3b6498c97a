"""Test helper, not collected by pytest: datasets stacked as one solver input."""

from typing import Sequence

import numpy as np

from stabledp.model import Dataset, _Stack


def stack_of(datasets: Sequence[Dataset]) -> _Stack:
    """The stack of same-shape datasets, K = 1; it holds m*n*d floats."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("a block needs at least one dataset")
    n, d = datasets[0].n, datasets[0].d
    for D in datasets:
        if D.features.shape != (n, d):
            raise ValueError(f"every dataset needs features {(n, d)}, got {D.features.shape}")
    return _Stack(np.stack([D.features for D in datasets]),
                  np.stack([D.labels for D in datasets])[:, :, None])
