"""Fixed reference work that shows how fast the machine runs at the moment.

On a shared host the speed of the whole machine changes by up to 1.8x within
a minute, which moves every wall time in a run together.  Each run times
this task, which uses no bellkit code, between its rounds; dividing a round's
wall time by the reference's cancels the part of that drift both see.  The
task mixes the kinds of work the workloads do: JSON parsing, float
formatting, interpreter-bound small NumPy calls and a dense eigensolver.
"""

import json
import time

import numpy as np

_RNG = np.random.default_rng(0)
_VALUES = _RNG.normal(size=20000).tolist()
_TEXT = json.dumps([[v, -v] for v in _VALUES])
_SMALL = _RNG.normal(size=(3, 3, 3, 3))
_VEC = _RNG.normal(size=(8, 3))
_DENSE = _RNG.normal(size=(160, 160))
_DENSE = _DENSE @ _DENSE.T


def reference_s() -> float:
    """Wall time of one pass over the fixed reference work (about 0.2 s)."""
    t0 = time.perf_counter()
    for _ in range(3):
        json.loads(_TEXT)
        ",".join(map(repr, _VALUES))
    for _ in range(900):
        np.einsum("rijkl,ri->rjkl", np.broadcast_to(_SMALL, (8,) + _SMALL.shape), _VEC)
    for _ in range(6):
        np.linalg.eigvalsh(_DENSE)
    return time.perf_counter() - t0
