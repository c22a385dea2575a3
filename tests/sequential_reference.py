"""The whole-array sequential protocol, kept verbatim as a test reference.

This is the version of ``bellkit.commcomplex.run_sequential_protocol`` that
built the z bits, the x bits and the phases of every trial as (trials, N)
arrays at once.  The input draw and the result summary it ran on are copied
here as they were, so the reference does not move with the package.  Tests
require the package's results to be equal to these.
"""

import numpy as np

from bellkit.commcomplex import ProtocolResult, _require_mod4
from bellkit.qstate import _check_count


def _make_result(scores: np.ndarray) -> ProtocolResult:
    trials = scores.size
    fidelity = float(scores.mean())
    stderr = float(scores.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ProtocolResult(
        fidelity=fidelity,
        success_prob=(1.0 + fidelity) / 2.0,
        trials=trials,
        stderr=stderr,
    )


def _draw_inputs(task, trials: int, seed: int) -> tuple:
    """Draw x from the promise, then z uniformly, on one default_rng(seed).

    Returns the flat indices of the support points (C order), the drawn
    positions in that array, the z bits, the targets T = f(x)
    (-1)^(z_1+..+z_N), and the generator, so the caller continues the same
    stream.
    """
    trials = _check_count(trials, "trials", 1)
    support = np.flatnonzero(task.support)
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(support.size, size=trials, p=task.p_prime.reshape(-1)[support])
    z_bits = rng.integers(0, 2, size=(trials, task.n_parties))
    f_vals = task.f.reshape(-1)[support[x_idx]]
    targets = f_vals * (1 - 2 * (z_bits.sum(axis=1) % 2))
    return support, x_idx, z_bits, targets, rng


def _bits(flat: np.ndarray, n: int) -> np.ndarray:
    """The n index bits of flat indices into a (2,)*n array, axis 1 first."""
    return (flat[..., None] >> np.arange(n - 1, -1, -1)) & 1


def whole_array_sequential_protocol(task, trials, seed):
    _require_mod4(task)
    support, x_idx, z_bits, targets, rng = _draw_inputs(task, trials, seed)
    x_bits = _bits(support[x_idx], task.n_parties)

    phases = np.pi * z_bits + (np.pi / 2) * x_bits
    amp1 = np.exp(1j * phases.sum(axis=1))  # amplitude of |1> after all hops
    p_plus = np.clip((1.0 + amp1.real) / 2.0, 0.0, 1.0)
    answers = np.where(rng.random(trials) < p_plus, 1, -1)
    return _make_result((targets * answers).astype(float))
