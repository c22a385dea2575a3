"""The whole-array sequential protocol, kept verbatim as a test reference.

This is the version of ``bellkit.commcomplex.run_sequential_protocol`` that
built the x bits and the phases of every trial as (trials, N) arrays at
once, before ``_phase_sums`` did so a block of trials at a time.  Tests
require the package's phase sums to be bitwise equal to these and its
results to be equal.
"""

import numpy as np

from bellkit.commcomplex import _bits, _draw_inputs, _make_result, _require_mod4


def whole_array_phase_sums(support, x_idx, z_bits):
    x_bits = _bits(support[x_idx], z_bits.shape[1])
    phases = np.pi * z_bits + (np.pi / 2) * x_bits
    return phases.sum(axis=1)


def whole_array_sequential_protocol(task, trials, seed):
    _require_mod4(task)
    support, x_idx, z_bits, targets, rng = _draw_inputs(task, trials, seed)
    x_bits = _bits(support[x_idx], task.n_parties)

    phases = np.pi * z_bits + (np.pi / 2) * x_bits
    amp1 = np.exp(1j * phases.sum(axis=1))  # amplitude of |1> after all hops
    p_plus = np.clip((1.0 + amp1.real) / 2.0, 0.0, 1.0)
    answers = np.where(rng.random(trials) < p_plus, 1, -1)
    return _make_result((targets * answers).astype(float))
