"""The per-group `Generator.choice` entangled protocol, kept as a test reference.

This is the version of ``bellkit.commcomplex.run_entangled_protocol`` that
drew x as positions in the support and each group's outcomes with its own
``rng.choice(..., p=table)`` call, after one stacked Born call for the
drawn support points.  The input draw and the result summary it ran on are
copied here as they were, so the reference does not move with the package.
Unlike the per-support-point reference in ``test_commcomplex.py`` it makes
one Born call per run, so it is fast enough at N = 10.
"""

import numpy as np

from bellkit.commcomplex import ProtocolResult
from bellkit.qstate import _check_count, measurement_distribution


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
    positions in that array, the per-trial z sums, the targets T = f(x)
    (-1)^(z_1+..+z_N), and the generator, so the caller continues the same
    stream.
    """
    trials = _check_count(trials, "trials", 1)
    support = np.flatnonzero(task.support)
    rng = np.random.default_rng(seed)
    x_idx = rng.choice(support.size, size=trials, p=task.p_prime.reshape(-1)[support])
    z_sums = rng.integers(0, 2, size=(trials, task.n_parties)).sum(axis=1)
    f_vals = task.f.reshape(-1)[support[x_idx]]
    targets = f_vals * (1 - 2 * (z_sums % 2))
    return support, x_idx, z_sums, targets, rng


def _bits(flat: np.ndarray, n: int) -> np.ndarray:
    """The n index bits of flat indices into a (2,)*n array, axis 1 first."""
    return (flat[..., None] >> np.arange(n - 1, -1, -1)) & 1


def _bit_counts(flat: np.ndarray, n: int) -> np.ndarray:
    """The number of set bits among the n index bits of each flat index."""
    return sum((flat >> k) & 1 for k in range(n))


def per_group_choice_protocol(task, state, settings, trials, seed):
    n = task.n_parties
    s = np.asarray(settings, dtype=float)
    support, x_idx, z_sums, targets, rng = _draw_inputs(task, trials, seed)

    drawn, counts = np.unique(x_idx, return_counts=True)
    groups = np.split(np.argsort(x_idx, kind="stable"), np.cumsum(counts)[:-1])
    tables = measurement_distribution(state, s[np.arange(n), _bits(support[drawn], n)])
    outcome_idx = np.empty(trials, dtype=int)
    for rows, probs in zip(groups, tables.reshape(drawn.size, -1)):
        outcome_idx[rows] = rng.choice(probs.size, size=rows.size, p=probs)

    answers = 1 - 2 * ((z_sums + _bit_counts(outcome_idx, n)) & 1)
    return _make_result((targets * answers).astype(float))
