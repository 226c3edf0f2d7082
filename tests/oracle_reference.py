"""The branch-by-branch enumeration oracle, kept as a test reference.

This walks the sender's outcomes depth first on the state engine, one
post-measurement state per sender branch, then extracts and projects
every controller axis onto the X basis one d x d contraction at a time.
It never uses the controllers' per-copy sums, so it checks the array
oracle (protocol._enumerate), which does.
"""

from itertools import product

import numpy as np

from qteleport.primitives import gbs_basis_matrix, x_basis_matrix
from qteleport.protocol import (
    _attach_copy,
    _Branches,
    _digits,
    _extract,
    _omega_table,
    _pullback,
    _validate_pair,
)
from qteleport.state import branch_outcomes


def _sender_branches(state, spec, gbs_mat, l=1, gbs=(), probability=1.0):
    """(gbs outcomes, probability, post state) per sender branch, in
    lexicographic order; copy l is attached just before it is measured."""
    if l > spec.m:
        yield gbs, probability, state
        return
    state = _attach_copy(state, spec, l)
    pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
    for out in branch_outcomes(state, pair, gbs_mat):
        if out.post_state is None:
            continue  # unreachable: every sender outcome has p > 0
        yield from _sender_branches(
            out.post_state,
            spec,
            gbs_mat,
            l + 1,
            gbs + ((out.value // spec.d, out.value % spec.d),),
            probability * out.probability,
        )


def reference_enumerate(input_spec, spec, correction_controllers=None):
    """(leaves, success probability, total probability), as
    protocol._enumerate returns them, one sender branch at a time."""
    _validate_pair(input_spec, spec)
    d, m, n = spec.d, spec.m, spec.n
    if correction_controllers is None:
        correction_controllers = set(range(n))

    n_ctrl = d ** (m * n)
    digits = _digits(np.arange(n_ctrl), d, m, n)
    cooperating = sorted(correction_controllers)
    r_sum_rows = digits[:, :, cooperating].sum(axis=2) % d
    r_sum_index = r_sum_rows @ (d ** np.arange(m - 1, -1, -1))

    input_state = input_spec.state()
    omega_table = _omega_table(d, m)
    input_bra = input_state.amps.conj()
    x_bra = x_basis_matrix(d).conj()
    ctrl_labels = [f"a_{q}_{l}" for l in range(1, m + 1) for q in range(1, n + 1)]
    receiver_labels = [f"a_{n + 1}_{l}" for l in range(1, m + 1)]

    gbs_list = []
    probabilities = []
    fidelities = []
    for gbs_outcomes, prob, state in _sender_branches(
        input_state, spec, gbs_basis_matrix(d)
    ):
        extracted = _extract(state, spec)
        # Controllers first, then aux and receivers.  Each step contracts
        # the leading controller axis with the X bra and moves its
        # outcome last, so the outcomes end up copy-major at the back.
        order = [extracted.index_of(x) for x in ctrl_labels + ["aux"] + receiver_labels]
        amps = extracted.amps.reshape(extracted.dims).transpose(order)
        for _ in ctrl_labels:
            amps = amps.reshape(d, -1).T @ x_bra.T
        coeffs = amps.reshape(2, d**m, n_ctrl)  # (aux, receiver, controllers)
        probs = np.einsum("ark,ark->ka", coeffs, coeffs.conj()).real

        refs = omega_table * _pullback(input_state, spec, gbs_outcomes)
        overlaps = np.stack(
            (
                np.einsum("kr,rk->k", refs[r_sum_index].conj(), coeffs[0]),
                input_bra @ coeffs[1],
            ),
            axis=1,
        )
        empty = probs < 1e-18
        fid = np.minimum(1.0, np.abs(overlaps) ** 2 / np.where(empty, 1.0, probs))
        fid[empty] = np.nan

        gbs_list.append(gbs_outcomes)
        probabilities.append(prob * probs.reshape(-1))
        fidelities.append(fid.reshape(-1))

    # _Branches labels the leaves in this product order.
    assert gbs_list == list(product(product(range(d), repeat=2), repeat=m))
    probability = np.concatenate(probabilities)
    fidelity = np.concatenate(fidelities)
    success_probability = float(np.cumsum(probability[0::2])[-1])
    total = float(np.cumsum(probability)[-1])
    branches = _Branches(d, m, n, probability, fidelity)
    return branches, success_probability, total
