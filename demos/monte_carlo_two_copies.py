"""Teleport a two-qutrit state by sampling, then check the empirical
success rate against (min_j |c_j|^2)^m with a binomial z-score.

Uses run_structured with a seed, the closed-form sampler, which never
builds the full register, so it also works at sizes the dense path
cannot reach.
"""

import numpy as np

import qteleport as qt


def main():
    chan = qt.ChannelSpec(d=3, n=1, m=2, coeffs=tuple(np.sqrt([1.2, 0.9, 0.9])))
    inp = qt.InputStateSpec.random(d=3, m=2, seed=11)
    p = qt.theoretical_success_probability(chan)  # 0.9^2 = 0.81

    trials = 5000
    root = np.random.SeedSequence(2024)
    successes = 0
    worst_fidelity = 1.0
    for child in root.spawn(trials):
        t = qt.run_structured(inp, chan, seed=child)
        if t.success:
            successes += 1
            worst_fidelity = min(worst_fidelity, t.fidelity)

    rate = successes / trials
    sigma = np.sqrt(p * (1 - p) / trials)
    print(f"two-copy channel, weights {[round(abs(c)**2, 2) for c in chan.coeffs]}")
    print(f"trials:              {trials}")
    print(f"empirical rate:      {rate:.4f}")
    print(f"closed form:         {p:.4f}")
    print(f"z-score:             {(rate - p) / sigma:+.2f}")
    print(f"min success fidelity {worst_fidelity:.15f}")

    # One fully spelled-out run: the transcript records every outcome.
    t = qt.run_structured(inp, chan, seed=1)
    print("\nsample transcript:")
    print(f"  sender (r, s) per copy: {t.gbs}")
    print(f"  controller outcomes:    {t.controllers}")
    print(f"  correction sums:        {t.r_sums}")
    print(f"  aux = {t.aux} -> {'success' if t.success else 'failure'}, "
          f"fidelity {t.fidelity:.12f}")


if __name__ == "__main__":
    main()
