"""Survey the closed-form capacities across the channel zoo.

Prints the weak-covariance capacity next to the analytic value for every
family that carries an automatic twirl group, plus the covariance residuals.
"""

from __future__ import annotations

import math

from projchan import capacity as cap
from projchan import entropy, zoo

LOG2_3 = math.log2(3)

CASES = [
    ("wh:d=3", zoo.WernerHolevo(3), LOG2_3 - 1),
    ("wh:d=4", zoo.WernerHolevo(4), 2 - LOG2_3),
    ("weyl:d=3", zoo.WeylShift(3), LOG2_3 - 1),
    ("weyl:d=4", zoo.WeylShift(4), 2 - LOG2_3),
    ("pinch:d=3,blocks=2+1", zoo.Pinching(3, zoo.block_projectors(3, [2, 1])), LOG2_3 - 1),
    ("casimir-reducible", zoo.CasimirReducibleExample(), 1.0),
    ("coarse:n=2,D=2", zoo.CoarseGraining(2, 2), 1.0),
    ("diag:d=2", zoo.dephasing(2), 1.0),
    ("diag:d=3", zoo.dephasing(3), LOG2_3),
]


def main() -> None:
    cfg = entropy.OptConfig(starts=32)
    print(f"{'channel':24s} {'capacity':>14s} {'analytic':>14s} {'error':>10s} {'cov':>9s} {'avg':>9s}")
    for name, spec, want in CASES:
        T, form = zoo.build(spec)
        rho0, group, conjugate = zoo.auto_group(spec, form)
        rep = cap.capacity_weakcov(T, rho0, group, conjugate, cfg)
        print(f"{name:24s} {rep.capacity:14.10f} {want:14.10f} {abs(rep.capacity - want):10.1e} "
              f"{rep.covariance_residual:9.1e} {rep.average_residual:9.1e}")

    # the stretching family is the known failure mode of the covariance route
    spec = zoo.Stretching(3, 0.5)
    T, form = zoo.build(spec)
    rho0, group, conjugate = zoo.auto_group(spec, form)
    cov, avg = cap.verify_weak_covariance(T, rho0, group, conjugate)
    print(f"\nstretch:d=3,lambda=0.5   not weakly covariant: covariance residual {cov:.3f}")


if __name__ == "__main__":
    main()
