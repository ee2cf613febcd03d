"""Majorana zero modes of open chains and the bulk-boundary count.

An open chain in a phase with winding number nu hosts |nu| pairs of Majorana
zero modes, one family localized at each edge.  They appear as
near-vanishing singular values of the Majorana coupling matrix K; this
script extracts the profiles for the single-pair and three-pair examples and
shows how the singular values of the slowly-decaying second and third modes
fall exponentially with chain length (their decay root sits at |x| = 0.971,
so they need N of several hundred sites to register below a 1e-8 cutoff).

Run:  python3 demos/demo_majorana_modes.py
Writes mzm_profiles_*.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def export_profiles(spec, n, tol, path):
    modes = kd.zero_modes(spec, n, tol)
    header = ["site"] + [f"p_{m.side.value}_{i // 2 + 1}"
                         for i, m in enumerate(modes)]
    rows = np.column_stack([np.arange(1, n + 1)] +
                           [m.probability for m in modes])
    np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="")
    return modes


def main():
    spec1 = kd.ModelSpec.pairing(j=1.0, delta=1.0, mu=-0.5)
    modes = export_profiles(spec1, 100, 1e-8,
                            os.path.join(OUT, "mzm_profiles_single_pair.csv"))
    print(f"pairing-only chain, mu=-0.5:  {len(modes) // 2} pair(s)")
    left = next(m for m in modes if m.side is kd.Side.LEFT)
    print(f"  left-mode weight on the first 25 of 100 sites: "
          f"{left.probability[:25].sum():.6f}")

    spec3 = kd.ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)
    print(f"\nrange-3 chain, J=0.8, mu=0.6 (winding 3):")
    print("  singular-value cutoff is relative: sigma < tol * sigma_max")
    for n in (100, 200, 400, 800):
        # K is Toeplitz, so K P (columns reversed) is symmetric and its
        # eigenvalue moduli are the singular values of K
        k = kd.build_coupling(spec3, n)
        s = np.sort(np.abs(np.linalg.eigvalsh(k[:, ::-1])))
        print(f"  N={n:4d}: smallest sigma/sigma_max = "
              + ", ".join(f"{v:.2e}" for v in s[:4] / s[-1]))
    count = kd.mode_count(spec3, 800, 1e-8)
    print(f"  mode_count(N=800, tol=1e-8) = {count} pairs")
    export_profiles(spec3, 800, 1e-8,
                    os.path.join(OUT, "mzm_profiles_three_pairs.csv"))
    print("wrote mzm_profiles_single_pair.csv, mzm_profiles_three_pairs.csv")


if __name__ == "__main__":
    main()
