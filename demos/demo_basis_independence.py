"""Basis independence of the block-law diagnostics.

The diagonal entropy depends on the measurement basis, but the form of the
block law S_L = a L + b log2 L + c and the ability of its coefficients to
flag transitions do not.  This script fits the block law in both the
sigma_z and sigma_x bases across the mu = 1 transition of the pairing-only
chain with non-decaying pairing, and shows chi_mu(a) jumping at the critical
point in both bases (the b and c coefficients flag it too).

Run:  python3 demos/demo_basis_independence.py   (takes about 1 s)
Writes block_coefficients_basis.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def main():
    spec = kd.ModelSpec.pairing(j=1.0, delta=-1.0, mu=0.0, alpha=0.0)
    mus = np.arange(0.7, 1.3 + 1e-9, 0.01)
    table = {"mu": mus}
    for basis in ("z", "x"):
        coef = kd.comparative_scan(spec, "mu", mus, ("a", "b", "c"), basis=basis)
        for name in "abc":
            table[f"{name}_{basis}"] = coef[name]
            curve = kd.susceptibility("mu", mus, coef[name])
            rep = kd.detect_critical_points(curve, 10.0,
                                            channel=f"chi_mu({name},{basis})")
            locs = ", ".join(f"{p.location:+.3f}" for p in rep.points)
            print(f"  chi_mu({name}) in the {basis} basis flags: {locs or 'none'}")
    header = ",".join(table)
    path = os.path.join(OUT, "block_coefficients_basis.csv")
    np.savetxt(path, np.column_stack(list(table.values())), delimiter=",",
               header=header, comments="")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
