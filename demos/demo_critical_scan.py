"""Detecting topological transitions from the diagonal-entropy density.

The density s = S_N / N is continuous across a topological transition but
has a kink there, so its susceptibility chi = ds/dmu jumps.  Scanning mu for
the range-3 chain at two hoppings finds every transition of the phase
diagram, including those between high-winding sectors, and the flags land on
the winding-number change locations.

Run:  python3 demos/demo_critical_scan.py
Writes critical_scan_j*.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def main():
    for j, stop in ((-0.8, 0.5), (0.3, 1.0)):
        spec = kd.ModelSpec.pairing_hopping(j=j, delta=1.0, mu=0.0)
        mus = np.arange(-2.0, stop + 1e-9, 0.01)
        s = kd.comparative_scan(spec, "mu", mus, ["s"], n_density=2000)["s"]
        curve = kd.susceptibility("mu", mus, s)
        report = kd.detect_critical_points(curve, kappa=10.0, channel="chi_s")
        nu_locs = kd.nu_change_locations(spec, "mu", mus, samples=2048)
        print(f"J = {j:+.1f}:")
        print(f"  flagged susceptibility jumps: "
              + ", ".join(f"{p.location:+.3f}" for p in report.points))
        print(f"  winding-number changes at:    "
              + ", ".join(f"{x:+.3f}" for x in nu_locs))
        chi = np.full(mus.size, np.nan)
        chi[1:-1] = curve.chi
        path = os.path.join(OUT, f"critical_scan_j{j:+.1f}.csv")
        np.savetxt(path, np.column_stack([mus, s, chi]), delimiter=",",
                   header="mu,s,chi", comments="")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
