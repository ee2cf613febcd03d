"""Winding numbers and phase diagrams of the extended Kitaev chains.

The Anderson vector (h_y, h_z) of each momentum mode traces a closed curve
as k sweeps the Brillouin zone; the number of times it circles the origin is
the topological invariant nu.  This script evaluates the four reference
points (nu = 0 and +1 for the pairing-only chain, nu = -3 and +3 for the
range-3 pairing+hopping chain), exports one trajectory, and maps a slice of
each phase diagram.

Run:  python3 demos/demo_winding_and_phases.py
Writes trajectory_nu3.csv and phase_map_*.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def main():
    cases = [
        ("pairing-only, Delta=-1, mu=-1.5 (trivial)",
         kd.ModelSpec.pairing(j=1.0, delta=-1.0, mu=-1.5)),
        ("pairing-only, Delta=+1, mu=-0.5", kd.ModelSpec.pairing(1.0, 1.0, -0.5)),
        ("range-3, J=-0.8, mu=-0.6", kd.ModelSpec.pairing_hopping(j=-0.8, delta=1.0, mu=-0.6)),
        ("range-3, J=+0.8, mu=+0.6", kd.ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)),
    ]
    print("== winding numbers ==")
    for name, spec in cases:
        res = kd.winding_number(spec)
        print(f"  {name:45s} nu = {res.nu:+.0f}   (min gap {res.min_gap:.3f})")

    tr = kd.trajectory(cases[2][1], samples=1024)
    path = os.path.join(OUT, "trajectory_nu3.csv")
    np.savetxt(path, np.column_stack([tr.k, tr.hy, tr.hz]),
               delimiter=",", header="k,h_y,h_z", comments="")
    print(f"\nwrote {path} (closed curve circling the origin 3 times)")

    print("\n== pairing-only phase map (winding over the mu-Delta plane) ==")
    spec = kd.ModelSpec.pairing(j=1.0)
    mus = np.arange(-1.9, 1.91, 0.1)
    deltas = np.arange(-1.5, 1.51, 0.25)
    scan = kd.phase_boundary_scan(spec, "mu", mus, "delta", deltas)
    path = os.path.join(OUT, "phase_map_pairing_only.csv")
    with open(path, "w") as fh:
        fh.write("mu,delta,nu\n")
        for iy, d in enumerate(deltas):
            for ix, m in enumerate(mus):
                fh.write(f"{m},{d},{scan.nu[iy, ix]}\n")
    print(f"wrote {path}")
    print("  boundaries sit at mu = +-1 (any Delta != 0) and Delta = 0 (|mu| < 1)")

    print("\n== range-3 phase map (mu-J plane) ==")
    spec2 = kd.ModelSpec.pairing_hopping(j=0.0, delta=1.0, mu=0.0)
    js = np.arange(-1.0, 1.01, 0.1)
    scan2 = kd.phase_boundary_scan(spec2, "mu", np.arange(-2.0, 1.01, 0.05), "j", js)
    path = os.path.join(OUT, "phase_map_range3.csv")
    with open(path, "w") as fh:
        fh.write("mu,j,nu\n")
        for iy, j in enumerate(js):
            for ix, m in enumerate(scan2.x_values):
                fh.write(f"{m},{j},{scan2.nu[iy, ix]}\n")
    counts = {v: int(np.sum(scan2.nu == v)) for v in (-3, -1, 0, 1, 3)}
    print(f"wrote {path}; cells per winding sector: {counts}")


if __name__ == "__main__":
    main()
