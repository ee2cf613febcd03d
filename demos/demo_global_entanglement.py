"""Global entanglement versus diagonal entropy as transition probes.

Global entanglement E = 2(1 - Tr rho_i^2) = 1 - <sigma_z>^2 only sees the
single-site magnetization, so it cannot separate topological transitions
from featureless parameter drifts: at mu = 0 the pairing-only chain has E
identically 1 for every pairing strength, flat across the Delta = 0
transition, and the V-shaped minimum of E at Delta = 0 looks the same
whether that point is critical (|mu| < 1) or not (|mu| > 1).  The block-law
density a keeps a genuine non-analyticity exactly where the transition is.

Run:  python3 demos/demo_global_entanglement.py
Writes ge_vs_blockdensity.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def main():
    ds = np.arange(-0.5, 0.5 + 1e-9, 0.01)
    print("== pairing-only chain, mu = 0: E is blind, a is not ==")
    e0 = kd.sweep_global_entanglement(kd.ModelSpec.pairing(1.0, 1.0, 0.0), "delta", ds)
    print(f"  E over Delta in [-0.5, 0.5]: min={e0.min():.12f} max={e0.max():.12f}")
    coef = kd.sweep_block_coefficients(kd.ModelSpec.pairing(1.0, 1.0, 0.0),
                                       "delta", ds)
    rep_a = kd.detect_critical_points(kd.susceptibility("delta", ds, coef[:, 0]),
                                      10.0, channel="chi_delta(a)")
    print(f"  chi_Delta(a) flags: {[f'{p.location:+.3f}' for p in rep_a.points]}"
          "  (the Delta = 0 transition)")

    print("\n== GE minima do not distinguish transition from no transition ==")
    for mu, critical in ((0.8, True), (1.2, False)):
        spec = kd.ModelSpec.pairing(1.0, 1.0, mu)
        e = kd.sweep_global_entanglement(spec, "delta", ds)
        rep_e = kd.detect_critical_points(kd.susceptibility("delta", ds, e), 10.0)
        coef_mu = kd.sweep_block_coefficients(spec, "delta", ds)
        rep = kd.detect_critical_points(
            kd.susceptibility("delta", ds, coef_mu[:, 0]), 10.0)
        tag = "a transition" if critical else "no transition"
        print(f"  mu={mu} ({tag} at Delta=0): GE minimum at Delta ~ "
              f"{ds[int(np.argmin(e))]:+.2f}, chi_Delta(E) flags "
              f"{rep_e.locations() or 'none'}, chi_Delta(a) flags "
              f"{[f'{p.location:+.3f}' for p in rep.points] or 'none'}")

    path = os.path.join(OUT, "ge_vs_blockdensity.csv")
    np.savetxt(path, np.column_stack([ds, e0, coef[:, 0]]), delimiter=",",
               header="delta,ge_mu0,a_mu0", comments="")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
