"""Volume and block scaling laws of the diagonal entropy.

The diagonal entropy of the full ground state in the momentum-occupation
basis grows linearly with chain length (volume law S_N = s N), and the
diagonal entropy of an L-site block in the sigma_z basis follows
S_L = a L + b log2 L + c.  Both hold deep inside every phase, including the
high-winding sectors of the range-3 chain.

Run:  python3 demos/demo_entropy_scaling.py
Writes volume_law.csv and block_law.csv next to the script.
"""
import os

import numpy as np

import kitaev_de as kd

OUT = os.path.dirname(os.path.abspath(__file__))


def main():
    specs = [
        ("pairing-only, Delta=-1, mu=-1.5", kd.ModelSpec.pairing(1.0, -1.0, -1.5)),
        ("pairing-only (decay 0), Delta=-1, mu=0.5",
         kd.ModelSpec.pairing(1.0, -1.0, 0.5, alpha=0.0)),
        ("range-3, J=0.8, mu=0.6 (winding 3)",
         kd.ModelSpec.pairing_hopping(j=0.8, delta=1.0, mu=0.6)),
    ]
    sizes = list(range(200, 2001, 200))
    print("== volume law: S_N = s N ==")
    rows = []
    for name, spec in specs:
        vals = [kd.pure_state_diagonal_entropy(spec, n).value for n in sizes]
        fit = kd.fit_volume_law(sizes, vals)
        rel = fit.residual_rms / np.mean(np.abs(vals))
        print(f"  {name:42s} s = {fit.params[0]:.6f}  rel residual {rel:.1e}")
        rows.append(vals)
    path = os.path.join(OUT, "volume_law.csv")
    np.savetxt(path, np.column_stack([sizes] + rows), delimiter=",",
               header="n," + ",".join(f"s{i}" for i in range(len(specs))),
               comments="")
    print(f"wrote {path}")

    print("\n== block law: S_L = a L + b log2 L + c  (sigma_z basis) ==")
    lengths = list(range(4, 15))
    block_rows = []
    for name, spec in specs:
        fit = kd.block_coefficients(spec, "z", lengths, n=8192)
        vals = [value for _, value in fit.points]
        a, b, c = fit.params
        print(f"  {name:42s} a={a:+.4f} b={b:+.4f} c={c:+.4f} "
              f"residual {fit.residual_rms:.1e} bits")
        block_rows.append(vals)
    path = os.path.join(OUT, "block_law.csv")
    np.savetxt(path, np.column_stack([lengths] + block_rows), delimiter=",",
               header="l," + ",".join(f"S{i}" for i in range(len(specs))),
               comments="")
    print(f"wrote {path}")
    print("\nthe linear coefficients s and a are the diagonal-entropy "
          "densities whose kinks mark the transitions (see demo_critical_scan)")


if __name__ == "__main__":
    main()
