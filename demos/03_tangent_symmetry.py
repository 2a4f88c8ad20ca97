"""Symmetry of the exact consistent tangent of the closed-form steppers.

The closed-form stepper yields a nearly symmetric tangent; adding two
scalar Newton corrections (the 2iebm variant) pushes the asymmetry
below 1e-8, near round-off on most cells, which matters when a
symmetric global solver is to be used.  The full (dt, eta) grid is produced by

    mrmaxwell tangent-sweep --out results/

This demo runs a reduced grid.

    python3 demos/03_tangent_symmetry.py
"""

import mrmaxwell.harness as hn

cfg = hn.RunConfig(tangent_dts=(0.1,), tangent_etas=(10.0, 1.0, 0.1))
res = hn.run_tangent_sweep(cfg)

print("normalized tangent asymmetry, dt = 0.1")
print(f"{'eta':>8s}   {'ifebm':>10s}   {'2iebm':>10s}")
for eta in cfg.tangent_etas:
    a = res.values["deviation"][f"ifebm,dt=0.1,eta={eta}"]
    b = res.values["deviation"][f"2iebm,dt=0.1,eta={eta}"]
    print(f"{eta:8.3f}   {a:10.2e}   {b:10.2e}")

print("\nCSV form:")
print(res.tables["tangent_sweep.csv"])
