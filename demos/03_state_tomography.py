"""State reconstruction from joint weights of two spin directions.

The joint weights depend linearly on the state. When that map has full
rank N^2 - 1 on unit-trace states, two observables determine the whole
state, and linear inversion recovers it. Rank deficits mean whole families
of states share one distribution.

For Kirkwood-Dirac and Margenau-Hill weights on nondegenerate pairs, each
weight is one overlap c[a, b] times one entry of the state in the mixed
eigenbasis, so bounds on the overlaps certify full rank and the state is
inverted per atom, with no SVD; a state that does not reproduce the weights
falls back to the dense map. Split words and Born-Jordan open and close
on the first observable, so each weight touches one entry pair of the state
in its eigenbasis: the map splits into small blocks, decomposed and solved
block by block. Other schemes, and Kirkwood-Dirac pairs with a vanishing
overlap, build the dense map as one block and use its SVD.
``rmap.diagnostics`` names the route taken.
"""

import numpy as np

import quasijoint as qj

kd = qj.scheme_kirkwood(2)
rng = np.random.default_rng(42)

print("Distinguishability rank of (J1, J2) under different schemes:")
for j2x, label in ((1, "spin 1/2"), (2, "spin 1")):
    spin = qj.spin_operators(j2x)
    full = spin.dim**2 - 1
    for spec in (kd, qj.scheme_s_alpha(0.5), qj.scheme_margenau_hill(0.0)):
        rmap = qj.reconstruction_map(spin.j1, spin.j2, spec)
        rank, route = rmap.rank, rmap.diagnostics["inversion"]
        verdict = "determines the state" if rank == full else "rank deficient"
        print(f"  {label}, {spec.label:18s}: rank {rank}/{full} by {route:11s} ({verdict})")

print()
print("Round trip at spin 1: state -> joint weights -> state")
spin1 = qj.spin_operators(2)
rmap = qj.reconstruction_map(spin1.j1, spin1.j2, kd)
worst = 0.0
for _ in range(200):
    rho = qj.random_density(3, rng)
    dist = qj.evaluate_distribution(rmap.atoms, rho)
    rec = qj.reconstruct_state(rmap, dist)
    worst = max(worst, np.abs(rec.matrix - rho.matrix).max())
print(f"  max reconstruction error over 200 random states: {worst:.2e}")

print()
print("Rotating the first observable away from J3 (three levels):")
for phi in (np.pi / 6, np.pi / 3, 2.0, np.pi):
    rotated = qj.HermitianObservable(
        np.cos(phi) * spin1.j3.matrix + np.sin(phi) * spin1.j1.matrix, "rotated"
    )
    rank = qj.reconstruction_map(rotated, spin1.j3, kd).rank
    print(f"  angle {phi:.4f}: rank {rank}  " + ("(commuting pair)" if rank < 8 else ""))

print()
print("A reducible pair satisfies the counting bound yet fails to distinguish:")
a = qj.HermitianObservable(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex), "A")
b = qj.HermitianObservable(np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]), "B")
feasible = qj.degeneracy_feasible(3, 3, 3)
rank = qj.reconstruction_map(a, b, kd).rank
print(f"  counting bound: {feasible.lhs} <= {feasible.rhs} holds, but rank {rank} < 8")

print()
print("Open experiment: does one pair of spin components suffice above spin 1?")
for j2x in (3, 4):
    spin = qj.spin_operators(j2x)
    rank = qj.reconstruction_map(spin.j1, spin.j2, kd).rank
    full = spin.dim**2 - 1
    print(f"  spin {j2x}/2: rank {rank}/{full}")
