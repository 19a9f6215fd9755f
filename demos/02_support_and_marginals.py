"""Support verification and marginal consistency.

A joint distribution of two observables should only weight pairs of their
eigenvalues. The ordered-product scheme always does; the symmetric split
can place weight at coordinates no measurement could produce. Either way,
the one-variable marginals reproduce the Born statistics exactly.
"""

import numpy as np

import quasijoint as qj

spin = qj.spin_operators(1)
pair = (spin.j1, spin.j2)
y_plus = qj.DensityState.pure([1 / np.sqrt(2), 1j / np.sqrt(2)])

for name, spec in (
    ("ordered product", qj.scheme_kirkwood(2)),
    ("symmetric split", qj.scheme_s_alpha(0.5)),
):
    atoms = qj.build_atoms(spec, pair)
    dist = qj.evaluate_distribution(atoms, y_plus)
    report = qj.verify_support(dist, pair)
    print(f"{name}: weight only on eigenvalue pairs? {report.ok}")
    for point, weight in zip(report.offending.tolist(), report.weights):
        print(f"  off-grid atom at {tuple(point)} with weight {weight.real:+.3f}")

print()
print("Marginals against Born statistics (random observables, random state):")
rng = np.random.default_rng(7)
for dim in (2, 3, 4):
    a = qj.HermitianObservable(qj.random_hermitian(dim, rng), "A")
    b = qj.HermitianObservable(qj.random_hermitian(dim, rng), "B")
    rho = qj.random_density(dim, rng)
    for spec in (qj.scheme_kirkwood(2), qj.scheme_born_jordan(101)):
        dist = qj.evaluate_distribution(qj.build_atoms(spec, (a, b)), rho)
        devs = [
            qj.max_weight_deviation(qj.marginal(dist, v), qj.born_distribution(o, rho))
            for v, o in enumerate((a, b))
        ]
        print(f"  dim {dim}, {spec.label:17s}: max deviation {max(devs):.2e}")
