"""Seeded scenario generators for the four benchmark workloads.

A workload is a fixed list of operations (one *pass*); the benchmark repeats
the pass in a closed loop. The seed only changes the contents of each
scenario (random seeds, energies, bases, temperatures); the kinds, dimensions
and sizes of a pass are fixed per workload, so every seed measures the same
amount of work and only data not seen while tuning differs between seeds.

The program under test never sees the seed: it receives the scenario files
written from these dictionaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dense64", "qubit_batch", "oneshot_types", "selftest")

# Never used while the benchmark was written or tuned; see README.md.
HELD_OUT_SEED = 7_919_001


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a scenario plus what the checks need."""

    name: str
    scenario: dict
    dim: int


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _random(rng, d: int) -> dict:
    return {"random": {"dim": d, "seed": _seed(rng)}}


def _complex(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def _unitary(rng, d: int) -> np.ndarray:
    """Haar unitary from a phase-fixed QR of a complex Ginibre matrix."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _density(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _jarzynski_beta(rng, d: int) -> float:
    """Random Hamiltonians have spectral width ~4 sqrt(d); this keeps
    beta * width of order one, so e^(beta W) stays light-tailed and the
    five-standard-error check on the Monte-Carlo estimate is meaningful."""
    return float(rng.uniform(0.2, 0.6) / math.sqrt(d))


# each large-d op is drawn this many times per pass, so the seed changes
# several draws of it; the four cheap correlations ops are drawn once, so the
# p50 and tail of the 28 ops of a pass fall among the d^3-bound ops
DENSE_VARIANTS = 3


def _dense64(rng) -> list[Op]:
    ops = []
    # (system dim, Monte-Carlo samples, correlations system dim d_s)
    for v in range(DENSE_VARIANTS):
        for d, n_samples, ds in ((32, 10**6, 4), (64, 10**5, 8)):
            beta = lambda: _jarzynski_beta(rng, d)
            ops += [
                Op(f"v{v}-d{d}-project-energy", {
                    "kind": "project", "beta": beta(),
                    "state": _random(rng, d), "hamiltonian": _random(rng, d)}, d),
                Op(f"v{v}-d{d}-project-basis", {
                    "kind": "project", "beta": beta(),
                    "state": _random(rng, d), "hamiltonian": _random(rng, d),
                    "projectors": {"basis": _complex(_unitary(rng, d))}}, d),
                Op(f"v{v}-d{d}-protocol", {
                    "kind": "protocol", "beta": beta(),
                    "state": _random(rng, d), "hamiltonian": _random(rng, d),
                    "steps": [100, 1000, 10000]}, d),
                Op(f"v{v}-d{d}-jarzynski", {
                    "kind": "jarzynski", "beta": beta(),
                    "hamiltonian": _random(rng, d), "hamiltonian_final": _random(rng, d),
                    "unitary": _random(rng, d), "n_samples": n_samples,
                    "seed": _seed(rng)}, d),
            ]
            if v == 0:
                ops += [
                    Op(f"d{d}-correlations-basis", {
                        "kind": "correlations", "beta": beta(),
                        "state_sa": {"purify": _random(rng, ds)},
                        "hamiltonian": _random(rng, ds),
                        "projectors": {"basis": _complex(_unitary(rng, ds))}}, ds),
                    Op(f"d{d}-correlations-energy", {
                        "kind": "correlations", "beta": beta(),
                        "state_sa": {"purify": _random(rng, ds)},
                        "hamiltonian": _random(rng, ds)}, ds),
                ]
    return ops


def _qubit_state(rng, d: int, variant: int) -> dict:
    """Cycle through every state form the schema accepts."""
    form = variant % 5
    if form == 1:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        return {"pure": [[float(z.real), float(z.imag)] for z in v]}
    if form == 2:
        return {"matrix": _complex(_density(rng, d))}
    if form == 3 and d == 2:
        return {"bloch": {"a": float(rng.uniform(0.0, 1.0)),
                          "theta": float(rng.uniform(0.0, math.pi))}}
    if form == 4:
        return {"gibbs": {}}
    return _random(rng, d)


def _qubit_hamiltonian(rng, d: int, variant: int) -> dict:
    form = variant % 3
    if form == 1:
        return {"diag": [float(x) for x in rng.uniform(-1.0, 1.0, size=d)]}
    if form == 2:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return {"matrix": _complex((g + g.conj().T) / 2.0)}
    return _random(rng, d)


# 22 ops per round: 1100 distinct scenarios per pass, about 4 s, so a run
# holds seven or more passes for each op's best time
QUBIT_ROUNDS = 50


def _qubit_batch(rng) -> list[Op]:
    ops = []
    for r in range(QUBIT_ROUNDS):
        ops.append(Op(f"r{r}-bound_scan", {
            "kind": "bound_scan", "a": float(rng.uniform(0.0, 1.0)),
            "thetas": [float(x) for x in np.linspace(0.0, math.pi, 16)
                       + rng.uniform(0.0, 0.1)]}, 2))
        for d in (2, 3, 4):
            beta = lambda: float(rng.uniform(0.5, 2.0))
            ops += [
                Op(f"r{r}-d{d}-project-energy", {
                    "kind": "project", "beta": beta(),
                    "state": _qubit_state(rng, d, r),
                    "hamiltonian": _qubit_hamiltonian(rng, d, r)}, d),
                Op(f"r{r}-d{d}-project-basis", {
                    "kind": "project", "beta": beta(),
                    "state": _random(rng, d),
                    "hamiltonian": _qubit_hamiltonian(rng, d, r + 1),
                    "projectors": {"basis": _complex(_unitary(rng, d))}}, d),
                Op(f"r{r}-d{d}-protocol", {
                    "kind": "protocol", "beta": beta(),
                    "state": _random(rng, d),
                    "hamiltonian": _qubit_hamiltonian(rng, d, r + 2),
                    "steps": [10, 100]}, d),
                Op(f"r{r}-d{d}-jarzynski", {
                    "kind": "jarzynski", "beta": _jarzynski_beta(rng, d),
                    "hamiltonian": _random(rng, d),
                    "hamiltonian_final": _qubit_hamiltonian(rng, d, r),
                    "unitary": ({"matrix": _complex(_unitary(rng, d))} if r % 2
                                else _random(rng, d)),
                    "n_samples": 1000, "seed": _seed(rng)}, d),
                Op(f"r{r}-d{d}-singleshot", {
                    "kind": "singleshot", "beta": beta(),
                    "state": _random(rng, d), "hamiltonian": _random(rng, d),
                    "eps": (0.01, 0.05, 0.1)[r % 3], "n_copies": [4, 8, 16]}, d),
                Op(f"r{r}-d{d}-correlations-purify", {
                    "kind": "correlations", "beta": beta(),
                    "state_sa": {"purify": _random(rng, d)},
                    "hamiltonian": _random(rng, d),
                    "projectors": {"basis": _complex(_unitary(rng, d))}}, d),
                Op(f"r{r}-d{d}-correlations-product", {
                    "kind": "correlations", "beta": beta(),
                    "state_sa": {"product": {"system": _random(rng, d),
                                             "ancilla": _random(rng, 2)}},
                    "hamiltonian": _random(rng, d)}, d),
            ]
    return ops


# n_copies rungs, one op each. Above d=2 each alphabet's rungs give 1e4 to
# 6e4 type classes, C(n+d-1, d-1): d=3 8385..33153, d=4 12341..47905,
# d=5 10626..58905, so most ops are dominated by the enumeration. d=2 (at
# most 513 classes) stops at 512, below the known failure
ONESHOT_COPIES = {2: [256, 384, 512], 3: [128, 181, 256],
                  4: [40, 50, 64], 5: [20, 25, 32]}

# iid_rate exponentiates class masses; a class mass below ~e^-745 underflows
# to zero and the run reports -inf work (see README.md, known failure). With
# level spacings inside [0, 1], n * (beta + ln d) <= 600 keeps every class
# mass representable.
_CLASS_LOG_MASS_LIMIT = 600.0


def _oneshot_types(rng) -> list[Op]:
    ops = []
    for d, copies in ONESHOT_COPIES.items():
        beta_max = _CLASS_LOG_MASS_LIMIT / max(copies) - math.log(d)
        for eps in (0.01, 0.05, 0.1):
            # one op per rung: 36 ops, so p50 and tail rest on many ops
            for n in copies:
                energies = np.sort(rng.uniform(0.0, 1.0, size=d))
                ops.append(Op(f"d{d}-eps{eps}-n{n}", {
                    "kind": "singleshot",
                    "beta": float(rng.uniform(0.5, 1.0) * beta_max),
                    # explicit, so the check can recompute w_opt without the library
                    "state": {"matrix": _complex(_density(rng, d))},
                    "hamiltonian": {"diag": [float(e) for e in energies]},
                    "eps": eps, "n_copies": [n]}, d))
    return ops


# Reproduces the known oneshot_types failure: iid_rate returns -inf work and
# the report serialiser's ValueError escapes `coherework run` with exit 1.
KNOWN_FAILURE = {
    "kind": "singleshot", "beta": 1.0,
    "state": {"random": {"dim": 2, "seed": 1}},
    "hamiltonian": {"random": {"dim": 2, "seed": 101}},
    "eps": 0.05, "n_copies": [1024],
}

_GENERATORS = {"dense64": _dense64, "qubit_batch": _qubit_batch,
               "oneshot_types": _oneshot_types}


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload`` for ``seed`` (empty for selftest,
    whose inputs are the acceptance suite's fixed internal seeds)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "selftest":
        return []
    return _GENERATORS[workload](_rng(workload, seed))
