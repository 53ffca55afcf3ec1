"""States, Hamiltonians and projector families the library builds itself skip
the boundary checks of the public constructors. Raw-matrix oracles check that
what they skip holds on the library's outputs, and that a NaN reaching the
trusted path still raises a typed error."""

import sys

import numpy as np
import pytest

from coherework import linalg
from coherework.correlations import _lift
from coherework.errors import CohereworkError, StateValidationError
from coherework.projection import (
    ProjectorSet,
    energy_projectors,
    optimal_projection_work,
    project,
)
from coherework.protocol import build_plan
from coherework.sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_projector_set,
    random_unitary,
)
from coherework.states import (
    DensityMatrix,
    Hamiltonian,
    Temperature,
    bloch_qubit,
    gibbs_state,
    partial_trace,
    purify,
)


def assert_state(rho: DensityMatrix, known_eigen_data: bool = False):
    """Hermitian, unit trace and PSD, judged on the raw matrix; the public
    constructor accepts it and factorises it to the same bits, or, for a
    state built from ``known_eigen_data``, to the same spectrum within
    rounding, and the stored eigen-data factorises the matrix."""
    m = rho.mat
    assert m.dtype == complex and m.shape == (rho.dim, rho.dim)
    assert np.isfinite(m).all()
    assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1e-300)
    assert abs(np.trace(m).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(m).min() >= -1e-10
    public = DensityMatrix(m)
    w, v = rho.spectrum(), rho.eigenvectors
    if known_eigen_data:
        d = rho.dim
        assert np.all(np.diff(w) >= 0.0) and abs(w.sum() - 1.0) <= 1e-14 * d
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-12
        assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-14 * d
        assert np.abs(w - public.spectrum()).max() <= 1e-14 * d
    else:
        assert w.tobytes() == public.spectrum().tobytes()
        assert v.tobytes() == public.eigenvectors.tobytes()
    assert not m.flags.writeable and not v.flags.writeable


def assert_family(p: ProjectorSet):
    """Unitary basis and clusters that partition its columns, judged on the raw
    arrays; the public constructor accepts them and builds the same mask."""
    b = p.basis
    d = b.shape[0]
    assert b.shape == (d, d) and p.dim == d
    assert np.abs(b.conj().T @ b - np.eye(d)).max() <= 1e-12
    assert all(c.ndim == 1 and c.size > 0 for c in p.clusters)
    assert np.array_equal(np.sort(np.concatenate(p.clusters)), np.arange(d))
    assert p.ranks == tuple(c.size for c in p.clusters)
    assert np.array_equal(p.mask, ProjectorSet(b, p.clusters).mask)
    assert not b.flags.writeable and not p.mask.flags.writeable
    assert not any(c.flags.writeable for c in p.clusters)


def _hamiltonians(d, rng):
    """A random Hamiltonian and one with a degenerate level (d >= 3)."""
    yield random_hamiltonian(d, rng)
    if d >= 3:
        u = random_unitary(d, rng)
        levels = np.repeat([-1.0, 0.5, 2.0], [1, d - 2, 1])
        yield Hamiltonian((u * levels) @ u.conj().T)


CASES = [(d, seed) for d in range(1, 9) for seed in (0, 1)]


@pytest.mark.parametrize("d, seed", CASES)
def test_library_states_pass_raw_checks(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    rho = random_density_matrix(d, rng)
    assert_state(rho)
    assert_state(purify(rho))
    assert_state(project(rho, random_projector_set(d, rng)))
    for h in _hamiltonians(d, rng):
        t = Temperature(beta=float(rng.uniform(0.2, 3.0)))
        assert_state(gibbs_state(h, t))
        assert_state(project(rho, energy_projectors(h)))
        assert_state(build_plan(rho, h, t).rho0, known_eigen_data=True)
    for d0 in (1, 2, d):
        if d % d0 == 0:
            joint = random_density_matrix(d, rng)
            assert_state(partial_trace(joint, (d0, d // d0), keep=0))
            assert_state(partial_trace(joint, (d0, d // d0), keep=1))


def test_bloch_qubit_passes_raw_checks():
    for a in (0.0, 0.3, 1.0):
        for theta in (0.0, 1.1, np.pi):
            assert_state(bloch_qubit(a, theta))


@pytest.mark.parametrize("d, seed", CASES)
def test_library_families_pass_raw_checks(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    assert_family(random_projector_set(d, rng))
    for h in _hamiltonians(d, rng):
        p = energy_projectors(h)
        assert_family(p)
        assert [len(c) for c in p.clusters] == [len(c) for c in h.clusters]
        for dim_a in (1, 2, 3):
            lifted = _lift(random_projector_set(d, rng), dim_a)
            assert_family(lifted)
            assert lifted.ranks == (dim_a,) * d
            assert_family(_lift(p, dim_a))


@pytest.mark.parametrize("d", range(1, 9))
def test_random_hamiltonian_is_a_public_hamiltonian(d):
    h = random_hamiltonian(d, np.random.default_rng(d))
    public = Hamiltonian(h.mat)
    assert np.array_equal(h.mat, h.mat.conj().T)
    for name in ("mat", "eigenvalues", "eigenvectors", "energies"):
        assert getattr(h, name).tobytes() == getattr(public, name).tobytes()
    assert [c.tolist() for c in h.clusters] == [c.tolist() for c in public.clusters]


def test_no_boundary_checks_on_library_output(monkeypatch):
    """Projecting a validated state with a Hamiltonian's own eigenprojectors
    validates nothing again."""
    rng = np.random.default_rng(9)
    rho, h = random_density_matrix(5, rng), random_hamiltonian(5, rng)
    calls = {"hermitian_part": 0, "is_unitary": 0}
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "coherework" or name.startswith("coherework."))]
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    report = optimal_projection_work(rho, h, energy_projectors(h), Temperature(0.7))
    assert report.entropy_change >= 0.0
    assert calls == {"hermitian_part": 0, "is_unitary": 0}
    DensityMatrix(rho.mat)  # the counters see a public construction
    assert calls["hermitian_part"] == 1


@pytest.mark.parametrize("make", [random_density_matrix, random_hamiltonian,
                                  random_projector_set])
def test_empty_random_instance_is_rejected(make):
    with pytest.raises(StateValidationError):
        make(0, np.random.default_rng(0))


@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3)])
def test_nan_on_the_trusted_path_raises_typed_error(i, j, imag):
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[i, j] = complex(m[i, j].real, np.nan) if imag else np.nan
    with pytest.raises(CohereworkError):
        DensityMatrix._trusted(m)
