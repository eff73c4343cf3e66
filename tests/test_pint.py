"""The 3-step FFT solver against baselines, plus its batched middle step."""

import concurrent.futures
import inspect
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import bhcp
from bhcp import space
from bhcp.analysis import get_problem
from bhcp.baseline import solve_sparse_lu, solve_spectral_oracle
from bhcp.circulant import (
    ImaginaryResidueError,
    TimeGrid,
    diagonalize,
    from_eigenspace,
)
from bhcp.methods import MethodKind, assemble
from bhcp.pint import solve_pint
from bhcp.space import (
    SingularShiftError,
    build_grid,
    laplacian_eigenvalues,
    shifted_solve,
)

from banded_reference import banded_solve
from circulant_reference import to_eigenspace
from solver_reference import sine_mode


def pint_system(kind=MethodKind.PINT_QBVM, alpha=0.1, m=8, n=8, dim=1, seed=4):
    grid = build_grid(dim, np.pi, m)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.n_interior)
    return assemble(kind, alpha, grid, TimeGrid(1.0, n), data)


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_matches_sparse_lu():
    system = pint_system()
    fast = solve_pint(system).trajectory
    slow = solve_sparse_lu(system).trajectory
    assert relative_gap(fast, slow) <= 1e-9


def test_matches_spectral_oracle():
    system = pint_system()
    fast = solve_pint(system).trajectory
    oracle = solve_spectral_oracle(
        system.method.kind, system.method.alpha, system.grid, system.timegrid,
        system.data,
    ).trajectory
    assert relative_gap(fast, oracle) <= 1e-9


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
def test_matches_oracle_2d(kind):
    system = pint_system(kind, alpha=1e-2, m=6, n=5, dim=2)
    fast = solve_pint(system).trajectory
    oracle = solve_spectral_oracle(
        kind, 1e-2, system.grid, system.timegrid, system.data
    ).trajectory
    assert relative_gap(fast, oracle) <= 1e-9


def test_zero_data_gives_zero_solution():
    grid = build_grid(1, np.pi, 8)
    system = assemble(
        MethodKind.PINT_QBVM, 0.1, grid, TimeGrid(1.0, 8), np.zeros(7)
    )
    result = solve_pint(system)
    assert not result.trajectory.any()


@pytest.mark.parametrize("kind", [MethodKind.QBVM, MethodKind.MQBVM])
def test_rejects_classic_kinds(kind):
    with pytest.raises(ValueError):
        solve_pint(pint_system(kind))


def test_residual_scales_with_corner_size():
    system = pint_system(alpha=1e-3)
    result = solve_pint(system)
    assert result.residual_norm() <= 1e-8 * max(1.0, abs(system.omega))


def test_result_layout_and_timings():
    system = pint_system()
    result = solve_pint(system)
    assert result.status == "ok"
    assert result.solver == "pint"
    assert result.trajectory.shape == (system.n_levels, system.n_space)
    assert result.trajectory.dtype == np.float64
    assert result.trajectory.flags["C_CONTIGUOUS"]
    assert np.array_equal(result.initial_state, result.trajectory[0])
    steps = [result.timings[k] for k in ("step_a", "step_b", "step_c")]
    assert all(t >= 0 for t in steps)
    assert result.timings["total"] == pytest.approx(sum(steps), abs=1e-9)


def test_total_includes_diagonalize(monkeypatch):
    def slow_diagonalize(*args):
        time.sleep(0.02)
        return diagonalize(*args)

    monkeypatch.setattr(bhcp.pint, "diagonalize", slow_diagonalize)
    result = solve_pint(pint_system())
    assert result.timings["step_a"] >= 0.02
    assert result.timings["total"] >= 0.02
    steps = [result.timings[k] for k in ("step_a", "step_b", "step_c")]
    assert result.timings["total"] == pytest.approx(sum(steps), abs=1e-9)


@pytest.mark.parametrize("kind", [MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM])
@pytest.mark.parametrize(
    "dim, m, n", [(1, 12, 7), (1, 12, 8), (2, 6, 5), (2, 6, 6)]
)
def test_matches_per_level_banded_loop(kind, dim, m, n):
    # Reference: full time FFT of rhs, one banded solve per level with its own
    # eigenvalue, back FFT. It uses neither the closed-form step A nor the
    # conjugate fill, and n steps give n + 1 levels, so both parities run.
    system = pint_system(kind, alpha=1e-2, m=m, n=n, dim=dim)
    diag = diagonalize(system.n_levels, system.omega)
    rotated = to_eigenspace(
        system.rhs().reshape(system.n_levels, system.n_space), diag
    )
    solved = np.stack([
        banded_solve(system.grid, d / system.timegrid.tau, level)
        for d, level in zip(diag.eigenvalues, rotated)
    ])
    expected = from_eigenspace(solved, diag)
    fast = solve_pint(system).trajectory
    assert relative_gap(fast, expected) <= 1e-13 * diag.condition_gamma


def test_repeat_calls_are_bitwise_identical():
    system = pint_system(alpha=1e-3, m=16, n=9)
    first = solve_pint(system).trajectory
    second = solve_pint(system).trajectory
    assert np.array_equal(first, second)


def test_peak_memory_is_the_complex_block():
    system = pint_system(m=128, n=64, dim=2)
    solve_pint(system)
    tracemalloc.start()
    try:
        trajectory = solve_pint(system).trajectory
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The complex block is twice the real trajectory, which then reuses its
    # memory; batch temporaries of step B and C add a few MiB on top.
    assert peak <= 3.0 * trajectory.nbytes


def parallel_cases():
    """Results of every pooled pass on meshes that span several level batches.

    Runs unchanged in a process pinned to one CPU, so it imports what it uses.
    """
    import numpy as np

    from bhcp.circulant import TimeGrid, diagonalize, from_eigenspace
    from bhcp.methods import MethodKind, assemble
    from bhcp.pint import solve_pint
    from bhcp.space import build_grid
    from circulant_reference import to_eigenspace
    from solver_reference import residual

    out = {}
    for kind in (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM):
        # n steps give n + 1 levels, so both parities of the level count run
        for dim, m, n in ((1, 256, 512), (1, 256, 511), (2, 64, 40), (2, 64, 41)):
            grid = build_grid(dim, np.pi, m)
            data = np.random.default_rng(m + n).standard_normal(grid.n_interior)
            system = assemble(kind, 1e-3, grid, TimeGrid(1.0, n), data)
            trajectory = solve_pint(system).trajectory
            out[f"{kind.value}-{dim}d-{n}"] = trajectory
            out[f"{kind.value}-{dim}d-{n}-residual"] = residual(system, trajectory)[0]
    for size in (513, 512):
        real = np.random.default_rng(size).standard_normal((size, 255))
        diag = diagonalize(size, -1e2)
        out[f"eigenspace-{size}"] = from_eigenspace(to_eigenspace(real, diag), diag)
    return out


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control"
)
def test_pooled_passes_match_one_cpu_bitwise(tmp_path):
    # The same passes in a process pinned to one CPU, where every batch runs
    # inline, give the same bits as here, where helper threads share them.
    path = tmp_path / "one_cpu.npz"
    script = "\n".join([
        "import os, sys",
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
        "from bhcp import space",
        "assert space.WORKERS == 1, space.WORKERS",
        inspect.getsource(parallel_cases),
        "import numpy as np",
        "np.savez(sys.argv[1], **parallel_cases())",
    ])
    src = os.path.dirname(os.path.dirname(bhcp.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    subprocess.run(
        [sys.executable, "-c", script, str(path)],
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
        timeout=300,
    )
    here = parallel_cases()
    with np.load(path) as one_cpu:
        assert sorted(one_cpu.files) == sorted(here)
        for key, value in here.items():
            assert np.array_equal(value, one_cpu[key]), key


def test_pooled_solve_with_more_threads_than_cores(monkeypatch):
    # Batches write disjoint slices of one shared block; many threads and a
    # tiny switch interval give the helpers every chance to interleave them.
    systems = [pint_system(m=256, n=512), pint_system(m=64, n=41, dim=2)]
    monkeypatch.setattr(space, "WORKERS", 1)
    expected = [solve_pint(system).trajectory for system in systems]
    monkeypatch.setattr(space, "WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for system, trajectory in zip(systems, expected):
                assert np.array_equal(solve_pint(system).trajectory, trajectory)
    finally:
        sys.setswitchinterval(interval)


def test_only_step_b_reaches_the_pool(monkeypatch):
    # Step B's shifted solves are the one threaded pass; the conjugate fill,
    # step C and the residual run in the calling thread.
    submitted = set()

    class Recorder:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.add(fn.__qualname__)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(space, "WORKERS", 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    solve_pint(pint_system(m=64, n=40, dim=2)).residual_norm()
    assert submitted == {"shifted_solve.<locals>.solve_rows"}


def test_no_thread_outlives_a_solve(monkeypatch):
    # Step B's helper threads are started for one call and joined in it.
    monkeypatch.setattr(space, "WORKERS", 2)
    system = pint_system(m=64, n=40, dim=2)
    before = threading.active_count()
    solve_pint(system).residual_norm()
    assert threading.active_count() == before


def test_block_over_budget_is_refused_before_any_work(monkeypatch):
    system = pint_system(m=64, n=40, dim=2)
    block_nbytes = 16 * system.n_levels * system.n_space
    monkeypatch.setattr(bhcp.pint, "BLOCK_BUDGET", block_nbytes - 1)
    tracemalloc.start()
    try:
        result = solve_pint(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.status == "infeasible"
    assert result.trajectory is None
    assert result.timings == {}
    assert str(block_nbytes) in result.message
    assert np.isnan(result.residual_norm())
    # a block of exactly the budget is admitted
    monkeypatch.setattr(bhcp.pint, "BLOCK_BUDGET", block_nbytes)
    assert solve_pint(system).status == "ok"


def test_default_block_budget_admits_every_benchmark_mesh():
    # criterion 6's largest pint mesh and 2D 512^2 x 512 stay under it;
    # 2D 1024^2 x 1024 does not
    for m, n, dim in ((4096, 4096, 1), (512, 512, 2)):
        levels, space_size = n + 1, (m - 1) ** dim
        assert 16 * levels * space_size <= bhcp.pint.BLOCK_BUDGET
    assert 16 * 1025 * 1023**2 > bhcp.pint.BLOCK_BUDGET


def test_imaginary_residue_error_from_step_c():
    # Clean example-1 data at alpha = 1e-10 is past what the change of basis
    # resolves; the realness check still refuses it, with the same numbers.
    grid = build_grid(1, np.pi, 256)
    data = get_problem(1).final_on_grid(grid)
    system = assemble(MethodKind.PINT_QBVM, 1e-10, grid, TimeGrid(1.0, 256), data)
    message = (
        "imaginary residue 9.508e-06 exceeds 1.0e-08 of the result norm 3.037e+02"
    )
    with pytest.raises(ImaginaryResidueError, match=f"^{re.escape(message)}$"):
        solve_pint(system)


def test_step_b_single_column():
    # a one-element shift vector gives the scalar solve as its only row
    grid = build_grid(1, np.pi, 8)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(7)
    out = shifted_solve(grid, np.array([2.0 + 1.0j]), rhs)
    assert out.shape == (1, 7)
    assert np.array_equal(out[0], shifted_solve(grid, 2.0 + 1.0j, rhs))


def test_step_b_sine_mode_closed_form():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    tau = 0.125
    diag = diagonalize(9, -4.0)
    shifts = diag.eigenvalues / tau
    k = 3
    mode = sine_mode(grid, k)
    out = shifted_solve(grid, shifts, mode)
    mu = spectrum.eigenvalues[k - 1]
    expected = mode[None, :] / (shifts[:, None] + mu)
    assert np.allclose(out, expected, atol=1e-13)


def test_step_b_reports_failing_column():
    # vector-shift solves name the index of the offending shift
    grid = build_grid(1, np.pi, 8)
    mu1 = laplacian_eigenvalues(grid).eigenvalues[0]
    shifts = np.array([1.0, 2.0, -mu1, 4.0])
    with pytest.raises(SingularShiftError, match="shift 2 "):
        shifted_solve(grid, shifts, np.ones(7))


def test_step_b_reports_index_in_a_late_batch():
    # 40 levels of 1023 complex values span two pooled batches; the index
    # is the shift's place in the whole vector, not in its batch
    grid = build_grid(1, np.pi, 1024)
    mu = laplacian_eigenvalues(grid).eigenvalues
    shifts = np.linspace(1.0, 40.0, 40) + 1.0j
    shifts[37] = -mu[100]
    with pytest.raises(SingularShiftError, match="^shift 37 "):
        shifted_solve(grid, shifts, np.ones(1023))


@pytest.mark.parametrize(
    "dim, m, n", [(1, 1024, 128), (1, 1024, 129), (2, 192, 4), (2, 192, 5)]
)
def test_step_b_is_one_shifted_solve(monkeypatch, dim, m, n):
    # Step B solves all its levels, several pooled batches here, in one call
    # that transforms the field once; n steps give n + 1 levels.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return shifted_solve(*args, **kwargs)

    system = pint_system(m=m, n=n, dim=dim)
    expected = solve_pint(system).trajectory
    monkeypatch.setattr(bhcp.pint, "shifted_solve", counting)
    assert np.array_equal(solve_pint(system).trajectory, expected)
    assert calls == [((n + 2) // 2,)]


def test_step_b_shape_check():
    grid = build_grid(1, np.pi, 8)
    with pytest.raises(ValueError):
        shifted_solve(grid, np.ones((2, 3)), np.ones(7))
    with pytest.raises(ValueError):
        shifted_solve(grid, np.ones(3), np.ones((3, 7)))
