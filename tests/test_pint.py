"""The 3-step FFT solver against baselines, plus its batched middle step."""

import concurrent.futures
import inspect
import itertools
import os
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
from bhcp.bench import ExperimentConfig, run_experiment
from bhcp.circulant import TimeGrid, diagonalize, from_eigenspace, gamma_condition
from bhcp.methods import MethodKind, assemble
from bhcp.pint import solve_pint
from bhcp.space import build_grid, laplacian_eigenvalues, shifted_solve

from banded_reference import banded_solve
from circulant_reference import pack, to_eigenspace
from solver_reference import sine_mode, solve_shifts


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


@pytest.mark.parametrize("solver", ["pint", "sparse-lu", "spectral-oracle"])
def test_zero_data_gives_zero_solution(solver):
    # a zero rhs has norm 0, so the relative residual of the zero answer
    # is 0.0 by definition rather than a division by zero
    grid = build_grid(1, np.pi, 8)
    timegrid = TimeGrid(1.0, 8)
    kind = MethodKind.PINT_QBVM
    if solver == "spectral-oracle":
        result = solve_spectral_oracle(kind, 0.1, grid, timegrid, np.zeros(7))
    else:
        system = assemble(kind, 0.1, grid, timegrid, np.zeros(7))
        result = (solve_pint if solver == "pint" else solve_sparse_lu)(system)
    assert result.status == "ok"
    assert not result.trajectory.any()
    assert result.residual_norm() == 0.0


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
    # mirrored writes, and n steps give n + 1 levels, so both parities run.
    system = pint_system(kind, alpha=1e-2, m=m, n=n, dim=dim)
    diag = diagonalize(system.n_levels, system.omega)
    rotated = to_eigenspace(
        system.rhs().reshape(system.n_levels, system.n_space), diag
    )
    solved = np.stack([
        banded_solve(system.grid, d / system.timegrid.tau, level)
        for d, level in zip(diag.eigenvalues, rotated)
    ])
    expected = from_eigenspace(pack(solved), diag, system.n_space)
    fast = solve_pint(system).trajectory
    bound = 1e-13 * gamma_condition(diag.size, diag.omega)
    assert relative_gap(fast, expected) <= bound


@pytest.mark.parametrize(
    "case",
    list(itertools.product(
        (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM),
        (1, 2),
        ("even", "odd"),
        ("even", "odd"),
        ("example", "random"),
    )),
    ids=lambda case: "-".join(map(str, (case[0].value,) + case[1:])),
)
def test_answer_within_error_bound_or_refusal(case):
    # Seeded property: for alpha log-uniform in [1e-14, 1], n_space and
    # n_levels of either parity, each solve matches the per-mode oracle
    # within its error bound cond(Gamma)*eps (plus 100 ulps of roundoff from
    # the other steps and the oracle itself) or is refused as
    # ill-conditioned exactly when that bound exceeds the cut-off; a sweep
    # row is never an error.
    kind, dim, space_parity, level_parity, data_kind = case
    flags = (kind is MethodKind.PINT_MQBVM, space_parity == "odd",
             level_parity == "odd", data_kind == "random")
    rng = np.random.default_rng([2026, dim, *map(int, flags)])
    side = int(rng.integers(2, 33 if dim == 1 else 9))
    side += (side % 2 == 1) != (space_parity == "odd")
    levels = int(rng.integers(2, 41))
    levels += (levels % 2 == 1) != (level_parity == "odd")
    problem = get_problem(dim)
    grid = build_grid(dim, problem.length, side + 1)
    timegrid = TimeGrid(problem.horizon, levels - 1)
    data = (
        problem.final_on_grid(grid)
        if data_kind == "example"
        else rng.standard_normal(grid.n_interior)
    )
    eps = np.finfo(float).eps
    alphas = 10.0 ** rng.uniform(-14.0, 0.0, size=6)
    for alpha in alphas:
        system = assemble(kind, alpha, grid, timegrid, data)
        bound = gamma_condition(levels, system.omega) * eps
        result = solve_pint(system)
        if bound > bhcp.pint.ERROR_BOUND_LIMIT:
            assert result.status == "ill-conditioned", alpha
            assert result.trajectory is None
            continue
        assert result.status == "ok", alpha
        oracle = solve_spectral_oracle(kind, alpha, grid, timegrid, data).trajectory
        gap = relative_gap(result.trajectory, oracle)
        assert gap <= bound + 100 * eps, (alpha, gap / bound)
    config = ExperimentConfig(
        example=dim,
        methods=(kind,),
        solver="pint",
        meshes=((side + 1, levels - 1),),
        eps_values=(0.0,),
        seed=3,
        alpha_rule=f"fixed:{float(alphas[0])!r}",
    )
    assert run_experiment(config)[0].status in ("ok", "ill-conditioned")


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
    # The packed complex block holds the real trajectory, which then reuses
    # its memory; batch scratch of step B and C adds a few MiB on top.
    assert peak <= 1.5 * trajectory.nbytes


def parallel_cases():
    """Every pooled pass and the residual norm on meshes of several batches.

    Runs unchanged in a process pinned to one CPU, so it imports what it uses.
    """
    import numpy as np

    from bhcp.circulant import TimeGrid, diagonalize, from_eigenspace
    from bhcp.methods import MethodKind, assemble
    from bhcp.pint import solve_pint
    from bhcp.space import build_grid
    from circulant_reference import pack, to_eigenspace
    from solver_reference import residual

    out = {}
    for kind in (MethodKind.PINT_QBVM, MethodKind.PINT_MQBVM):
        # n steps give n + 1 levels, so both parities of the level count run;
        # m = 256 and 64 give an odd n_space, whose pad column the writer
        # fills and step C compacts out, m = 257 and 65 an even one
        meshes = (
            (1, 256, 512), (1, 256, 511), (2, 64, 40), (2, 64, 41),
            (1, 257, 511), (2, 65, 40),
        )
        for dim, m, n in meshes:
            grid = build_grid(dim, np.pi, m)
            data = np.random.default_rng(m + n).standard_normal(grid.n_interior)
            system = assemble(kind, 1e-3, grid, TimeGrid(1.0, n), data)
            result = solve_pint(system)
            key = f"{kind.value}-{dim}d-{m}-{n}"
            out[key] = result.trajectory
            out[f"{key}-residual"] = residual(system, result.trajectory)[0]
            out[f"{key}-residual-norm"] = result.residual_norm()
    for size, columns in ((513, 255), (512, 255), (512, 256)):
        real = np.random.default_rng(size).standard_normal((size, columns))
        diag = diagonalize(size, -1e2)
        coeffs = pack(to_eigenspace(real, diag))
        out[f"eigenspace-{size}-{columns}"] = from_eigenspace(coeffs, diag, columns)
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
    # Step B's shifted solves, with their writes into the packed block, are
    # the one threaded pass; step C and the residual run in the calling thread.
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
    block_nbytes = 16 * system.n_levels * ((system.n_space + 1) // 2)
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


def test_ill_conditioned_case_is_refused_before_any_work():
    # Clean example-1 data at alpha = 1e-10 is past what the change of basis
    # resolves: cond(Gamma)*eps is about 2e-6, over the 1e-7 cut-off. It was
    # the realness check's refusal case; the bound now turns it away a
    # priori, with a structured result and no allocation.
    grid = build_grid(1, np.pi, 256)
    data = get_problem(1).final_on_grid(grid)
    system = assemble(MethodKind.PINT_QBVM, 1e-10, grid, TimeGrid(1.0, 256), data)
    tracemalloc.start()
    try:
        result = solve_pint(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert result.status == "ill-conditioned"
    assert result.trajectory is None
    assert result.timings == {}
    assert result.message == "error bound cond(Gamma)*eps = 2.030e-06 exceeds 1e-07"
    assert np.isnan(result.residual_norm())


def test_error_bound_cut_off_is_inclusive(monkeypatch):
    system = pint_system(alpha=1e-6, m=16, n=9)
    bound = gamma_condition(system.n_levels, system.omega)
    bound *= np.finfo(float).eps
    monkeypatch.setattr(bhcp.pint, "ERROR_BOUND_LIMIT", bound)
    assert solve_pint(system).status == "ok"
    monkeypatch.setattr(bhcp.pint, "ERROR_BOUND_LIMIT", np.nextafter(bound, 0))
    assert solve_pint(system).status == "ill-conditioned"


def test_step_b_sine_mode_closed_form():
    grid = build_grid(1, np.pi, 8)
    spectrum = laplacian_eigenvalues(grid)
    tau = 0.125
    diag = diagonalize(9, -4.0)
    shifts = diag.eigenvalues / tau
    k = 3
    mode = sine_mode(grid, k)
    out = solve_shifts(grid, shifts, mode)
    mu = spectrum.eigenvalues[k - 1]
    expected = mode[None, :] / (shifts[:, None] + mu)
    assert np.allclose(out, expected, atol=1e-13)


def nearest_mode_distance(shifts, eigenvalues):
    """min_k |s + mu_k| for each shift, over an ascending spectrum.

    Rounded addition and abs are monotone in mu, so the smallest |s + mu_k|
    sits at one of the two eigenvalues next to -Re s: a full scan's answer
    in O(log M) per shift.
    """
    above = np.searchsorted(eigenvalues, -shifts.real)
    below = np.maximum(above - 1, 0)
    np.minimum(above, eigenvalues.size - 1, out=above)
    return np.minimum(
        np.abs(shifts + eigenvalues[below]), np.abs(shifts + eigenvalues[above])
    )


def edge_omegas(n):
    """The negative omegas of largest and smallest modulus that n levels admit."""
    eps = np.finfo(float).eps
    scale = (bhcp.pint.ERROR_BOUND_LIMIT / eps) ** (n / (n - 1))
    edges = []

    def admitted(omega):
        return gamma_condition(n, omega) * eps <= bhcp.pint.ERROR_BOUND_LIMIT

    for omega, outward in ((-scale, -np.inf), (-1.0 / scale, 0.0)):
        while not admitted(omega):
            omega = np.nextafter(omega, -1.0)
        while admitted(np.nextafter(omega, outward)):
            omega = np.nextafter(omega, outward)
        edges.append(omega)
    return edges


def test_step_b_shifts_keep_their_margin_from_the_spectrum(monkeypatch):
    # shifted_solve checks no shift; solve_pint's shifts d_j/tau stay away
    # from every -mu_k by the bound in its docstring, at the corners of what
    # the error bound and the block budget admit.
    seen = []
    monkeypatch.setattr(
        bhcp.pint, "shifted_solve", lambda grid, shifts, rhs, write: seen.append(shifts)
    )
    system = pint_system(n=8)
    solve_pint(system)
    d = diagonalize(9, system.omega).eigenvalues
    assert np.array_equal(seen[0], d[:5] / system.timegrid.tau)
    n_cap = bhcp.pint.BLOCK_BUDGET // 16
    assert np.sin(np.pi / n_cap) / 2 > 1e-8
    spectra = [
        laplacian_eigenvalues(build_grid(dim, np.pi, m)).eigenvalues
        for dim, m in [(1, 2), (1, 8), (1, 4096), (2, 64)]
    ]
    left = 0
    for n in (2, 3, 1025, 2**20 + 1):
        bound = np.sin(np.pi / n) / 2
        for omega in edge_omegas(n):
            d = diagonalize(n, omega).eigenvalues[: (n + 1) // 2]
            for tau in (1e-3, 1.0):
                shifts = d / tau
                right = shifts.real >= 0
                left += np.count_nonzero(~right)
                for eigenvalues in spectra:
                    distance = nearest_mode_distance(shifts, eigenvalues)
                    if shifts.size * eigenvalues.size <= 2**20:
                        scan = np.abs(np.add.outer(shifts, eigenvalues)).min(axis=1)
                        assert np.array_equal(distance, scan)
                    margin = distance / np.abs(shifts)
                    assert np.all(margin[right] >= 1.0)
                    assert np.all(margin[~right] >= bound), (n, omega, tau)
    assert left > 0


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
        solve_shifts(grid, np.ones((2, 3)), np.ones(7))
    with pytest.raises(ValueError):
        solve_shifts(grid, np.ones(3), np.ones((3, 7)))
