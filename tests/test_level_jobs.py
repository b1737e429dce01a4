"""run_levels on two threads against the serial level loop it replaced, the
identity guard every level job applies, and tracking check (i) across levels.

The oracle is that serial loop, kept here: fine-mesh reference levels
first, then the study levels by refinement, each solved on the calling
thread. The threaded run must give the same records and reference bit for
bit, and raise the first failure in the same order, with the same type and
message. The process is made to see two CPUs, so that the helper thread runs
on any machine; with one CPU every job runs on the calling thread, in the
order of the helper's queue.
"""

import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from eigshape import cli, convergence, eig, shapegrad
from eigshape import reference as refmod
from eigshape.convergence import IdentityError, StudyConfig, StudyRecord, run_levels
from eigshape.eig import NonConvergenceError, Target
from eigshape.fem import BoundaryCondition
from eigshape.mesh import Domain, generate, mesh_size, refine, vertex_count
from eigshape.velocity import build_basis, dual_norm, gramian

D, N = BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(convergence, "_cpus", lambda: 2)


def serial_run_levels(cfg):
    """The serial level loop: reference levels, then study levels, in order."""
    basis = build_basis(cfg.gamma)
    if cfg.reference_level is None:
        ref = refmod.continuous_derivatives(cfg.domain, cfg.bc, basis.fields)
    else:
        levels = []
        for lv in range(cfg.reference_level - 2, cfg.reference_level + 1):
            space, pair, _ = convergence._solve_level(generate(cfg.domain, lv), cfg.bc,
                                                      cfg.target)
            levels.append(convergence._Level("reference", lv, space=space, pair=pair,
                                             volume=shapegrad.volume_gradients(
                                                 space, pair, basis.fields)))
        ref = convergence.extrapolated_reference(levels)
    records = []
    mesh = generate(cfg.domain, cfg.min_level)
    for level in range(cfg.min_level, cfg.max_level + 1):
        if level > cfg.min_level:
            mesh = refine(mesh)
        space, pair, _ = convergence._solve_level(mesh, cfg.bc, cfg.target)
        K = gramian(basis, mesh)
        vol = shapegrad.volume_gradients(space, pair, basis.fields)
        bnd = shapegrad.boundary_gradients(space, pair, basis.fields)
        records.append(StudyRecord(
            level=level, h=mesh_size(mesh), dof=space.dof_count, lambda_h=pair.lam,
            E_volume=dual_norm(ref.values - vol, K), E_boundary=dual_norm(ref.values - bnd, K)))
    return records, ref


def config(domain, bc, reference_level=5, target=Target.first(), gamma=3):
    return StudyConfig(domain, bc, 1, 3, gamma=gamma, target=target,
                       reference_level=reference_level)


# analytic references on the square and the disk (a Neumann `first` tracks
# another eigenvalue than the reference's), fine-mesh ones on all three domains
CASES = [config(d, bc, None, Target.first() if bc is D else Target.match_exact())
         for d in (Domain.UNIT_SQUARE, Domain.UNIT_DISK) for bc in (D, N)]
CASES += [config(d, bc) for d in Domain for bc in (D, N)]


@pytest.mark.parametrize("cfg", CASES, ids=lambda c: f"{c.domain.value}-{c.bc.value}-"
                         f"{'analytic' if c.reference_level is None else 'finemesh'}")
@pytest.mark.parametrize("cpus", [1, 2])
def test_run_levels_equals_the_serial_loop(monkeypatch, cfg, cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    threads = threading.active_count()
    records, ref = run_levels(cfg)
    want_records, want_ref = serial_run_levels(cfg)
    assert records == want_records
    assert np.array_equal(ref.values, want_ref.values) and ref.lam == want_ref.lam
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_cpu_runs_every_level_on_the_calling_thread(monkeypatch, cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    solve, threads = convergence._solve_level, {}

    def recording(mesh, bc, target, *ahead):
        threads[mesh.num_vertices] = threading.current_thread() is threading.main_thread()
        return solve(mesh, bc, target, *ahead)

    monkeypatch.setattr(convergence, "_solve_level", recording)
    cfg = config(Domain.UNIT_SQUARE, D)
    records, ref = run_levels(cfg)
    inline = {vertex_count(cfg.domain, lv): lv == 5 or cpus == 1 for lv in (1, 2, 3, 4, 5)}
    assert threads == inline
    want_records, want_ref = serial_run_levels(cfg)
    assert records == want_records and np.array_equal(ref.values, want_ref.values)


@pytest.mark.parametrize("reference_level,helper_order", [
    (None, [("study", 2), ("study", 1)]),
    # ties keep list order: the reference's level 3 before the study's
    (5, [("reference", 4), ("reference", 3), ("study", 3), ("study", 2), ("study", 1)]),
], ids=["analytic", "finemesh"])
def test_the_helper_solves_the_largest_level_first(monkeypatch, reference_level, helper_order):
    # so the largest coarse eigensolve runs next to the finest assembly and
    # factorization, not next to the finest eigensolve
    stage, order = convergence._solve_stage, []

    def recording(cfg, lv, *ahead):
        if threading.current_thread() is not threading.main_thread():
            order.append((lv.role, lv.level))
        return stage(cfg, lv, *ahead)

    monkeypatch.setattr(convergence, "_solve_stage", recording)
    cfg = config(Domain.UNIT_SQUARE, D, reference_level)
    records, ref = run_levels(cfg)
    assert order == helper_order
    want_records, want_ref = serial_run_levels(cfg)
    assert records == want_records and np.array_equal(ref.values, want_ref.values)


def evaluated(role, *levels):
    return [("evaluate", role, lv) for lv in levels]


@pytest.mark.parametrize("cfg,helper_queue", [
    # reference, coarse solves largest first (each builds its own interpolant
    # at the pick), the finest interpolant, coarse evaluations
    (config(Domain.UNIT_DISK, N, None, Target.match_exact()),
     [("reference",), ("solve", "study", 2), ("interpolant", 2), ("solve", "study", 1),
      ("interpolant", 1), ("interpolant", 3), *evaluated("study", 1, 2)]),
    # the finest level is the reference's level 5
    (config(Domain.UNIT_SQUARE, D),
     [("solve", "reference", 4), ("solve", "reference", 3), ("solve", "study", 3),
      ("solve", "study", 2), ("solve", "study", 1),
      *evaluated("reference", 3, 4), *evaluated("study", 1, 2, 3)]),
], ids=["disk-neumann-match_exact", "square-dirichlet-finemesh"])
def test_one_cpu_follows_the_two_thread_plan(monkeypatch, cfg, helper_queue):
    """With one CPU the helper's queue runs in its order on the calling thread,
    and then the finest level's solve and evaluation."""
    monkeypatch.setattr(convergence, "_cpus", lambda: 1)
    order, threads = [], set()
    levels = {vertex_count(cfg.domain, lv): lv for lv in range(1, 6)}

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            threads.add(threading.current_thread())
            lv = next((a for a in args if isinstance(a, convergence._Level)), None)
            if name == "interpolant":
                order.append((name, levels[args[0].num_vertices]))
            else:
                order.append((name,) if lv is None else (name, lv.role, lv.level))
            return fn(*args, **kwargs)
        return wrapped

    for name, attr in [("reference", "reference_derivatives_for"), ("solve", "_solve_stage"),
                       ("interpolant", "_exact_nodal"), ("evaluate", "_evaluate_stage")]:
        monkeypatch.setattr(convergence, attr, recorded(name, getattr(convergence, attr)))
    records, ref = run_levels(cfg)
    finest = [("solve", "study", 3), ("evaluate", "study", 3)]
    if cfg.reference_level is not None:
        finest = [("solve", "reference", 5), ("evaluate", "reference", 5)]
    assert order == helper_queue + finest
    assert threads == {threading.main_thread()}
    want_records, want_ref = serial_run_levels(cfg)
    assert records == want_records and np.array_equal(ref.values, want_ref.values)


def fail_at(monkeypatch, domain, failures):
    """Make the level solve raise failures[level] on the mesh of that level."""
    solve = convergence._solve_level
    by_vertices = {vertex_count(domain, lv): exc for lv, exc in failures.items()}

    def failing(mesh, bc, target, *ahead):
        if mesh.num_vertices in by_vertices:
            raise by_vertices[mesh.num_vertices]
        return solve(mesh, bc, target, *ahead)

    monkeypatch.setattr(convergence, "_solve_level", failing)


class InjectedError(RuntimeError):
    """A failure of another type than a stalled solve."""


injected = InjectedError("injected at a reference level")


def stalled(level):
    return NonConvergenceError(f"injected at level {level}", 1e-3)


@pytest.mark.parametrize("reference_level,failures,raised", [
    # a coarse study level, on the helper thread
    (None, {1: stalled(1)}, NonConvergenceError),
    (None, {1: stalled(1), 3: injected}, NonConvergenceError),
    # the finest study level, inline, after a helper failure in list order
    (None, {3: stalled(3), 2: injected}, InjectedError),
    # the coarsest reference level (helper) comes before the finest (inline)
    (5, {3: injected, 5: stalled(5), 1: stalled(1)}, InjectedError),
    # the finest reference level (inline) comes before every study level (helper)
    (5, {5: stalled(5), 1: injected}, NonConvergenceError),
    (5, {2: stalled(2)}, NonConvergenceError),
    # a small level before a large one in list order, the large one solved first
    (None, {1: stalled(1), 2: injected}, NonConvergenceError),
    (5, {1: injected, 4: stalled(4)}, NonConvergenceError),
], ids=["study_helper", "study_helper_first", "helper_before_inline", "reference_helper",
        "reference_inline", "study_after_reference", "small_before_large",
        "large_reference_before_small_study"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_is_raised_in_serial_order(monkeypatch, reference_level, failures, raised,
                                             cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = config(Domain.UNIT_SQUARE, D, reference_level)
    fail_at(monkeypatch, cfg.domain, failures)
    threads = threading.active_count()
    with pytest.raises(raised) as threaded:
        run_levels(cfg)
    assert threading.active_count() == threads
    with pytest.raises(raised) as serial:
        serial_run_levels(cfg)
    assert str(threaded.value) == str(serial.value)


def fail_gramian_at(monkeypatch, domain, level):
    """Make the Gramian raise on the mesh of that study level."""
    K, triangles = convergence.gramian, generate(domain, level).num_triangles

    def failing(basis, mesh):
        if mesh.num_triangles == triangles:
            raise InjectedError(f"injected Gramian failure at level {level}")
        return K(basis, mesh)

    monkeypatch.setattr(convergence, "gramian", failing)
    monkeypatch.setitem(globals(), "gramian", failing)  # the serial oracle's


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cfg", [config(Domain.UNIT_SQUARE, D, None),
                                 config(Domain.UNIT_DISK, N, None, Target.match_exact())],
                         ids=["square-first", "disk-match_exact"])
def test_a_finest_solve_failure_comes_before_its_gramian_failure(monkeypatch, cfg, cpus):
    # on two CPUs the helper builds the finest Gramian while the finest level solves
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    fail_at(monkeypatch, cfg.domain, {3: stalled(3)})
    fail_gramian_at(monkeypatch, cfg.domain, 3)
    threads = threading.active_count()
    with pytest.raises(NonConvergenceError) as threaded:
        run_levels(cfg)
    assert threading.active_count() == threads
    with pytest.raises(NonConvergenceError) as serial:
        serial_run_levels(cfg)
    assert str(threaded.value) == str(serial.value)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_finest_identity_failure_comes_before_its_gramian_failure(monkeypatch, cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = config(Domain.UNIT_SQUARE, D, None)
    scale_u_h(monkeypatch, cfg.domain, 3)
    fail_gramian_at(monkeypatch, cfg.domain, 3)
    threads = threading.active_count()
    with pytest.raises(IdentityError, match="^study level 3: .* identity field"):
        run_levels(cfg)
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failures", [{}, {3: stalled(3)}, {1: stalled(1), 3: injected}],
                         ids=["no_level", "finest", "coarse_and_finest"])
def test_an_analytic_reference_failure_comes_before_any_level_failure(monkeypatch, failures,
                                                                      cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = config(Domain.UNIT_DISK, N, None, Target.match_exact())
    fail_at(monkeypatch, cfg.domain, failures)

    def failing(*args):
        raise InjectedError("injected analytic reference failure")

    monkeypatch.setattr(refmod, "continuous_derivatives", failing)
    threads = threading.active_count()
    with pytest.raises(InjectedError) as threaded:
        run_levels(cfg)
    assert threading.active_count() == threads
    with pytest.raises(InjectedError) as serial:
        serial_run_levels(cfg)
    assert str(threaded.value) == str(serial.value) == "injected analytic reference failure"


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_coarse_identity_failure_comes_before_a_later_solve_failure(monkeypatch, cpus):
    # the helper solves level 2 (and fails) before it evaluates level 1; the
    # serial loop would have stopped at level 1's identity guard
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = config(Domain.UNIT_SQUARE, D, None)
    fail_at(monkeypatch, cfg.domain, {2: stalled(2)})
    scale_u_h(monkeypatch, cfg.domain, 1)
    threads = threading.active_count()
    with pytest.raises(IdentityError, match="^study level 1: .* identity field"):
        run_levels(cfg)
    assert threading.active_count() == threads


def test_run_levels_runs_at_most_one_extra_thread(monkeypatch):
    counts, solve = [], convergence._solve_level
    points = shapegrad.physical_points

    def counted_solve(*args):
        counts.append(threading.active_count())
        return solve(*args)

    def counted_points(*args):
        counts.append(threading.active_count())
        return points(*args)

    monkeypatch.setattr(convergence, "_solve_level", counted_solve)
    monkeypatch.setattr(shapegrad, "physical_points", counted_points)
    threads = threading.active_count()
    run_levels(config(Domain.L_SHAPE, N))
    assert len(counts) > 6 and max(counts) <= threads + 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_finest_volume_form_runs_on_both_threads_only_with_two_cpus(monkeypatch, cpus):
    """Every other level's blocks run on one thread; the finest level's on both
    once the helper is free (its blocks on the calling thread wait for that)."""
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = StudyConfig(Domain.UNIT_SQUARE, D, 2, 4, gamma=3)  # 4 blocks at level 4
    finest = generate(cfg.domain, cfg.max_level).num_triangles
    caller, threads = threading.current_thread(), {}
    helped = threading.Event()
    points = shapegrad.physical_points

    def recorded(mesh, degree, cells):
        threads.setdefault(mesh.num_triangles, set()).add(threading.current_thread())
        if mesh.num_triangles == finest and cpus > 1:
            if threading.current_thread() is caller:
                assert helped.wait(30)
            else:
                helped.set()
        return points(mesh, degree, cells)

    monkeypatch.setattr(shapegrad, "physical_points", recorded)
    records, _ = run_levels(cfg)
    assert len(threads[finest]) == cpus and caller in threads[finest]
    assert all(len(t) == 1 for nt, t in threads.items() if nt != finest)
    monkeypatch.setattr(shapegrad, "physical_points", points)
    assert records == serial_run_levels(cfg)[0]


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_finest_h_and_gramian_run_on_the_calling_thread_after_its_boundary_form(
        monkeypatch, cpus):
    """The analytic reference and the finest study level's interpolant go to
    the helper; its h and Gramian stay in its evaluation, on the calling
    thread, after its boundary form."""
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    cfg = config(Domain.UNIT_DISK, N, None, Target.match_exact())
    finest = generate(cfg.domain, cfg.max_level).num_triangles
    caller, calls = threading.current_thread(), []

    def recorded(name, fn, mesh_of=lambda *args: None):
        def wrapped(*args):
            mesh = mesh_of(*args)
            if mesh is None or mesh.num_triangles == finest:
                calls.append((name, threading.current_thread() is caller))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(convergence.FemSpace, "interpolate", recorded(
        "interpolant", convergence.FemSpace.interpolate, lambda space, f: space.mesh))
    monkeypatch.setattr(shapegrad, "boundary_gradients", recorded(
        "boundary_gradients", shapegrad.boundary_gradients, lambda space, *rest: space.mesh))
    monkeypatch.setattr(convergence, "gramian", recorded(
        "gramian", convergence.gramian, lambda basis, mesh: mesh))
    monkeypatch.setattr(convergence, "mesh_size", recorded(
        "mesh_size", convergence.mesh_size, lambda mesh: mesh))
    monkeypatch.setattr(convergence, "reference_derivatives_for", recorded(
        "reference", convergence.reference_derivatives_for))
    records, _ = run_levels(cfg)
    assert dict(calls) == {"reference": cpus == 1, "interpolant": cpus == 1,
                           "boundary_gradients": True, "mesh_size": True, "gramian": True}
    assert len(calls) == 5
    names = [name for name, _ in calls]
    assert names.index("boundary_gradients") < names.index("mesh_size") < names.index("gramian")
    assert records == serial_run_levels(cfg)[0]


@pytest.mark.parametrize("exc,code", [(stalled(1), 1),
                                      (convergence.TrackingError("injected tracking"), 1),
                                      (ValueError("injected bad target"), 2)])
def test_a_helper_failure_exits_as_before(tmp_path, capsys, monkeypatch, exc, code):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\nmax_level = 3\n"
                   "reference = finemesh:5\n")
    fail_at(monkeypatch, Domain.UNIT_SQUARE, {1: exc})
    threads = threading.active_count()
    assert cli.main(["study", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert str(exc) in capsys.readouterr().err
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()


# -- tracking check (i) ---------------------------------------------------------------

def pick_the_next_pair_at(monkeypatch, domain, level):
    """Make the target pick take the second nonzero pair on that level's mesh: on
    the disk with Neumann conditions, the other member of the lowest pair."""
    pick = eig.pick_target

    def shifted(pairs, A, M, target, exact_nodal=None):
        if A.shape[0] == vertex_count(domain, level):
            return [p for p in pairs if not p.zero_mode][1]
        return pick(pairs, A, M, target, exact_nodal)

    monkeypatch.setattr(eig, "pick_target", shifted)


@pytest.mark.parametrize("level,where", [(2, "at study level 1 but 1 at study level 2"),
                                         (4, "at reference level 3 but 1 at reference level 4")])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_pair_that_changes_its_ordinal_is_a_tracking_error(monkeypatch, level, where, cpus):
    monkeypatch.setattr(convergence, "_cpus", lambda: cpus)
    pick_the_next_pair_at(monkeypatch, Domain.UNIT_DISK, level)
    with pytest.raises(convergence.TrackingError,
                       match=f"^the tracked lambda_h is computed eigenvalue 0 .* {where}: "):
        run_levels(config(Domain.UNIT_DISK, N))


def test_a_pair_that_changes_its_ordinal_exits_1(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[study]\ndomain = disk\nbc = neumann\nmin_level = 1\nmax_level = 3\n"
                   "reference = finemesh:5\n")
    pick_the_next_pair_at(monkeypatch, Domain.UNIT_DISK, 2)
    assert cli.main(["study", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "1 at study level 2: the target does not follow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- the identity guard -------------------------------------------------------------

def scale_u_h(monkeypatch, domain, level, factor=1.01):
    """Make the level solve return factor * u_h on that level's mesh, or on every
    mesh when level is None."""
    solve = convergence._solve_level

    def scaled(mesh, bc, target, *ahead):
        space, pair, lams = solve(mesh, bc, target, *ahead)
        if level is None or mesh.num_vertices == vertex_count(domain, level):
            pair = replace(pair, coeffs=factor * pair.coeffs)
        return space, pair, lams

    monkeypatch.setattr(convergence, "_solve_level", scaled)


@pytest.mark.parametrize("reference_level,level,where", [
    (None, None, "study level 1"),
    (None, 3, "study level 3"),
    (5, None, "reference level 3"),
    (5, 5, "reference level 5"),
    (5, 2, "study level 2"),
])
def test_a_wrongly_normalised_u_h_fails_the_identity_guard(monkeypatch, reference_level,
                                                           level, where):
    cfg = config(Domain.UNIT_SQUARE, D, reference_level)
    scale_u_h(monkeypatch, cfg.domain, level)
    with pytest.raises(IdentityError, match=f"^{where}: .* identity field .* 4.020e-02"):
        run_levels(cfg)


def test_a_wrongly_normalised_u_h_exits_1(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("[study]\ndomain = lshape\nbc = neumann\nmin_level = 1\nmax_level = 3\n"
                   "reference = finemesh:5\n")
    scale_u_h(monkeypatch, Domain.L_SHAPE, None)
    assert cli.main(["study", str(cfg), "--out", str(tmp_path)]) == 1
    assert "reference level 3: the volume form of the identity field" in capsys.readouterr().err


def test_gamma_zero_checks_the_translations(monkeypatch):
    volume = shapegrad.volume_gradients
    monkeypatch.setattr(shapegrad, "volume_gradients",
                        lambda space, pair, fields, helper=None:
                        volume(space, pair, fields, helper) + 1e-6)
    with pytest.raises(IdentityError, match="^study level 1: .* translation mono:0,0,0"):
        run_levels(config(Domain.UNIT_DISK, N, None, Target.match_exact(), gamma=0))


def test_the_identities_hold_far_inside_the_tolerance():
    cfg = config(Domain.L_SHAPE, N)
    basis = build_basis(cfg.gamma)
    solve = partial(convergence._solve_stage, cfg)
    evaluate = partial(convergence._evaluate_stage, cfg, basis)
    for level in (1, 5):
        lv = evaluate(solve(convergence._Level("reference", level)))
        named = dict(zip((f.name for f in basis.fields), lv.volume))
        assert named["mono:0,0,0"] == 0.0 and named["mono:0,0,1"] == 0.0
        identity = named["mono:1,0,0"] + named["mono:0,1,1"] + 2.0 * lv.lam
        assert abs(identity) <= 1e-13 * lv.lam
