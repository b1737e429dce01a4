import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigshape import convergence, eig, mesh
from eigshape.cli import ConfigError, main, parse_config, parse_field
from eigshape.fem import BoundaryCondition, FemSpace
from eigshape.velocity import VelocityField

from conftest import field_value, patch_solve_lowest

MINI_CONFIG = """\
# smallest useful study
[study]
domain = square
bc = dirichlet
min_level = 1
max_level = 3
gamma = 1
"""


def run_cli(*argv):
    return main(list(argv))


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    [str(REPO / "scripts" / "gamma_comparison.py"), "--gammas", "1",
     "--min-level", "1", "--max-level", "3"],
    ["-m", "eigshape.cli", "golden"],
], ids=["gamma_comparison", "golden"])
def test_a_full_stdout_exits_2_when_block_buffered(argv):
    # stdout on a file is block-buffered, so output this short fails only when
    # flushed; that must happen in the exit-code mapping, not in the exit flush (120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *argv], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


def test_solve_square_dirichlet(capsys):
    assert run_cli("solve", "--domain", "square", "--bc", "dirichlet",
                   "--level", "5", "--k", "1") == 0
    out = capsys.readouterr().out
    row = out.strip().splitlines()[-1].split()
    lam, exact, rel = float(row[1]), float(row[3]), float(row[4])
    assert lam == pytest.approx(19.74, abs=0.02)
    assert exact == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    assert rel < 1e-3


def test_solve_disk_dirichlet(capsys):
    assert run_cli("solve", "--domain", "disk", "--bc", "dirichlet",
                   "--level", "5", "--k", "1") == 0
    lam = float(capsys.readouterr().out.strip().splitlines()[-1].split()[1])
    assert lam == pytest.approx(5.7832, rel=5e-3)


def test_solve_neumann_flags_zero_mode(capsys):
    assert run_cli("solve", "--domain", "square", "--bc", "neumann",
                   "--level", "3", "--k", "2") == 0
    out = capsys.readouterr().out
    assert "(zero mode)" in out


def test_solve_neumann_single_pair_is_the_zero_mode(capsys):
    # with k=1 the only pair is the zero mode; its residual scale must not vanish
    assert run_cli("solve", "--domain", "square", "--bc", "neumann",
                   "--level", "2", "--k", "1") == 0
    _, header, row = capsys.readouterr().out.strip().splitlines()
    # no row carries the exact value, so no column heads it
    assert header.split() == ["i", "lambda_h", "residual"]
    assert row.startswith("1 ") and row.endswith("(zero mode)")
    assert float(row.split()[2]) <= 1e-10


def test_cluster_target_out_of_range_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cluster.cfg"
    cfg.write_text(MINI_CONFIG.replace("min_level = 1", "min_level = 2")
                   .replace("max_level = 3", "max_level = 4") + "target = cluster:1,5,1e-6\n")
    assert run_cli("study", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    # the message spells the target with its gap, and the remedy for a mesh-split pair
    assert "target cluster:1,5,1e-06 is out of range" in err
    assert "cluster index must be in 0.." in err and "multiplicities" in err
    assert "needs a larger gap" in err


def never_solve(*args, **kwargs):
    raise AssertionError("solve_lowest called")


@pytest.mark.parametrize("target,message", [
    ("cluster:1,0", "expected first | match_exact | cluster:i,j,gap (e.g. cluster:1,0,0.05)"),
    ("cluster:0,0,nan", "target cluster:0,0,nan: cluster index and member must be >= 0 "
                        "and the gap finite and > 0"),
    ("cluster:0,0,-1", "target cluster:0,0,-1.0: cluster index"),
    ("cluster:-1,0,0.05", "target cluster:-1,0,0.05: cluster index"),
])
def test_bad_cluster_target_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         target, message):
    patch_solve_lowest(monkeypatch, never_solve)
    cfg = tmp_path / "bad_target.cfg"
    cfg.write_text(MINI_CONFIG + f"target = {target}\n")
    assert run_cli("study", str(cfg), "--out", str(tmp_path)) == 2
    assert f"bad value: {message}" in capsys.readouterr().err


def test_match_exact_on_lshape_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    patch_solve_lowest(monkeypatch, never_solve)
    cfg = tmp_path / "lshape.cfg"
    cfg.write_text("[study]\ndomain = lshape\nbc = dirichlet\nmin_level = 1\n"
                   "max_level = 3\ntarget = match_exact\nreference = finemesh:5\n")
    assert run_cli("study", str(cfg), "--out", str(tmp_path)) == 2
    assert "no analytic eigenpair on lshape" in capsys.readouterr().err


@pytest.mark.parametrize("min_level,max_level,extra,message", [
    ("5", "6", "", "at least 3 levels"),
    ("4", "3", "", "at least 3 levels"),
    # with a fine-mesh reference too, the config check comes before any mesh is built
    ("-1", "3", "reference = finemesh:5\n", "min_level must be >= 0"),
], ids=["too_few", "min_above_max", "negative_min"])
def test_too_few_levels_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch,
                                                     min_level, max_level, extra, message):
    patch_solve_lowest(monkeypatch, never_solve)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(MINI_CONFIG.replace("min_level = 1", f"min_level = {min_level}")
                   .replace("max_level = 3", f"max_level = {max_level}") + extra)
    out = tmp_path / "results"
    assert run_cli("study", str(cfg), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target,reference", [("first", "finemesh:4"),
                                              ("match_exact", "analytic")],
                         ids=["first", "match_exact"])
def test_neumann_study_from_level_zero(tmp_path, target, reference):
    # level 0 has 9 dofs, fewer than the 10 pairs either target asks for; `first`
    # tracks pi^2, and the square's analytic Neumann reference is the 2 pi^2 mode
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text(MINI_CONFIG.replace("bc = dirichlet", "bc = neumann")
                   .replace("min_level = 1", "min_level = 0")
                   .replace("max_level = 3", "max_level = 2")
                   + f"target = {target}\nreference = {reference}\n")
    assert run_cli("study", str(cfg), "--out", str(tmp_path)) == 0


@pytest.mark.parametrize("bc,target,tracked", [
    ("dirichlet", "cluster:1,0,0.05", "lambda_h = 49.399"),
    ("dirichlet", "cluster:30,0,1e-6", "lambda_h = 498.6"),
    ("neumann", "first", "lambda_h = 9.87"),
], ids=["dirichlet_cluster_1_0_gap_0.05", "dirichlet_cluster_30_0", "neumann_first"])
def test_analytic_reference_of_another_eigenvalue_is_numerical_failure(
        tmp_path, capsys, bc, target, tracked):
    # the square's analytic reference is 2 pi^2 for both bcs; these targets track
    # 5 pi^2, about 499 and pi^2, so each would fit a rate against the wrong pair
    cfg = tmp_path / "other.cfg"
    cfg.write_text(MINI_CONFIG.replace("bc = dirichlet", f"bc = {bc}")
                   .replace("min_level = 1", "min_level = 3")
                   .replace("max_level = 3", "max_level = 5") + f"target = {target}\n")
    out = tmp_path / "new" / "out"
    assert run_cli("study", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert tracked in err and "analytic reference lambda = 19.7392088021787" in err
    assert not out.exists()  # a failed study writes nothing, not even --out


@pytest.mark.parametrize("domain,code", [("square", 1), ("lshape", 1), ("disk", 0)])
def test_rising_lambda_on_nested_meshes_is_numerical_failure(tmp_path, capsys, monkeypatch,
                                                             domain, code):
    # lambda_h cannot rise under refinement of the nested square and L-shape meshes
    # (Courant-Fischer); the disk's boundary moves, so its spaces are not nested
    def inflated(cfg, basis, lv, helper=None, evaluate=convergence._evaluate_stage):
        lv = evaluate(cfg, basis, lv, helper)
        if lv.role == "study" and lv.level == 2:
            lv.pair = replace(lv.pair, lam=lv.lam * 1.5)
        return lv

    monkeypatch.setattr(convergence, "_evaluate_stage", inflated)
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(MINI_CONFIG.replace("domain = square", f"domain = {domain}")
                   + ("reference = finemesh:5\n" if domain == "lshape" else ""))
    out = tmp_path / "out"
    assert run_cli("study", str(cfg), "--out", str(out)) == code
    if code:
        err = capsys.readouterr().err
        assert "lambda_h rises from" in err and "at level 1 to" in err and "at level 2" in err
        assert not out.exists()


def test_invalid_domain_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--domain", "hexagon", "--bc", "dirichlet", "--level", "1")
    assert exc.value.code == 2


def test_gradient_identity_volume(capsys):
    assert run_cli("gradient", "--domain", "square", "--bc", "dirichlet", "--level", "3",
                   "--field", "identity", "--formula", "volume") == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    lam, value = float(lines["lambda_h"]), float(lines["value"])
    assert value == pytest.approx(-2.0 * lam, rel=1e-12)


def test_gradient_constant_volume_is_zero(capsys):
    assert run_cli("gradient", "--domain", "lshape", "--bc", "dirichlet", "--level", "2",
                   "--field", "const:1,0", "--formula", "volume") == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(lines["value"]) == 0.0


def test_gradient_rotation_boundary_disk_decays(capsys):
    values = []
    for level in (2, 3):
        assert run_cli("gradient", "--domain", "disk", "--bc", "dirichlet",
                       "--level", str(level), "--field", "rot",
                       "--formula", "boundary") == 0
        lines = dict(line.split(" = ")
                     for line in capsys.readouterr().out.strip().splitlines())
        values.append(abs(float(lines["value"])))
    assert values[0] <= 1e-10 and values[1] <= 1e-10


def test_gradient_bad_field_spec(capsys):
    assert run_cli("gradient", "--domain", "square", "--bc", "dirichlet", "--level", "1",
                   "--field", "spiral", "--formula", "volume") == 2


def test_parse_field_specs():
    f = parse_field("const:2,-1")
    assert isinstance(f, VelocityField)
    assert np.allclose(field_value(f, np.array([[0.5, 0.5]])), [[2.0, -1.0]])
    g = parse_field("mono:1,2,1")
    assert np.allclose(field_value(g, np.array([[2.0, 3.0]])), [[0.0, 18.0]])
    with pytest.raises(ValueError):
        parse_field("mono:1,2")
    for spec in ("mono:-1,0,0", "mono:0,-1,1", "mono:1,0,2"):
        with pytest.raises(ValueError, match="exponents >= 0 and comp 0 or 1"):
            parse_field(spec)
    for spec in ("const:nan,1", "const:1,inf"):
        with pytest.raises(ValueError, match="finite components"):
            parse_field(spec)


def test_study_command_outputs(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CONFIG)
    out = tmp_path / "results"
    assert run_cli("study", str(cfg), "--out", str(out)) == 0
    csv_path = out / "mini.csv"
    svg_path = out / "mini.svg"
    manifest_path = out / "mini.manifest.json"
    assert csv_path.exists() and svg_path.exists() and manifest_path.exists()
    first = csv_path.read_bytes()
    assert first.decode().splitlines()[0] == "level,h,dof,lambda_h,E_volume,E_boundary"
    text = manifest_path.read_text()
    manifest = json.loads(text)
    # the layout other tools read: sorted keys, two-space indent, one trailing newline
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert sorted(manifest) == ["config", "outputs", "timestamp", "version"]
    assert sorted(manifest["config"]) == ["bc", "domain", "gamma", "max_level",
                                          "min_level", "reference", "target"]
    assert manifest["config"]["domain"] == "square"
    assert manifest["outputs"] == [str(csv_path), str(svg_path)]
    assert manifest["version"]
    # deterministic bytes on rerun
    assert run_cli("study", str(cfg), "--out", str(out)) == 0
    assert csv_path.read_bytes() == first


def test_study_missing_config(tmp_path, capsys):
    assert run_cli("study", str(tmp_path / "nope.cfg")) == 2


@pytest.mark.parametrize("argv", [
    ["study", "{tmp}"],
    ["study", "{cfg}", "--out", "{cfg}"],
    ["study", "{cfg}", "--out", "{cfg}/sub"],
    ["golden", "--out", "{tmp}/missing/dir/x"],
    ["mesh-export", "--domain", "square", "--level", "0", "--out", "{tmp}/missing/dir/x"],
], ids=["study_config_is_a_directory", "study_out_is_a_file", "study_out_under_a_file",
        "golden_out_in_missing_dir", "mesh_export_out_in_missing_dir"])
def test_bad_paths_exit_2(tmp_path, capsys, monkeypatch, argv):
    # a path that cannot be read or written is a usage error; an --out that is or
    # lies under a file is rejected before any solve, and the file is left as it was
    patch_solve_lowest(monkeypatch, never_solve)
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CONFIG)
    assert run_cli(*(arg.format(tmp=tmp_path, cfg=cfg) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cfg.read_text() == MINI_CONFIG
    assert not (tmp_path / "missing").exists()


def test_manifest_snapshot_round_trips(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CONFIG)
    out = tmp_path / "a"
    assert run_cli("study", str(cfg), "--out", str(out)) == 0
    manifest = json.loads((out / "mini.manifest.json").read_text())
    rebuilt = tmp_path / "mini2.cfg"
    lines = ["[study]"] + [f"{k} = {v}" for k, v in manifest["config"].items()
                           if v is not None]
    rebuilt.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "b"
    assert run_cli("study", str(rebuilt), "--out", str(out2)) == 0
    assert (out / "mini.csv").read_bytes() == (out2 / "mini2.csv").read_bytes()


def test_shipped_configs_parse():
    from pathlib import Path
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    stems = sorted(p.stem for p in config_dir.glob("*.cfg"))
    assert stems == ["disk_dirichlet", "disk_neumann", "lshape_dirichlet",
                     "lshape_neumann", "square_dirichlet", "square_neumann"]
    for path in config_dir.glob("*.cfg"):
        cfg, snapshot = parse_config(path)
        assert cfg.max_level >= cfg.min_level
        assert snapshot["domain"] == cfg.domain.value


def test_config_error_names_key_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[study]\ndomain = square\nbc = dirichlet\nmin_level = one\nmax_level = 3\n")
    assert run_cli("study", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "min_level" in err and "line 4" in err
    # an out-of-range gamma is caught by the parser, before any level is solved
    cfg.write_text("[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\nmax_level = 3\n"
                   "gamma = 7\n")
    assert run_cli("study", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "key 'gamma'" in err and "line 6" in err and "[0, 6], got 7" in err


def test_config_error_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\n"
                   "max_level = 2\nwibble = 3\n")
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(cfg)


def test_config_with_required_keys_only_takes_study_defaults(tmp_path, monkeypatch):
    from eigshape import convergence
    from eigshape.convergence import StudyConfig
    from eigshape.fem import BoundaryCondition
    from eigshape.mesh import Domain

    cfg = tmp_path / "required.cfg"
    cfg.write_text("[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\n"
                   "max_level = 3\n")
    expected = StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.DIRICHLET, 1, 3)
    assert parse_config(cfg)[0] == expected
    passed = []
    monkeypatch.setattr(convergence, "StudyConfig",
                        lambda **kwargs: passed.append(sorted(kwargs)) or StudyConfig(**kwargs))
    parse_config(cfg)
    assert passed == [["bc", "domain", "max_level", "min_level"]]


def test_config_parse_full(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text("[study]\ndomain = lshape\nbc = dirichlet\nmin_level = 2\n"
                   "max_level = 5\ngamma = 2\ntarget = first\n"
                   "reference = finemesh:7\n")
    parsed, snapshot = parse_config(cfg)
    assert parsed.domain.value == "lshape"
    assert parsed.reference_level == 7
    assert snapshot["reference"] == "finemesh:7"


@pytest.mark.parametrize("key,value", [("num_pairs", "4"), ("output_dir", "results"),
                                       ("cluster_rel_gap", "0.05"), ("fit_window", "4")])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key, value):
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(MINI_CONFIG + f"{key} = {value}\n")
    assert run_cli("study", str(cfg), "--out", str(tmp_path)) == 2
    assert f"unknown key (key '{key}', line 8)" in capsys.readouterr().err


def test_gradient_prints_the_study_level_value(capsys):
    # the command and the study solve the same number of pairs for a Neumann first target
    from eigshape import convergence, shapegrad
    from eigshape.fem import BoundaryCondition
    from eigshape.mesh import Domain, generate

    cfg = convergence.StudyConfig(Domain.UNIT_SQUARE, BoundaryCondition.NEUMANN, 3, 5)
    space, pair, _ = convergence._solve_level(generate(cfg.domain, cfg.min_level), cfg.bc,
                                              cfg.target)
    study = shapegrad.volume_gradients(space, pair, (parse_field("mono:1,1,0"),))[0]
    assert run_cli("gradient", "--domain", "square", "--bc", "neumann", "--level", "3",
                   "--field", "mono:1,1,0", "--formula", "volume") == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert lines == {"lambda_h": repr(pair.lam), "value": repr(float(study))}


# -- every input exits 0, 1 or 2 -------------------------------------------------

# a valid study config with up to two faults: a listed bad value for a key (or a
# removed or unknown key), digit-free text as a value, or digit-free text as a line;
# levels stay at or below 3 (finemesh at or below 5), so every study is small
_NO_DIGITS = st.text(alphabet="abnxz:,.-_ =[]#", max_size=8)
_VALID = {
    "domain": ["square", "disk", "lshape"],
    "bc": ["dirichlet", "neumann"],
    "min_level": ["0", "1"],
    "max_level": ["2", "3"],
    "gamma": ["0", "1", "3"],
    "target": ["first", "match_exact", "cluster:0,0,1e-6", "cluster:1,1,0.05",
               "cluster:5,1,0.05", "cluster:40,0,1e-6", "cluster:0,3,10"],
    "reference": ["analytic", "finemesh:4", "finemesh:5"],
}
_BAD = {
    "min_level": ["-1", "1.5", "3"],
    "gamma": ["7", "-1"],
    "target": ["cluster:0,0", "cluster:0,0,nan", "cluster:0,0,-1", "cluster:0,0,0",
               "cluster:0,0,inf", "cluster:-1,0,0.05", "cluster:1", "cluster:a,b,c", "last"],
    "reference": ["finemesh:2", "finemesh:", "finemesh:x", "fine"],
    "fit_window": ["4"],
    "cluster_rel_gap": ["0.05", "nan"],
    "num_pairs": ["4"],
    "output_dir": ["results"],
    "wibble": ["1"],
}
_REQUIRED = ("domain", "bc", "min_level", "max_level")
_fault = st.one_of(
    st.sampled_from([(k, v) for k, vs in _BAD.items() for v in vs]),
    st.tuples(st.sampled_from(sorted(_VALID)), _NO_DIGITS),
    st.tuples(st.none(), _NO_DIGITS))


def _config_text(settings_, faults) -> str:
    lines = [f"{k} = {v}" for k, v in {**settings_, **{k: v for k, v in faults if k}}.items()]
    return "\n".join(["[study]", *lines, *(v for k, v in faults if k is None)]) + "\n"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


_SETTINGS = st.fixed_dictionaries(
    {k: st.sampled_from(_VALID[k]) for k in _REQUIRED},
    optional={k: st.sampled_from(v) for k, v in _VALID.items() if k not in _REQUIRED})
_FAULTS = st.lists(_fault, max_size=2)


@given(settings_=_SETTINGS, faults=_FAULTS)
@settings(max_examples=60, deadline=None)
def test_any_study_config_exits_0_1_or_2(settings_, faults):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "any.cfg"
        cfg.write_text(_config_text(settings_, faults))
        assert _exit_code(["study", str(cfg), "--out", tmp]) in (0, 1, 2)


@given(settings_=_SETTINGS, faults=_FAULTS)
# a NaN gap once parsed, and its snapshot put NaN, which is not JSON, in the manifest
@example(settings_=dict(domain="square", bc="dirichlet", min_level="1", max_level="3"),
         faults=[("cluster_rel_gap", "nan")])
@settings(max_examples=200, deadline=None)
def test_any_parsed_config_round_trips_through_its_snapshot(settings_, faults):
    # the manifest's snapshot, written back as a config file, is the same study
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "any.cfg"
        path.write_text(_config_text(settings_, faults))
        try:
            cfg, snapshot = parse_config(path)
        except ConfigError:
            return
        json.dumps(snapshot, allow_nan=False)  # the manifest stays valid JSON
        path.write_text(_config_text(snapshot, []))
        assert parse_config(path) == (cfg, snapshot)


@given(domain=st.sampled_from(["square", "disk", "lshape"] * 3 + ["hexagon"]),
       bc=st.sampled_from(["dirichlet", "neumann"] * 3 + ["robin"]),
       level=st.integers(-1, 3),
       field=st.sampled_from(["identity", "rot", "const:1,0", "const:nan,1", "mono:1,1,0",
                              "mono:-1,0,0", "mono:0,1,2", "mono:1,2", "const:a,b"]),
       formula=st.sampled_from(["volume", "boundary"] * 3 + ["both"]))
@settings(max_examples=60, deadline=None)
def test_any_gradient_arguments_exit_0_1_or_2(domain, bc, level, field, formula):
    argv = ["gradient", "--domain", domain, "--bc", bc, "--level", str(level),
            "--field", field, "--formula", formula]
    assert _exit_code(argv) in (0, 1, 2)


@given(domain=st.sampled_from(["square", "disk", "lshape"] * 3 + ["hexagon"]),
       bc=st.sampled_from(["dirichlet", "neumann"] * 3 + ["robin"]),
       level=st.integers(-1, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_solve_arguments_exit_0_1_or_2(domain, bc, level, data):
    # k from a few pairs up to past the dof count n, through the dense route at k >= n - 1
    try:
        n = FemSpace(mesh.generate(mesh.Domain(domain), level), BoundaryCondition(bc)).dof_count
    except ValueError:  # an unknown domain or bc, or a negative level
        n = 10
    k = data.draw(st.one_of(st.integers(-1, 12), st.integers(n - 3, n + 2)))
    argv = ["solve", "--domain", domain, "--bc", bc, "--level", str(level), "--k", str(k)]
    assert _exit_code(argv) in (0, 1, 2)


@given(domain=st.sampled_from(["square", "disk", "lshape", "hexagon"]),
       level=st.integers(-1, 3), out=st.sampled_from([None, "mesh.txt", "missing/mesh.txt"]))
@settings(max_examples=30, deadline=None)
def test_any_mesh_export_arguments_exit_0_1_or_2(domain, level, out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["mesh-export", "--domain", domain, "--level", str(level)]
        if out is not None:
            argv += ["--out", str(Path(tmp) / out)]
        assert _exit_code(argv) in (0, 1, 2)


@pytest.fixture
def no_eigensolve(monkeypatch):
    """Starting either eigensolver route fails the test: a refused k allocates nothing."""
    def start(*args, **kwargs):
        raise AssertionError("an eigensolver route was started")

    monkeypatch.setattr(eig, "solve_lowest_dense", start)
    monkeypatch.setattr(eig.spla, "eigsh", start)


@pytest.mark.parametrize("k,workspace", [(65024, 2 * 65025 ** 2), (60000, 65025 * 120001)],
                         ids=["dense", "arpack"])
def test_an_oversized_eigensolve_is_usage_error(capsys, no_eigensolve, k, workspace):
    # 31.5 GiB of dense arrays or a 58.1 GiB Lanczos basis at square level 7
    assert run_cli("solve", "--domain", "square", "--bc", "dirichlet", "--level", "7",
                   "--k", str(k)) == 2
    assert capsys.readouterr().err == (
        f"error: k={k} at n=65025 needs {workspace} doubles of eigensolver workspace, "
        f"over the bound of {eig._MAX_WORKSPACE}\n")


@pytest.mark.parametrize("spec", ["mono:7,0,0", "mono:3,4,1", "mono:200,0,0",
                                  "mono:100000,0,0"])
def test_a_field_over_the_degree_bound_is_usage_error(capsys, monkeypatch, spec):
    patch_solve_lowest(monkeypatch, never_solve)
    assert run_cli("gradient", "--domain", "square", "--bc", "dirichlet", "--level", "0",
                   "--field", spec, "--formula", "volume") == 2
    degree = sum(int(b) for b in spec[len("mono:"):].split(",")[:2])
    assert capsys.readouterr().err == (f"error: field spec {spec!r} has degree {degree}, "
                                       "over 6\n")


def test_golden_command(tmp_path, capsys):
    out = tmp_path / "golden.txt"
    assert run_cli("golden", "--out", str(out)) == 0
    text = out.read_text()
    assert "bessel.j0_zero1 = 2.40482555769577" in text
    assert "square.dirichlet.lambda = " in text
    for line in text.strip().splitlines():
        key, value = line.split(" = ")
        float(value)


@pytest.mark.parametrize("argv,domain", [
    (["solve", "--domain", "square", "--bc", "dirichlet", "--level", "40"], "square"),
    (["gradient", "--domain", "lshape", "--bc", "neumann", "--level", "40",
      "--field", "identity", "--formula", "volume"], "lshape"),
    (["mesh-export", "--domain", "square", "--level", "40"], "square"),
    (["mesh-export", "--domain", "lshape", "--level", "40"], "lshape"),
    (["solve", "--domain", "disk", "--bc", "neumann", "--level", "10", "--k", "3"], "disk"),
], ids=["solve", "gradient", "mesh_export_square", "mesh_export_lshape", "solve_disk_10"])
def test_an_over_budget_level_is_usage_error(capsys, no_mesh, argv, domain):
    level = int(argv[argv.index("--level") + 1])
    count = mesh.vertex_count(mesh.Domain(domain), level)
    assert count > mesh.VERTEX_BUDGET
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {domain} level {level} has {count} vertices, "
                   f"over the budget of {mesh.VERTEX_BUDGET}\n")


@pytest.mark.parametrize("text", [MINI_CONFIG.replace("max_level = 3", "max_level = 40"),
                                  MINI_CONFIG + "reference = finemesh:40\n"],
                         ids=["max_level", "finemesh_reference"])
def test_an_over_budget_study_level_is_config_error(tmp_path, capsys, no_mesh, text):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = tmp_path / "results"
    assert run_cli("study", str(cfg), "--out", str(out)) == 2
    count = mesh.vertex_count(mesh.Domain.UNIT_SQUARE, 40)
    assert capsys.readouterr().err == (f"error: square level 40 has {count} vertices, "
                                       f"over the budget of {mesh.VERTEX_BUDGET}\n")
    assert not out.exists()


def test_mesh_export_command(capsys):
    assert run_cli("mesh-export", "--domain", "square", "--level", "0") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertices 9 triangles 8"
    assert len(lines) == 1 + 9 + 8
