import importlib.util
from pathlib import Path

import pytest

import eigshape
from eigshape import eig

_SPEC = importlib.util.spec_from_file_location(
    "run_all_studies", Path(__file__).resolve().parent.parent / "scripts" / "run_all_studies.py")
run_all_studies = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_all_studies)

SMALL = "[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\nmax_level = 3\ngamma = 1\n"


def run(tmp_path, monkeypatch, configs: dict, *argv) -> int:
    """The script on the given configs, each study in a child process."""
    config_dir = tmp_path / "configs"
    config_dir.mkdir(parents=True)
    for stem, text in configs.items():
        (config_dir / f"{stem}.cfg").write_text(text)
    monkeypatch.setattr(run_all_studies, "CONFIG_DIR", config_dir)
    monkeypatch.setenv("PYTHONPATH", str(Path(eigshape.__file__).resolve().parents[1]))
    monkeypatch.setattr("sys.argv", ["run_all_studies.py", "--out", str(tmp_path / "out"), *argv])
    return run_all_studies.main()


def table(stdout: str) -> list[list[str]]:
    return [[c.strip() for c in line.strip("|").split("|")]
            for line in stdout.splitlines() if line.startswith("|")]


def test_each_study_gets_a_row_of_wall_time_and_peak_rss(tmp_path, monkeypatch, capfd):
    configs = {"a": SMALL, "b": SMALL.replace("gamma = 1", "gamma = 2")}
    assert run(tmp_path, monkeypatch, configs) == 0
    rows = table(capfd.readouterr().out)
    assert rows[0] == ["study", "wall s", "peak RSS MB"]
    assert [r[0] for r in rows[2:]] == ["a", "b"]
    for _, wall, rss in rows[2:]:
        assert 0.0 < float(wall) < 60.0
        assert 20.0 < float(rss) < 2000.0  # a child's own peak, not this process's
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "a.csv", "a.manifest.json", "a.svg", "b.csv", "b.manifest.json", "b.svg"]


def test_the_first_failing_study_stops_the_run_with_its_exit_code(tmp_path, monkeypatch, capfd):
    configs = {"a": SMALL, "b": SMALL + "wibble = 1\n", "c": SMALL}
    assert run(tmp_path, monkeypatch, configs) == 2
    captured = capfd.readouterr()
    assert "unknown key (key 'wibble', line 7)" in captured.err
    assert [r[0] for r in table(captured.out)[2:]] == ["a"]
    assert run(tmp_path / "none", monkeypatch, {}) == 2  # an empty config directory
    assert "no configs selected" in capfd.readouterr().err


def test_start_seed_reaches_each_child_solver(tmp_path, monkeypatch, capfd):
    configs = {"a": SMALL}
    csvs = {}
    for seed in (None, eig._START_SEED, 1):
        argv = () if seed is None else ("--start-seed", str(seed))
        assert run(tmp_path / str(seed), monkeypatch, configs, *argv) == 0
        csvs[seed] = (tmp_path / str(seed) / "out" / "a.csv").read_bytes()
    capfd.readouterr()
    assert csvs[eig._START_SEED] == csvs[None]  # the default seed, set explicitly
    assert csvs[1] != csvs[None]  # another start vector moves the roundoff
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "negative", monkeypatch, configs, "--start-seed", "-1")
    assert exc.value.code == 2


def test_config_paths_pick_the_studies_in_their_order(tmp_path, monkeypatch, capfd):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for stem in ("x", "y"):
        (elsewhere / f"{stem}.cfg").write_text(SMALL)
    paths = [str(elsewhere / "y.cfg"), str(elsewhere / "x.cfg")]
    # the shipped-config directory holds "a", which the paths leave out
    assert run(tmp_path, monkeypatch, {"a": SMALL}, *paths) == 0
    assert [r[0] for r in table(capfd.readouterr().out)[2:]] == ["y", "x"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "x.csv", "x.manifest.json", "x.svg", "y.csv", "y.manifest.json", "y.svg"]


def test_two_configs_with_one_stem_exit_2_before_any_study_runs(tmp_path, monkeypatch, capfd):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "a.cfg").write_text(SMALL.replace("gamma = 1", "gamma = 2"))
    paths = [str(tmp_path / "configs" / "a.cfg"), str(elsewhere / "a.cfg")]
    assert run(tmp_path, monkeypatch, {"a": SMALL}, *paths) == 2
    captured = capfd.readouterr()
    assert "two configs share the stem 'a'" in captured.err
    assert "==" not in captured.out and not (tmp_path / "out").exists()
