import shutil
import sys
from pathlib import Path

import pytest

from eigshape import eig

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))  # diff_base imports its sibling scripts
import diff_base  # noqa: E402

sys.path.remove(str(REPO / "scripts"))

SMALL = "[study]\ndomain = square\nbc = dirichlet\nmin_level = 1\nmax_level = 3\ngamma = 1\n"
SOLVE = "solve --domain square --bc dirichlet --level 2 --k 1"  # 49 dofs: ARPACK, not dense
SHIPPED = "Shipped studies, base against change"
OUTPUTS = "Outputs no study writes, base against change"


def checkout(path: Path) -> Path:
    """A copy of this checkout's src/, scripts/ and tests/, with one small study
    config and no benchmark config."""
    for name in ("src", "scripts", "tests"):
        shutil.copytree(REPO / name, path / name, ignore=shutil.ignore_patterns("__pycache__"))
    (path / "configs").mkdir()
    (path / "configs" / "small.cfg").write_text(SMALL)
    (path / "perfbench" / "configs").mkdir(parents=True)
    return path


def run(tmp_path, monkeypatch, base: Path, commands=(SOLVE,)) -> int:
    """The script with a copy of this checkout as the change, against base."""
    monkeypatch.setattr(diff_base, "ROOT", checkout(tmp_path / "change"))
    monkeypatch.setattr(diff_base, "COMMANDS", commands)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # as on a CI runner
    monkeypatch.setattr("sys.argv", ["diff_base.py", str(base), str(tmp_path / "out")])
    return diff_base.main()


def sections(stdout: str) -> dict[str, list[list[str]]]:
    """Each section's table rows below the table's header, cells stripped."""
    tables = {}
    for block in stdout.split("### ")[1:]:
        heading, *lines = block.splitlines()
        tables[heading] = [[c.strip() for c in line.strip("|").split("|")]
                           for line in lines if line.startswith("|")][2:]
    return tables


def test_identical_trees_exit_0_and_every_row_says_identical(tmp_path, monkeypatch, capfd):
    assert run(tmp_path, monkeypatch, checkout(tmp_path / "base")) == 0
    tables = sections(capfd.readouterr().out)
    for side in ("change", "base"):
        walls = tables[f"Shipped studies: wall time and peak RSS ({side}, one child process each, "
                       "one run per side: it cannot resolve a few percent)"]
        assert [r[0] for r in walls] == ["small"] and float(walls[0][1]) > 0.0
        assert (tmp_path / "out" / side / "configs" / "small.csv").exists()
    assert tables[SHIPPED] == [["small", "identical", *["0.0e+00"] * 5, "ok"]]
    assert tables["Benchmark configs (perfbench/configs), base against change"] == []
    assert tables[OUTPUTS] == [[f"`eigshape {SOLVE}`", "identical"]]
    lines = tables["Lines of Python"]
    assert [r[0] for r in lines] == ["src/", "tests/", "scripts/"]
    assert all(base == change != "0" for _, base, change in lines)


def test_another_start_seed_in_the_base_differs_and_exits_1(tmp_path, monkeypatch, capfd):
    base = checkout(tmp_path / "base")
    eig_py = base / "src" / "eigshape" / "eig.py"
    seeded = f"_START_SEED = {eig._START_SEED}\n"
    assert seeded in eig_py.read_text()
    eig_py.write_text(eig_py.read_text().replace(seeded, "_START_SEED = 1\n"))
    usage_error = SOLVE.replace("--level 2", "--level 40")  # exit 2 and no stdout on both
    assert run(tmp_path, monkeypatch, base, (SOLVE, usage_error)) == 1
    tables = sections(capfd.readouterr().out)
    (study,) = tables[SHIPPED]
    assert study[:2] == ["small", "differ"]
    assert tables[OUTPUTS] == [
        [f"`eigshape {SOLVE}`", "differs (exit codes: base 0, change 0)"],
        [f"`eigshape {usage_error}`", "differs (exit codes: base 2, change 2)"]]


def test_the_trees_take_turns_study_by_study(tmp_path, monkeypatch, capfd):
    trees = {side: checkout(tmp_path / side) for side in ("change", "base")}
    for tree in trees.values():
        (tree / "configs" / "second.cfg").write_text(SMALL)
    (trees["change"] / "configs" / "third.cfg").write_text(SMALL)  # in one tree only
    runs = []

    def recorded(cfg, out, env, stdout):
        runs.append((Path(out).parts[-2], cfg.stem))
        return 0, 1.0, 100.0

    monkeypatch.setattr(diff_base.run_all_studies, "run_study", recorded)
    monkeypatch.setattr(diff_base, "ROOT", trees["change"])
    monkeypatch.setattr(diff_base, "COMMANDS", ())
    monkeypatch.setattr("sys.argv", ["diff_base.py", str(trees["base"]), str(tmp_path / "out")])
    diff_base.main()
    assert runs == [("change", "second"), ("base", "second"), ("base", "small"),
                    ("change", "small"), ("change", "third")]
    tables = sections(capfd.readouterr().out)
    for side, stems in (("change", ["second", "small", "third"]), ("base", ["second", "small"])):
        walls = tables[f"Shipped studies: wall time and peak RSS ({side}, one child process each, "
                       "one run per side: it cannot resolve a few percent)"]
        assert walls == [[stem, "1.00", "100.0"] for stem in stems]


@pytest.mark.parametrize("package", [None, "eigshape"], ids=["no_src", "no_init"])
def test_a_base_whose_children_miss_its_src_exits_2(tmp_path, monkeypatch, capfd, package):
    base = tmp_path / "base"
    base.mkdir()
    if package:  # not a package: the children import another tree's eigshape
        (base / "src" / package).mkdir(parents=True)
    assert run(tmp_path, monkeypatch, base) == 2
    captured = capfd.readouterr()
    if package:
        assert captured.err.startswith("error: the base children import eigshape from ")
        assert captured.err.endswith(f", not from {base.resolve() / 'src'}\n")
    else:
        assert captured.err == f"error: {base.resolve()} has no src/eigshape\n"
    assert captured.out == "" and not (tmp_path / "out").exists()
