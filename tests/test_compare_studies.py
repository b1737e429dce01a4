import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_studies", Path(__file__).resolve().parent.parent / "scripts" / "compare_studies.py")
compare_studies = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_studies)

CSV = """\
level,h,dof,lambda_h,E_volume,E_boundary
3,0.125,49,20.2,0.01,0.02
4,0.0625,225,19.86,0.0025,0.01
rates
formula,slope,intercept,residual
volume,2.0,0.1,0.0
boundary,1.0,0.2,0.0
"""


def _write(directory: Path, text: str = CSV, stem: str = "square") -> Path:
    directory.mkdir(exist_ok=True)
    (directory / f"{stem}.csv").write_text(text)
    (directory / f"{stem}.svg").write_text("<svg/>")
    return directory


@pytest.mark.parametrize("edit,code", [
    (lambda t: t, 0),
    (lambda t: t.replace("0.0025", "0.0025000000000001"), 0),   # 4e-14 relative
    (lambda t: t.replace("0.0025", "0.002500000001"), 1),       # 4e-10 relative
    (lambda t: t.replace("volume,2.0", "volume,2.0004"), 0),
    (lambda t: t.replace("volume,2.0", "volume,2.0006"), 1),
    (lambda t: t.replace("4,0.0625,225", "5,0.03125,961"), 1),  # another level
], ids=["identical", "roundoff", "E_beyond", "slope_within", "slope_beyond", "rows_differ"])
def test_exit_code_follows_the_tolerances(tmp_path, monkeypatch, capsys, edit, code):
    base = _write(tmp_path / "base")
    new = _write(tmp_path / "new", edit(CSV))
    monkeypatch.setattr("sys.argv", ["compare_studies.py", str(base), str(new)])
    assert compare_studies.main() == code
    out = capsys.readouterr().out
    assert "| square |" in out
    assert ("| identical |" in out) == (edit(CSV) == CSV)


@pytest.mark.parametrize("where", ["base", "new"])
def test_a_csv_without_rates_is_an_unreadable_row(tmp_path, monkeypatch, capsys, where):
    cut = CSV[:CSV.index("rates")]
    base = _write(tmp_path / "base", cut if where == "base" else CSV)
    new = _write(tmp_path / "new", cut if where == "new" else CSV)
    monkeypatch.setattr("sys.argv", ["compare_studies.py", str(base), str(new)])
    assert compare_studies.main() == 1
    assert f"| square | differ | | | | | | unreadable in {where} |" in capsys.readouterr().out


def test_missing_config_and_empty_base(tmp_path, monkeypatch):
    base = _write(tmp_path / "base")
    _write(base, stem="disk")
    new = _write(tmp_path / "new")
    monkeypatch.setattr("sys.argv", ["compare_studies.py", str(base), str(new)])
    assert compare_studies.main() == 1
    (tmp_path / "empty").mkdir()
    monkeypatch.setattr("sys.argv", ["compare_studies.py", str(tmp_path / "empty"), str(new)])
    assert compare_studies.main() == 2
