"""Committed golden reports: a fresh run of each golden INI writes every
committed file again, byte for byte.  A change that moves a report shows
the move in its diff; regenerate the files only by rerunning the INI."""

from pathlib import Path

from subrep.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_light_2d_smooth_bump_reports_are_the_golden_ones(tmp_path):
    # sobolev_mapping fails at this resolution, so the run exits 1.
    committed = GOLDEN / "smooth_bump_2d"
    ini = (GOLDEN / "smooth_bump_2d.ini").read_text()
    assert "output_dir = tests/golden/smooth_bump_2d\n" in ini
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini.replace("output_dir = tests/golden/smooth_bump_2d\n",
                               f"output_dir = {tmp_path / 'out'}\n"))
    assert main(["run", str(cfg), "--threads", "2"]) == 1
    names = sorted(p.name for p in committed.iterdir())
    assert "summary.json" in names
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (committed / name).read_bytes(), name
