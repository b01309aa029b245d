"""The alternating A/B tool (tools/ab.py), on scripted runs: no child process starts."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture
def ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PAIRS", 4)
    return module


def script(ab, monkeypatch, runs):
    """Make each side's runs of the probe return ``runs[side]`` in turn; return the run order."""
    order = []
    left = {side: iter(results) for side, results in runs.items()}

    def run_child(probe, src):
        side = "after" if src == ab.ROOT / "src" else "before"
        order.append(side)
        return next(left[side])

    monkeypatch.setattr(ab, "run_child", run_child)
    return order


def tool(ab, tmp_path, *extra):
    out = tmp_path / "ab.json"
    code = ab.main(["calls", "--src", str(tmp_path / "old-src"), "--out", str(out), *extra])
    return code, out


def sample(ms, digest="d0"):
    return {"op ms": ms, "digest": digest}


def test_first_side_alternates_pair_by_pair(ab, monkeypatch, tmp_path):
    order = script(ab, monkeypatch, {side: [sample(1.0)] * 4 for side in ("before", "after")})
    code, _ = tool(ab, tmp_path)
    assert code == 0
    assert order == ["before", "after", "after", "before", "before", "after", "after", "before"]


def test_summary_on_a_fixed_input(ab, monkeypatch, tmp_path):
    before, after = [10.0, 12.0, 11.0, 13.0], [9.0, 13.0, 10.0, 11.0]
    script(ab, monkeypatch, {"before": map(sample, before), "after": map(sample, after)})
    code, out = tool(ab, tmp_path)
    assert code == 0
    doc = json.loads(out.read_text())
    row = doc["quantities"]["op ms"]
    # after was lower in pairs 1, 3 and 4
    assert row["after_lower_pairs"] == 3
    # medians 10.5 and 11.5
    assert row["median_change"] == pytest.approx(10.5 / 11.5 - 1, rel=1e-5)
    # paired differences -1, 1, -1, -2
    assert row["median_pair_diff"] == -1.0
    assert row["before"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "runs": before}
    assert row["after"]["runs"] == after
    assert doc["quantities"]["digest"] == {"before": "d0", "after": "d0"}
    assert doc["differ"] == []


def test_a_string_that_changes_within_one_side_stops_the_tool(ab, monkeypatch, tmp_path):
    script(ab, monkeypatch, {"before": [sample(1.0)] * 4,
                             "after": [sample(1.0), sample(1.0, "d1")] + [sample(1.0)] * 2})
    with pytest.raises(SystemExit, match="'digest' changed between runs of the after side"):
        tool(ab, tmp_path)
    assert not (tmp_path / "ab.json").exists()


def test_a_string_that_differs_between_the_sides_exits_1(ab, monkeypatch, tmp_path, capsys):
    script(ab, monkeypatch, {"before": [sample(1.0, "old")] * 4,
                             "after": [sample(1.0, "new")] * 4})
    code, out = tool(ab, tmp_path)
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["quantities"]["digest"] == {"before": "old", "after": "new"}
    assert doc["differ"] == ["digest"]
    assert "digest" in capsys.readouterr().err


def test_no_option_beyond_probe_src_and_out(ab, tmp_path):
    with pytest.raises(SystemExit):
        tool(ab, tmp_path, "--label", "after")
    with pytest.raises(SystemExit):
        ab.main(["calls"])
