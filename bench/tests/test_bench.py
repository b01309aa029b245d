"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, no_span  # noqa: E402

from addenergy import intset, spectrum  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.make(name, SRC).deck(7) == workloads.make(name, SRC).deck(7)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_other_inputs(name):
    wl = workloads.make(name, SRC)
    assert wl.deck(7) != wl.deck(8)


def test_benchmark_json_workloads_exist():
    names = [w["name"] for w in spec()["workloads"]]
    assert 2 <= len(names) and set(names) <= set(workloads.NAMES)


def test_metric_names_are_well_formed():
    doc = spec()
    wl = workloads.make("count-mix", SRC)
    deck = wl.deck(0)
    passes = [run.PassResult([0.001 * i for i in range(1, len(deck) + 1)], False)] * 2
    e2e, _ = run.end_to_end(wl, deck, passes, [0.1, 0.2, 0.3])
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER
    names = list(e2e) + [m["name"] for m in doc["per_layer"]]
    for metric in names:
        assert NAME.fullmatch(metric), metric
    assert len(names) == len(set(names))


def test_layer_metrics_cover_per_layer_list():
    rec = Recorder()
    rec.passes = 1
    with rec.span("intset.energy_oracle", shape="small", pairs=4):
        pass
    derived = layers.from_recorder(rec)
    listed = {name for name, _, _ in layers.PER_LAYER}
    computed = set(derived) | {"cli.interp_start_ms", "cli.import_ms", "trace.overhead_frac"}
    assert listed == computed
    assert all(derived[name][1] == unit for name, unit, _ in layers.PER_LAYER if name in derived)


def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.span("bench.op"):
        with rec.span("intset.energy_oracle"):
            sum(range(10000))
    parent, child = rec.spans
    assert child["parent"] == parent["id"] and child["op"] == parent["id"]
    own = rec.self_times()
    assert own[0] == pytest.approx((parent["end"] - parent["start"])
                                   - (child["end"] - child["start"]))


@pytest.mark.parametrize("name", [w["name"] for w in spec()["workloads"]])
def test_tail_has_ten_items_beyond(name):
    wl = workloads.make(name, SRC)
    deck = wl.deck(7)
    _, beyond = run.tail([float(i) for i in range(len(deck))], wl.tail_pct)
    _, fewer = run.tail([float(i) for i in range(len(deck))], wl.tail_pct + 1)
    assert beyond >= 10 > fewer


def test_timings_use_each_ops_best_latency():
    wl = workloads.make("build-band", SRC)
    deck = wl.deck(0)[:3]
    passes = [run.PassResult([0.3, 0.1, 0.5], False), run.PassResult([0.2, 0.4, 0.6], False),
              run.PassResult([0.01, 0.01, 0.01], True)]
    assert run.best_latencies(passes, deck) == [0.2, 0.1, 0.5]
    e2e, _ = run.end_to_end(wl, deck, passes, [1.0])
    assert e2e["wall_s"][0] == pytest.approx(0.8)
    assert e2e["op_ms_p50"][0] == pytest.approx(200.0)


def _small_energy_deck():
    wl = workloads.make("count-mix", SRC)
    return wl, [item for item in wl.deck(0) if item.shape == "small"][:3]


def test_gate_passes_on_library_results():
    wl, deck = _small_energy_deck()
    outcome = run.Outcome()
    run.run_pass(wl, deck, no_span, True, {}, outcome)
    assert outcome.attempted == 3 and outcome.failures == []


def test_gate_fails_on_injected_wrong_energy(monkeypatch):
    wl, deck = _small_energy_deck()
    real = intset.energy_oracle
    monkeypatch.setattr(intset, "energy_oracle", lambda a: real(a) + 4)
    outcome = run.Outcome()
    run.run_pass(wl, deck, no_span, True, {}, outcome)
    assert len(outcome.failures) == 3


def test_gate_fails_on_wrong_cli_stdout(tmp_path):
    wl = workloads.make("cli-oneshot", SRC)
    item = next(it for it in wl.deck(0) if it.kind == "energy")
    wl.prepare([item], tmp_path)
    right = f'{{"energy":"{intset.energy_oracle(item.args[0])}","n":{len(item.args[0])}}}\n'
    wl.check(item, (0, right), no_span)
    wrong = right.replace('"energy":"', '"energy":"1')
    with pytest.raises(workloads.OpFailure):
        wl.check(item, (0, wrong), no_span)


def test_gate_fails_on_wrong_build_energy():
    wl = workloads.make("build-band", SRC)
    item = wl.deck(0)[0]
    result = wl.op(item, no_span)
    wl.check(item, result, no_span)
    with pytest.raises(workloads.OpFailure):
        wl.check(item, dataclasses.replace(result, energy=result.energy + 4), no_span)


def test_gate_fails_on_wrong_spectrum_energy():
    wl = workloads.make("spectrum-grid", SRC)
    item = wl.deck(0)[0]
    s = wl.op(item, no_span)
    wl.check(item, s, no_span)
    (e, w), *rest = s.entries
    bad = spectrum.EnergySpectrum(s.n, s.diameter_bound, ((e + 4, w), *rest), s.complete)
    with pytest.raises(workloads.OpFailure):
        wl.check(item, bad, no_span)


def test_command_exits_nonzero_on_wrong_answer(monkeypatch, capsys):
    real = intset.energy_oracle
    monkeypatch.setattr(intset, "energy_oracle", lambda a: real(a) + 4)
    code = run.main(["--workload", "count-mix", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out", ".work"))
    proc = subprocess.run([sys.executable, *spec()["command"][1:], "--workload", "count-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
