"""CLI contract: schemas, exit codes, determinism, file outputs."""

import hashlib
import io
import json
import random
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from addenergy import cli, intset
from addenergy.cli import main
from addenergy.verify import SUITES


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def load_schema(name):
    path = resources.files("addenergy") / "schemas" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check(name, argv, expect_code=0):
    code, out = run_cli(argv)
    assert code == expect_code, out
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(name))
    return payload


# ---------------------------------------------------------------------------
# subcommands against their published schemas
# ---------------------------------------------------------------------------

def test_energy_schema():
    payload = check("energy", ["energy", "--set", "0,1,2"])
    assert payload == {"n": 3, "energy": "19"}


def test_profile_schema():
    payload = check("profile", ["profile", "--set", "0 1 2"])
    assert payload == {"n": 3, "positive": {"1": 2, "2": 1}}


def test_construct_schema_reached():
    payload = check("construct", ["construct", "--n", "20", "--target", "848"])
    assert payload["verified"] is True
    assert len(payload["witness"]) == 20


def test_construct_schema_unreached():
    payload = check("construct", ["construct", "--n", "20", "--target", "1000"],
                    expect_code=3)
    assert payload["verified"] is False
    assert payload["closest"]["energy"] == "996"


def test_spectrum_schema_and_csv(tmp_path):
    payload = check("spectrum", ["spectrum", "--n", "4", "--diameter", "12"])
    assert [e["energy"] for e in payload["entries"]] == ["28", "32", "36", "44"]

    code, out = run_cli(["spectrum", "--n", "4", "--diameter", "12", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "energy,witness,gap_to_next"
    assert lines[1] == "28,0 1 3 7,4"
    assert lines[-1].startswith("44,0 1 2 3,")


def test_spectrum_plot(tmp_path):
    svg = tmp_path / "gaps.svg"
    code, _ = run_cli(["spectrum", "--n", "4", "--diameter", "12",
                       "--plot", str(svg)])
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<line") == 5  # axis + 4 ticks


def test_product_schema(tmp_path):
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(json.dumps(["0", "1", "3"]))
    f2.write_text(json.dumps(["0", "1"]))
    payload = check("product", ["product", "--factors", f"{f1},{f2}", "--oracle"])
    assert payload["energy"] == "90" and payload["oracle_energy"] == "90"
    assert payload["agrees"] is True and payload["size"] == "6"


@pytest.mark.parametrize("factor", [[1.5, 2.5, 7], [True, 2], ["7.0"], "012"])
def test_product_rejects_non_integer_factors(tmp_path, factor, capsys):
    # a float factor used to be truncated: [1.5, 2.5, 7] was counted as {1, 2, 7}
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(json.dumps(factor))
    f2.write_text(json.dumps(["0", "1"]))
    code, out = run_cli(["product", "--factors", f"{f1},{f2}", "--oracle"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_ratio_chain_schema(tmp_path):
    out_file = tmp_path / "chain.json"
    payload = check("ratio_chain", ["ratio-chain", "--w", "12", "--n", "2",
                                    "--out", str(out_file)])
    assert payload["achieved"] >= 2
    assert json.loads(out_file.read_text()) == payload


def test_min_ratio_schema():
    payload = check("min_ratio", ["min-ratio", "--M", "4", "--w", "3", "--n", "2"])
    assert payload["min_ratio"] == {"num": "19", "den": "15"}
    payload = check("min_ratio", ["min-ratio", "--M", "3", "--w", "3", "--n", "2"])
    assert payload["degenerate"] is True and payload["min_ratio"] is None


def test_sidon_schema():
    payload = check("sidon", ["sidon", "--p", "5", "--check"])
    assert payload["is_sidon"] is True and payload["energy"] == "45"
    payload = check("sidon", ["sidon", "--p", "7"])
    assert "is_sidon" not in payload


def test_density_curve_schema(tmp_path):
    csv_file = tmp_path / "curve.csv"
    payload = check("density_curve", ["density-curve", "--n", "4", "--p", "101",
                                      "--csv", str(csv_file)])
    assert [pt["k"] for pt in payload["points"]] == [0, 1, 2, 3, 4]
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "k,alpha,delta,bound_gap"
    assert len(lines) == 6


def test_density_curve_csv_alpha_is_exact(tmp_path):
    # alpha = (2n - k) / 2n to 30 digits, every one right (5/6 was written
    # as 0.833333333333333370340767487505 when divided at 53 bits)
    csv_file = tmp_path / "curve.csv"
    code, _ = run_cli(["density-curve", "--n", "3", "--p", "3", "--csv", str(csv_file)])
    assert code == 0
    alphas = [line.split(",")[1] for line in csv_file.read_text().splitlines()[1:]]
    assert alphas == ["1.00000000000000000000000000000", "0.833333333333333333333333333333",
                      "0.666666666666666666666666666667", "0.500000000000000000000000000000"]


def test_verify_subcommand():
    code, out = run_cli(["verify", "--suite", "all"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().endswith("checks passed")
    printed = {line.split()[1].rstrip(":") for line in out.splitlines()[:-1]}
    assert printed == set(SUITES)


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------

def test_exit_code_precondition():
    code, _ = run_cli(["construct", "--n", "20", "--target", "847"])
    assert code == 1
    code, _ = run_cli(["energy", "--set", "not-a-number"])
    assert code == 1


def test_exit_code_budget():
    code, _ = run_cli(["--budget", "100", "spectrum", "--n", "4", "--diameter", "12"])
    assert code == 2


def test_exit_code_out_of_memory(monkeypatch, capsys):
    def exhausted(a):
        raise MemoryError("pair table of 10^9 values")

    monkeypatch.setattr(cli, "energy_oracle", exhausted)
    code, out = run_cli(["energy", "--set", "0,1,2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "out of memory: pair table of 10^9 values\n"


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("ADDENERGY_BUDGET", "100")
    code, _ = run_cli(["spectrum", "--n", "4", "--diameter", "12"])
    assert code == 2
    monkeypatch.setenv("ADDENERGY_BUDGET", "1000000")
    code, _ = run_cli(["spectrum", "--n", "4", "--diameter", "12"])
    assert code == 0


def test_bad_budget_env_is_a_precondition_error(monkeypatch, capsys):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("ADDENERGY_BUDGET", raw)
        # commands that never consult the budget are unaffected
        assert run_cli(["energy", "--set", "0,1,2"]) == (0, '{"energy":"19","n":3}\n')
        capsys.readouterr()
        code, out = run_cli(["spectrum", "--n", "4", "--diameter", "12"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("error: ADDENERGY_BUDGET")


@pytest.mark.parametrize("argv", [
    ["--budget", "0", "energy", "--set", "1"],
    ["--budget", "-7", "spectrum", "--n", "4", "--diameter", "12"],
    ["--threads", "0", "spectrum", "--n", "4", "--diameter", "12"],
    ["--threads", "-2", "energy", "--set", "1"],
    ["density-curve", "--n", "0", "--p", "101"],
    ["density-curve", "--n", "-1", "--p", "101"],
    ["min-ratio", "--M", "4", "--w", "0", "--n", "2"],
    ["min-ratio", "--M", "4", "--w", "-1", "--n", "2"],
    ["ratio-chain", "--w", "12", "--n", "2", "--base", "0"],
    ["ratio-chain", "--w", "12", "--n", "2", "--base", "1"],
    ["ratio-chain", "--w", "12", "--n", "2", "--base", "-5"],
])
def test_non_positive_flags_exit_1(argv, capsys):
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, flags", [
    (["min-ratio", "--M", "4", "--w", "0", "--n", "2"], ["--w", "--M"]),
    (["min-ratio", "--M", "6", "--w", "3", "--n", "2"], ["--w", "--M"]),
    (["min-ratio", "--M", "4", "--w", "3", "--n", "5"], ["--n"]),
    (["density-curve", "--n", "0", "--p", "101"], ["--n"]),
])
def test_errors_name_the_flags(argv, flags, capsys):
    assert run_cli(argv) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(f in err for f in flags)


@pytest.mark.parametrize("argv", [["energy"], ["no-such-command"], ["--threads", "x", "verify"]])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        run_cli(["energy", "--help"])
    assert exc.value.code == 0


def test_exit_code_internal(monkeypatch, capsys):
    # a builder whose self-check recount disagrees is a broken invariant,
    # not a bad request
    from addenergy import constructions
    monkeypatch.setattr(constructions, "energy_oracle", lambda a: -1)
    code, out = run_cli(["construct", "--n", "20", "--target", "848"])
    assert code == 4
    assert out == ""
    assert capsys.readouterr().err.startswith("internal error: ")


def test_byte_identical_reruns():
    for argv in (
        ["energy", "--set", "5,1,9"],
        ["construct", "--n", "24", "--target", "1108"],
        ["spectrum", "--n", "4", "--diameter", "16"],
        ["--seed", "3", "verify", "--suite", "products"],
        ["density-curve", "--n", "3", "--p", "13"],
    ):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "addenergy.cli", "energy", "--set", "0,1,3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 3, "energy": "15"}


def test_threads_flag_spectrum():
    code, solo = run_cli(["spectrum", "--n", "4", "--diameter", "14"])
    code2, multi = run_cli(["--threads", "2", "spectrum", "--n", "4", "--diameter", "14"])
    assert code == code2 == 0
    assert solo == multi


# two blocks of 20 elements, `gap` apart: differences 1..19 within a block
# and gap-19..gap+19 across
_TWO_BLOCK_PROFILES = {
    100: '{"n":40,"positive":{"1":38,"10":20,"100":20,"101":19,"102":18,"103":17,'
         '"104":16,"105":15,"106":14,"107":13,"108":12,"109":11,"11":18,"110":10,'
         '"111":9,"112":8,"113":7,"114":6,"115":5,"116":4,"117":3,"118":2,"119":1,'
         '"12":16,"13":14,"14":12,"15":10,"16":8,"17":6,"18":4,"19":2,"2":36,"3":34,'
         '"4":32,"5":30,"6":28,"7":26,"8":24,"81":1,"82":2,"83":3,"84":4,"85":5,'
         '"86":6,"87":7,"88":8,"89":9,"9":22,"90":10,"91":11,"92":12,"93":13,'
         '"94":14,"95":15,"96":16,"97":17,"98":18,"99":19}}\n',
    10**6: '{"n":40,"positive":{"1":38,"10":20,"1000000":20,"1000001":19,'
           '"1000002":18,"1000003":17,"1000004":16,"1000005":15,"1000006":14,'
           '"1000007":13,"1000008":12,"1000009":11,"1000010":10,"1000011":9,'
           '"1000012":8,"1000013":7,"1000014":6,"1000015":5,"1000016":4,"1000017":3,'
           '"1000018":2,"1000019":1,"11":18,"12":16,"13":14,"14":12,"15":10,"16":8,'
           '"17":6,"18":4,"19":2,"2":36,"3":34,"4":32,"5":30,"6":28,"7":26,"8":24,'
           '"9":22,"999981":1,"999982":2,"999983":3,"999984":4,"999985":5,"999986":6,'
           '"999987":7,"999988":8,"999989":9,"999990":10,"999991":11,"999992":12,'
           '"999993":13,"999994":14,"999995":15,"999996":16,"999997":17,"999998":18,'
           '"999999":19}}\n',
}


@pytest.mark.parametrize("shift", [0, 2**64])
@pytest.mark.parametrize("gap", [100, 10**6])
def test_profile_stdout_pinned(gap, shift):
    # 40 elements take the numpy difference count: by bincount at gap 100,
    # by sorting at gap 10^6; a shift leaves the profile unchanged
    els = [shift + x for x in (*range(20), *range(gap, gap + 20))]
    assert run_cli(["profile", "--set", ",".join(map(str, els))]) \
        == (0, _TWO_BLOCK_PROFILES[gap])


@pytest.mark.parametrize("els, stdout", [
    # differences past 2^63 are Python ints, one of them counted twice
    ([5, 2**64 + 5, 2**65 + 5, 2**65 + 6],
     '{"n":4,"positive":{"1":1,"18446744073709551616":2,"18446744073709551617":1,'
     '"36893488147419103232":1,"36893488147419103233":1}}\n'),
    # one element has no positive difference
    ([7], '{"n":1,"positive":{}}\n'),
])
def test_profile_stdout_pinned_edges(els, stdout):
    assert run_cli(["profile", "--set", ",".join(map(str, els))]) == (0, stdout)


def test_sidon_p997_stdout_pinned():
    code, out = run_cli(["sidon", "--p", "997", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is_sidon"] is True and payload["energy"] == "1987021"
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "da45896afc6b639684769a5b8b676a03ef18caecd7a133d06e28dc6b407ae388"


def test_construct_n400_stdout_pinned():
    # a 400-element witness with a tail of over 1,000 bits: its self-check
    # counts past 2^62, and the output must not depend on how
    code, out = run_cli(["construct", "--n", "400", "--target", "673296"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True and len(payload["witness"]) == 400
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "9f5699e80d53c56e0b4fcb7677d5679fc9a3260892e88ee275a59e3790d95be6"


# ---------------------------------------------------------------------------
# stdout on every counting kernel, pinned before the FFT and int32 sort
# ---------------------------------------------------------------------------

def kernel_cases(tmp_path):
    """(name, kernel, argv): ``energy`` and ``profile`` on sets, and
    ``product --oracle`` on factor files, that take each counting route."""
    rng = random.Random(2026)
    sets = [
        ("counter", "counter", sorted(rng.sample(range(100), 20))),
        ("bincount", "bincount", sorted(rng.sample(range(400), 40))),
        ("fft", "fft", sorted(rng.sample(range(800), 400))),
        ("sort", "sort", sorted(rng.sample(range(10**6), 300))),
        ("sort64", "sort64", sorted(rng.sample(range(2**40), 40))),
        ("hashed", "hashed", sorted(rng.getrandbits(70) for _ in range(40))),
    ]
    cases = []
    for name, kernel, els in sets:
        for command in ("energy", "profile"):
            # past 2^62 a profile is counted by the Counter
            route = "counter" if command == "profile" and kernel == "hashed" else kernel
            cases.append((f"{command}-{name}", route,
                          [command, "--set", ",".join(map(str, els))]))
    products = [
        ("fft", "fft", 48, (30, 30)),
        ("bincount", "bincount", 48, (20, 20)),
        ("sort", "sort", 48, (6, 6)),
        ("sort64", "sort64", 10**7, (10, 10)),
        ("hashed", "hashed", 2**40, (4, 4, 4)),
    ]
    for name, kernel, alphabet, sizes in products:
        paths = []
        for j, size in enumerate(sizes):
            path = tmp_path / f"{name}-{j}.json"
            path.write_text(json.dumps([str(x) for x in rng.sample(range(alphabet), size)]))
            paths.append(str(path))
        cases.append((f"product-{name}", kernel, ["product", "--factors", ",".join(paths),
                                                  "--alphabet", str(alphabet), "--oracle"]))
    # 319,600 pair sums, past intset._SPLIT_MIN: the sort in two residue classes
    split = sorted(random.Random(2027).sample(range(10**6), 800))
    cases.append(("energy-sort-split", "sort", ["energy", "--set", ",".join(map(str, split))]))
    return cases


# sha256 of stdout, taken from the code before the FFT and int32 sort
KERNEL_STDOUT_SHA256 = {
    "energy-counter": "538e58f10a6484069c40f18c4331433ee1e3aebfe1514db2fe001932c2e2f300",
    "profile-counter": "c9ae2c419080f7913d3d8736155df5fcff95ac01285e571bcb86529ebb8f9d8e",
    "energy-bincount": "9102475d3e1c356d6651ed9e9dc5643e9a3f7ffd92ce248c7878b359cd11cbc5",
    "profile-bincount": "b8df07d6d51383fbea3dcd8b074a536acaa2853eec22fbf72a314f0221849216",
    "energy-fft": "1efc3cd97552444a0fb280a91ea9395bdff7dc126a615739df75f245b059c027",
    "profile-fft": "412c5c6c009d86d7c4357b4256e3025f730761049d66a5853f82bc37de4c7e7d",
    "energy-sort": "47b4878a5d767f431e377871c4ab7e693a040b0af467a0c3f17506aaececa6cb",
    "profile-sort": "f4f2d328c048364ab2fe1d0818b79bc1cc3dc7ca1dd4e51c0feeb1c59b65b5be",
    "energy-sort64": "7763e4d71ed004d1dacccb9685ba8a90573d4df022ad7b47bd1ba94f7b39f2f7",
    "profile-sort64": "0f1382f59781d97c3618141f37c72622485f7fb3ca595f031d2c3400a4f08ea9",
    "energy-hashed": "7763e4d71ed004d1dacccb9685ba8a90573d4df022ad7b47bd1ba94f7b39f2f7",
    "profile-hashed": "2aab7439edba8fea0c5db00c06ec5edf3f5616b1d3bb95a7b3efd4e715c7b404",
    "product-fft": "21a933d5226871e567a05b371a5ea891520a9bcddb6065b7a5fadef629f5f4ce",
    "product-bincount": "3c7cf6d96f9f2281d6e3b8deddd242d387ac06d42acf6ae48f10c3caaa018364",
    "product-sort": "ccdb3e1d86e2c7599fd11e0b632df725a4e09aa6f4d460acbd58528ce24b313d",
    "product-sort64": "d332adc17e3eb47b33e87d34d4cfbc4730022c262561bd942cd4ee7a26cd3355",
    "product-hashed": "0ffb912cc8795578b2c371583651a9bc9f3f0ccbe8d26633b1da2c3e7837a487",
    # taken from the code before the split sort
    "energy-sort-split": "a9691df90cf6b13befe3d16e28287a9364a4ce72304b3929047fd17c23465579",
}


def record_kernels(monkeypatch):
    """The kernel of each count of more than 31 elements: "counter" or
    "hashed" past 2^62, else "fft", "bincount", "sort" (int32) or "sort64"."""
    routes = []
    real_counts, real_hashed = intset._pair_value_counts, intset._energy_hashed

    def counts_spy(n, bins, pairs, rows, shape, convolve, split=None):
        def fft():
            routes.append("fft")
            return convolve()

        counts, table = real_counts(n, bins, pairs, rows, shape, fft, split)
        if table is not None:
            routes.append("sort" if table.dtype == np.int32 else "sort64")
        elif routes[-1:] != ["fft"]:
            routes.append("bincount")
        return counts, table

    def hashed_spy(offsets):
        routes.append("hashed")
        return real_hashed(offsets)

    monkeypatch.setattr(intset, "_pair_value_counts", counts_spy)
    monkeypatch.setattr(intset, "_energy_hashed", hashed_spy)
    return routes


def test_stdout_pinned_on_every_kernel(tmp_path, monkeypatch):
    routes = record_kernels(monkeypatch)
    for name, kernel, argv in kernel_cases(tmp_path):
        routes.clear()
        code, out = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_STDOUT_SHA256[name], name
        # a product also counts its factors, each below 32 elements
        assert set(routes) == ({kernel} - {"counter"}), name


def loaded_after(argv):
    """Which of numpy, numpy.fft and mpmath a fresh interpreter has loaded
    after importing addenergy and addenergy.cli and, given ``argv``, running
    ``cli.main(argv)``."""
    probe = ("import io, sys, addenergy, addenergy.cli as c\n"
             f"if {argv!r} is not None:\n"
             f"    assert c.main({argv!r}, out=io.StringIO()) == 0\n"
             "print(*(m for m in ('numpy', 'numpy.fft', 'mpmath') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    return out.split()


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["energy", "--set", "0,1,2"], []),
    (["construct", "--n", "12", "--target", "276"], []),
    (["min-ratio", "--M", "4", "--w", "3", "--n", "2"], []),
    (["density-curve", "--n", "3", "--p", "13"], ["mpmath"]),
])
def test_import_loads_neither_numpy_nor_mpmath(argv, loaded):
    # each module imports numpy and mpmath inside the functions that use
    # them, so start-up and the commands that never count a set of 32 or
    # more elements load neither
    assert loaded_after(argv) == loaded


def test_import_does_not_load_numpy_fft():
    # 32 elements is the first size counted in numpy (this also catches a
    # silent route change), and numpy.fft is imported on the FFT route's
    # first use, so the counts that never take it do not pay for it
    assert loaded_after(["energy", "--set", ",".join(map(str, range(0, 96, 3)))]) == ["numpy"]
