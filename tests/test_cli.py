"""Command-line interface: subcommands, manifests, reruns, and exit codes."""

import csv
import dataclasses
import datetime as dt
import hashlib
import json
import sys
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dispatchlab import csvblocks
from dispatchlab.cli import main, write_json, write_report
from dispatchlab.grid import build_grid, uniform_request_model
from oracles import (
    build_replay_rows,
    estimate_segment_rates_rows,
    filter_bbox_rows,
    parse_trips_rows,
    segment_rows,
    subsample_rows,
    write_model_rows,
    write_replay_rows,
)


def run(args, tmp_path, sub=None):
    out = tmp_path / (sub or "out")
    code = main(args + ["--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


EXACT_ARGS = [
    "exact",
    "--grid", "2x2",
    "--drivers", "2",
    "--capacity", "2",
    "--arrivals", "uniform:0.0625",
    "--policy", "nadap:0.8",
]


def test_exact_uniform_example(tmp_path, capsys):
    code, out = run(EXACT_ARGS, tmp_path)
    assert code == 0
    report = read_json(out / "report.json")
    assert abs(report["objective"] - 0.4) < 1e-10
    assert report["irreducible"] is True and report["aperiodic"] is True
    assert report["method"] == "elimination"
    assert report["under_envelope"] is True
    rows = read_csv(out / "stationary.csv")
    assert len(rows) == 10
    assert max(abs(float(r["pi"]) - 0.1) for r in rows) < 1e-10
    gamma = {(int(r["u"]), int(r["v"])): float(r["gamma"]) for r in read_csv(out / "gamma.csv")}
    assert len(gamma) == 16
    mixing = read_csv(out / "mixing.csv")
    assert float(mixing[0]["d_t"]) >= float(mixing[-1]["d_t"])
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "exact"
    assert set(manifest["outputs"]) == {"stationary.csv", "gamma.csv", "mixing.csv", "report.json"}
    assert "timestamp" not in manifest
    printed = capsys.readouterr().out
    assert "objective" in printed


def test_exit_codes(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["exact", "--bogus-flag", "1"]) == 2
    # infeasible instance: 9 drivers cannot fit on 4 cells at capacity 2
    code = main(
        ["exact", "--grid", "2x2", "--drivers", "9", "--capacity", "2",
         "--arrivals", "uniform:0.01", "--policy", "nadap:0.8",
         "--out", str(tmp_path / "bad")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error (" in err


def test_missing_required_flags(tmp_path, capsys):
    code = main(["exact", "--grid", "2x2", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# ensemble defaults\n"
        "runs = 5\n"
        "rounds = 80\n"
    )
    code, out = run(
        ["simulate", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
         "--arrivals", "uniform:0.0625", "--policy", "nadap:0.8",
         "--seed", "3", "--runs", "7", "--config", str(cfg)],
        tmp_path,
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["runs"] == 7  # flag beats file
    assert manifest["config"]["rounds"] == 80  # file beats default
    assert len(read_csv(out / "wt.csv")) == 80


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_option = 1\n")
    code, _ = run(EXACT_ARGS + ["--config", str(cfg)], tmp_path)
    assert code == 1
    assert "no_such_option" in capsys.readouterr().err


def test_seed_drawn_and_recorded_when_omitted(tmp_path):
    code, out = run(
        ["simulate", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
         "--arrivals", "uniform:0.0625", "--policy", "nadap:0.8",
         "--rounds", "40", "--runs", "3"],
        tmp_path,
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert isinstance(manifest["seed"], int)
    assert "--seed" in manifest["rerun_argv"]
    drawn = manifest["rerun_argv"][manifest["rerun_argv"].index("--seed") + 1]
    assert int(drawn) == manifest["seed"]
    assert "--seed" not in manifest["argv"]


def test_rerun_from_manifest_reproduces_bytes(tmp_path):
    code, out1 = run(
        ["simulate", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
         "--arrivals", "uniform:0.0625", "--policy", "nadap:0.8",
         "--rounds", "60", "--runs", "4", "--seed", "12"],
        tmp_path, "one",
    )
    assert code == 0
    manifest = read_json(out1 / "manifest.json")
    rerun = [a for a in manifest["rerun_argv"]]
    # redirect the rerun into a fresh directory
    i = rerun.index("--out")
    rerun[i + 1] = str(tmp_path / "two")
    assert main(rerun) == 0
    out2 = tmp_path / "two"
    for name, digest in manifest["outputs"].items():
        assert sha(out2 / name) == digest, name
        assert sha(out1 / name) == digest, name


def test_thread_count_recorded_but_output_invariant(tmp_path):
    args = ["simulate", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
            "--arrivals", "uniform:0.0625", "--policy", "nadap:0.8",
            "--rounds", "50", "--runs", "3", "--seed", "5"]
    code, out1 = run(args + ["--threads", "1"], tmp_path, "t1")
    assert code == 0
    code, out4 = run(args + ["--threads", "4"], tmp_path, "t4")
    assert code == 0
    m1 = read_json(out1 / "manifest.json")
    m4 = read_json(out4 / "manifest.json")
    assert m1["threads"] == 1 and m4["threads"] == 4
    assert m1["outputs"] == m4["outputs"]


def test_couple_subcommand(tmp_path):
    code, out = run(
        ["couple", "--grid", "2x2", "--drivers", "2", "--capacity", "2"],
        tmp_path,
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["worst_beta"] == pytest.approx(15 / 16)
    assert report["worst_beta_exact"] == "15/16"
    assert report["pairs"] == 48
    assert report["tau_bound"] == pytest.approx(95.86343, abs=1e-4)
    rows = read_csv(out / "coupling.csv")
    assert len(rows) == 48
    assert all(float(r["ratio"]) <= 15 / 16 + 1e-15 for r in rows)


@pytest.mark.parametrize("n", [*range(1, 13), 231])
def test_couple_shares_by_division_are_the_fractions_rounded(n):
    """Every total t in [0, 2q] over q = n^2 and over 2q is float(Fraction), bit for bit."""
    q = n * n
    totals = np.arange(2 * q + 1)
    for d in (q, 2 * q):
        want = np.array([float(Fraction(t, d)) for t in totals.tolist()])
        assert (totals / d).tobytes() == want.tobytes()


COUPLE_DIGESTS = {
    ("--drivers", "3", "--capacity", "2"): {
        "coupling.csv": "7479cfcd76895a6acdc32b3d3091ea096cbc47f1c7fb80889f694220562ad7bc",
        "report.json": "030be37d06a44d6a6e3d4f91a0bc0d577c48dbcf2c6e2b16bad7c9be7640e0b6",
    },
    ("--drivers", "2", "--capacity", "1"): {
        "coupling.csv": "a1d0c1462e072c6e44aba8552e47561672f2331cf881e703150b409b4d590a09",
    },
}


@pytest.mark.parametrize("fleet", list(COUPLE_DIGESTS))
def test_couple_output_bytes_are_pinned(tmp_path, fleet):
    # integer arithmetic and one correctly rounded division per cell, so the bytes do not depend on BLAS
    code, out = run(["couple", "--grid", "3x3", *fleet], tmp_path)
    assert code == 0
    assert {name: sha(out / name) for name in COUPLE_DIGESTS[fleet]} == COUPLE_DIGESTS[fleet]


REPLAY = "round,origin,dest,weight\n0,0,3,1.5\n0,3,0,0.5\n0,1,2,2.25\n1,2,2,1\n1,0,1,3\n1,1,0,0.25\n3,3,3,2\n4,0,2,1\n4,2,0,1\n"

# Recorded before ensembles stepped state ranks and tables were formatted in
# blocks.  The first two cases take the rank path, the third the counts path.
# The first case's exact target goes through a BLAS solve, so only its
# ensemble tables are pinned.
SIMULATE_DIGESTS = {
    "--grid 2x2 --drivers 2 --capacity 2 --arrivals uniform:0.0625 --rounds 5000 --runs 7 --policy nadap:0.8 "
    "--seed 5": {
        "wt.csv": "df17320c036273641bbb789f6a7d493554ecf850008de8d6f9d0c6cdbd4358ea",
        "obj.csv": "cea6cd9e0a94dca9dc4d9a5530e8fae76361c0707964b781d9e399f5945ecb17",
    },
    "--grid 2x2 --drivers 2 --capacity 2 --arrivals replay:REPLAY --runs 6 --policy nadap:0.7:lost --seed 3 "
    "--init spread": {
        "wt.csv": "84e28ca2181cd2167804e78176d9ad83920e1d2a69621316eebd8da1a2b4b55e",
        "obj.csv": "6fd389584e3df04a8abbe853b631665b014d9d70164b52cacf27e52e5917f947",
        "error.csv": "2d080681cd745b74a178beaeaf80bacb1ea311e5b83601ce95caeec83e5904d7",
        "fit.json": "495bd978af36b24dda6f68ae366bf521a63c8a0054feda7938957b4240c01119",
    },
    "--grid 4x4 --drivers 4 --capacity 2 --arrivals uniform:0.00390625 --rounds 400 --runs 3 --policy greedy "
    "--seed 2 --estimator realized": {
        "wt.csv": "508bf440d403f2afaa9c536e70d67a5b5cb7906fbfbc48aeda20e121fc209b86",
        "obj.csv": "8017dde1e7b2107d546d8775b6820c47708083b79202d4f32b058577872871aa",
        "error.csv": "ba1276d4fa24e52bc21fec2caf000f6fd82b85c179ce445fcdbe6af039ecf7bf",
        "fit.json": "b4240c00a5cde1239296088775607e184a175dc1b0bcb566f8236ab2dd8e4285",
    },
}


@pytest.mark.parametrize("flags", list(SIMULATE_DIGESTS))
def test_simulate_output_bytes_are_pinned(tmp_path, flags):
    (tmp_path / "replay.csv").write_text(REPLAY)
    code, out = run(["simulate", *flags.replace("REPLAY", str(tmp_path / "replay.csv")).split()], tmp_path)
    assert code == 0
    assert {name: sha(out / name) for name in SIMULATE_DIGESTS[flags]} == SIMULATE_DIGESTS[flags]


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_columns_write_the_bytes_of_per_cell_rows(tmp_path, monkeypatch, block):
    """One ``%`` over a block of rows writes what csv.writer writes for %.17g and quoted string cells."""
    monkeypatch.setattr(csvblocks, "CSV_BLOCK_ROWS", block)
    rng = np.random.default_rng(17)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1 / 3, 1e300, -2.5e-17, 123456789.0, 1.0]
    texts = ["a,b", 'say "hi"', '"', "cr\rhere", "lf\nhere", "\r\n", "", "café ☕", "2,0,1,0", "1", " pad "]
    header = ["t", "x", "y", "s", "a, b"]
    for x in (np.array(specials), rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50), np.zeros(0)):
        y = x[::-1] * 3
        t = np.arange(len(x))
        s = [texts[i % len(texts)] for i in rng.permutation(len(x))]
        cells = np.array([csvblocks.quote(text) for text in s], dtype=object)
        csvblocks.write_table(tmp_path / "blocks.csv", header,
                              csvblocks.Columns("%d,%.17g,%.17g,%s,%d", (t, x, y, cells, t)))
        with open(tmp_path / "cells.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows((i, f"{a:.17g}", f"{b:.17g}", text, i) for i, a, b, text in zip(t.tolist(), x, y, s))
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_repeated_floats_are_written_as_csv_writer_writes_them(tmp_path, monkeypatch, block):
    """Columns of few distinct values, formatted once a value: -0.0 apart from 0.0, NaN payloads, infinities, subnormals."""
    monkeypatch.setattr(csvblocks, "CSV_BLOCK_ROWS", block)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    specials = np.r_[0.0, -0.0, nans, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1 / 3, 0.1]
    rng = np.random.default_rng(3)
    x = specials[rng.integers(0, len(specials), 5000)]
    y = np.where(np.arange(5000) % 7 == 0, -0.0, 0.0)
    z = np.r_[x[:2000], rng.standard_normal(3000)]  # repeated, then all distinct
    t = np.arange(5000)
    deduped, repeated = [], csvblocks._repeated_g17

    def spy(values):
        texts = repeated(values)
        deduped.append(texts is not None)
        return texts

    monkeypatch.setattr(csvblocks, "_repeated_g17", spy)
    csvblocks.write_table(tmp_path / "blocks.csv", ["t", "x", "y", "z"], csvblocks.Columns("%d,%.17g,%.17g,%.17g", (t, x, y, z)))
    with open(tmp_path / "cells.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        writer.writerows((i, f"{a:.17g}", f"{b:.17g}", f"{c:.17g}") for i, a, b, c in zip(t.tolist(), x, y, z))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    # a block of one row is never at most half distinct; z's blocks of 4096 and 904 rows are over half distinct
    assert len(deduped) == 3 * -(-5000 // block)
    if block == 1:
        assert not any(deduped)
    if block == 4096:
        assert deduped == [True, True, False, True, True, False]


def test_mixing_subcommand(tmp_path):
    code, out = run(
        ["mixing", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
         "--arrivals", "uniform:0.0625", "--policy", "rand:NESW",
         "--epsilons", "0.25,0.01"],
        tmp_path,
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["exhaustive"] is True
    assert report["tau"]["0.25"] <= report["tau"]["0.01"]
    curve = read_csv(out / "mixing.csv")
    assert float(curve[-1]["d_t"]) <= 0.01


def test_exact_and_mixing_report_their_solver_and_orbits(tmp_path):
    """nadap under uniform arrivals is analysed on its symmetry orbits; greedy is not."""
    small = ["--grid", "2x3", "--drivers", "3", "--capacity", "2", "--arrivals", "uniform:0.025"]
    for policy, orbits in (("nadap:0.8", 14), ("nadap:0.7:lost", 14), ("greedy", None)):
        code, out = run(["exact", *small, "--policy", policy], tmp_path, f"exact {policy}")
        assert code == 0
        report = read_json(out / "report.json")
        assert (report["method"], report["iterations"], report["orbits"]) == ("elimination", 0, orbits)
        code, out = run(["mixing", *small, "--policy", policy], tmp_path, f"mixing {policy}")
        assert code == 0
        report = read_json(out / "report.json")
        assert (report["exhaustive"], report["start_count"], report["orbits"]) == (True, 50, orbits)
    large = ["--grid", "4x4", "--drivers", "4", "--capacity", "2", "--arrivals", "uniform:0.00390625"]
    code, out = run(["exact", *large, "--policy", "greedy"], tmp_path, "power")
    report = read_json(out / "report.json")
    assert (report["states"], report["method"], report["orbits"]) == (3620, "power", None)
    assert report["iterations"] > 1
    code, out = run(["exact", *large, "--policy", "nadap:0.8"], tmp_path, "lumped")
    report = read_json(out / "report.json")
    assert (report["states"], report["method"], report["iterations"], report["orbits"]) == (
        3620, "elimination", 0, 492)


def test_vi_subcommand(tmp_path):
    code, out = run(
        ["vi", "--grid", "2x2", "--drivers", "1", "--capacity", "2",
         "--arrivals", "uniform:0.0625", "--seed", "2", "--periods", "200"],
        tmp_path,
    )
    assert code == 0
    report = read_json(out / "report.json")
    assert report["augmented_states"] == 4 * 17
    assert report["residual"] <= 1e-8
    assert report["bellman_recheck"] <= 1e-8
    values = read_csv(out / "values.csv")
    assert len(values) == 4 * 17
    assert {r["request"] for r in values} >= {"0", "none"}
    heatmap = read_csv(out / "heatmap.csv")
    assert len(heatmap) == 4
    for row in heatmap:
        assert 0 <= float(row["start_pct"]) <= float(row["drop_rate"]) + 1e-12


# Recorded while the episodes still stepped driver counts; the second case
# starts from an inline placement.
VI_PINS = {
    "--grid 2x2 --drivers 1 --capacity 2 --arrivals uniform:0.0625 --seed 2 --periods 200":
        ("610c84dfaaad04abee30d6f4db08404985cf5b82eafe67f95524cc47a51c8506", 157),
    "--grid 2x3 --drivers 3 --capacity 2 --arrivals uniform:0.025 --seed 11 --periods 700 --init 2,0,0,0,0,1":
        ("8a4da106734c9ba0e20b933372ca4dc52606faa06abb392a86d3ec834e3fe719", 578),
}


@pytest.mark.parametrize("flags", list(VI_PINS))
def test_vi_output_bytes_are_pinned(tmp_path, flags):
    code, out = run(["vi", *flags.split()], tmp_path)
    assert code == 0
    assert (sha(out / "heatmap.csv"), read_json(out / "report.json")["episode_served"]) == VI_PINS[flags]


VI_TABLE_DIGESTS = {
    "--grid 2x2 --drivers 1 --capacity 2 --arrivals uniform:0.0625 --seed 2 --periods 200": {
        "values.csv": "f3f7ba11642d0ff33f54ed548e58d6d20b97ff42cc70a18e9b5cd213afc74a3a",
        "policy.csv": "c406e053ec52077ef31abe9ba702f419e61cfe9e6681cf46e36320ee3ed4d982",
    },
    "--grid 2x3 --drivers 3 --capacity 2 --arrivals uniform:0.025 --seed 11 --periods 700 --init 2,0,0,0,0,1": {
        "values.csv": "26b62f1767734de90bd35ae6d68a9df86e218ae3f3657103b7caf14130cbb8b1",
        "policy.csv": "661aabb2ce91a2dff3292375c42edfccd40058566042f543c25cbffd42698a98",
    },
}


@pytest.mark.parametrize("flags", list(VI_TABLE_DIGESTS))
def test_vi_tables_are_pinned(tmp_path, flags):
    """The per-state, per-request tables, quoted states and the "none" request included."""
    code, out = run(["vi", *flags.split()], tmp_path)
    assert code == 0
    assert {name: sha(out / name) for name in VI_TABLE_DIGESTS[flags]} == VI_TABLE_DIGESTS[flags]


# Recorded on 2x3, m=3, c=2 with uniform:0.025 arrivals.  The stationary
# solve and the mixing curve go through BLAS, so these hold for one numpy
# build.  Only the tables are pinned; the objective is checked by value.
# The nadap rows are solved and swept on the chain's 14 symmetry orbits, so
# their last bits differ from the full chain's, by at most 3.4e-16.
EXACT_DIGESTS = {
    "nadap:0.8": {
        "stationary.csv": "e3e5fef85bc1592b83006bfbbe547865672c58ac987e459e2173d710a7dd60b1",
        "gamma.csv": "66b72a150e64ae759ef54ee3b0a40c56458ae0bfa25d14adbab77a4af668ed0c",
        "mixing.csv": "ea4f3c8bba1a355a4d5e82e9bdbce94868c256b2d64badfdb2f196bdf999decd",
    },
    "nadap:0.7:lost": {
        "stationary.csv": "7f20df78f5e91a3097e90622ad711cfc5eca41699351c0bbab59c9b0452474b0",
        "gamma.csv": "393fe1ecf805d9aee52245dd0f0e344dd679c33656ab4929dca9959f459c5320",
        "mixing.csv": "e1398e53d6af2567a04120d9af25b6309a9bb575572ec036d27cee501f4aeac1",
    },
    "rand:NESW": {
        "stationary.csv": "5cceec7296b92ba55da4c735eb26ee1fdb89e39c2a3e8444ae2597c474408311",
        "gamma.csv": "4ea4085bfcff76ee7f2cb664cc194f1d8f3cf163447b99a54ab758a7218fbe96",
        "mixing.csv": "40113c11f8e289d1c001a246cb444318e6cd78dadc952b1442279f193ae72305",
    },
    "greedy": {
        "stationary.csv": "3fc776cb52937fefa97cba8f682e8d9ed316c9e9af73ed4882d783ff16a3176a",
        "gamma.csv": "5ea33194d9d59b3a695e38ff0b08421261d2bfd517e79d36ef3598960604a05b",
        "mixing.csv": "2edd0604858e80811fdf2bd24b716153f353dd7a24bc1662c6675eaa4c1b0707",
    },
}


@pytest.mark.parametrize("policy", list(EXACT_DIGESTS))
def test_exact_tables_are_pinned(tmp_path, policy):
    args = ["exact", "--grid", "2x3", "--drivers", "3", "--capacity", "2", "--arrivals", "uniform:0.025"]
    code, out = run([*args, "--policy", policy], tmp_path)
    assert code == 0
    assert {name: sha(out / name) for name in EXACT_DIGESTS[policy]} == EXACT_DIGESTS[policy]


@pytest.mark.parametrize("policy", list(EXACT_DIGESTS))
def test_mixing_keeps_its_bytes_without_scipys_private_product(tmp_path, policy, monkeypatch):
    """Where scipy's csr_matvecs is gone, the sweep steps through ``@`` to the same bytes."""
    args = ["exact", "--grid", "2x3", "--drivers", "3", "--capacity", "2", "--arrivals", "uniform:0.025"]
    assert run([*args, "--policy", policy], tmp_path, "with")[0] == 0  # loads every scipy module the run needs
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", types.ModuleType("scipy.sparse._sparsetools"))
    with pytest.raises(ImportError):
        from scipy.sparse._sparsetools import csr_matvecs  # noqa: F401
    code, out = run([*args, "--policy", policy], tmp_path, "without")
    assert code == 0
    want = EXACT_DIGESTS[policy]["mixing.csv"]
    assert sha(tmp_path / "with" / "mixing.csv") == sha(out / "mixing.csv") == want


def test_exact_finds_the_strong_components_once(tmp_path):
    """The irreducibility and period checks share one strong-component search of the kernel."""
    from scipy.sparse import csgraph

    args = ["exact", "--grid", "2x3", "--drivers", "3", "--capacity", "2", "--arrivals", "uniform:0.025"]
    with mock.patch.object(csgraph, "connected_components", wraps=csgraph.connected_components) as search:
        code, out = run([*args, "--policy", "greedy"], tmp_path)
    assert code == 0 and search.call_count == 1
    report = read_json(out / "report.json")
    assert report["irreducible"] is True and report["aperiodic"] is True


def test_one_cell_state_is_written_unquoted(tmp_path):
    args = ["exact", "--grid", "1x1", "--drivers", "1", "--capacity", "1", "--arrivals", "uniform:0.5"]
    code, out = run([*args, "--policy", "greedy"], tmp_path)
    assert code == 0
    assert (out / "stationary.csv").read_bytes() == b"state,pi\n1,1\n"
    assert sha(out / "stationary.csv") == "9b55a2ce4385daa5b72f6af9294f1d36c1930516be74e971a4125a5df4198aac"


def test_csv_report_quotes_a_list_cell(tmp_path):
    """A --format csv report writes a list as JSON in one quoted cell, its quotes doubled."""
    code, fix = run(["fixture", "--trips", "300", "--seed", "6"], tmp_path, "fix")
    assert code == 0
    code, out = run(["ingest", "--input", str(fix / "trips.csv"), "--segment", "morning", "--emit", "model",
                     "--grid", "3x2", "--format", "csv"], tmp_path)
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1] == 'dates,"[""2013-01-14"", ""2013-01-15"", ""2013-01-16"", ""2013-01-17"", ""2013-01-18""]"'
    assert sha(out / "report.csv") == "cb51d5c80307f8995d864b1618492e3ed0e3ec7eabab48d03e7874d4a4d74767"


def test_vi_rejects_an_episode_without_periods(tmp_path, capsys):
    for periods in ("0", "-3"):
        code, out = run(
            ["vi", "--grid", "2x2", "--drivers", "1", "--capacity", "2",
             "--arrivals", "uniform:0.0625", "--seed", "2", "--periods", periods],
            tmp_path, sub=f"periods{periods}",
        )
        assert code == 1, periods
        assert "at least one period" in capsys.readouterr().err
        assert not (out / "heatmap.csv").exists()


def test_simulate_rejects_a_replay_entry_off_the_grid(tmp_path, capsys):
    """Every policy refuses a bad trace entry by name, before it writes anything."""
    bad_entries = {
        "0,7,1,1.0": "trace entry 1 (0, 7, 1, 1.0) is off the 2x2 grid",
        "0,-1,1,1.0": "trace entry 1 (0, -1, 1, 1.0) is off the 2x2 grid",
        "1,0,-2,1.0": "trace entry 1 (1, 0, -2, 1.0) is off the 2x2 grid",
        "-1,0,1,1.0": "trace entry 1 (-1, 0, 1, 1.0) has a negative round",
        "0,1,0,1.0": "trace rounds must be non-decreasing: entry 1 (0, 1, 0, 1.0) follows round 2",
        "0,0,1,nan": "trace entry 1 (0, 0, 1, nan) has a negative or non-finite weight",
        "0,0,1,inf": "trace entry 1 (0, 0, 1, inf) has a negative or non-finite weight",
        "0,0,1,-1.0": "trace entry 1 (0, 0, 1, -1.0) has a negative or non-finite weight",
    }
    for i, (entry, message) in enumerate(bad_entries.items()):
        trace = tmp_path / f"replay{i}.csv"
        first = "2,0,1,1.0" if "non-decreasing" in message else "0,0,1,1.0"
        trace.write_text(f"round,origin,dest,weight\n{first}\n{entry}\n3,1,0,1.0\n")
        for policy in ("nadap:0.8", "rand:NESW", "greedy"):
            code, out = run(
                ["simulate", "--grid", "2x2", "--drivers", "1", "--capacity", "1",
                 "--arrivals", f"replay:{trace}", "--policy", policy, "--runs", "2", "--seed", "1"],
                tmp_path, sub=f"out{i}-{policy.replace(':', '-')}",
            )
            assert code == 1, (entry, policy)
            assert capsys.readouterr().err.strip() == f"error (ValueError): {message}"
            assert not out.exists()


def test_fit_subcommand(tmp_path):
    data = tmp_path / "curve.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "delta"])
        for t in range(40):
            writer.writerow([t, 2.0 * np.exp(-0.1 * t)])
    code, out = run(
        ["fit", "--input", str(data), "--kind", "exp"],
        tmp_path,
    )
    assert code == 0
    fit = read_json(out / "fit.json")
    assert fit["kind"] == "exp"
    assert abs(fit["a"] - 2.0) < 1e-9
    assert abs(fit["b"] - 0.1) < 1e-9
    code, out2 = run(
        ["fit", "--input", str(data), "--kind", "inverse", "--t-column", "t",
         "--value-column", "delta"],
        tmp_path, "inv",
    )
    assert code == 0
    inv = read_json(out2 / "fit.json")
    assert inv["kind"] == "inverse"
    assert inv["dropped"] == 1  # the t=0 point cannot feed a/T


def test_fit_drops_non_finite_points(tmp_path):
    data = tmp_path / "curve.csv"
    data.write_text("t,delta\n0,nan\n1,1\n2,0.5\n3,0.2\n4,inf\n")

    def strict(name):
        raise ValueError(f"non-finite JSON constant {name}")

    for kind in ("exp", "inverse"):
        code, out = run(["fit", "--input", str(data), "--kind", kind], tmp_path, kind)
        assert code == 0
        fit = json.loads((out / "fit.json").read_text(), parse_constant=strict)
        assert fit["dropped"] == 2
        assert np.isfinite(fit["a"]) and np.isfinite(fit["r2"])


def test_fixture_and_ingest_subcommands(tmp_path):
    code, fix = run(["fixture", "--trips", "300", "--seed", "6"], tmp_path, "fix")
    assert code == 0
    trips = fix / "trips.csv"
    manifest = read_json(fix / "manifest.json")
    assert manifest["outputs"]["trips.csv"] == sha(trips)
    assert manifest["summary"]["rows"] == 300

    code, model_out = run(
        ["ingest", "--input", str(trips), "--segment", "morning", "--emit", "model"],
        tmp_path, "model",
    )
    assert code == 0
    report = read_json(model_out / "report.json")
    assert report["parsed"] == 300
    assert report["skipped"] == 0
    assert 0 < report["in_bbox"] <= 300
    assert report["rescale"] == 1.0
    model_rows = read_csv(model_out / "model.csv")
    assert model_rows
    ingest_manifest = read_json(model_out / "manifest.json")
    assert str(trips) in ingest_manifest["inputs"]

    date = report["dates"][0]
    code, replay_out = run(
        ["ingest", "--input", str(trips), "--segment", "morning",
         "--emit", "replay", "--dates", date],
        tmp_path, "replay",
    )
    assert code == 0
    rows = read_csv(replay_out / "replay.csv")
    assert all(0 <= int(r["round"]) < 14400 for r in rows)


@pytest.mark.parametrize("flags, message", [
    (["--trips", "-3"], "--trips must be >= 0, got -3"),
    (["--cars", "0"], "--cars must lie in [1, 4294967295], got 0"),
    (["--cars", "-1"], "--cars must lie in [1, 4294967295], got -1"),
    (["--cars", "4294967296"], "--cars must lie in [1, 4294967295], got 4294967296"),
])
def test_fixture_rejects_flags_outside_their_range(tmp_path, capsys, flags, message):
    code, out = run(["fixture", "--seed", "1", *flags], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error (ValueError): {message}"
    assert not out.exists()


@pytest.mark.parametrize("emit", ["model", "replay"])
@pytest.mark.parametrize("bbox", ["-inf,inf,-inf,inf", "-1e308,1e308,-1e308,1e308"])
def test_ingest_rejects_a_box_without_finite_extent(tmp_path, capsys, bbox, emit):
    """An infinite box, or one whose span overflows, would bin every trip to cell 0."""
    code, fix = run(["fixture", "--trips", "200", "--seed", "2"], tmp_path, "fix")
    assert code == 0
    capsys.readouterr()
    code, out = run(["ingest", "--input", str(fix / "trips.csv"), "--segment", "morning",
                     "--emit", emit, f"--bbox={bbox}"], tmp_path, "ingest")
    assert code == 1
    assert capsys.readouterr().err.strip() == "error (ValueError): bounding box must have positive, finite extent"
    assert not out.exists()


def test_fixture_writes_the_extreme_flag_values(tmp_path):
    for sub, flags in {"none": ["--trips", "0"], "one": ["--trips", "3", "--cars", "1"],
                       "most": ["--trips", "3", "--cars", "4294967295"]}.items():
        code, out = run(["fixture", "--seed", "1", *flags], tmp_path, sub)
        assert code == 0, sub
        assert len(read_csv(out / "trips.csv")) == int(flags[1]), sub


def test_ingest_outputs_match_the_record_pipeline_byte_for_byte(tmp_path):
    """Every ingest output equals, byte for byte, a rerun and the record-by-record pipeline."""
    code, fix = run(["fixture", "--trips", "3000", "--cars", "40", "--seed", "7"], tmp_path, "fix")
    assert code == 0
    trips = fix / "trips.csv"
    parsed = parse_trips_rows(trips)
    kept = filter_bbox_rows(parsed.records)
    jobs = {
        "model": (["--emit", "model"], kept),
        "replay": (["--emit", "replay", "--dates", "2013-01-14"], kept),
        "subsample": (["--emit", "model", "--subsample", "12", "--seed", "3"],
                      subsample_rows(kept, 12, 3)),
    }
    for name, (flags, records) in jobs.items():
        args = ["ingest", "--input", str(trips), "--segment", "morning", *flags]
        outs = []
        for rerun in ("a", "b"):
            code, out = run(args, tmp_path, f"{name}_{rerun}")
            assert code == 0
            outs.append(out)
        seg = segment_rows(records)
        dates = seg.dates("morning")
        if name == "replay":
            dates = [d for d in dates if d.isoformat() == "2013-01-14"]
        expected = tmp_path / f"{name}_oracle"
        expected.mkdir()
        stats = {
            "parsed": len(parsed.records),
            "skipped": parsed.skipped,
            "in_bbox": len(records),
            "outside_segments": seg.dropped,
            "segment": "morning",
            "dates": [d.isoformat() for d in dates],
        }
        if name == "replay":
            data = "replay.csv"
            trace = build_replay_rows(seg.parts["morning"][dates[0]], "morning", dates[0])
            write_replay_rows(expected / data, trace)
            stats.update({"entries": len(trace), "rounds": trace.rounds})
        else:
            data = "model.csv"
            est = estimate_segment_rates_rows(seg, "morning", dates)
            write_model_rows(expected / data, est.model)
            stats.update({"requests": est.requests, "slots": est.slots, "rescale": est.rescale})
        write_json(expected / "report.json", stats)
        for filename in (data, "report.json"):
            want = (expected / filename).read_bytes()
            assert [(out / filename).read_bytes() for out in outs] == [want, want], (name, filename)
        digests = [read_json(out / "manifest.json")["outputs"] for out in outs]
        assert digests[0] == digests[1] == {data: sha(expected / data),
                                            "report.json": sha(expected / "report.json")}


def test_csv_report_format(tmp_path):
    code, out = run(EXACT_ARGS + ["--format", "csv"], tmp_path)
    assert code == 0
    assert not (out / "report.json").exists()
    rows = read_csv(out / "report.csv")
    flat = {r["key"]: r["value"] for r in rows}
    assert abs(float(flat["objective"]) - 0.4) < 1e-10
    assert flat["irreducible"] == "True"


@dataclasses.dataclass
class PinnedFit:
    rate: float
    curve: np.ndarray


def encoder_payload() -> dict:
    """A report holding every kind of value the encoder converts, at the top level and nested."""
    fit = PinnedFit(np.float64(0.5), np.array([1.5, 2.0]))
    return {
        "int64": np.int64(-7),
        "float64": np.float64(0.1),
        "float32": np.float32(0.1),
        "bool_": np.bool_(True),
        "fraction": Fraction(15, 16),
        "path": Path("out") / "report.json",
        "date": dt.date(2013, 1, 14),
        "datetime": dt.datetime(2013, 1, 14, 7, 30, 5),
        "fit": fit,
        "fits": [fit, None],
        "nested": (1, (np.int32(2), [3.25, (np.float32(0.5), "a,b")])),
        "none": None,
        "nan": float("nan"),
        "inf": np.float64("inf"),
        "table": {"grid": (2, 2), "mask": np.array([[True, False]]), "text": 'say "hi"'},
    }


ENCODED_JSON = (
    b'{\n  "bool_": "True",\n  "date": "2013-01-14",\n  "datetime": "2013-01-14T07:30:05",\n'
    b'  "fit": {\n    "curve": [\n      1.5,\n      2.0\n    ],\n    "rate": 0.5\n  },\n'
    b'  "fits": [\n    {\n      "curve": [\n        1.5,\n        2.0\n      ],\n      "rate": 0.5\n    },\n'
    b'    null\n  ],\n  "float32": 0.10000000149011612,\n  "float64": 0.1,\n  "fraction": "15/16",\n'
    b'  "inf": Infinity,\n  "int64": -7,\n  "nan": NaN,\n'
    b'  "nested": [\n    1,\n    [\n      2,\n      [\n        3.25,\n        [\n          0.5,\n'
    b'          "a,b"\n        ]\n      ]\n    ]\n  ],\n  "none": null,\n  "path": "out/report.json",\n'
    b'  "table": {\n    "grid": [\n      2,\n      2\n    ],\n    "mask": [\n      [\n        true,\n'
    b'        false\n      ]\n    ],\n    "text": "say \\"hi\\""\n  }\n}\n'
)
ENCODED_CSV = (
    b'key,value\nbool_,True\ndate,2013-01-14\ndatetime,2013-01-14T07:30:05\n'
    b'fit,"{""rate"": 0.5, ""curve"": [1.5, 2.0]}"\nfits,"[{""rate"": 0.5, ""curve"": [1.5, 2.0]}, null]"\n'
    b'float32,0.10000000149011612\nfloat64,0.1\nfraction,15/16\ninf,inf\nint64,-7\nnan,nan\n'
    b'nested,"[1, [2, [3.25, [0.5, ""a,b""]]]]"\nnone,\npath,out/report.json\n'
    b'table.grid,"[2, 2]"\ntable.mask,"[[true, false]]"\ntable.text,"say ""hi"""\n'
)


def test_report_encoder_bytes_are_pinned(tmp_path):
    """numpy scalars and arrays, Fraction, Path, dates, a dataclass, tuples, None, nan and inf, as JSON and as CSV."""
    payload = encoder_payload()
    write_json(tmp_path / "payload.json", payload)
    assert (tmp_path / "payload.json").read_bytes() == ENCODED_JSON
    assert write_report(tmp_path, "report", payload, "csv") == "report.csv"
    assert (tmp_path / "report.csv").read_bytes() == ENCODED_CSV


def test_weights_flag_changes_objective(tmp_path):
    code, out = run(EXACT_ARGS + ["--weights", "const:2"], tmp_path)
    assert code == 0
    # doubling every ride weight doubles the stationary objective
    assert abs(read_json(out / "report.json")["objective"] - 0.8) < 1e-10
    code, out2 = run(EXACT_ARGS + ["--weights", "const:0.5"], tmp_path, "half")
    assert code == 0
    assert abs(read_json(out2 / "report.json")["objective"] - 0.2) < 1e-10
    # distance weights on 2x2 total 16 as well, so the objective matches w = 1
    code, out3 = run(EXACT_ARGS + ["--weights", "distance"], tmp_path, "dist")
    assert code == 0
    assert abs(read_json(out3 / "report.json")["objective"] - 0.4) < 1e-10


def test_explicit_unit_weights_override_model_file(tmp_path):
    grid = build_grid(2, 2)
    model_path = tmp_path / "model.csv"
    uniform_request_model(grid, 0.0625, weights=3.0).to_csv(model_path)
    args = ["exact", "--grid", "2x2", "--drivers", "2", "--capacity", "2",
            "--arrivals", f"model:{model_path}", "--policy", "nadap:0.8"]
    # unset, the model file keeps its own weights: three times the unit objective
    code, out = run(args, tmp_path, "own")
    assert code == 0
    assert abs(read_json(out / "report.json")["objective"] - 1.2) < 1e-10
    # an explicit const:1 is a value like any other and replaces them
    code, out = run(args + ["--weights", "const:1"], tmp_path, "unit")
    assert code == 0
    assert abs(read_json(out / "report.json")["objective"] - 0.4) < 1e-10


def test_weights_file_cells_are_checked(tmp_path, capsys):
    good = tmp_path / "weights.csv"
    good.write_text("origin,dest,w\n" + "".join(f"{u},{v},2\n" for u in range(4) for v in range(4)))
    code, out = run(EXACT_ARGS + ["--weights", f"file:{good}"], tmp_path, "good")
    assert code == 0
    assert abs(read_json(out / "report.json")["objective"] - 0.8) < 1e-10  # as const:2
    bad_rows = {
        "4,0,1": "error (ValueError): location 4 outside grid with 4 cells",
        "0,-1,7": "error (ValueError): location -1 outside grid with 4 cells",
        "-1,0,7": "error (ValueError): location -1 outside grid with 4 cells",
        "0,1": "error (SchemaError): {path}: line 3: short row, no w cell",
        "0,1,x": "error (SchemaError): {path}: line 3: w cell 'x' is not float64",
    }
    for i, (row, message) in enumerate(bad_rows.items()):
        path = tmp_path / f"weights{i}.csv"
        path.write_text(f"origin,dest,w\n0,1,2\n{row}\n")
        code, out = run(EXACT_ARGS + ["--weights", f"file:{path}"], tmp_path, f"bad{i}")
        assert code == 1, row
        assert capsys.readouterr().err.strip() == message.format(path=path)
        assert not out.exists()


def test_fit_and_replay_inputs_reject_short_rows(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("t,delta\n0,1.0\n1\n2,0.5\n3,0.25\n")
    code, out = run(["fit", "--input", str(curve)], tmp_path, "fit")
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error (SchemaError): {curve}: line 3: short row, no delta cell"
    assert not out.exists()
    trace = tmp_path / "replay.csv"
    trace.write_text("round,origin,dest,weight\n0,0,1,1.0\n1,0,1\n")
    code, out = run(
        ["simulate", "--grid", "2x2", "--drivers", "1", "--capacity", "1",
         "--arrivals", f"replay:{trace}", "--policy", "greedy", "--runs", "1", "--seed", "1"],
        tmp_path, "replay",
    )
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error (SchemaError): {trace}: line 3: short row, no weight cell"
    assert not out.exists()


def test_a_field_past_the_csv_limit_exits_1_and_writes_nothing(tmp_path, capsys):
    """In a trip file for ingest and in a replay file for simulate: the line is named, no traceback escapes."""
    limit = csv.field_size_limit()
    trips = tmp_path / "trips.csv"
    code, fix = run(["fixture", "--trips", "20", "--seed", "3"], tmp_path, "fix")
    assert code == 0
    lines = (fix / "trips.csv").read_text().splitlines()
    lines[7] = "C" * 140_000 + lines[7][lines[7].index(","):]
    trips.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code, out = run(["ingest", "--input", str(trips), "--segment", "morning", "--emit", "model"], tmp_path, "ingest")
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error (SchemaError): {trips}: line 8: field larger than field limit ({limit})"
    assert not out.exists()
    trace = tmp_path / "replay.csv"
    trace.write_text("round,origin,dest,weight\n0,0,1,1.0\n\n1,0,1," + "1" * (limit + 1) + "\n")
    code, out = run(
        ["simulate", "--grid", "2x2", "--drivers", "1", "--capacity", "1",
         "--arrivals", f"replay:{trace}", "--policy", "greedy", "--runs", "1", "--seed", "1"],
        tmp_path, "replay",
    )
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error (SchemaError): {trace}: line 4: field larger than field limit ({limit})"
    assert not out.exists()


def test_failed_run_writes_nothing(tmp_path, capsys):
    # the chain is solved before the mixing horizon runs out, but no file may be left behind
    code, out = run(EXACT_ARGS + ["--tmax", "2"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (HorizonTooShortError): d(2) = ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "mixing"])
@pytest.mark.parametrize("epsilons", ["0.25,nan", "inf", "0.25,-0.1"])
def test_a_threshold_that_is_not_positive_and_finite_exits_1_at_once(tmp_path, capsys, command, epsilons):
    """Refused before any chain is built, where a NaN once stepped the whole --tmax horizon."""
    code, out = run([command, *EXACT_ARGS[1:], "--epsilons", epsilons], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (ValueError): mixing thresholds must be positive and finite")
    assert not out.exists()
    # also above the exhaustive limit (3,620 states), where exact skips mixing
    code, out = run([command, "--grid", "4x4", "--drivers", "4", "--capacity", "2", "--arrivals", "uniform:0.00390625",
                     "--policy", "greedy", "--epsilons", epsilons], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (ValueError): mixing thresholds must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
def test_couple_refuses_an_eps_that_is_not_positive_and_finite(tmp_path, capsys, eps):
    code, out = run(["couple", "--grid", "2x2", "--drivers", "2", "--capacity", "2", f"--eps={eps}"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (ValueError): eps must be positive and finite")
    assert not out.exists()


def test_couple_bound_at_a_large_eps_is_zero(tmp_path):
    code, out = run(["couple", "--grid", "2x2", "--drivers", "2", "--capacity", "2", "--eps", "100"], tmp_path)
    assert code == 0
    assert read_json(out / "report.json")["tau_bound"] == 0.0


VI_ARGS = ["vi", "--grid", "2x2", "--drivers", "1", "--capacity", "2", "--arrivals", "uniform:0.0625",
           "--seed", "2", "--periods", "20"]


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_vi_refuses_a_nan_or_negative_tolerance(tmp_path, capsys, tol):
    code, out = run([*VI_ARGS, f"--tol={tol}"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (ValueError): tolerance must be a number >= 0")
    assert not out.exists()


def test_vi_converges_at_tolerance_zero(tmp_path):
    code, out = run([*VI_ARGS, "--tol", "0"], tmp_path)
    assert code == 0
    report = read_json(out / "report.json")
    assert report["residual"] == 0 and report["sweeps"] == 333


def test_manifest_outputs_are_the_files_written(tmp_path):
    code, fix = run(["fixture", "--trips", "300", "--seed", "6"], tmp_path, "fix")
    assert code == 0
    trips = str(fix / "trips.csv")
    curve = tmp_path / "curve.csv"
    curve.write_text("t,delta\n" + "".join(f"{t},{2.0 * float(np.exp(-0.1 * t))}\n" for t in range(40)))
    base = ["--grid", "2x2", "--drivers", "2", "--capacity", "2", "--arrivals", "uniform:0.0625"]
    cases = {
        "exact": ["exact", *base, "--policy", "nadap:0.8"],
        "exact-csv": ["exact", *base, "--policy", "greedy", "--format", "csv"],
        "mixing": ["mixing", *base, "--policy", "rand:NESW", "--starts", "4", "--seed", "1"],
        "couple": ["couple", "--grid", "2x2", "--drivers", "2", "--capacity", "2"],
        "simulate": ["simulate", *base, "--policy", "nadap:0.8", "--rounds", "30", "--runs", "2", "--seed", "3"],
        "vi": ["vi", "--grid", "2x2", "--drivers", "1", "--capacity", "2", "--arrivals", "uniform:0.0625",
               "--seed", "2", "--periods", "50", "--format", "csv"],
        "fit": ["fit", "--input", str(curve), "--kind", "inverse"],
        "fixture": ["fixture", "--trips", "20", "--seed", "4"],
        "model": ["ingest", "--input", trips, "--segment", "morning", "--emit", "model"],
        "replay": ["ingest", "--input", trips, "--segment", "morning", "--emit", "replay",
                   "--dates", "2013-01-14"],
    }
    for name, args in cases.items():
        code, out = run(args, tmp_path, name)
        assert code == 0, name
        written = {path.name for path in out.iterdir()} - {"manifest.json"}
        outputs = read_json(out / "manifest.json")["outputs"]
        assert set(outputs) == written, name
        assert all(sha(out / filename) == digest for filename, digest in outputs.items()), name
