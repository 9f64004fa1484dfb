"""CLI: reproducible outputs, exit codes, workload generation, subcommands."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from pyramid_oram.cli import (
    RunConfig,
    generate_workload,
    main,
    make_value,
)
from pyramid_oram.core import MAX_REAL_KEY, InvalidParameterError
from pyramid_oram.pyramid import PyramidOram

BASE = ["--capacity", "64", "--first-level-size", "4", "--payload-size", "8",
        "--seed", "11", "--ops", "200", "--key-space", "48"]


SMALL_RUN = dict(capacity=64, first_level_size=4, payload_size=8, seed=1,
                 ops=10, workload="uniform", zipf_theta=0.99, key_space=64,
                 read_fraction=0.5, preload=0.0)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_make_value_sizes_and_determinism():
    for size in (1, 8, 64, 65, 200):
        v = make_value(5, 2, size)
        assert len(v) == size
        assert v == make_value(5, 2, size)
    assert make_value(5, 2, 32) != make_value(5, 3, 32)
    assert make_value(5, 2, 32) != make_value(6, 2, 32)
    assert make_value(1, 0, 200) == make_value(1, 0, 200)


def test_run_config_validation_and_roundtrip():
    run = RunConfig(capacity=64, first_level_size=4, payload_size=8, seed=1,
                    ops=10, workload="uniform", zipf_theta=0.99, key_space=64,
                    read_fraction=0.5, preload=0.0)
    assert RunConfig.from_json(run.to_json()) == run
    data = run.to_json()
    for bad in ({**data, "version": 2}, {**data, "opz": 10},
                {key: value for key, value in data.items() if key != "ops"},
                [1, 2]):
        with pytest.raises(InvalidParameterError):
            RunConfig.from_json(bad)
    with pytest.raises(InvalidParameterError):
        RunConfig(capacity=64, first_level_size=4, payload_size=8, seed=1,
                  ops=10, workload="replay", zipf_theta=0.99, key_space=64,
                  read_fraction=0.5, preload=0.0)  # replay without a file
    with pytest.raises(InvalidParameterError):
        RunConfig(capacity=64, first_level_size=4, payload_size=8, seed=1,
                  ops=10, workload="uniform", zipf_theta=0.99, key_space=64,
                  read_fraction=1.5, preload=0.0)


def test_run_config_version_is_an_int_and_replay_file_may_be_left_out():
    data = RunConfig(**SMALL_RUN).to_json()
    with pytest.raises(InvalidParameterError, match="version"):
        RunConfig.from_json({**data, "version": True})  # True == 1
    del data["replay_file"]
    assert RunConfig.from_json(data) == RunConfig(**SMALL_RUN)
    assert RunConfig(**{**SMALL_RUN, "key_space": MAX_REAL_KEY + 1}).key_space \
        == MAX_REAL_KEY + 1  # every real key
    with pytest.raises(InvalidParameterError, match="key_space"):
        RunConfig(**{**SMALL_RUN, "key_space": MAX_REAL_KEY + 2})


@pytest.mark.parametrize("field,value", [
    ("capacity", 64.0), ("first_level_size", 4.0), ("payload_size", 8.0),
    ("seed", 1.0), ("seed", 1.5), ("ops", 10.0), ("key_space", 64.0),
])
def test_run_config_refuses_non_integer_fields(field, value):
    # JSON parses 64.0 as a float equal to 64; the run must refuse it
    data = {**RunConfig(capacity=64, first_level_size=4, payload_size=8,
                        seed=1, ops=10, workload="uniform", zipf_theta=0.99,
                        key_space=64, read_fraction=0.5,
                        preload=0.0).to_json(), field: value}
    with pytest.raises(InvalidParameterError, match=field):
        RunConfig.from_json(data)


def test_generate_workload_is_pure_and_ranged():
    run = RunConfig(capacity=64, first_level_size=4, payload_size=8, seed=9,
                    ops=500, workload="zipf", zipf_theta=0.99, key_space=32,
                    read_fraction=0.25, preload=0.0)
    a = generate_workload(run)
    b = generate_workload(run)
    assert a == b
    assert len(a) == 500
    assert all(0 <= key < 32 for _, key in a)
    reads = sum(op == "read" for op, _ in a)
    assert 0.15 < reads / 500 < 0.35
    all_writes = RunConfig(capacity=64, first_level_size=4, payload_size=8,
                           seed=9, ops=50, workload="sequential",
                           zipf_theta=0.99, key_space=16, read_fraction=0.0,
                           preload=0.0)
    ops = generate_workload(all_writes)
    assert all(op == "write" for op, _ in ops)
    assert [key for _, key in ops] == [i % 16 for i in range(50)]


def test_bench_no_timing_is_byte_reproducible(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"rows_{tag}.csv"
        cdf_path = tmp_path / f"cdf_{tag}.csv"
        code, out = run_main(
            ["bench", *BASE, "--no-timing", "--csv", str(csv_path),
             "--cdf", str(cdf_path)],
            capsys,
        )
        assert code == 0
        outputs.append((out, csv_path.read_bytes(), cdf_path.read_bytes()))
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0][0])
    assert summary["ops"] == 200
    assert summary["wall_ns_total"] == 0
    assert summary["online_min_seen"] >= 4
    assert summary["cost_model"]["capacity"] == 64


def test_bench_cdf_is_monotone_and_complete(tmp_path, capsys):
    cdf_path = tmp_path / "cdf.csv"
    code, _ = run_main(["bench", *BASE, "--no-timing", "--cdf", str(cdf_path)],
                       capsys)
    assert code == 0
    lines = cdf_path.read_text().strip().splitlines()
    assert lines[0] == "total_buckets,cum_fraction"
    totals = []
    fractions = []
    for line in lines[1:]:
        total, fraction = line.split(",")
        totals.append(int(total))
        fractions.append(fraction)
    assert totals == sorted(totals)
    assert fractions == sorted(fractions)
    assert fractions[-1] == "1.000000"
    assert len(totals) == 200


def test_bench_zipf_and_sequential_run(capsys):
    for workload in ("zipf", "sequential"):
        code, out = run_main(
            ["bench", *BASE, "--workload", workload, "--no-timing"], capsys
        )
        assert code == 0
        assert json.loads(out)["ops"] == 200


def test_config_dump_and_reload_equivalent(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    code, out_flags = run_main(
        ["bench", *BASE, "--no-timing", "--dump-config", str(cfg_path)], capsys
    )
    assert code == 0
    saved = json.loads(cfg_path.read_text())
    assert saved["capacity"] == 64 and saved["seed"] == 11
    code, out_cfg = run_main(
        ["bench", "--config", str(cfg_path), "--no-timing"], capsys
    )
    assert code == 0
    assert out_flags == out_cfg


def test_replay_workload(tmp_path, capsys):
    replay = tmp_path / "ops.csv"
    replay.write_text("# warmup\nwrite,3\nwrite,5\nread,3\nread,4\n")
    code, out = run_main(
        ["bench", "--capacity", "64", "--first-level-size", "4",
         "--payload-size", "8", "--seed", "1", "--workload", "replay",
         "--replay-file", str(replay), "--no-timing"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["ops"] == 4
    assert summary["found"] == 1  # only the read of key 3 hits


def test_replay_rejects_malformed_lines(tmp_path, capsys):
    replay = tmp_path / "bad.csv"
    for text in ("frobnicate,1\n", "write,1\nread,abc\n"):
        replay.write_text(text)
        code, _ = run_main(
            ["bench", "--workload", "replay", "--replay-file", str(replay)],
            capsys,
        )
        assert code == 2


def test_exit_code_2_on_bad_parameters(tmp_path, capsys, monkeypatch):
    data = RunConfig(capacity=64, first_level_size=4, payload_size=8, seed=1,
                     ops=10, workload="uniform", zipf_theta=0.99, key_space=64,
                     read_fraction=0.5, preload=0.0).to_json()
    del data["ops"]
    configs = []
    for name, text in (("missing", json.dumps(data)),
                       ("unknown", json.dumps({**data, "ops": 10, "opz": 10})),
                       ("torn", "{")):
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(text)
    absent = tmp_path / "absent"
    unwritable = str(absent / "out")
    for argv in (["bench", "--capacity", "100"],
                 ["bench", "--capacity", "64", "--first-level-size", "128"],
                 ["bench", "--capacity", "1"],
                 ["bench", "--key-space", "0"],
                 *(["bench", "--config", str(path)] for path in configs),
                 ["bench", "--config", str(absent / "run.json")],
                 ["bench", "--workload", "replay",
                  "--replay-file", str(absent / "ops.csv")],
                 ["bench", *BASE, "--dump-config", unwritable],
                 ["bench", *BASE, "--no-timing", "--csv", unwritable],
                 ["bench", *BASE, "--no-timing", "--cdf", unwritable],
                 ["trace", *BASE, "--out", unwritable],
                 ["trace", *BASE, "--build-out", unwritable],
                 # a non-integer default seed, read when the parser is built
                 ["bounds", "--m", "8", "--n", "8", "--c", "2"]):
        if argv[0] == "bounds":
            monkeypatch.setenv("PYRAMID_ORAM_SEED", "abc")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--config" in argv:
            # a bad config file, torn, absent or misfit, is named
            assert argv[-1] in err


def test_invalid_run_config_writes_no_dump(tmp_path, capsys):
    dump = tmp_path / "run.json"
    for argv in (["--capacity", "100"],
                 ["--capacity", "64", "--first-level-size", "128"],
                 ["--key-space", "0"]):
        assert main(["bench", *argv, "--dump-config", str(dump)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not dump.exists()


@pytest.mark.parametrize("field,value", [
    ("capacity", 256.0), ("seed", 1.0), ("ops", 10.0), ("key_space", 256.0),
])
def test_non_integer_config_field_exits_2(tmp_path, capsys, field, value):
    data = RunConfig(capacity=256, first_level_size=8, payload_size=8, seed=0,
                     ops=10, workload="uniform", zipf_theta=0.99, key_space=256,
                     read_fraction=0.5, preload=0.0).to_json()
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**data, field: value}))
    assert main(["bench", "--config", str(path), "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err


def test_preload_beyond_capacity_exits_2_before_the_dump(tmp_path, capsys):
    dump = tmp_path / "d.json"
    assert main(["bench", "--capacity", "256", "--first-level-size", "8",
                 "--key-space", "20000", "--preload", "1",
                 "--dump-config", str(dump)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds capacity" in err
    assert not dump.exists()


def assert_refused_before_the_dump(argv, dump, field, capsys):
    assert main([*argv, "--dump-config", str(dump)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err
    assert not dump.exists()


@pytest.mark.parametrize("field,text", [
    ("preload", "nan"), ("preload", "inf"), ("read_fraction", "nan"),
    ("read_fraction", "-inf"), ("zipf_theta", "nan"), ("zipf_theta", "inf"),
])
def test_non_finite_numbers_exit_2_before_the_dump(tmp_path, capsys, field, text):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RunConfig(**SMALL_RUN).to_json(),
                                  field: float(text)}))  # NaN, -Infinity
    flag = f"--{field.replace('_', '-')}={text}"  # "=": -inf is not a flag
    for argv in (["bench", "--workload", "zipf", flag],
                 ["bench", "--config", str(config)]):
        assert_refused_before_the_dump(argv, tmp_path / "d.json", field, capsys)


def test_negative_seed_exits_2_in_every_subcommand(tmp_path, capsys, monkeypatch):
    dump = tmp_path / "d.json"
    for argv in ([*cmd, *BASE[:6], "--ops", "10"]
                 for cmd in (["bench"], ["verify"], ["trace"])):
        assert_refused_before_the_dump([*argv, "--seed", "-1"], dump, "seed", capsys)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RunConfig(**SMALL_RUN).to_json(), "seed": -1}))
    assert_refused_before_the_dump(["bench", "--config", str(config)], dump,
                                   "seed", capsys)
    stats = (["zht", "--m", "64", "--n", "32", "--c", "2", "--trials", "10"],
             ["prn", "--n", "8", "--c", "2", "--load", "8", "--trials", "10"])
    for argv in stats:
        assert main([*argv, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
    monkeypatch.setenv("PYRAMID_ORAM_SEED", "-1")
    for argv in (["bench", *BASE[:6], "--ops", "10"], *stats):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err


def test_key_space_beyond_the_key_range_exits_2_before_the_dump(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RunConfig(**SMALL_RUN).to_json(),
                                  "key_space": 1 << 33}))
    for argv in (["bench", "--key-space", str(1 << 33)],
                 ["bench", "--config", str(config)]):
        assert_refused_before_the_dump(argv, tmp_path / "d.json", "key_space",
                                       capsys)


def test_zipf_key_space_beyond_its_cdf_bound_exits_2_before_the_dump(tmp_path,
                                                                    capsys):
    # the zipf CDF has one entry per key, so its key space is bounded
    assert RunConfig(**{**SMALL_RUN, "workload": "zipf",
                        "key_space": 1 << 24}).key_space == 1 << 24
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RunConfig(**SMALL_RUN).to_json(),
                                  "workload": "zipf",
                                  "key_space": (1 << 24) + 1}))
    for argv in (["bench", "--workload", "zipf", "--key-space", str((1 << 24) + 1)],
                 ["bench", "--config", str(config)]):
        assert_refused_before_the_dump(argv, tmp_path / "d.json", "key_space",
                                       capsys)
    # the other workloads do not build it
    assert RunConfig(**{**SMALL_RUN, "key_space": (1 << 24) + 1}).key_space \
        == (1 << 24) + 1


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["bench", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(config) in err


def test_exit_code_3_when_capacity_exhausted(capsys):
    code, _ = run_main(
        ["bench", "--capacity", "4", "--first-level-size", "2",
         "--payload-size", "8", "--seed", "3", "--ops", "64",
         "--key-space", "32", "--read-fraction", "0"],
        capsys,
    )
    assert code == 3


def test_verify_clean_run_passes(capsys):
    code, out = run_main(
        ["verify", *BASE, "--preload", "0.25"], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["divergence"] is None
    assert summary["checked_keys"] > 0


def test_verify_detects_injected_fault(capsys):
    code, out = run_main(
        ["verify", *BASE, "--preload", "0.25", "--inject-fault"], capsys
    )
    assert code == 1
    summary = json.loads(out)
    assert summary["ok"] is False
    assert summary["fault_injected"] is True
    assert summary["divergence"]["phase"] == "sweep"
    assert summary["divergence"]["expected"] != summary["divergence"]["got"]


def test_verify_reports_a_workload_divergence_and_stops(monkeypatch, capsys):
    # step 5 returns a wrong value: verify stops there, reports it against
    # the whole step count and runs no step after it
    access = PyramidOram.access_with_record
    calls = []

    def wrong_at_step_5(self, op, key, value=None):
        calls.append(key)
        result, record = access(self, op, key, value)
        if record.op_index == 5:
            result = b"\xff" * 8 if result is None else None
        return result, record

    monkeypatch.setattr(PyramidOram, "access_with_record", wrong_at_step_5)
    code, out = run_main(["verify", *BASE, "--preload", "0.25"], capsys)
    assert code == 1
    summary = json.loads(out)
    assert summary["ok"] is False
    assert summary["ops"] == 200
    assert summary["divergence"]["phase"] == "workload"
    assert summary["divergence"]["op_index"] == 5
    assert len(calls) == 6


# sha256 of stdout and of every file written, recorded before bench, verify
# and trace moved onto one run driver, and the estimators' before their
# blocks ran on threads; a refactor must leave them untouched
PINNED = [
    (["bench", *BASE, "--no-timing", "--csv", "rows.csv", "--cdf", "cdf.csv"],
     {"stdout": "02a69274c0529baae6b57a637e087b59308acb59687613bc9fef0956b1b2cebc",
      "rows.csv": "44ba6ddc58314c59f75d5a1e073ab0fcb5c8a592c61f9dc81d75bd3995c5e3d1",
      "cdf.csv": "05d1e507b669f3e37cccfcdfe65e68afe238e822dfc8e04a8a0988b05632031a"}),
    (["verify", *BASE, "--preload", "0.25", "--inject-fault"],
     {"stdout": "4420eb5cc17b6e25e141c4abbbbe39e02a1efb17ff2e08e223986c781ba68654"}),
    (["trace", *BASE, "--out", "online.csv", "--build-out", "build.csv"],
     {"stdout": "08317ed313a6479eb5737b5d16c592df1f12b7b0f3f6ea74ddda3277fff5579c",
      "online.csv": "50db712f07351b6918dda8aaa341a347d7bb6310194f45382a549748dce90629",
      "build.csv": "3481a63ce369e7ee17cc6ad3af13fee49e124dd574a4fd5aad935a8a55a65b2f"}),
    # the estimators: 8 throw chunks; 3 census blocks (512 + 512 + 76)
    (["zht", "--m", "1024", "--n", "1024", "--c", "4", "--trials", "2000",
      "--seed", "3"],
     {"stdout": "65e0f59639747216c4c562532e4deb6cc466fb1b326ff4ca914085e365610910"}),
    (["prn", "--n", "256", "--c", "2", "--load", "256", "--trials", "1100",
      "--seed", "1"],
     {"stdout": "53dbb3fa782ec99e4b96cf77bb78749ed4c6f781b454bf632ebc2997f7e97e20"}),
]


def test_cli_bytes_match_their_pinned_digests(tmp_path, capsys):
    for argv, digests in PINNED:
        main([str(tmp_path / arg) if arg in digests else arg for arg in argv])
        got = {"stdout": capsys.readouterr().out.encode()}
        got.update((name, (tmp_path / name).read_bytes())
                   for name in digests if name != "stdout")
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in got.items()} == digests, argv[0]


def test_trace_outputs_and_reproducible_shape(tmp_path, capsys):
    shas = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"online_{tag}.csv"
        build_csv = tmp_path / f"build_{tag}.csv"
        code, out = run_main(
            ["trace", *BASE[:10], "--ops", "40", "--out", str(out_csv),
             "--build-out", str(build_csv)],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["online_events"] > 0
        assert summary["build_events"] > 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == summary["online_events"]
        assert all(line.count(",") == 1 for line in lines)  # region,index
        shas.append((summary["online_shape_sha256"],
                     summary["build_shape_sha256"]))
    assert shas[0] == shas[1]


def test_zht_subcommand(capsys):
    code, out = run_main(
        ["zht", "--m", "512", "--n", "256", "--c", "2", "--trials", "300",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["within_bound"] is True
    assert summary["stats"]["trials"] == 300


def test_prn_subcommand(capsys):
    code, out = run_main(
        ["prn", "--n", "64", "--c", "2", "--load", "64", "--trials", "100",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert len(summary["stage_mean"]) == 6
    assert summary["throw"]["trials"] == 100


def test_bounds_subcommand(capsys):
    code, out = run_main(
        ["bounds", "--m", "256", "--n", "256", "--c", "2", "--k", "3"], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["overflow_prob_exact"] == "255/512"
    assert summary["overflow_prob_bound"] == 0.498046875


def test_bounds_past_the_float_range_exit_0(capsys):
    code, out = run_main(["bounds", "--m", "10000", "--n", "2", "--c", "200"],
                         capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["overflow_prob_bound"] == math.inf
    assert summary["overflow_prob_exact"] == str(Fraction(math.comb(10000, 200), 2**200))


@pytest.mark.parametrize("argv,keys", [
    (["bench", *BASE, "--no-timing"],
     {"version", "run", "ops", "found", "rebuilds", "online_buckets_total",
      "total_buckets_total", "online_min_seen", "online_max_seen",
      "wall_ns_total", "cost_model"}),
    (["verify", *BASE],
     {"version", "ok", "ops", "checked_keys", "fault_injected", "divergence"}),
    (["trace", *BASE],
     {"version", "ops", "online_events", "build_events",
      "online_shape_sha256", "build_shape_sha256"}),
    (["zht", "--m", "64", "--n", "32", "--c", "2", "--trials", "10"],
     {"version", "m", "n", "c", "stats", "expected_spill_bound",
      "within_bound"}),
    (["prn", "--n", "8", "--c", "2", "--load", "8", "--trials", "10"],
     {"version", "n", "c", "load", "trials", "stage_mean", "throw"}),
    (["bounds", "--m", "8", "--n", "8", "--c", "2"],
     {"version", "overflow_prob_exact", "expected_spill_exact"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_summary_has_its_keys(argv, keys, capsys):
    code, out = run_main(argv, capsys)
    assert code == 0
    summary = json.loads(out)
    assert isinstance(summary, dict)
    assert keys <= summary.keys()


def test_usage_errors_return_2(capsys):
    assert main([]) == 2
    assert main(["bench", "--bogus-flag"]) == 2
    # the estimators run in one process; there is no worker count to set
    assert main(["zht", "--m", "64", "--n", "32", "--c", "2", "--trials", "10",
                 "--workers", "2"]) == 2


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pyramid_oram.cli", "bounds", "--m", "8",
         "--n", "8", "--c", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == 8


def test_import_leaves_out_multiprocessing():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pyramid_oram; print(sorted({'multiprocessing', "
         "'concurrent.futures.process'} & sys.modules.keys()))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_out_jsonschema():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pyramid_oram.cli; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"
