import json
import os
import subprocess
import sys
import time

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab
from grnnlab.cli import SynthConfig, load_config, main
from grnnlab.evalbench import write_synthetic_linkstream


def read(path):
    with open(path) as fh:
        return fh.read()


def smoke_synth_config(tmp_path, **extra):
    cfg = {
        "command": "synth",
        "memory_values": [1],
        "hidden_sizes": [4],
        "seeds": [0],
        "epochs": 2,
        "num_nodes": 8,
        "edges_per_epoch": 10,
        "summary_window": 2,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_synth_smoke_and_summary_schema(tmp_path):
    cfg_path, cfg = smoke_synth_config(tmp_path, mode="both")
    assert main(["synth", "--config", cfg_path]) == 0
    summary = read(os.path.join(cfg["out_dir"], "summary.csv")).splitlines()
    assert summary[0] == "M,mode,hidden,seed,final_mse,final_mse_min,final_mse_max,baseline_mse"
    assert len(summary) == 3  # one row per (M, mode, hidden, seed) cell
    for row in summary[1:]:
        fields = row.split(",")
        assert fields[0] == "1" and fields[1] in ("t_bptt", "f_bptt")
        assert float(fields[4]) > 0 and float(fields[7]) > 0
    # telemetry excludes wall-clock fields so reruns are byte-identical
    tele = read(os.path.join(cfg["out_dir"], "synth_M1_t_bptt_h4_s0.jsonl"))
    record = json.loads(tele.splitlines()[0])
    assert set(record) == {"epoch", "mean_loss", "grad_norm", "peak_live_records"}


def test_synth_rerun_is_byte_identical(tmp_path):
    cfg_path, cfg = smoke_synth_config(tmp_path, mode="t_bptt", epochs=3)
    assert main(["synth", "--config", cfg_path]) == 0
    first = {
        name: read(os.path.join(cfg["out_dir"], name))
        for name in sorted(os.listdir(cfg["out_dir"]))
    }
    assert main(["synth", "--config", cfg_path]) == 0
    second = {
        name: read(os.path.join(cfg["out_dir"], name))
        for name in sorted(os.listdir(cfg["out_dir"]))
    }
    assert first == second


def test_effective_config_roundtrip(tmp_path):
    cfg_path, cfg = smoke_synth_config(tmp_path, mode="f_bptt")
    assert main(["synth", "--config", cfg_path]) == 0
    summary1 = read(os.path.join(cfg["out_dir"], "summary.csv"))
    effective = os.path.join(cfg["out_dir"], "effective_config.json")
    out2 = str(tmp_path / "out2")
    assert main(["synth", "--config", effective, "--out", out2]) == 0
    assert read(os.path.join(out2, "summary.csv")) == summary1


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"command": "synth", "bogus_knob": 3}))
    assert main(["synth", "--config", str(path)]) == 1


@pytest.mark.parametrize("command,key,value", [("synth", "step_per_batch", True),
                                               ("bench", "symmetric_updates", False),
                                               ("gradcheck", "out_dir", "g_out")])
def test_removed_config_key_rejected(tmp_path, capsys, command, key, value):
    if command == "synth":
        path, _ = smoke_synth_config(tmp_path, **{key: value})
    else:
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"command": command, key: value}))
    assert main([command, "--config", str(path)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--out", "g_out"], ["--mode", "f_bptt"]])
def test_gradcheck_rejects_output_flags(flag):
    # gradcheck writes nothing and checks both modes, so it has neither flag
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", *flag])
    assert exc.value.code == 2


def test_wrong_command_config_rejected(tmp_path):
    cfg_path, _ = smoke_synth_config(tmp_path)
    assert main(["bench", "--config", cfg_path]) == 1


def test_invalid_mode_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"command": "synth", "mode": "sideways"}))
    assert main(["synth", "--config", str(path)]) == 1


@pytest.mark.parametrize("command,extra", [
    ("synth", {"edges_per_epoch": 0}),
    ("synth", {"num_nodes": 1}),
    ("synth", {"mode": "t_bptt", "tbptt_batch_size": 0}),
    ("synth", {"learning_rate": -1.0}),
    ("synth", {"weight_decay": -1.0}),
    ("gradcheck", {"hidden_size": 0}),
    ("gradcheck", {"memory": 0}),
    ("gradcheck", {"events": 0}),
    ("gradcheck", {"num_nodes": 1}),
    ("bench", {"hidden_size": 0}),
    ("bench", {"hidden_size": -1}),
    ("bench", {"seeds": []}),
    ("synth", {"memory_values": []}),
    ("synth", {"hidden_sizes": []}),
    ("synth", {"seeds": []}),
    ("gradcheck", {"tolerance": float("nan")}),
    ("gradcheck", {"eps": float("nan")}),
    ("gradcheck", {"cell_tolerance": -1.0}),
    ("gradcheck", {"cell_tolerance": float("inf")}),
    ("bench", {"train_frac": float("nan")}),
    ("bench", {"patience": -1}),
    ("bench", {"max_events": 0}),
    ("bench", {"max_events": -3}),
    ("synth", {"memory_values": [1, 1]}),
    ("synth", {"hidden_sizes": [4, 4]}),
    ("synth", {"seeds": [0, 0]}),
    ("bench", {"seeds": [0, 0]}),
])
def test_out_of_range_value_is_config_error(tmp_path, capsys, command, extra):
    if command == "synth":
        path, _ = smoke_synth_config(tmp_path, **extra)
    elif command == "bench":
        stream = str(tmp_path / "stream.csv")
        write_synthetic_linkstream(stream, num_events=200, num_users=10, num_items=5, seed=5)
        path, _ = bench_config(tmp_path, stream, max_epochs=1, **extra)
    else:
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"command": command, **extra}))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and list(extra)[-1] in err


@pytest.mark.parametrize("key,value", [("epochs", "5"), ("epochs", True),
                                       ("seeds", [0, "1"]), ("learning_rate", "1e-3")])
def test_wrong_typed_file_value_is_config_error(tmp_path, capsys, key, value):
    cfg_path, _ = smoke_synth_config(tmp_path, **{key: value})
    assert main(["synth", "--config", cfg_path]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("var,raw", [("GRNNLAB_EPOCHS", '"5"'), ("GRNNLAB_EPOCHS", "five"),
                                     ("GRNNLAB_INJECT_GRADIENT_FAULT", "1")])
def test_wrong_typed_env_value_is_config_error(tmp_path, monkeypatch, var, raw):
    monkeypatch.setenv(var, raw)
    if var == "GRNNLAB_INJECT_GRADIENT_FAULT":
        # 1 is not a JSON bool: exit 1 before any check runs (a fault run exits 3)
        assert main(["gradcheck"]) == 1
    else:
        cfg_path, _ = smoke_synth_config(tmp_path)
        assert main(["synth", "--config", cfg_path]) == 1


def test_config_types_accept_int_as_float_and_optional_none(monkeypatch):
    monkeypatch.setenv("GRNNLAB_DATASET_NAME", "2019")
    cfg = load_config("bench", {"dataset_path": "d.csv", "train_frac": 1,
                                "max_events": None}, {"seeds": [3]})
    assert (cfg.train_frac, cfg.max_events, cfg.seeds) == (1, None, [3])
    assert cfg.dataset_name == "2019"  # string fields keep the raw text
    assert load_config("bench", {"dataset_path": "d.csv", "max_events": 9}, {}).max_events == 9


def test_config_dict_in_place_of_file(tmp_path):
    cfg_path, cfg = smoke_synth_config(tmp_path, mode="f_bptt")
    out2 = str(tmp_path / "out2")
    assert main(["synth", "--config", cfg_path]) == 0
    assert main(["synth", "--out", out2], config=dict(cfg)) == 0
    assert read(os.path.join(out2, "summary.csv")) == read(
        os.path.join(cfg["out_dir"], "summary.csv"))


@pytest.mark.parametrize("script,args,env,code,message", [
    ("run_benchmark.py", ["missing.csv", "--smoke"], {}, 2, "data error"),
    ("run_synth_sweep.py", ["--reduced"], {"GRNNLAB_EPOCHS": '"x"'}, 1, "config error"),
])
def test_scripts_pass_config_to_the_command(tmp_path, script, args, env, code, message):
    root = os.path.dirname(os.path.dirname(os.path.dirname(grnnlab.__file__)))
    src = os.path.dirname(os.path.dirname(grnnlab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", script), *args,
         "--out", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr


def test_env_override(tmp_path, monkeypatch):
    cfg_path, cfg = smoke_synth_config(tmp_path, mode="t_bptt")
    monkeypatch.setenv("GRNNLAB_EPOCHS", "4")
    assert main(["synth", "--config", cfg_path]) == 0
    tele = read(os.path.join(cfg["out_dir"], "synth_M1_t_bptt_h4_s0.jsonl"))
    assert len(tele.splitlines()) == 4
    effective = json.loads(read(os.path.join(cfg["out_dir"], "effective_config.json")))
    assert effective["epochs"] == 4


def test_cli_flag_overrides_env(tmp_path, monkeypatch):
    cfg_path, cfg = smoke_synth_config(tmp_path)
    monkeypatch.setenv("GRNNLAB_MODE", '"f_bptt"')
    assert main(["synth", "--config", cfg_path, "--mode", "t_bptt"]) == 0
    effective = json.loads(read(os.path.join(cfg["out_dir"], "effective_config.json")))
    assert effective["mode"] == "t_bptt"


# each key's values, and whether a command-line flag can set it
_LAYERED_KEYS = {
    "mode": (st.sampled_from(["f_bptt", "t_bptt", "both"]), True),
    "seeds": (st.lists(st.integers(0, 10**6), min_size=1, max_size=1), True),
    "out_dir": (st.text(alphabet="abxyz_/", min_size=1, max_size=8), True),
    "epochs": (st.integers(1, 10**6), False),
    "learning_rate": (st.floats(1e-6, 1.0), False),
    "summary_window": (st.integers(1, 10**6), False),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_config_precedence_defaults_file_env_flags(data):
    file, env, flags, expected = {"command": "synth"}, {}, {}, {}
    for key, (values, has_flag) in _LAYERED_KEYS.items():
        expected[key] = getattr(SynthConfig(), key)
        for layer in ("file", "env", "flag"):
            if (layer == "flag" and not has_flag) or not data.draw(st.booleans()):
                continue
            value = data.draw(values)
            if layer == "file":
                file[key] = value
            elif layer == "env":
                # string fields read raw text, the others parse it as JSON
                raw = value if isinstance(value, str) else json.dumps(value)
                env["GRNNLAB_" + key.upper()] = raw
            else:
                flags[key] = value
            expected[key] = value  # later layers win
    with mock.patch.dict(os.environ):
        for name in [name for name in os.environ if name.startswith("GRNNLAB_")]:
            del os.environ[name]
        os.environ.update(env)
        cfg = load_config("synth", file, flags)
    assert {key: getattr(cfg, key) for key in expected} == expected


def bench_config(tmp_path, stream_path, **extra):
    cfg = {
        "command": "bench",
        "dataset_path": stream_path,
        "dataset_name": "smoke",
        "trials": 1,
        "seeds": [0],
        "hidden_size": 4,
        "batch_size": 50,
        "max_epochs": 2,
        "patience": 2,
        "out_dir": str(tmp_path / "bench_out"),
    }
    cfg.update(extra)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def test_bench_smoke_both_modes(tmp_path):
    stream = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(stream, num_events=1000, num_users=30, num_items=12, seed=5)
    cfg_path, cfg = bench_config(tmp_path, stream, mode="both")
    assert main(["bench", "--config", cfg_path]) == 0
    table = read(os.path.join(cfg["out_dir"], "results_table.csv")).splitlines()
    assert table[0] == "dataset,row,mrr,mrr_stderr,recall_at_10,recall_at_10_stderr"
    rows = {line.split(",")[1]: line.split(",") for line in table[1:]}
    assert set(rows) == {"t_bptt", "f_bptt", "gap"}
    # gap rows are F minus T per metric
    assert float(rows["gap"][2]) == pytest.approx(
        float(rows["f_bptt"][2]) - float(rows["t_bptt"][2])
    )
    assert float(rows["gap"][4]) == pytest.approx(
        float(rows["f_bptt"][4]) - float(rows["t_bptt"][4])
    )
    trial = json.loads(read(os.path.join(cfg["out_dir"], "trial_f_bptt_s0_t0.json")))
    assert {"dataset", "mode", "seed", "trial", "mrr", "recall_at_10", "epochs"} <= set(trial)
    tele = read(os.path.join(cfg["out_dir"], "trial_t_bptt_s0_t0.jsonl"))
    assert set(json.loads(tele.splitlines()[0])) == {
        "epoch", "mean_loss", "grad_norm", "peak_live_records", "val_mrr", "val_recall_at_10"}


def test_bench_missing_dataset_is_data_error(tmp_path):
    cfg_path, _ = bench_config(tmp_path, str(tmp_path / "nope.csv"))
    assert main(["bench", "--config", cfg_path]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_bench_unreadable_dataset_is_data_error(tmp_path, capsys, kind):
    path = tmp_path / "data.csv"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"user_id,item_id,timestamp,state_label,f\nu\xff0,i0,0.0,0,1.0\n")
    cfg_path, _ = bench_config(tmp_path, str(path))
    assert main(["bench", "--config", cfg_path]) == 2
    assert "dataset not readable" in capsys.readouterr().err


def test_out_dir_under_a_file_is_config_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg_path, _ = smoke_synth_config(tmp_path)
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "file" / "out")]) == 1
    assert "cannot write output directory" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "user_id,item_id,timestamp,state_label,f\n"],
                         ids=["empty", "header_only"])
def test_bench_dataset_without_rows_is_data_error(tmp_path, capsys, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    cfg_path, _ = bench_config(tmp_path, str(path))
    assert main(["bench", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err == "data error: split of 0 events leaves an empty part\n"


def test_bench_malformed_dataset_is_data_error(tmp_path, capsys):
    # 200,000 chars passes the csv module's field size limit (131,072)
    for field in ("banana", "1" * 200_000):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"user_id,item_id,timestamp,state_label,f\nu0,i0,0.0,0,{field}\n")
        cfg_path, _ = bench_config(tmp_path, str(bad))
        assert main(["bench", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2") and "Traceback" not in err


@pytest.mark.parametrize("row", ["u1,i0,nan,0,1.0", "u1,i0,-inf,0,1.0",
                                 "u1,i0,1.0,0,nan", "u1,i0,1.0,0,inf"])
def test_bench_non_finite_field_is_data_error(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"user_id,item_id,timestamp,state_label,f\nu0,i0,0.0,0,1.0\n{row}\n"
                   "u2,i1,-5.0,0,1.0\n")
    cfg_path, _ = bench_config(tmp_path, str(bad))
    assert main(["bench", "--config", cfg_path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_gradcheck_default_passes_quickly():
    t0 = time.time()
    assert main(["gradcheck"]) == 0
    assert time.time() - t0 < 10.0


def test_gradcheck_minimal_config_under_ten_seconds(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"command": "gradcheck", "hidden_size": 2, "events": 6}))
    t0 = time.time()
    assert main(["gradcheck", "--config", str(path)]) == 0
    assert time.time() - t0 < 10.0
    out = capsys.readouterr().out
    for strategy in ("sequential", "t_batch", "fixed_parallel"):
        assert f"epoch_full_bptt_fd_{strategy}" in out
        assert f"epoch_truncated_bptt_fd_{strategy}" in out
    assert "truncation_vacuity" in out


def test_gradcheck_detects_injected_fault(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"command": "gradcheck", "inject_gradient_fault": True}))
    assert main(["gradcheck", "--config", str(path)]) == 3


@pytest.mark.parametrize("kind", ["invalid_json", "directory", "not_utf8"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    if kind == "invalid_json":
        path.write_text('{"command": "synth", ')
    elif kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"command": "synth", "dataset_name": "\xff"}')
    assert main(["synth", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
