"""CLI surface: subcommands, option merging, exit codes."""

import json

import pytest

from graphlimitlab import (
    SimpleGraph,
    StepGraphon,
    from_graph6,
    make_wrs,
    save_graphon,
    to_graph6,
)
from graphlimitlab.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "wrs20": tmp_path / "wrs20.json",
        "half": tmp_path / "half.json",
        "zero": tmp_path / "zero.json",
        "k3": tmp_path / "k3.g6",
        "out": tmp_path / "out.csv",
    }
    save_graphon(make_wrs(2, 0), paths["wrs20"])
    save_graphon(StepGraphon.constant(0.5), paths["half"])
    save_graphon(StepGraphon.constant(0.0), paths["zero"])
    paths["k3"].write_text("# triangle\n" + to_graph6(SimpleGraph.complete(3)) + "\n")
    return paths


def test_entropy(workspace, capsys):
    assert main(["entropy", "--graphon", str(workspace["wrs20"])]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.5"


def test_cutdist(workspace, capsys):
    code = main(["cutdist", "--graphon", str(workspace["half"]),
                 "--graphon2", str(workspace["zero"])])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.5"


def test_count_with_csv_and_dump(workspace, capsys, tmp_path):
    dump = tmp_path / "reps.g6"
    code = main(["count", "--family", str(workspace["k3"]), "--sizes", "3,4",
                 "--out", str(workspace["out"]), "--dump", str(dump)])
    assert code == EXIT_OK
    lines = workspace["out"].read_text().splitlines()
    assert lines[-2].startswith("3,7,3,")
    assert lines[-1].startswith("4,41,7,")
    reps = [from_graph6(line) for line in dump.read_text().splitlines()]
    assert len(reps) == 3 + 7  # censuses at both sizes

def test_sample_emits_valid_graph6(workspace, capsys):
    code = main(["sample", "--graphon", str(workspace["wrs20"]), "--n", "9",
                 "--samples", "4", "--seed", "11"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert from_graph6(line).n == 9


def test_converge_roundtrip(workspace, capsys):
    code = main(["converge", "--family", str(workspace["k3"]), "--sizes", "5",
                 "--samples", "2", "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "series,n,mean_distance" in out


def test_speed(workspace, capsys):
    code = main(["speed", "--family", str(workspace["k3"]), "--sizes", "3,4,5"])
    assert code == EXIT_OK
    assert "speed_exponent" in capsys.readouterr().out


def test_audit(workspace, capsys):
    assert main(["audit", "--tmax", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2,10,0.5,0.75,0.25" in out


def test_couple(workspace, capsys):
    code = main(["couple", "--graphon", str(workspace["wrs20"]),
                 "--graphon2", str(workspace["half"]),
                 "--sizes", "8", "--samples", "5", "--seed", "2"])
    assert code == EXIT_OK
    assert "contained_pairs" in capsys.readouterr().out


def test_config_file_with_flag_override(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "family": str(workspace["k3"]),
        "sizes": [3, 4],
        "samples": 2,
        "seed": 5,
    }))
    code = main(["speed", "--config", str(config), "--sizes", "3"])
    assert code == EXIT_OK
    body = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    assert len(body) == 2  # header plus the single overridden size


def test_validation_exit_codes(workspace, capsys):
    assert main(["entropy"]) == EXIT_VALIDATION
    assert main(["cutdist", "--graphon", str(workspace["half"])]) == EXIT_VALIDATION
    assert main(["count", "--family", "/nonexistent.g6", "--n", "3"]) == \
        EXIT_VALIDATION
    empty_family = workspace["k3"].parent / "empty.g6"
    empty_family.write_text("# nothing\n")
    assert main(["converge", "--family", str(empty_family), "--sizes", "5",
                 "--samples", "1"]) == EXIT_VALIDATION


def test_budget_exit_code(workspace, capsys):
    assert main(["count", "--family", str(workspace["k3"]), "--n", "12"]) == \
        EXIT_BUDGET


def test_malformed_graphon_json_exits_2(workspace, tmp_path, capsys):
    for data in ({"measures": ["1/2", "1/2"], "values": [0.0, "x", "x", 0.0]},
                 {"measures": 1, "values": [0.0]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["entropy", "--graphon", str(path)]) == EXIT_VALIDATION


def test_unknown_config_keys_exit_2(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    for extra in ({"sampels": 2}, {"chain_mode": "thinned"},
                  {"graphon2": str(workspace["half"])}, {"command": "count"}):
        config.write_text(json.dumps({"family": str(workspace["k3"]), **extra}))
        assert main(["speed", "--config", str(config), "--sizes", "3"]) == \
            EXIT_VALIDATION
        assert "unknown --config keys" in capsys.readouterr().err


def test_config_value_not_shadowed_by_flag_default(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tmax": 2}))
    assert main(["audit", "--config", str(config)]) == EXIT_OK
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")]
    assert main(["audit", "--tmax", "2"]) == EXIT_OK
    assert rows == [line for line in capsys.readouterr().out.splitlines()
                    if line and not line.startswith("#")]


def test_config_mode_outside_choices_exits_2(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "bogus"}))
    assert main(["cutdist", "--config", str(config),
                 "--graphon", str(workspace["half"]),
                 "--graphon2", str(workspace["zero"])]) == EXIT_VALIDATION


def test_config_int_options_match_parser():
    from graphlimitlab.cli import _INT_OPTIONS, build_parser
    parser = build_parser()
    typed = {action.dest
             for sub in parser._subparsers._group_actions[0].choices.values()
             for action in sub._actions if action.type is int}
    assert typed == _INT_OPTIONS


@pytest.mark.parametrize("command,extra", [
    ("speed", {"n": "x"}), ("speed", {"samples": "x"}),
    ("speed", {"samples": 2.5}), ("speed", {"burnin": True}),
    ("speed", {"gap": [1]}), ("speed", {"seed": "1.5"}),
    ("converge", {"r": "two"}), ("audit", {"tmax": 2.0}),
    ("speed", {"sizes": ["3", "x"]}), ("speed", {"sizes": 3}),
])
def test_bad_config_values_exit_2(workspace, tmp_path, capsys, command, extra):
    config = tmp_path / "config.json"
    base = {} if command == "audit" else {"family": str(workspace["k3"]),
                                           "sizes": [3]}
    config.write_text(json.dumps({**base, **extra}))
    assert main([command, "--config", str(config)]) == EXIT_VALIDATION
    assert "--config" in capsys.readouterr().err


def test_config_values_convert_like_flags(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": str(workspace["k3"]),
                                  "sizes": ["9"], "samples": "2",
                                  "burnin": "10", "gap": None, "seed": "3"}))
    assert main(["converge", "--config", str(config)]) == EXIT_OK
    from_config = capsys.readouterr().out
    flags = ["converge", "--family", str(workspace["k3"]), "--sizes", "9",
             "--samples", "2", "--seed", "3"]
    assert main(flags + ["--burnin", "10"]) == EXIT_OK
    assert from_config == capsys.readouterr().out
    assert main(flags) == EXIT_OK  # n = 9 runs the chain, so burnin counts
    assert from_config != capsys.readouterr().out
