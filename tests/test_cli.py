"""CLI surface: subcommands, option merging, exit codes."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphlimitlab import (
    SimpleGraph,
    StepGraphon,
    from_graph6,
    make_wrs,
    save_graphon,
    to_graph6,
)
from graphlimitlab import cli
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
    code = main(["speed", "--family", str(workspace["k3"]), "--sizes", "3,4",
                 "--out", str(workspace["out"]), "--dump", str(dump)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    rows = [line.split(",") for line in
            workspace["out"].read_text().splitlines()[-2:]]
    # n, speed_exponent, labeled_count, unlabeled_count
    assert [(row[0], row[2], row[3]) for row in rows] == [("3", "7", "3"),
                                                          ("4", "41", "7")]
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


@pytest.mark.parametrize("pattern, sizes, lines, digest", [
    (SimpleGraph.complete(3), "3,4,5,6,7,8", 579,
     "58ae92677ea840947934037b71cda5fff9a722f3f4277c9966888cd1f6023801"),
    (SimpleGraph.cycle(5), "3,4,5,6,7", 372,
     "0dc004b9675fc1a1072f752402ed156e37fa234e6437570efaa320a46f1e2c7c"),
], ids=["K3", "C5"])
def test_dump_pins_the_census_representatives(tmp_path, capsys, pattern,
                                              sizes, lines, digest):
    # the dump fixes which extension represents each class, in which order
    # and with which labelling; the digests are of the reference dumps
    family = tmp_path / "family.g6"
    family.write_text(to_graph6(pattern) + "\n")
    dump = tmp_path / "reps.g6"
    code = main(["speed", "--family", str(family), "--sizes", sizes,
                 "--dump", str(dump)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert len(dump.read_text().splitlines()) == lines
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


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
    assert main(["speed", "--family", "/nonexistent.g6", "--n", "3"]) == \
        EXIT_VALIDATION
    empty_family = workspace["k3"].parent / "empty.g6"
    empty_family.write_text("# nothing\n")
    assert main(["converge", "--family", str(empty_family), "--sizes", "5",
                 "--samples", "1"]) == EXIT_VALIDATION


def test_converge_with_more_sizes_than_streams_exits_2(workspace, capsys,
                                                       monkeypatch):
    # refused while the config is built, before any sample is drawn
    monkeypatch.setattr(cli, "run_convergence",
                        lambda config: pytest.fail("converge ran"))
    sizes = ",".join(str(n) for n in range(1, 1002))
    assert main(["converge", "--family", str(workspace["k3"]), "--sizes", sizes,
                 "--samples", "1"]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_budget_exit_code(workspace, capsys):
    assert main(["speed", "--family", str(workspace["k3"]), "--n", "12"]) == \
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
    ("speed", {"n": "x"}), ("converge", {"samples": "x"}),
    ("converge", {"samples": 2.5}), ("converge", {"burnin": True}),
    ("converge", {"burnin": [1]}), ("speed", {"seed": "1.5"}),
    ("converge", {"r": "two"}), ("audit", {"tmax": 2.0}),
    ("speed", {"sizes": ["3", "x"]}), ("speed", {"sizes": 3}),
    ("speed", {"compare_crs": "no"}), ("speed", {"compare_crs": 1}),
    ("speed", {"family": 3}), ("speed", {"dump": ["reps.g6"]}),
    ("audit", {"out": False}),
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
                                  "burnin": "10", "r": None, "seed": "3"}))
    assert main(["converge", "--config", str(config)]) == EXIT_OK
    from_config = capsys.readouterr().out
    flags = ["converge", "--family", str(workspace["k3"]), "--sizes", "9",
             "--samples", "2", "--seed", "3"]
    assert main(flags + ["--burnin", "10"]) == EXIT_OK
    assert from_config == capsys.readouterr().out
    assert main(flags) == EXIT_OK  # n = 9 runs the chain, so burnin counts
    assert from_config != capsys.readouterr().out


# the options each subcommand reads, besides --config
EXPECTED_OPTIONS = {
    "entropy": {"graphon"},
    "cutdist": {"graphon", "graphon2", "mode", "seed"},
    "sample": {"graphon", "n", "samples", "seed", "out"},
    "converge": {"family", "n", "sizes", "samples", "burnin", "seed", "r",
                 "out"},
    "speed": {"family", "n", "sizes", "seed", "compare_crs", "dump", "out"},
    "audit": {"tmax", "out"},
    "couple": {"graphon", "graphon2", "n", "sizes", "samples", "seed", "out"},
}


def _subparsers():
    from graphlimitlab.cli import build_parser
    return build_parser()._subparsers._group_actions[0].choices


def test_each_subcommand_takes_exactly_its_options():
    subparsers = _subparsers()
    assert set(subparsers) == set(EXPECTED_OPTIONS)
    slots = 0
    for command, sub in subparsers.items():
        dests = {action.dest for action in sub._actions} - {"help"}
        assert dests == EXPECTED_OPTIONS[command] | {"config"}, command
        slots += len(dests)
    assert slots == 41


def test_unread_options_are_refused(workspace, tmp_path, capsys):
    from graphlimitlab.cli import _OPTIONS
    config = tmp_path / "config.json"
    for command, names in EXPECTED_OPTIONS.items():
        for name in sorted(set(_OPTIONS) - names):
            flag = "--" + name.replace("_", "-")
            value = [] if name == "compare_crs" else ["1"]
            with pytest.raises(SystemExit) as exc:
                main([command, flag, *value])
            assert exc.value.code == EXIT_VALIDATION, (command, name)
            config.write_text(json.dumps({name: 1}))
            assert main([command, "--config", str(config)]) == \
                EXIT_VALIDATION, (command, name)
            assert "unknown --config keys" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["converge", "--sizes", "5", "--samples", "1", "--seed", "-1"],
    ["converge", "--sizes", "5", "--samples", "1",
     "--seed", "18446744073709551616"],
    ["sample", "--n", "4", "--seed", "-1"],
    ["sample", "--n", "4", "--seed", "18446744073709551616"],
    ["cutdist", "--seed", "-1"],
    ["cutdist", "--seed", "18446744073709551616"],
    ["sample", "--n", "4", "--samples", "-1"],
    ["sample", "--n", "4", "--samples", "0"],
    ["converge", "--sizes", "5", "--burnin", "-5"],
    ["speed", "--sizes", "3", "--seed", "-1"],
])
def test_numeric_boundaries_exit_2(workspace, capsys, argv):
    inputs = {"converge": ["--family", str(workspace["k3"])],
              "speed": ["--family", str(workspace["k3"])],
              "sample": ["--graphon", str(workspace["wrs20"])],
              "cutdist": ["--graphon", str(workspace["half"]),
                          "--graphon2", str(workspace["zero"])]}[argv[0]]
    assert main(argv + inputs) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_non_ascii_input_files_exit_2(workspace, tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff{}\n")
    assert main(["audit", "--config", str(binary)]) == EXIT_VALIDATION
    assert main(["speed", "--family", str(binary), "--n", "3"]) == \
        EXIT_VALIDATION
    assert main(["entropy", "--graphon", str(binary)]) == EXIT_VALIDATION


def test_couple_needs_both_graphons(workspace, capsys):
    assert main(["couple", "--graphon", str(workspace["wrs20"]),
                 "--sizes", "5", "--samples", "1"]) == EXIT_VALIDATION
    assert "--graphon2" in capsys.readouterr().err


_JUNK_KEYS = ["sampels", "gap", "chain_mode", "partition_restarts", "command",
              "config", "compare-crs", ""]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
            | st.floats(-3, 6, allow_nan=False)
            | st.sampled_from(["", "x", "3", "2,3", "1.5", "-1", "exact",
                               "local"]))
_JUNK_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3)


@pytest.mark.parametrize("command", sorted(EXPECTED_OPTIONS))
@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_config_objects_exit_0_2_or_3(workspace, tmp_path, capsys,
                                             command, data):
    from graphlimitlab.cli import _OPTIONS
    empty = tmp_path / "empty.g6"
    empty.write_text("# nothing\n")
    missing = str(tmp_path / "missing.json")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff{}\n")
    graphons = [str(workspace[key]) for key in ("wrs20", "half", "zero")]
    # mostly usable values, so that the drivers run as well as the checks
    family = st.sampled_from([str(workspace["k3"])] * 6
                             + [str(empty), missing, str(binary), graphons[0]])
    graphon = st.sampled_from(graphons * 3
                              + [str(workspace["k3"]), missing, str(binary)])
    output = st.sampled_from([str(tmp_path / "target.txt")] * 3
                             + [str(tmp_path / "no" / "dir.txt")])
    size = st.integers(1, 6)
    usable = {
        "family": family, "graphon": graphon, "graphon2": graphon,
        "out": output, "dump": output,
        "sizes": st.lists(size, max_size=3) | st.sampled_from(["3,4", "5"]),
        "mode": st.sampled_from(["exact", "local"]),
        "compare_crs": st.booleans(),
    }

    keys = [key for key in sorted(EXPECTED_OPTIONS[command])
            if data.draw(st.integers(0, 7), label=f"keep {key}")]
    if data.draw(st.integers(0, 4), label="foreign key") == 0:
        keys.append(data.draw(st.sampled_from(sorted(_OPTIONS) + _JUNK_KEYS)))
    options = {}
    for key in keys:
        junk = data.draw(st.integers(0, 7), label=f"junk {key}") == 0
        strategy = _JUNK_VALUES if junk else usable.get(key, size)
        options[key] = data.draw(strategy, label=key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(options))
    assert main([command, "--config", str(config)]) in (
        EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET)
    capsys.readouterr()
