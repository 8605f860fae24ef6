"""The table of config keys: every value is checked where it is loaded, and a bad one names its line."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cogrelay.cli import main
from cogrelay.config import KEYS, SWEEP_VARIABLES, ConfigError, parse_config_text
from cogrelay.simulator import POLICY_KINDS

COMMANDS = ("region", "delay", "simulate", "validate", "optimize", "oracle", "tradeoff")

README = Path(__file__).resolve().parents[1] / "README.md"


def _text(values):
    return values.map(str)


def _floats(low, high):
    return st.floats(low, high, allow_nan=False).map(repr)


PROBABILITY_KEYS = ("f_pd", "f_sd", "f_ps", "p_q", "p_a", "lambda_p", "lambda_s", "start", "stop")
PROBABILITY = _floats(0.0, 1.0) | st.sampled_from(["0", "1", "0.3", "0.8"])
PROBABILITY_LIST = st.lists(PROBABILITY, min_size=1, max_size=3).map(", ".join)
POLICY = st.tuples(PROBABILITY, PROBABILITY).map(":".join)
#: Each key's valid values, kept small where the key sets the size of a run.
VALID = {
    **dict.fromkeys(PROBABILITY_KEYS, PROBABILITY),
    "variable": st.sampled_from(SWEEP_VARIABLES),
    "steps": _text(st.integers(2, 4)),
    "p_q_list": PROBABILITY_LIST,
    "f_pd_list": PROBABILITY_LIST,
    "policies": st.lists(POLICY, min_size=1, max_size=3).map(", ".join),
    "region_mode": st.sampled_from(["boundary", "rates"]),
    "policy_kind": st.sampled_from(POLICY_KINDS),
    "slots": _text(st.integers(1, 1000)),
    "warmup": _text(st.integers(0, 100)),
    "replications": _text(st.integers(1, 2)),
    "seed": _text(st.integers(0, 2**63)),
    "tolerance": _floats(0.0, 1e3),
    "truncation": _text(st.integers(4, 24)),
}
#: Each key's values at the edges of its range: those it accepts and those it refuses.
EDGES = {
    **dict.fromkeys(PROBABILITY_KEYS, (["0", "-0.0", "5e-324", "1"],
                                       ["-5e-324", "1.0000000000000002", "-1", "1e300"])),
    "variable": (list(SWEEP_VARIABLES), ["lam", "f_sd", "LAMBDA"]),
    "steps": (["2"], ["1", "0", "-5"]),
    "p_q_list": (["0, 1", "0.5,"], ["0.3, 1.0000000000000002", "-5e-324", ", ,"]),
    "f_pd_list": (["1, 0"], ["2", "0.3, -1", ","]),
    "policies": (["0:1, 1:0"], ["0.5:1.0000000000000002", "0.5", "1:1:1", "-5e-324:0", ","]),
    "region_mode": (["boundary", "rates"], ["rate", ""]),
    "policy_kind": (list(POLICY_KINDS), ["random", "strict"]),
    "slots": (["1"], ["0", "-3"]),
    "warmup": (["0"], ["-1"]),
    "replications": (["1"], ["0", "-3"]),
    "seed": (["0", str(2**64)], ["-1", "1e3", "1.0"]),
    "tolerance": (["0", "-0.0", "1e308"], ["-5e-324", "-1"]),
    "truncation": (["4"], ["3", "-3"]),
}
#: Values no key takes.
BAD = st.sampled_from(["nan", "inf", "-inf", "abc", "1e3x", "0x10", "", "1,,2:"])


@st.composite
def config_files(draw):
    """Config lines, and the number of the line that must be refused (None in a valid file)."""
    keys = set(draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=8)))
    if draw(st.booleans()):
        keys |= {"variable", "start", "stop", "steps"}
    # runs stay small: every file sets the slots, the warmup and the truncation
    keys |= {"slots", "warmup", "truncation"}
    lines = [[key, draw(VALID[key])] for key in draw(st.permutations(sorted(keys)))]
    # line 0 stands for none: a valid file
    refused = draw(st.integers(0, len(lines))) or None
    if refused:
        # the line is out of range, a value no key takes, an unknown key or bytes that are not UTF-8
        # (written from the surrogates that stand for them); those after it may be bad too
        key = lines[refused - 1][0]
        kind = draw(st.sampled_from(["range", "bad", "unknown", "undecodable"]))
        if kind == "unknown":
            lines[refused - 1] = [f"{key}_x", "1"]
        elif kind == "undecodable":
            lines[refused - 1] = ["\udcff\udcfe", "1"]
        else:
            lines[refused - 1][1] = draw(st.sampled_from(EDGES[key][1]) if kind == "range" else BAD)
        for line in lines[refused:]:
            if draw(st.booleans()):
                line[1] = draw(BAD)
    return "".join(f"{key} = {value}\n" for key, value in lines), refused


def test_value_strategies_cover_the_key_table():
    assert VALID.keys() == EDGES.keys() == KEYS.keys()


@pytest.mark.parametrize("key", sorted(EDGES))
def test_each_key_takes_its_range_and_refuses_the_values_beyond(key):
    accepted, refused = EDGES[key]
    for text in accepted:
        assert key in parse_config_text(f"{key} = {text}\n", "edge.cfg")
    for text in [*refused, "nan", "inf", "abc"]:
        with pytest.raises(ConfigError) as error:
            parse_config_text(f"# a comment line\n{key} = {text}\n", "edge.cfg")
        assert str(error.value).startswith(f"edge.cfg:2: key {key!r}: "), text


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(config_files())
def test_every_command_takes_any_config_file_cleanly(case):
    text, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        Path(path).write_bytes(text.encode("utf-8", "surrogateescape"))
        for command in COMMANDS:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", path, "--out", os.path.join(tmp, "out.csv")])
            err = stderr.getvalue()
            assert code in (0, 1, 2) and "Traceback" not in err, (command, err)
            if refused is not None:
                assert code == 2 and err.startswith(f"config error: {path}:{refused}: "), (command, err)


def test_readme_config_table_lists_every_key():
    # each default cell holds a value per key of its row, read by that key's parser, or "—" for
    # keys without one; a parenthesised per-command note after it is skipped
    section = README.read_text().split("### Config format", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    listed = {}
    for row in rows:
        keys = re.findall(r"`(\w+)`", row[1])
        cell = re.sub(r"\s*\(.*\)$", "", row[3].strip()).replace("`", "")
        texts = [cell] * len(keys) if cell == "—" or len(keys) == 1 else cell.split(", ")
        assert len(texts) == len(keys), row
        listed.update(zip(keys, texts))
    assert listed.keys() == KEYS.keys()
    for key, text in listed.items():
        if text == "—":
            assert KEYS[key].default is None, key
        else:
            assert KEYS[key].parse(key, text) == KEYS[key].default, key


def test_unset_key_reads_its_table_default():
    cfg = parse_config_text("p_q = 0.3\n", "run.cfg")
    assert cfg["p_q"] == 0.3 and list(cfg) == ["p_q"]
    for key, (_, default) in KEYS.items():
        if key != "p_q" and default is not None:
            assert cfg[key] is default and key not in cfg
    assert cfg.where("f_pd", "p_q") == "f_pd (default), p_q (run.cfg:1)"
    with pytest.raises(ConfigError, match="missing required key 'variable'"):
        cfg["variable"]
