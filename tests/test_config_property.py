"""Fuzz the run config: one mutated key either runs to finite rows or exits 2 naming it."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from emwavelets.harness import cli
from tests.test_harness import CONFIG_TEXT

# CONFIG_TEXT as {section: {key: value}}, in file order
SECTIONS = {}
for line in CONFIG_TEXT.strip().splitlines():
    if line.startswith("["):
        current = SECTIONS.setdefault(line.strip("[]"), {})
    elif "=" in line:
        key, value = (part.strip() for part in line.split("=", 1))
        current[key] = value

BAD = ["x", "", "inf", "-inf", "nan"]  # never a valid number
# c*|b| > |a| involves a, b and c, and is reported at source.b
CROSS_KEY = {"source.a": "source.b"}


def _text(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n" for name, keys in sections.items()
    )


@st.composite
def _scalar(draw, value):
    changes = [*BAD, "0", f"-{value}"]
    if value.isdigit():
        changes.append(f"{value}.5")  # a non-integer count
    return draw(st.sampled_from(changes))


@st.composite
def _triple(draw, key, value):
    parts = value.split(",")
    if draw(st.booleans()):
        return draw(st.sampled_from(["x", "", "0", value + ",1"]))  # not a triple
    if key in ("x", "y", "z", "t"):
        lo, hi, n = parts
        shaped = [f"{hi},{lo},{n}", f"{lo},{lo},1", f"{lo},{hi},1", f"{lo},{hi},0"]  # reversed, 1-point, empty
        changed = [f"{lo},{hi},{c}" for c in ("-" + n, n + ".5", "x")]
        changed += [f"{c},{hi},{n}" for c in BAD] + [f"{lo},{c},{n}" for c in BAD]
        return draw(st.sampled_from(shaped + changed))
    i = draw(st.integers(0, 2))
    parts[i] = draw(st.sampled_from([*BAD, "0", "2.5", f"-{parts[i]}"]))
    return ",".join(parts)


@st.composite
def mutated_config(draw):
    """(config text, the names a refusal may start with) after one edit of CONFIG_TEXT."""
    sections = {name: dict(keys) for name, keys in SECTIONS.items()}
    name = draw(st.sampled_from(sorted(sections)))
    edit = draw(st.sampled_from(["value", "value", "value", "unknown key", "unknown section", "missing section"]))
    if edit == "unknown key":
        sections[name]["bogus"] = "1"
        return _text(sections), [f"{name}.bogus"]
    if edit == "unknown section":
        sections[name + "x"] = sections.pop(name)
        return _text(sections), [name + "x"]
    if edit == "missing section":
        del sections[name]
        return _text(sections), [name]
    key = draw(st.sampled_from(sorted(sections[name])))
    value = sections[name][key]
    sections[name][key] = draw(_triple(key, value) if "," in value else _scalar(value))
    named = f"{name}.{key}"
    return _text(sections), [named, CROSS_KEY.get(named, named)]


@settings(max_examples=80)
@given(mutated_config())
def test_mutated_key_runs_finite_or_is_refused_by_name(case):
    text, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w") as fh:
            fh.write(text)
        for command, csv in (("sample-field", "field.csv"), ("sample-sources", "sources.csv")):
            out = os.path.join(tmp, command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", path, "--out", out])
            if code == 0:
                rows = np.loadtxt(os.path.join(out, csv), delimiter=",", skiprows=1, ndmin=2)
                assert rows.size and np.isfinite(rows).all(), (command, text)
                continue
            lines = err.getvalue().splitlines()
            assert code == 2 and len(lines) == 1, (command, code, lines, text)
            error = json.loads(lines[0])
            assert error["error"] == "config" and error["message"].startswith(tuple(f"{n}:" for n in names)), (
                command, error, names)
            assert not os.path.exists(out)
