"""The command line at the door.

A seeded generator makes malformed element files, config files and argv.
Each case runs in process through `cli.main` and must exit 2 (bad input) or
3 (over the label cap), print nothing on stdout and one `error:` line on
stderr, and let no other exception out.  argparse's own `SystemExit(2)`
counts as exit 2.
"""

import json
import random

import pytest

from sstorus.cli import main

# One value of each kind that no field takes as it stands: null, a bool, a
# float, a negative, an int beyond 64 bits, a string, a list and an object.
BAD_VALUES = [None, True, 1.5, -1, 2**70, "1", [None], {"1": 1}]
GOOD_TERM = {"a": [1], "b": [0], "c": 1}
GOOD_ELEMENT = {"m": 1, "n": 1, "p": 3, "r": 1, "basis": "binomial", "terms": [GOOD_TERM]}
GOOD_CONFIG = {"cap": 1000, "grid": [[1, 1, 2, 1]]}
DEEP = "[" * 100_000  # too deep for the JSON parser


def broken_texts(doc, rng):
    """`doc` as JSON cut short at seeded points, empty, and nested too deeply."""
    text = json.dumps(doc)
    cases = {f"truncated-{cut}": text[:cut] for cut in sorted(rng.sample(range(1, len(text)), 5))}
    cases.update({"empty": "", "too-deep": DEEP})
    return cases


def element_cases(rng):
    cases = {}
    for key in GOOD_ELEMENT:
        for v in BAD_VALUES:
            cases[f"{key}={v!r}"] = json.dumps({**GOOD_ELEMENT, key: v})
    for field in GOOD_TERM:
        for v in BAD_VALUES:
            if field == "c" and type(v) is int:
                continue  # any int is a coefficient, reduced mod p
            cases[f"term.{field}={v!r}"] = json.dumps({**GOOD_ELEMENT, "terms": [{**GOOD_TERM, field: v}]})
    cases["unknown-key"] = json.dumps({**GOOD_ELEMENT, "trems": []})
    cases["term.unknown-key"] = json.dumps({**GOOD_ELEMENT, "terms": [{**GOOD_TERM, "C": 2}]})
    cases.update(broken_texts(GOOD_ELEMENT, rng))
    return cases


def config_cases(rng):
    cases = {}
    for key in GOOD_CONFIG:
        for v in BAD_VALUES:
            if (key, v) != ("cap", 2**70):  # a legal cap
                cases[f"{key}={v!r}"] = json.dumps({key: v})
    for v in BAD_VALUES:
        cases[f"document={v!r}"] = json.dumps(v)
    cases["unknown-key"] = json.dumps({"grids": [[40, 40, 3, 1]]})
    cases["unknown-beside-known"] = json.dumps({**GOOD_CONFIG, "Cap": 5})
    cases.update(broken_texts(GOOD_CONFIG, rng))
    return cases


def argv_cases(rng):
    m, n, p = rng.randint(1, 2), rng.randint(1, 2), rng.choice([2, 3, 5])
    spec = {"--m": m, "--n": n, "--p": p, "--r": 1}

    def flags(**changed):
        return [s for k, v in {**spec, **changed}.items() if v is not None for s in (k, str(v))]

    label = ",".join("1" * m) + "|" + ",".join("0" * n)
    cases = {}
    for command, extra in {"canonical": [label], "basis": [], "verify": [], "count": []}.items():
        for flag in spec:
            cases[f"{command}-without-{flag}"] = [command, *flags(**{flag: None}), *extra]
            for bad in ("x", "2.5", "", "1e3"):
                cases[f"{command}-{flag}={bad!r}"] = [command, *flags(**{flag: bad}), *extra]
        cases[f"{command}-r=0"] = [command, *flags(**{"--r": 0}), *extra]
        composite = rng.choice([4, 6, 9, 15, 2**61 + 1])
        cases[f"{command}-p={composite}"] = [command, *flags(**{"--p": composite}), *extra]
        cases[f"{command}-cap=x"] = [command, *flags(), *extra, "--cap", "x"]
    wrong_arity = ",".join("1" * (m + 1)) + "|" + ",".join("0" * n)
    for bad_label in ("|", "1,|0", wrong_arity, "1", "x|0"):
        cases[f"canonical-label={bad_label!r}"] = ["canonical", *flags(), bad_label]
    cases["canonical-without-label"] = ["canonical", *flags()]
    cases["no-command"] = []
    cases["unknown-command"] = ["frobnicate"]
    return cases


def all_cases():
    """id -> (argv, text of the file that FILE names, or None)."""
    rng = random.Random(7)
    cases = {}
    for name, text in element_cases(rng).items():
        cases[f"mul-{name}"] = (["mul", "FILE", "GOOD"], text)
        cases[f"check-ss-{name}"] = (["verify", "--check-ss", "FILE"], text)
    for name, text in config_cases(rng).items():
        cases[f"config-{name}"] = (["verify", "--grid", "--config", "FILE"], text)
    for name, argv in argv_cases(rng).items():
        cases[f"argv-{name}"] = (argv, None)
    return cases


CASES = all_cases()


def outcome(capsys, tmp_path, argv, text):
    files = {"FILE": tmp_path / "input.json", "GOOD": tmp_path / "good.json"}
    files["FILE"].write_text(text or "")
    files["GOOD"].write_text(json.dumps(GOOD_ELEMENT))
    try:
        code = main([str(files.get(a, a)) for a in argv])
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, text", CASES.values(), ids=CASES.keys())
def test_malformed_input_exits_2_or_3(capsys, tmp_path, argv, text):
    code, out, err = outcome(capsys, tmp_path, argv, text)
    assert code in (2, 3), (code, out, err)
    assert out == ""
    lines = err.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], err


def test_well_formed_inputs_are_accepted(capsys, tmp_path):
    # The documents and flags the cases break: each runs as given.
    spec = ["--m", "1", "--n", "1", "--p", "3", "--r", "1"]
    for argv, text in (
        (["mul", "FILE", "GOOD"], json.dumps(GOOD_ELEMENT)),
        (["verify", "--grid", "--config", "FILE"], json.dumps(GOOD_CONFIG)),
        (["canonical", *spec, "1|0"], None),
        (["count", *spec], None),
    ):
        code, out, err = outcome(capsys, tmp_path, argv, text)
        assert (code, err) == (0, ""), argv
        assert json.loads(out)
