"""Robustness tests: malformed BLIF inputs must fail with clear errors."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import suite as bench_suite
from repro.netlist.blif import BlifError, read_blif, write_blif
from repro.netlist.graph import SeqCircuit
from repro.netlist.validate import ValidationError, ensure_mappable


BAD_CASES = {
    "cube_outside_names": ".model m\n.inputs a\n.outputs f\n11 1\n.end\n",
    "latch_missing_output": ".model m\n.inputs a\n.outputs f\n.latch a\n.names a f\n1 1\n.end\n",
    "cube_width_mismatch": ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n",
    "bad_output_bit": ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n",
    "names_without_output": ".model m\n.inputs a\n.outputs f\n.names\n.end\n",
    "latch_driven_twice": (
        ".model m\n.inputs a\n.outputs f\n.latch a q\n.latch a q\n"
        ".names q f\n1 1\n.end\n"
    ),
    "undriven_output": ".model m\n.inputs a\n.outputs f g\n.names a f\n1 1\n.end\n",
    "latch_cycle": (
        ".model m\n.inputs a\n.outputs f\n.latch q1 q2\n.latch q2 q1\n"
        ".names q1 f\n1 1\n.end\n"
    ),
    "constant_line_too_wide": ".model m\n.inputs a\n.outputs f\n.names f\n1 1\n.end\n",
    "bad_cube_character": ".model m\n.inputs a b\n.outputs y\n.names a b y\n1r 1\n.end\n",
    "multi_char_output_bit": ".model m\n.inputs a\n.outputs f\n.names a f\n1 01\n.end\n",
}


@pytest.mark.parametrize("label", sorted(BAD_CASES))
def test_malformed_rejected(label):
    with pytest.raises(BlifError):
        read_blif(BAD_CASES[label])


def test_unknown_directives_skipped():
    text = (
        ".model m\n.inputs a\n.outputs f\n.clock clk\n"
        ".names a f\n1 1\n.end\n"
    )
    circuit, _ = read_blif(text)
    assert circuit.n_gates == 1


def test_latch_with_type_and_init():
    text = (
        ".model m\n.inputs a\n.outputs f\n.latch a q re clk 1\n"
        ".names q f\n1 1\n.end\n"
    )
    circuit, info = read_blif(text)
    assert info.initial_values["q"] == "1"


def test_multiple_names_blocks_share_signals():
    text = (
        ".model m\n.inputs a b\n.outputs f g\n"
        ".names a b t\n11 1\n"
        ".names t f\n1 1\n"
        ".names t b g\n01 1\n.end\n"
    )
    circuit, _ = read_blif(text)
    assert circuit.n_gates == 3
    assert len(circuit.fanouts(circuit.id_of("t"))) == 2


def test_bad_cube_error_names_the_line():
    with pytest.raises(BlifError, match="bad cube line: 1r 1"):
        read_blif(BAD_CASES["bad_cube_character"])


# -- line-level fuzzing ------------------------------------------------------

_BBARA_LINES = write_blif(bench_suite.build("bbara")).splitlines()

#: Tokens a mutated line is assembled from: BLIF keywords, cube
#: fragments, stray characters, and signal names from the circuit.
_TOKENS = st.sampled_from(
    [".names", ".latch", ".inputs", ".outputs", ".model", ".end", ".clock",
     "1", "0", "-", "2", "r", "1-0", "01", "1r", "x", "", "\\", "#"]
    + sorted({tok for line in _BBARA_LINES for tok in line.split()})[:40]
)


@st.composite
def _mutated_blif(draw):
    lines = list(_BBARA_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace",
                                   "retoken", "truncate"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = " ".join(draw(st.lists(_TOKENS, max_size=5)))
        elif op == "retoken":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_mutated_blif())
def test_line_mutations_parse_or_fail_cleanly(text):
    """Any line-level corruption of a suite circuit's BLIF either parses
    to a mappable circuit or raises the errors the CLI reports as
    ``error: ...`` (exit 2) -- never a stray exception."""
    try:
        circuit, _info = read_blif(text)
        ensure_mappable(circuit, 5)
    except (BlifError, ValidationError):
        return
    assert isinstance(circuit, SeqCircuit)
