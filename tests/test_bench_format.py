"""The ISCAS85 ``.bench`` frontend: parser, writer, CLI contract.

Covers the tentpole cross-checks: the hand-written ``examples/c17.bench``
is structurally identical to :func:`repro.circuits.generators.c17`,
parse -> write -> parse is a fixed point (fingerprint-equal, since the
parser names gates deterministically), every parser error path raises
the exact registry-style message, and ``--netlist`` feeds the PROTEST
pipeline end to end.  Engine-level coverage lives in
``tests/test_engine_equivalence.py``: the parsed zoo netlist is one of
``differential_circuits()``, so every engine x schedule x plan x
collapse combination sweeps it without special-casing.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import c17, domino_carry_chain
from repro.netlist import (
    BenchFormatError,
    parse_bench,
    read_bench,
    resolve_netlist,
    write_bench,
)
from repro.netlist.bench import FAN_IN_LIMITS, GATE_TYPES
from repro.simulate.artifacts import _cell_signature, network_fingerprint

from engine_test_utils import BENCH_ZOO

C17_BENCH = Path(__file__).resolve().parent.parent / "examples" / "c17.bench"


def structure(network):
    """Gate-name-independent structural summary: what drives each net,
    with which cell function, from which nets (in pin order)."""
    gates = {
        gate.output: (
            _cell_signature(gate.cell),
            tuple(gate.connections[pin] for pin in gate.cell.inputs),
        )
        for gate in network.gates.values()
    }
    return (list(network.inputs), list(network.outputs), gates)


class TestGoldenC17:
    def test_structurally_identical_to_generator(self):
        assert structure(read_bench(C17_BENCH)) == structure(c17())

    def test_exhaustive_outputs_identical_to_generator(self):
        parsed = read_bench(C17_BENCH)
        golden = c17()
        for bits in product((0, 1), repeat=len(golden.inputs)):
            env = dict(zip(golden.inputs, bits))
            assert parsed.evaluate(env)["n22"] == golden.evaluate(env)["n22"]
            assert parsed.evaluate(env)["n23"] == golden.evaluate(env)["n23"]

    def test_network_named_after_file(self):
        assert read_bench(C17_BENCH).name == "c17"


class TestGateSemantics:
    def test_zoo_gate_types_compute_their_functions(self):
        network = parse_bench(BENCH_ZOO, name="zoo")
        for a, b, c in product((0, 1), repeat=3):
            values = network.evaluate({"a": a, "b": b, "c": c})
            d = a & b
            e = b | c
            f = 1 - (a & c)
            g = 1 - (d | e)
            h = f ^ g
            assert values["z"] == 1 - h  # NOT then BUFF
            assert values["w"] == a ^ b ^ c  # 3-input XOR

    def test_technology_polarity_mapping(self):
        network = parse_bench(BENCH_ZOO, name="zoo")
        technologies = {
            gate.output: gate.cell.technology for gate in network.gates.values()
        }
        assert technologies["d"] == "domino-CMOS"  # AND
        assert technologies["g"] == "dynamic-nMOS"  # NOR
        assert technologies["h"] == "bipolar"  # XOR
        assert technologies["z"] == "domino-CMOS"  # BUFF

    def test_forward_references_allowed(self):
        network = parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = NOT(a)\n")
        assert network.evaluate({"a": 1})["z"] == 1

    def test_comments_and_blank_lines_skipped(self):
        network = parse_bench(
            "# header\n\nINPUT(a)  # trailing comment\nOUTPUT(z)\nz = BUFF(a)\n"
        )
        assert network.inputs == ["a"] and network.outputs == ["z"]


class TestRoundTrip:
    def test_c17_round_trip_is_fixed_point(self):
        parsed = read_bench(C17_BENCH)
        again = parse_bench(write_bench(parsed), name=parsed.name)
        assert network_fingerprint(again) == network_fingerprint(parsed)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_netlists_round_trip(self, data):
        n_inputs = data.draw(st.integers(1, 4), label="inputs")
        nets = [f"x{k}" for k in range(n_inputs)]
        lines = [f"INPUT({net})" for net in nets]
        n_gates = data.draw(st.integers(1, 10), label="gates")
        for g in range(n_gates):
            kind = data.draw(st.sampled_from(GATE_TYPES), label=f"kind{g}")
            fan_in = (
                1
                if kind in ("NOT", "BUFF")
                else data.draw(st.integers(2, 3), label=f"fan{g}")
            )
            sources = [
                data.draw(st.sampled_from(nets), label=f"src{g}_{k}")
                for k in range(fan_in)
            ]
            lines.append(f"y{g} = {kind}({', '.join(sources)})")
            nets.append(f"y{g}")
        lines.append(f"OUTPUT(y{n_gates - 1})")
        text = "\n".join(lines) + "\n"
        first = parse_bench(text, name="prop")
        second = parse_bench(write_bench(first), name="prop")
        assert structure(second) == structure(first)
        assert network_fingerprint(second) == network_fingerprint(first)

    def test_writer_rejects_cells_outside_the_format(self):
        network = domino_carry_chain(2)
        with pytest.raises(BenchFormatError) as err:
            write_bench(network)
        assert str(err.value) == (
            "gate 'stage0': cell 'carry_step' (domino-CMOS) has no .bench "
            "gate type; supported gate types: " + ", ".join(GATE_TYPES)
        )


class TestParserErrors:
    """Exact messages, registry style: line number, offender, and (for
    gate types) the sorted supported list."""

    CASES = [
        (
            "a = FOO(b, c)",
            "line 1: unknown gate type 'FOO'; supported gate types: "
            "AND, BUFF, NAND, NOR, NOT, OR, XOR",
        ),
        ("INPUT(a)\na = AND(a, a)", "line 2: duplicate driver for net 'a'"),
        (
            "INPUT(a)\nz = BUFF(a)\nz = NOT(a)",
            "line 3: duplicate driver for net 'z'",
        ),
        (
            "z = BUFF(a)\nINPUT(z)",
            "line 2: duplicate driver for net 'z'",
        ),
        ("INPUT(a)\nz = AND(a, q)", "line 2: undeclared net 'q'"),
        ("OUTPUT(q)", "line 1: undeclared net 'q'"),
        ("what is this", "line 1: cannot parse 'what is this'"),
        ("z = AND(a,)", "line 1: cannot parse 'z = AND(a,)'"),
        ("z = NOT(a, b)", "line 1: gate type NOT takes exactly one input, got 2"),
        ("z = BUFF()", "line 1: gate type BUFF takes exactly one input, got 0"),
        ("z = AND(a)", "line 1: gate type AND needs at least two inputs, got 1"),
        ("z = XOR()", "line 1: gate type XOR needs at least two inputs, got 0"),
    ]

    @pytest.mark.parametrize("text, message", CASES, ids=[m for _, m in CASES])
    def test_exact_message(self, text, message):
        with pytest.raises(BenchFormatError) as err:
            parse_bench(text)
        assert str(err.value) == message

    def test_bench_format_error_is_value_error(self):
        assert issubclass(BenchFormatError, ValueError)

    def test_two_gate_cycle_names_its_gates(self):
        text = "INPUT(a)\nOUTPUT(z)\nb = NOT(c)\nc = NOT(b)\nz = AND(a, b)\n"
        with pytest.raises(BenchFormatError) as err:
            parse_bench(text)
        assert str(err.value) == (
            "line 3: combinational cycle among gates b (line 3), c (line 4)"
        )

    def test_cycle_message_leaves_out_gates_outside_the_cycle(self):
        text = (
            "INPUT(a)\nOUTPUT(z)\nz = NOT(d)\nd = AND(a, e)\n"
            "e = OR(d, a)\ny = BUFF(a)\nf = NAND(y, a)\n"
        )
        with pytest.raises(BenchFormatError) as err:
            parse_bench(text)
        assert str(err.value) == (
            "line 4: combinational cycle among gates d (line 4), e (line 5)"
        )

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(BenchFormatError) as err:
            parse_bench("INPUT(a)\nb = AND(a, b)\n")
        assert str(err.value) == "line 2: combinational cycle among gates b (line 2)"


class TestFanInLimits:
    """A gate wider than its type's limit fails at its line instead of
    stalling fault enumeration on its truth-table-sized library."""

    def test_wide_xor_fails_fast_naming_line_fan_in_and_limit(self):
        args = ", ".join(f"x{k}" for k in range(17))
        inputs = "".join(f"INPUT(x{k})\n" for k in range(17))
        with pytest.raises(BenchFormatError) as err:
            parse_bench(f"{inputs}OUTPUT(z)\nz = XOR({args})\n")
        assert str(err.value) == (
            "line 19: gate type XOR with fan-in 17 exceeds the fan-in limit of 9"
        )

    @pytest.mark.parametrize("kind", sorted(FAN_IN_LIMITS))
    def test_limit_is_inclusive(self, kind):
        limit = FAN_IN_LIMITS[kind]
        inputs = "".join(f"INPUT(x{k})\n" for k in range(limit + 1))
        widest = ", ".join(f"x{k}" for k in range(limit))
        network = parse_bench(f"{inputs}z = {kind}({widest})\n")
        assert len(network.gates["g_z"].cell.inputs) == limit
        wider = ", ".join(f"x{k}" for k in range(limit + 1))
        with pytest.raises(BenchFormatError, match=f"fan-in {limit + 1} exceeds"):
            parse_bench(f"{inputs}z = {kind}({wider})\n")

    def test_every_multi_input_type_has_a_limit(self):
        multi = {"AND", "NAND", "NOR", "OR", "XOR"}
        assert set(FAN_IN_LIMITS) == multi == set(GATE_TYPES) - {"BUFF", "NOT"}


_FUZZ_NETS = ("a", "b", "c", "d", "e", "f", "g", "z")


@st.composite
def bench_lines(draw):
    """One line of near-``.bench`` text: mostly declarations and gates
    over a few of a handful of nets (so cycles, duplicate drivers and
    undeclared nets all come up), sometimes a malformed gate or free
    text."""
    shape = draw(st.integers(0, 9))
    net = draw(st.sampled_from(_FUZZ_NETS))
    if shape <= 2:
        keyword = draw(st.sampled_from(("INPUT", "INPUT", "OUTPUT", "input")))
        return f"{keyword}({net})"
    if shape <= 7:
        kind = draw(st.sampled_from(GATE_TYPES))
        fan_in = 1 if kind in ("BUFF", "NOT") else draw(st.integers(2, 4))
        args = draw(st.lists(
            st.sampled_from(_FUZZ_NETS), min_size=fan_in, max_size=fan_in
        ))
        return f"{net} = {kind}({', '.join(args)})"
    if shape == 8:
        kind = draw(st.sampled_from(GATE_TYPES + ("FOO", "and")))
        args = draw(st.lists(st.sampled_from(_FUZZ_NETS + ("", "a b")), max_size=4))
        return f"{net} = {kind}({','.join(args)})"
    return draw(st.one_of(
        st.text(alphabet="ab =(),#\tINPUTXORz", max_size=20), st.text(max_size=20)
    ))


@st.composite
def bench_texts(draw):
    """Near-``.bench`` text: a netlist whose gates may read any net,
    later ones and their own output included (so cycles come up), with
    a few stray lines mixed in and the line order shuffled."""
    inputs = [f"x{k}" for k in range(draw(st.integers(0, 3)))]
    gates = [f"n{k}" for k in range(draw(st.integers(0, 6)))]
    nets = inputs + gates or ["x0"]
    lines = [f"INPUT({net})" for net in inputs]
    for index, net in enumerate(gates):
        kind = draw(st.sampled_from(GATE_TYPES))
        fan_in = 1 if kind in ("BUFF", "NOT") else draw(st.integers(2, 3))
        earlier = inputs + gates[:index] or nets
        pool = draw(st.sampled_from((earlier, earlier, nets)))
        args = draw(st.lists(st.sampled_from(pool), min_size=fan_in, max_size=fan_in))
        lines.append(f"{net} = {kind}({', '.join(args)})")
    outputs = draw(st.lists(st.sampled_from(nets), max_size=3))
    lines += [f"OUTPUT({net})" for net in outputs]
    lines += draw(st.lists(bench_lines(), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


class TestParserFuzz:
    @given(text=st.one_of(bench_texts(), st.text(max_size=60)))
    @settings(max_examples=200)
    def test_text_parses_to_a_usable_network_or_fails_cleanly(self, text):
        """Arbitrary text is a :class:`BenchFormatError` or a network
        every later stage accepts - never a late failure."""
        try:
            network = parse_bench(text)
        except BenchFormatError:
            return
        network.levelize()
        faults = network.enumerate_faults(include_stuck_at=True)
        assert len(faults) >= 2 * len(network.inputs)


class TestResolveNetlist:
    def test_missing_file_message(self, tmp_path):
        path = tmp_path / "nope.bench"
        with pytest.raises(BenchFormatError) as err:
            resolve_netlist(path)
        assert str(err.value).startswith(f"cannot read netlist {str(path)!r}: ")

    def test_parse_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.bench"
        path.write_text("garbage line\n")
        with pytest.raises(BenchFormatError) as err:
            resolve_netlist(path)
        assert str(err.value) == (
            f"netlist {str(path)!r}: line 1: cannot parse 'garbage line'"
        )


class TestCli:
    def test_protest_runs_on_netlist(self, capsys):
        from repro.cli import main

        assert main(["protest", "--netlist", str(C17_BENCH)]) == 0
        assert "PROTEST report for c17" in capsys.readouterr().out

    def test_bad_netlist_fails_at_parse_time(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["protest", "--netlist", "/no/such/file.bench"])
        assert (
            "cannot read netlist '/no/such/file.bench': "
            in capsys.readouterr().err
        )

    def test_cellfile_and_netlist_are_mutually_exclusive(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["protest", "whatever.cell", "--netlist", str(C17_BENCH)])
        assert "not both" in str(err.value)

    def test_one_of_cellfile_or_netlist_required(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["protest"])
        assert "required" in str(err.value)
