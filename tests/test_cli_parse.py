"""How main parses a command line.

A line that names a command is parsed by that command's own parser; the
top-level parser runs only on a line that names no command or an unknown
one, or that leaves arguments over, and so says what is wrong as it
always has.  tools/cli_sweep.py digests the same lines.
"""

import sys

import pytest

from opetopes.cli import USAGE, OK, build_parser, main

from conftest import FIXTURES

DFC, OPE = str(FIXTURES / "rho3.dfc.json"), str(FIXTURES / "rho3.ope.json")


def malformed_lines(dfc: str, ope: str) -> list[list[str]]:
    """Lines argparse ends with a usage error or a help text, naming the documents dfc and ope where a line names one."""
    return [
        [], ["bogus"], ["bogus", dfc], ["--help"], ["-h"], ["-h", "validate"], ["--bogus", "validate", dfc],
        ["--", "validate", dfc],
        ["validate"], ["validate", dfc, "--bogus"], ["validate", "--bogus", dfc], ["validate", "-h"],
        ["convert"], ["convert", "--to", "ope"], ["convert", dfc], ["convert", "--to", "ope", dfc, ope],
        ["convert", "--to", "ope", dfc, "--bogus"], ["convert", "--to", "xml", dfc], ["convert", dfc, "--to"],
        ["convert", "-h"],
        ["iso"], ["iso", dfc], ["iso", dfc, dfc, ope], ["iso", dfc, dfc, "--bogus"], ["iso", "-h"],
        ["roundtrip"], ["roundtrip", dfc, ope], ["roundtrip", dfc, "--bogus"], ["roundtrip", "-h"],
        ["gen", "extra"], ["gen", "--bogus"], ["gen", "--dim", "x"], ["gen", "--dim", "1.5"], ["gen", "--dim"],
        ["gen", "-h"],
        ["oracle"], ["oracle", "hexagon"], ["oracle", "hexagon", dfc, ope], ["oracle", "hexagon", dfc, "--bogus"],
        ["oracle", "bogus", dfc], ["oracle", "-h"],
        ["export-dot"], ["export-dot", dfc, ope], ["export-dot", dfc, "--bogus"], ["export-dot", "-h"],
        ["info"], ["info", dfc, ope], ["info", dfc, "--bogus"], ["info", "-h"],
    ]


def well_formed_lines(dfc: str, ope: str, out: str) -> list[list[str]]:
    """A line of every command that argparse accepts, options and "--" included; convert writes to out where it writes a file."""
    return [
        ["validate", dfc, ope], ["validate", "--", dfc],
        ["convert", "--to", "ope", dfc], ["convert", dfc, "--to=dfc", "-o", out], ["convert", "--to", "dfc", "--", ope],
        ["iso", dfc, dfc], ["iso", ope, "--", ope],
        ["roundtrip", ope], ["roundtrip", "--", dfc],
        ["gen"], ["gen", "--dim", "4", "--seed", "2", "--count", "2", "--max-nodes", "2", "--max-whitedots", "1"],
        ["oracle", "hexagon", dfc], ["oracle", "kernel", "--", ope],
        ["export-dot", dfc], ["export-dot", "--", ope],
        ["info", ope], ["info", "--", dfc],
    ]


def test_a_well_formed_line_runs_without_the_top_level_parser(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.json"
    expected = []
    for line in well_formed_lines(DFC, OPE, str(out)):
        args = build_parser().parse_args(line)
        expected.append((args.fn(args), capsys.readouterr(), out.read_text() if out.exists() else None))
        out.unlink(missing_ok=True)

    def refuse(*_):
        raise AssertionError("the top-level parser ran on a well-formed line")

    parser = build_parser()
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    for line, want in zip(well_formed_lines(DFC, OPE, str(out)), expected):
        assert (main(line), capsys.readouterr(), out.read_text() if out.exists() else None) == want, line
        out.unlink(missing_ok=True)
    monkeypatch.setattr(sys, "argv", ["opetopes", "info", OPE])  # main() reads sys.argv
    assert (main(), capsys.readouterr()) == (main(["info", OPE]), capsys.readouterr())


@pytest.mark.parametrize("line", malformed_lines(DFC, OPE),
                         ids=[" ".join(line) or "no arguments" for line in malformed_lines("rho3.dfc", "rho3.ope")])
def test_a_malformed_line_gets_the_top_level_parsers_exit_and_bytes(line, capsys):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(line)
    expected = (USAGE if exit_.value.code not in (0, None) else OK, capsys.readouterr())
    assert expected[1].err if expected[0] == USAGE else expected[1].out.startswith("usage: ")
    assert (main(line), capsys.readouterr()) == expected
