"""The one-command parser behaves as the full parser.

:func:`repro.cli.main` builds ``build_parser(command)`` — the top level
plus the subparser of the command it runs — instead of every command's
parser.  For every help, version and error path, what ``main`` prints and
the code it exits with must be what it was with the full
``build_parser()``; and for every command, both parsers must parse an argv
to the same namespace.
"""

from __future__ import annotations

import pytest

from repro import cli

_FULL_BUILD = cli.build_parser

#: Every ``CMD -h`` the CLI has, nested commands included.
_HELP = ([["-h"], ["--version"]]
         + [[command, "-h"] for command in cli._COMMANDS]
         + [["client", name, "-h"]
            for name in ("submit", "watch", "fetch", "list")]
         + [["cache", name, "-h"] for name in ("stats", "gc", "clear")])

#: Each way the CLI rejects an argv, with ``{file}`` a path whose parent is
#: a regular file (a directory that cannot be created).
_ERRORS = {
    "missing command": [],
    "unknown command": ["bogus"],
    "abbreviated command": ["fig"],
    "unrecognized argument": ["figure4", "--job", "2"],
    "unrecognized top-level flag": ["figure4", "--version"],
    "invalid kernel choice": ["figure4", "--kernels", "fft"],
    "run without a kernel": ["run"],
    "bad int": ["figure5", "--latencies", "x"],
    "prepare ValueError": ["figure4", "--ways", "0"],
    "prepare ValueError (engine)": ["sweep", "--kernels", "comp", "--jobs",
                                    "0"],
    "prepare ValueError (scale)": ["tables", "--scale", "65"],
    "unwritable --cache-dir": ["figure4", "--kernels", "comp", "--scale", "1",
                               "--cache-dir", "{file}/cache"],
    "serve check": ["serve", "--state-dir", "{file}/state", "--max-queue",
                    "0"],
    "client without a subcommand": ["client"],
    "client unknown subcommand": ["client", "nope"],
    "client submit nonsense": ["client", "submit", "--ways", "0"],
    "cache without --cache-dir": ["cache", "gc"],
    "cache gone flag": ["cache", "gc", "--cache-dir", "x", "--keep-traces"],
}

#: One argv per command and sub-command, parsed but never run.
_NAMESPACES = [
    ["list"],
    ["run", "comp"],
    ["run", "idct", "--way", "8", "--mem-latency", "12", "--scale", "2",
     "--seed", "7"],
    ["figure4"],
    ["figure4", "--kernels", "comp", "h2v2", "--ways", "1", "4", "--scale",
     "1", "--jobs", "2", "--cache-dir", "c", "--stream-jsonl", "s.jsonl",
     "--resume", "j.jsonl", "--task-timeout", "5"],
    ["figure5", "--kernels", "--latencies", "1", "50"],
    ["tables", "--kernels", "comp", "--way", "2", "--cache-dir", "c"],
    ["sweep"],
    ["sweep", "--kernels", "comp", "--isas", "mom", "mmx", "--ways", "1",
     "2", "--latencies", "1", "20", "--seed", "3", "--jobs", "2"],
    ["serve", "--state-dir", "s"],
    ["serve", "--state-dir", "s", "--port", "0", "--max-queue", "3",
     "--max-poll-seconds", "1.5", "--jobs", "2", "--cache-dir", "c",
     "--task-timeout", "9"],
    ["client", "submit", "--kernels", "comp", "--watch"],
    ["client", "--server", "http://127.0.0.1:1", "--timeout", "2",
     "--retries", "1", "submit", "--isas", "mom", "--deadline-seconds", "4"],
    ["client", "watch", "abc"],
    ["client", "fetch", "abc"],
    ["client", "list"],
    ["cache", "stats", "--cache-dir", "c", "--json"],
    ["cache", "gc", "--cache-dir", "c", "--max-mb", "1", "--max-age-days",
     "2"],
    ["cache", "clear", "--cache-dir", "c"],
]


def _main(argv, capsys):
    """What ``main(argv)`` prints and the code it exits with."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _both(argv, capsys, monkeypatch):
    lean = _main(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda command=None: _FULL_BUILD())
        full = _main(argv, capsys)
    return lean, full


@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_and_version_match_the_full_parser(argv, capsys, monkeypatch):
    lean, full = _both(argv, capsys, monkeypatch)
    assert lean == full
    assert lean[2] == 0 and lean[0]


@pytest.mark.parametrize("argv", list(_ERRORS.values()), ids=list(_ERRORS))
def test_errors_match_the_full_parser(argv, capsys, monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    argv = [arg.format(file=blocker) for arg in argv]
    lean, full = _both(argv, capsys, monkeypatch)
    assert lean == full
    out, err, code = lean
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("argv", _NAMESPACES, ids=" ".join)
def test_namespaces_match_the_full_parser(argv):
    assert (vars(cli.build_parser(argv[0]).parse_args(argv))
            == vars(_FULL_BUILD().parse_args(argv)))


@pytest.mark.parametrize("argv, built", [
    (["figure4", "-h"], ["figure4"]),
    (["cache", "stats", "-h"], ["cache"]),
    (["-h"], [None]),
    (["bogus"], [None]),
    # The one-command parser hands its own error to the full parser.
    (["figure4", "--job", "2"], ["figure4", None]),
    (["figure4", "--ways", "0"], ["figure4", None]),
])
def test_main_builds_only_the_command_it_runs(argv, built, capsys,
                                              monkeypatch):
    calls = []

    def spy(command=None):
        calls.append(command)
        return _FULL_BUILD(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert calls == built


def test_one_command_parser_holds_one_command():
    parser = cli.build_parser("figure4")
    (subparsers,) = [action for action in parser._actions
                     if action.dest == "command"]
    assert list(subparsers.choices) == ["figure4"]
    with pytest.raises(KeyError):
        cli.build_parser("bogus")
