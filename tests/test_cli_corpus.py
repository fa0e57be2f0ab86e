"""Byte identity of the CLI: every corpus argv prints what the corpus file
recorded (see ``cli_corpus.py`` for what it holds and how to rewrite it)."""

import cli_corpus
from padicore import cli


def test_cli_output_matches_the_corpus(monkeypatch):
    rejected = []
    error = cli._Parser.error
    monkeypatch.setattr(cli._Parser, "error", lambda self, message: rejected.append(message) or error(self, message))
    argvs = cli_corpus.argvs()
    recorded = cli_corpus.CORPUS.read_text().splitlines()
    assert len(argvs) == len(recorded)
    changed = [
        (i, [a[:80] for a in argv]) for i, (argv, line) in enumerate(zip(argvs, recorded)) if cli_corpus.row(argv) != line
    ]
    assert changed == []
    assert rejected == []  # argparse words its own messages differently across versions


def test_the_corpus_covers_every_subcommand_in_both_formats():
    argvs = cli_corpus.argvs()
    covered = {(argv[0], argv[1], argv[-1]) for argv in argvs}
    for group, (_, subcommands) in cli._GROUPS.items():
        for sub in subcommands:
            for fmt in cli_corpus.FORMATS:
                assert (group, sub, fmt) in covered
