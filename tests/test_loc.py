"""The line counter of ``benchmarks/loc.py`` (``make loc BASE=<rev>``)."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = sys.modules.setdefault("loc", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(loc)


def count(source: str) -> int:
    return loc.code_lines(textwrap.dedent(source))


class TestCodeLines:
    def test_blank_and_comment_lines_do_not_count(self):
        assert count("x = 1\n\n# a comment\n\ny = 2  # trailing\n") == 2

    def test_docstrings_do_not_count(self):
        source = '''\
            """Module docstring,
            two lines."""

            class A:
                """Class docstring."""

                def f(self):
                    """Method docstring
                    over two lines."""
                    return 1
            '''
        assert count(source) == 3  # class, def, return

    def test_a_string_that_is_a_value_counts(self):
        source = '''\
            TEXT = """one
            two
            three"""
            '''
        assert count(source) == 3

    def test_every_line_of_a_statement_counts(self):
        source = """\
            total = (
                1  # one
                + 2
            )
            """
        assert count(source) == 4

    def test_an_empty_source_has_none(self):
        assert count("") == 0
        assert count("# only a comment\n") == 0


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=loc", "-c", "user.email=loc@example.invalid", *args],
        cwd=cwd,
        capture_output=True,
        check=True,
    )


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A one-commit repository with ``src/a.py``; ``loc`` reads it."""
    try:
        _git(tmp_path, "init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs git to make a checkout")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text('"""Doc."""\n\nx = 1\ny = 2\n')
    (tmp_path / "src" / "gone.py").write_text("z = 3\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    monkeypatch.setattr(loc, "ROOT", tmp_path)
    return tmp_path


class TestAgainstGit:
    def test_counts_edits_additions_and_deletions(self, checkout):
        (checkout / "src" / "a.py").write_text('"""Doc,\nlonger."""\n\nx = 1\n# y went\n')
        (checkout / "src" / "b.py").write_text("def f():\n    return 1\n")
        (checkout / "src" / "gone.py").unlink()
        _git(checkout, "add", "-A")
        # a.py: +3 -2 (one code line gone); b.py: +2; gone.py: -1.
        assert loc.all_lines("HEAD") == (5, 3)
        assert loc.net_code_lines("HEAD") == -1 + 2 - 1

    def test_main_prints_both_counts(self, checkout, capsys):
        assert loc.main(["--base", "HEAD"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "src/ all lines:  +0 -0 (net +0)",
            "src/ code lines: net +0",
        ]
