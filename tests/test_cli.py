"""Tests for the GaeaQL command-line interface (python -m repro)."""

from repro import connect
from repro.__main__ import main
from repro.core import save_kernel

SCRIPT = """
DEFINE CLASS probe (
  ATTRIBUTES: tag = char16;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
SHOW CLASSES
"""


class TestScriptMode:
    def test_runs_script(self, tmp_path, capsys):
        script = tmp_path / "setup.gql"
        script.write_text(SCRIPT)
        assert main([str(script)]) == 0
        out = capsys.readouterr().out
        assert "class probe defined" in out
        assert "CLASS probe" in out

    def test_script_error_exit_code(self, tmp_path, capsys):
        script = tmp_path / "bad.gql"
        script.write_text("SELECT FROM no_such_class")
        assert main([str(script)]) == 1
        assert "error:" in capsys.readouterr().out

    def test_missing_script(self, capsys):
        assert main(["/nonexistent/path.gql"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCheckpointFlow:
    def test_save_then_load(self, tmp_path, capsys):
        script = tmp_path / "setup.gql"
        script.write_text(SCRIPT)
        ckpt = tmp_path / "db.ckpt"
        assert main([str(script), "--save", str(ckpt)]) == 0
        assert ckpt.exists()

        probe = tmp_path / "probe.gql"
        probe.write_text("SHOW CLASSES")
        assert main(["--checkpoint", str(ckpt), str(probe)]) == 0
        out = capsys.readouterr().out
        assert "CLASS probe" in out

    def test_dict_rows_render_as_key_value_lines(self, tmp_path, capsys):
        """Projections and aggregates come back as dict rows, not
        objects; each renders as one ``key=value`` line."""
        conn = connect()
        conn.execute("DEFINE CLASS d ( ATTRIBUTES: a = int4; b = char16; )")
        for a in (5, 7):
            conn.kernel.store.store("d", {"a": a, "b": "x"})
        ckpt = tmp_path / "db.ckpt"
        save_kernel(conn.kernel, ckpt)
        script = tmp_path / "rows.gql"
        script.write_text("SELECT a FROM d\n\nSELECT count(*) FROM d\n")
        assert main(["--checkpoint", str(ckpt), str(script)]) == 0
        out = capsys.readouterr().out
        assert "  a=5\n  a=7\n" in out
        assert "  count(*)=2\n" in out

    def test_bad_checkpoint(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"nope")
        assert main(["--checkpoint", str(bogus)]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestREPL:
    def test_repl_executes_buffered_statement(self, monkeypatch, capsys):
        lines = iter(["SHOW TYPES", "", "\\q"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "TYPE image" in out

    def test_repl_quits_on_eof(self, monkeypatch, capsys):
        def raise_eof(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main([]) == 0
