"""The operator lint catches per-row dict building in batch loops and a
second ``run`` implementation growing back."""

import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_vectorized  # noqa: E402

OPERATORS = REPO / "src" / "repro" / "query" / "operators.py"


def test_current_operators_are_clean():
    assert lint_vectorized.check_paths([str(OPERATORS)]) == []


def test_flags_per_row_dict_literal_in_batch_loop():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                for batch in self.child.run_batches():
                    rows = []
                    for i in range(batch.length):
                        rows.append({"x": batch.column("x")[i]})
                    yield rows
    """)
    violations = lint_vectorized.check_source(bad)
    assert violations
    assert any("dict literal" in message for _, message in violations)


def test_flags_per_row_dict_comprehension():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                for batch in self.child.run_batches():
                    yield [{k: row[k] for k in row} for row in batch.to_rows()]
    """)
    violations = lint_vectorized.check_source(bad)
    assert any("comprehension" in message for _, message in violations)


def test_flags_dict_call_with_arguments_in_loop():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                while True:
                    yield dict(x=1)
    """)
    assert lint_vectorized.check_source(bad)


def test_allows_batch_level_dicts_and_empty_accumulators():
    good = textwrap.dedent("""
        class Op:
            def run_batches(self):
                plan = {alias: fn for alias, fn in self.items}
                for batch in self.child.run_batches():
                    columns = {}
                    masks = dict()
                    for alias, fn in plan.items():
                        columns[alias] = fn(batch)
                    yield Batch(batch.length, columns, masks)
    """)
    assert lint_vectorized.check_source(good) == []


def test_ignores_dicts_in_methods_other_than_run_batches():
    helper = textwrap.dedent("""
        class Op:
            def _fallback_matches(self, key):
                for obj in self.objects:
                    yield {"x": obj["x"]}
    """)
    assert lint_vectorized.check_source(helper) == []


def test_flags_run_defined_outside_the_base_class():
    bad = textwrap.dedent("""
        class PhysicalOperator:
            def run(self):
                for batch in self.run_batches():
                    yield from batch.to_rows()

        class Sort(PhysicalOperator):
            def run_batches(self):
                yield from self.child.run_batches()

            def run(self):
                yield from sorted(self.child.run())
    """)
    violations = lint_vectorized.check_source(bad)
    assert [line for line, _ in violations] == [11]
    assert "class Sort defines run()" in violations[0][1]


def test_base_class_run_is_the_only_one_allowed():
    good = textwrap.dedent("""
        class PhysicalOperator:
            def run(self):
                for batch in self.run_batches():
                    yield from batch.to_rows()

        class Run(PhysicalOperator):
            def run_batches(self):
                yield self.batch
    """)
    assert lint_vectorized.check_source(good) == []


def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def run_batches(self):\n    yield {}\n")
    ok = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(clean)],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0, ok.stderr

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def run_batches(self):\n"
        "    for i in range(3):\n"
        "        yield {'i': i}\n"
    )
    bad = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(dirty)],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "per-row dict building" in bad.stderr
