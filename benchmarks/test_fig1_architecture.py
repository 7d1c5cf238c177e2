"""FIG-1 — regenerate the Gaea system architecture.

The benchmark constructs the full stack of Figure 1 (kernel: metadata
manager with its three sub-managers + backend; interpreter: parser,
optimizer, executor) and verifies every box is present and wired, then
prints the component tree — the figure, as data.
"""

from conftest import report

from repro.figures import build_figure1


def _verify(connection) -> dict:
    tree = connection.kernel.component_tree()
    manager = tree["GAEA KERNEL"]["Meta-Data Manager"]
    assert set(manager) == {
        "Data Type/Operator Manager",
        "Derivation Manager",
        "Experiment Manager",
    }
    assert "POSTGRES BACKEND (substitute)" in tree
    # The interpreter boxes (parser is a module function; optimizer and
    # executor are connection components).
    assert connection.optimizer is not None and connection.executor is not None
    return tree


def test_fig1_build_architecture(benchmark):
    connection = benchmark(build_figure1)
    tree = _verify(connection)
    type_mgr = tree["GAEA KERNEL"]["Meta-Data Manager"][
        "Data Type/Operator Manager"]
    rows = [
        ("Visual Environment", "out of scope (UI; paper §2 presents it in [40])"),
        ("Interpreter: Parser", "repro.query.parser"),
        ("Interpreter: Optimizer", "repro.query.optimizer"),
        ("Interpreter: Executor", "repro.query.executor"),
        ("Meta-Data Manager: Data Type/Operator Manager",
         f"{type_mgr['primitive_classes']} types, "
         f"{type_mgr['operators']} operators"),
        ("Meta-Data Manager: Derivation Manager", "repro.core.manager"),
        ("Meta-Data Manager: Experiment Manager", "repro.core.experiments"),
        ("POSTGRES Backend", "repro.storage (substitute)"),
    ]
    report("Figure 1: Gaea system architecture", rows,
           header=("component", "realization"))


def test_fig1_kernel_survives_roundtrip(benchmark):
    """The architecture is functional, not decorative: a define/query
    round-trip through every layer."""
    def roundtrip():
        connection = build_figure1()
        connection.execute("""
        DEFINE CLASS probe (
          ATTRIBUTES: tag = char16;
          SPATIAL EXTENT: spatialextent = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
        """)
        connection.kernel.store.store("probe", {
            "tag": "x",
            "spatialextent": __import__("repro.spatial",
                                        fromlist=["Box"]).Box(0, 0, 1, 1),
            "timestamp": __import__("repro.temporal",
                                    fromlist=["AbsTime"]).AbsTime(0),
        })
        [result] = connection.execute("SELECT FROM probe")
        assert result.path == "retrieve"
        return connection

    benchmark(roundtrip)
