"""Tests for compound processes and their expansion."""

import pytest

from repro.core import Argument, CompoundProcess, CompoundRegistry, Step
from repro.errors import CompoundExpansionError, UnknownProcessError
from repro.figures import build_figure2, build_figure5, populate_scenes


class TestValidation:
    def _args(self):
        return (Argument(name="x", class_name="c_in", is_set=False),)

    def test_duplicate_step_names(self):
        with pytest.raises(CompoundExpansionError):
            CompoundProcess(
                name="cp", output_class="c_out", arguments=self._args(),
                steps=(Step(name="s", process="P", bindings={"a": "@x"}),
                       Step(name="s", process="Q", bindings={"a": "@x"})),
                output_step="s",
            )

    def test_output_step_must_exist(self):
        with pytest.raises(CompoundExpansionError):
            CompoundProcess(
                name="cp", output_class="c_out", arguments=self._args(),
                steps=(Step(name="s", process="P", bindings={"a": "@x"}),),
                output_step="ghost",
            )

    def test_unknown_argument_reference(self):
        with pytest.raises(CompoundExpansionError):
            CompoundProcess(
                name="cp", output_class="c_out", arguments=self._args(),
                steps=(Step(name="s", process="P", bindings={"a": "@ghost"}),),
                output_step="s",
            )

    def test_forward_step_reference(self):
        with pytest.raises(CompoundExpansionError):
            CompoundProcess(
                name="cp", output_class="c_out", arguments=self._args(),
                steps=(Step(name="s1", process="P", bindings={"a": "s2"}),
                       Step(name="s2", process="Q", bindings={"a": "@x"})),
                output_step="s2",
            )


class TestExpansion:
    @pytest.fixture()
    def catalog(self):
        catalog = build_figure2()
        build_figure5(catalog)
        return catalog

    def test_figure5_expansion(self, catalog):
        derivations = catalog.kernel.derivations
        compound = derivations.compounds.get("land-change-detection")
        steps = compound.expand(derivations.processes, derivations.compounds)
        assert [s.process for s in steps] == ["P20", "P20", "P21"]
        assert [s.label for s in steps] == [
            "classify_early", "classify_late", "compare"
        ]
        compare = steps[2]
        assert compare.bindings == {"later": "classify_late",
                                    "earlier": "classify_early"}

    def test_nested_compound_expansion(self, catalog):
        derivations = catalog.kernel.derivations
        catalog.connection.execute("""
        DEFINE COMPOUND PROCESS nested-change
        OUTPUT land_cover_changes_c21
        ARGUMENT ( SETOF landsat_tm_rectified a >= 3,
                   SETOF landsat_tm_rectified b >= 3 )
        STEPS {
          inner: land-change-detection ( tm_early = $a, tm_late = $b );
        }
        RESULT inner
        """)
        compound = derivations.compounds.get("nested-change")
        steps = compound.expand(derivations.processes, derivations.compounds)
        assert [s.process for s in steps] == ["P20", "P20", "P21"]
        assert steps[0].label == "inner/classify_early"
        # Inner compound arguments re-wired to the outer sources.
        assert steps[0].bindings == {"bands": "@a"}
        assert steps[2].bindings == {"later": "inner/classify_late",
                                     "earlier": "inner/classify_early"}

    def test_unknown_process_in_step(self, catalog):
        derivations = catalog.kernel.derivations
        compound = CompoundProcess(
            name="broken", output_class="land_cover_c20",
            arguments=(Argument(name="x", class_name="landsat_tm_rectified",
                                is_set=True, min_cardinality=3),),
            steps=(Step(name="s", process="no-such", bindings={"a": "@x"}),),
            output_step="s",
        )
        with pytest.raises(UnknownProcessError):
            compound.expand(derivations.processes, derivations.compounds)

    def test_recursive_compound_detected(self):
        registry = CompoundRegistry()
        from repro.core import ProcessRegistry
        from repro.core.classes import ClassRegistry
        from repro.adt import make_standard_registries

        types, _ = make_standard_registries()
        processes = ProcessRegistry(classes=ClassRegistry(types=types))
        loop = CompoundProcess(
            name="loop", output_class="c",
            arguments=(Argument(name="x", class_name="c"),),
            steps=(Step(name="again", process="loop", bindings={"x": "@x"}),),
            output_step="again",
        )
        registry.define(loop)
        with pytest.raises(CompoundExpansionError):
            loop.expand(processes, registry)


class TestExecution:
    def test_cannot_apply_compound_directly_as_process(self):
        """§2.1.4: a compound is not in the primitive-process registry, so
        execute_process cannot run it — it must be expanded."""
        catalog = build_figure2()
        build_figure5(catalog)
        derivations = catalog.kernel.derivations
        with pytest.raises(UnknownProcessError):
            derivations.execute_process("land-change-detection", {})

    def test_execute_compound_end_to_end(self):
        catalog = build_figure2()
        populate_scenes(catalog, size=16, years=(1988, 1989))
        build_figure5(catalog)
        kernel = catalog.kernel
        scenes = kernel.store.objects("landsat_tm_rectified")
        early = [o for o in scenes if o["timestamp"].year == 1988]
        late = [o for o in scenes if o["timestamp"].year == 1989]
        result = kernel.derivations.execute_compound(
            "land-change-detection", {"tm_early": early, "tm_late": late}
        )
        assert result.output.class_name == "land_cover_changes_c21"
        # Three tasks recorded: two classifications and one comparison.
        names = [t.process_name for t in kernel.derivations.tasks]
        assert names == ["P20", "P20", "P21"]

    def test_execute_compound_unbound_argument(self):
        catalog = build_figure2()
        build_figure5(catalog)
        with pytest.raises(CompoundExpansionError):
            catalog.kernel.derivations.execute_compound(
                "land-change-detection", {"tm_early": []}
            )

    def test_describe(self):
        catalog = build_figure2()
        build_figure5(catalog)
        text = catalog.kernel.derivations.compounds.get(
            "land-change-detection"
        ).describe()
        assert "DEFINE COMPOUND PROCESS land-change-detection" in text
        assert "RESULT compare" in text
