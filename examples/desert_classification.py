"""Desert classification: concepts with imprecise definitions (paper §2.1.1).

"Can we define what a DESERT or DESERTIC REGION is?"  The concept means
the same thing to every user at the highest abstraction, but derivations
differ: rainfall under 250 mm/year, rainfall under 200 mm/year (another
scientist's cutoff — a *different process*, §2.1.2), or a De Martonne
aridity-index criterion.  Each derivation is its own class; the concept
HOT_TRADE_WIND_DESERT is the set of those classes inside the DESERT
specialization hierarchy.

This example builds the Figure-2 desert sub-catalog, derives every
desert variant through concept-level queries, and reports how much the
definitions disagree — the quantity that makes derivation metadata
indispensable.

Run:  python examples/desert_classification.py
"""

import numpy as np

from repro.figures import build_figure2, populate_scenes


def main() -> None:
    catalog = build_figure2()
    conn = catalog.connection
    kernel = catalog.kernel
    populate_scenes(catalog, seed=23, size=48, years=(1988,))
    print("catalog loaded:", len(catalog.class_names), "classes,",
          len(catalog.process_names), "processes,",
          len(catalog.concept_names), "concepts")

    # Browse the specialization hierarchy (a DAG, paper footnote 4).
    print("DESERT specializations:",
          sorted(kernel.concepts.children("desert")))
    print("hot trade-wind desert maps to classes:",
          sorted(kernel.concepts.classes_of("hot_trade_wind_desert")))

    # A concept-level query covers every member derivation (§2.1.5).
    cursor = conn.cursor().execute("SELECT FROM hot_trade_wind_desert")
    masks = {}
    for obj in cursor:
        fraction = float(np.mean(obj["data"].data))
        masks[obj.class_name] = obj
        print(f"  {obj.class_name:22s} desert fraction {fraction:.3f}")

    # How much do the definitions disagree?  Pairwise mask agreement.
    names = sorted(masks)
    print("pairwise agreement (fraction of pixels with the same verdict):")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            same = float(np.mean(
                (masks[a]["data"].data != 0) == (masks[b]["data"].data != 0)
            ))
            print(f"  {a:22s} vs {b:22s}: {same:.3f}")

    # The 250 mm and 200 mm classifications come from the same method
    # with different parameters — and are therefore different processes.
    p2 = kernel.derivations.processes.get("P2")
    p3 = kernel.derivations.processes.get("P3")
    print(f"P2 parameters {p2.parameters} != P3 parameters {p3.parameters}"
          f" -> distinct processes: {p2.name != p3.name}")

    # Record the study as an experiment and reproduce it.
    experiment = kernel.experiments.begin(
        name="desert-definitions-1988",
        investigator="example",
        concepts={"hot_trade_wind_desert"},
        parameters={"year": 1988},
    )
    for obj in masks.values():
        producer = kernel.derivations.tasks.producer_of(obj.oid)
        if producer is not None:
            experiment.add_task(producer.task_id)
    rerun = kernel.experiments.reproduce(experiment.experiment_id)
    print(f"experiment reproduced: {len(rerun)} tasks re-executed, "
          f"outputs identical: "
          f"{all(r.output['data'] == masks[r.output.class_name]['data'] for r in rerun)}")


if __name__ == "__main__":
    main()
