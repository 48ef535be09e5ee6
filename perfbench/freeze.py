"""Write perfbench/frozen.json: the pinned inputs and expected outputs.

    python3 perfbench/freeze.py

It pins the law ids and the bundled model names, as the model products built
from them, at the commit it runs on. It records each product's axiom flags and
the shrunk shape of each planted law. Later commits are checked against these values, so
rerun it only to re-baseline the benchmark on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from relalg import BUNDLED_NAMES, load_bundled  # noqa: E402
from relalg.laws import REGISTRY, run_suite  # noqa: E402

import workloads  # noqa: E402


def planted_shapes() -> dict:
    shapes = {}
    for settings in (workloads.LAWS3, workloads.LAWS4):
        report = run_suite(seed=0, registry=workloads.PLANTED, **settings)
        for r in report.reports:
            (ce,) = r.failures
            shape = {"carriers": ce.sizes, "bits": [a.bit_count() for a in ce.args]}
            if shapes.setdefault(r.law_id, shape) != shape:
                raise SystemExit(f"{r.law_id} shrinks differently at size 3 and size 4")
    return shapes


def main() -> None:
    names = list(BUNDLED_NAMES)
    sizes = {n: len(load_bundled(n).elements) for n in names}
    products = workloads.model_products(names, sizes)
    data = {
        "law_ids": sorted(REGISTRY),
        "planted": planted_shapes(),
        "axiom_flags": {"*".join(p): workloads.model_item(p)["flags"] for p in products},
    }
    workloads.FROZEN_PATH.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(data['law_ids'])} laws, {len(products)} model products -> {workloads.FROZEN_PATH}")


if __name__ == "__main__":
    main()
