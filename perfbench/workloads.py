"""The four workloads and the checks on their outputs.

A workload turns a seed into a list of calls into the public API of relalg.
Each call returns a small JSON-able summary of what the library produced;
the summaries are checked, and digested, only after the timed region.

Why these four:

- laws-size3: the law runner at size 3 with high kernel-cache reuse and small
  pools; a faster kernel or a parallel runner moves it.
- laws-size4: the same runner with large 4x4 pools that overflow the caches;
  pool building dominates. It keeps the index laws that refuse 4x4 relations
  with 13 or more pairs (EnumerationLimit), so that defect stays visible.
- relation-sweep: index, core, classification and isomorphism on every small
  relation; mostly indexcore, domains and isomorph, little of laws.
- model-axioms: the abstract models only; it never touches the rel kernel, so
  a kernel change should leave it unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

# Library functions are looked up on their modules at call time, so the
# tracer's wrappers, installed after this import, see every call.
import relalg
from relalg import laws, models, rel

FROZEN_PATH = Path(__file__).with_name("frozen.json")

LAWS3 = dict(max_size=3, samples=128, budget=4000)
LAWS4 = dict(max_size=4, samples=10, budget=1)
SWEEP_SHAPES = ((3, 3), (3, 4), (4, 3))
SWEEP_4X4_SAMPLE = 512
MAX_PRODUCT_ELEMENTS = 64

# Exceptions the library documents as refusals of an oversized input. An item
# that raises one failed, but produced no wrong answer; any other exception
# is a defect.
REFUSALS = (relalg.EnumerationLimit, relalg.SearchSpaceExceeded)


@lru_cache(maxsize=None)
def frozen() -> dict:
    """Law ids, model products and expected outputs, pinned by freeze.py."""
    return json.loads(FROZEN_PATH.read_text())


# -- planted false laws -------------------------------------------------------


def _commutes(a, C):
    return relalg.compose(a[0], a[1]) == relalg.compose(a[1], a[0])


def _meet_distributes(a, C):
    c, i = relalg.compose, relalg.intersect
    return c(i(a[0], a[1]), a[2]) == i(c(a[0], a[2]), c(a[1], a[2]))


def _residual_cancels(a, C):
    return relalg.compose(a[0], relalg.left_residual(a[0], a[1])) == a[1]


PLANTED = {
    law.id: law
    for law in (
        laws.Law("zz-planted-compose-commutes", "R∘S = S∘R",
            (laws.Var("relation", "A", "A"), laws.Var("relation", "A", "A")), _commutes),
        laws.Law("zz-planted-meet-compose-distributes", "(R∩S)∘T = R∘T ∩ S∘T",
            (laws.Var("relation", "A", "B"), laws.Var("relation", "A", "B"), laws.Var("relation", "B", "C")),
            _meet_distributes),
        laws.Law("zz-planted-residual-cancel", "R∘(R\\S) = S",
            (laws.Var("relation", "A", "B"), laws.Var("relation", "A", "C")), _residual_cancels),
    )
}


# -- workload plumbing --------------------------------------------------------


@dataclass
class Call:
    key: str
    fn: Callable[[], object]


@dataclass
class Workload:
    calls: list[Call]
    # summaries by call key (an exception stands for a call that raised) ->
    # (verdict per item, work units); a verdict is (status, detail) with status
    # ok | refused | error | wrong
    check: Callable[[dict], tuple[dict[str, tuple[str, str]], int]]


def _raised(exc: BaseException) -> tuple[str, str]:
    return ("refused" if isinstance(exc, REFUSALS) else "error", f"{type(exc).__name__}: {exc}")


def _completed(summaries: dict) -> int:
    return sum(not isinstance(s, BaseException) for s in summaries.values())


def _law_summary(report) -> dict:
    return {"ok": report.ok, "mode": report.mode, "instances": report.instances,
            "failures": [c.to_dict() for c in report.failures]}


def _check_law(law_id: str, s: dict) -> tuple[str, str]:
    if law_id in PLANTED:
        want = frozen()["planted"][law_id]
        if s["ok"] or len(s["failures"]) != 1:
            return "wrong", f"planted law caught {len(s['failures'])} times, expected once"
        ce = s["failures"][0]
        shape = {"carriers": ce["carriers"], "bits": [len(a["pairs"]) for a in ce["args"]]}
        if shape != want:
            return "wrong", f"planted law shrank to {shape}, expected {want}"
        return "ok", ""
    if not s["ok"]:
        return "wrong", f"law failed: {s['failures'][0]}"
    if s["instances"] == 0:
        return "wrong", "law checked 0 instances"
    return "ok", ""


def _registry() -> tuple[dict[str, laws.Law], list[str]]:
    """Pinned laws still in REGISTRY plus the planted ones, and all item ids."""
    pinned = frozen()["law_ids"]
    registry = {i: laws.REGISTRY[i] for i in pinned if i in laws.REGISTRY}
    registry.update(PLANTED)
    return registry, pinned + sorted(PLANTED)


def _check_laws(items: list[str], registry: dict, by_law: dict) -> tuple[dict, int]:
    verdicts = {}
    units = 0
    for law_id in items:
        s = by_law.get(law_id)
        if law_id not in registry:
            verdicts[law_id] = ("wrong", "pinned law id is gone from REGISTRY")
        elif isinstance(s, BaseException):
            verdicts[law_id] = _raised(s)
        elif s is None:
            verdicts[law_id] = ("wrong", "no report for this law")
        else:
            verdicts[law_id] = _check_law(law_id, s)
            units += s["instances"]
    return verdicts, units


# -- laws-size3 ---------------------------------------------------------------


def laws_size3(seed: int) -> Workload:
    registry, items = _registry()

    def suite() -> dict:
        report = laws.run_suite(seed=seed, registry=registry, **LAWS3)
        return {r.law_id: _law_summary(r) for r in report.reports}

    def check(summaries: dict) -> tuple[dict, int]:
        got = summaries["suite"]
        by_law = {i: got for i in items} if isinstance(got, BaseException) else got
        return _check_laws(items, registry, by_law)

    # One call, so its latency is the workload's only latency sample.
    return Workload([Call("suite", suite)], check)


# -- laws-size4 ---------------------------------------------------------------


def _one_law(registry: dict, law_id: str, seed: int) -> dict:
    report = laws.run_suite(seed=seed, registry=registry, law_filter=law_id, **LAWS4)
    if [r.law_id for r in report.reports] != [law_id]:
        raise LookupError(f"filter {law_id!r} selected {[r.law_id for r in report.reports]}")
    return _law_summary(report.reports[0])


def laws_size4(seed: int) -> Workload:
    registry, items = _registry()
    calls = [Call(i, partial(_one_law, registry, i, seed)) for i in items if i in registry]

    def check(summaries: dict) -> tuple[dict, int]:
        return _check_laws(items, registry, summaries)

    return Workload(calls, check)


# -- relation-sweep -----------------------------------------------------------


def _bundle(src: relalg.Carrier, dst: relalg.Carrier, code: int) -> dict:
    r = rel.relation_at(src, dst, code)
    rep = relalg.classify(r)
    lo = relalg.relation_index(r, "min")
    hi = relalg.relation_index(r, "max")
    core = relalg.core_of(r, mode="quotient").core
    pairs = relalg.decompose_to_pairs(r)
    w = relalg.find_isomorphism(lo.index, hi.index)
    return {
        "flags": [int(f) for f in (rep.coreflexive, rep.functional, rep.injective, rep.bijection, rep.per,
                                   rep.difunctional, rep.rectangle, rep.square, rep.core_relation)],
        "min": rel.relation_code(lo.index),
        "max": rel.relation_code(hi.index),
        "certified": lo.ok and hi.ok,
        "core": [core.src.size, core.dst.size, rel.relation_code(core)],
        "pairs": len(pairs),
        "iso": w is not None and relalg.verify_witness(lo.index, hi.index, w),
    }


def _oracle_index_codes(code: int) -> set[int]:
    """Codes of every index of a 3x3 relation, by the independent oracle."""
    import oracles

    r = frozenset((i, j) for i in range(3) for j in range(3) if code >> (3 * i + j) & 1)
    return {sum(1 << (3 * i + j) for i, j in idx) for idx in oracles.oindexes(r, 3, 3)}


def relation_sweep(seed: int) -> Workload:
    inputs = [(n, m, code) for n, m in SWEEP_SHAPES for code in range(1 << (n * m))]
    rng = random.Random(f"relation-sweep:{seed}")
    inputs += [(4, 4, code) for code in sorted(rng.sample(range(1 << 16), SWEEP_4X4_SAMPLE))]
    calls = []
    for n, m, code in inputs:
        src = relalg.Carrier("A", n)
        dst = src if n == m else relalg.Carrier("B", m)
        calls.append(Call(f"{n}x{m}:{code}", partial(_bundle, src, dst, code)))

    def check(summaries: dict) -> tuple[dict, int]:
        verdicts = {}
        for key, s in summaries.items():
            if isinstance(s, BaseException):
                verdicts[key] = _raised(s)
                continue
            shape, code = key.split(":")
            code = int(code)
            if not s["certified"]:
                verdicts[key] = ("wrong", "index certificate does not verify")
            elif not s["iso"]:
                verdicts[key] = ("wrong", "no verified isomorphism between the min and max indexes")
            elif s["pairs"] != code.bit_count():
                verdicts[key] = ("wrong", f"{s['pairs']} pairs in the decomposition")
            elif shape == "3x3" and not {s["min"], s["max"]} <= _oracle_index_codes(code):
                verdicts[key] = ("wrong", "index disagrees with tests/oracles.py")
            else:
                verdicts[key] = ("ok", "")
        return verdicts, _completed(summaries)

    return Workload(calls, check)


# -- model-axioms -------------------------------------------------------------


def model_products(names: list[str], sizes: dict[str, int]) -> list[tuple[str, ...]]:
    """Every ordered product of one, two or three models with at most 64 elements."""
    out: list[tuple[str, ...]] = [(a,) for a in names]
    out += [(a, b) for a in names for b in names]
    out += [(a, b, c) for a in names for b in names for c in names]
    return [t for t in out if _size(t, sizes) <= MAX_PRODUCT_ELEMENTS]


def _size(factors: tuple[str, ...], sizes: dict[str, int]) -> int:
    n = 1
    for f in factors:
        n *= sizes[f]
    return n


def model_item(factors: tuple[str, ...]) -> dict:
    m = relalg.load_bundled(factors[0])
    for name in factors[1:]:
        m = models.product_model(m, relalg.load_bundled(name))
    m = models.load_model(models.model_to_dict(m), name="*".join(factors))
    report = models.check_axioms(m)
    return {
        "flags": "".join("1" if f else "0" for f in report.flags().values()),
        "counterexamples": {a: list(ce) for a, ce in report.counterexamples.items()},
        "recheck": {a: models.recheck(m, a, ce) for a, ce in report.counterexamples.items()},
    }


def model_axioms(seed: int) -> Workload:
    # The products are pinned; the seed does not change this workload's input.
    expected = frozen()["axiom_flags"]
    calls = [Call(key, partial(model_item, tuple(key.split("*")))) for key in expected]

    def check(summaries: dict) -> tuple[dict, int]:
        verdicts = {}
        for key, s in summaries.items():
            if isinstance(s, BaseException):
                verdicts[key] = _raised(s)
                continue
            failed = {a for a, f in zip(relalg.AxiomReport.AXIOMS, s["flags"]) if f == "0"}
            if s["flags"] != expected[key]:
                verdicts[key] = ("wrong", f"axiom flags {s['flags']}, frozen {expected[key]}")
            elif set(s["counterexamples"]) != failed or not all(s["recheck"].values()):
                verdicts[key] = ("wrong", f"counterexamples do not recheck: {s['recheck']}")
            else:
                verdicts[key] = ("ok", "")
        return verdicts, len(relalg.AxiomReport.AXIOMS) * _completed(summaries)

    return Workload(calls, check)


WORKLOADS = {
    "laws-size3": laws_size3,
    "laws-size4": laws_size4,
    "relation-sweep": relation_sweep,
    "model-axioms": model_axioms,
}
