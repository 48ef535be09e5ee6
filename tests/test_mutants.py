"""The runner's power to refute: single-edit mutants of the statements.

Every statement of the registry is mutated one edit at a time, from the fixed
table EDITS, each edit applied to one occurrence of its token. The mutants
that parse with the law's own variables and letters are run as laws of
weight 1 at three settings: acceptance criterion 2 and the settings of
perfbench's two laws workloads. A mutant that a run reports not ok is killed
by that run. tests/mutants.json pins the mutant list and each setting's kill
set, so a change to the runner that refutes less (sampling, pools, orbit
reduction) shows as a lost kill. A kill set may grow; a change that grows it
rewrites the fixture with

    PYTHONPATH=src python tests/test_mutants.py --write

The fixture also records the mutants that a setting misses although
criterion 2 kills them, each with its reason: a known defect of that
setting, not expected behaviour. --write keeps the reasons already given and
leaves a new miss's reason empty, which fails the tests until it is written.
"""

import json
import re
import sys
from functools import lru_cache
from pathlib import Path

from relalg.laws import REGISTRY, Law, run_law
from relalg.terms import Formula, parse

FIXTURE = Path(__file__).with_name("mutants.json")

# (token, its replacements); a word token is matched as a whole word
EDITS = (
    ("∘", ("∩", "∪")),
    ("∪", ("∩",)),
    ("∩", ("∪",)),
    ("<", (">",)),
    (">", ("<",)),
    ("≺", ("≻",)),
    ("≻", ("≺",)),
    ("⊆", ("=",)),
    ("=", ("⊆",)),
    ("°", ("",)),
    ("and", ("or",)),
    ("⇒", ("≡",)),
    ("𝕀", ("⊤",)),
    ("⊥", ("⊤",)),
)

# run_law's (max_size, samples, seed, budget) at each setting
SETTINGS = {
    "criterion-2": (3, 2000, 42, 10_000_000),
    "laws-size3": (3, 128, 31, 4000),
    "laws-size4": (4, 10, 31, 1),
}


def _edits(statement: str):
    """Every statement one edit of EDITS away, in table order, then in order of occurrence."""
    for token, replacements in EDITS:
        pattern = rf"\b{token}\b" if token.isalpha() else re.escape(token)
        for match in re.finditer(pattern, statement):
            for replacement in replacements:
                yield statement[:match.start()] + replacement + statement[match.end():]


@lru_cache(maxsize=None)
def mutants() -> tuple[Law, ...]:
    """The distinct mutants that parse, law by law in id order, each a Law of
    weight 1 under its law's id."""
    out = []
    for law_id, law in sorted(REGISTRY.items()):
        if not isinstance(law.check, Formula):
            continue
        seen = set()
        for statement in _edits(law.statement):
            if statement in seen:
                continue
            seen.add(statement)
            try:
                formula = parse(statement, law.vars, law.check.letters, law_id, law.extra_tvs)
            except ValueError:
                continue
            out.append(Law(law_id, statement, law.vars, formula, extra_tvs=law.extra_tvs))
    return tuple(out)


def killed(setting: str) -> list[int]:
    """The positions in mutants() of the mutants a run at the setting refutes."""
    return [i for i, law in enumerate(mutants()) if not run_law(law, *SETTINGS[setting]).ok]


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_the_mutant_list_is_pinned():
    assert [[law.id, law.statement] for law in mutants()] == _fixture()["mutants"]


def test_no_setting_loses_a_kill():
    fixture = _fixture()
    for setting in SETTINGS:
        got = set(killed(setting))
        lost = sorted(set(fixture["killed"][setting]) - got)
        assert not lost, (setting, [fixture["mutants"][i] for i in lost])


def test_the_known_misses_are_exactly_the_criterion_2_kills_a_setting_lacks():
    fixture = _fixture()
    strongest = set(fixture["killed"]["criterion-2"])
    for setting in SETTINGS:
        recorded = {entry["mutant"] for entry in fixture["known_misses"] if entry["setting"] == setting}
        assert recorded == strongest - set(fixture["killed"][setting]), setting
    assert all(entry["reason"] for entry in fixture["known_misses"])


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    old = _fixture() if FIXTURE.exists() else {"known_misses": []}
    reasons = {(e["setting"], tuple(old.get("mutants", [])[e["mutant"]])): e["reason"] for e in old["known_misses"]}
    fixture = {
        "mutants": [[law.id, law.statement] for law in mutants()],
        "killed": {setting: killed(setting) for setting in SETTINGS},
    }
    strongest = set(fixture["killed"]["criterion-2"])
    fixture["known_misses"] = [
        {"setting": setting, "mutant": i,
         "reason": reasons.get((setting, tuple(fixture["mutants"][i])), "")}
        for setting in SETTINGS for i in sorted(strongest - set(fixture["killed"][setting]))
    ]
    # one mutant, kill set or known miss a line
    parts = {key: ",\n  ".join(json.dumps(x, ensure_ascii=False) for x in value)
             for key, value in [("mutants", fixture["mutants"]), ("known_misses", fixture["known_misses"])]}
    killed_lines = ",\n  ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in fixture["killed"].items())
    FIXTURE.write_text(
        f'{{\n "mutants": [\n  {parts["mutants"]}\n ],\n "killed": {{\n  {killed_lines}\n }},\n'
        f' "known_misses": [\n  {parts["known_misses"]}\n ]\n}}\n', encoding="utf-8")
