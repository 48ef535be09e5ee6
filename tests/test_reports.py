"""The runner's reports, byte for byte: a gate on changes that must not change them.

The registry, with perfbench's planted false laws, is run at three settings,
the two laws workloads' and acceptance criterion 2's (max_size=3,
samples=2000), each at seeds 31 and 73. tests/reports.json pins, per run and
law, the mode, the instance count and the first shrunk counterexample, with
the SHA-256 of the bytes that ``relalg laws --manifest`` prints, and the same
three of the run of each wrong statement in tests/test_terms.py (WRONG), whose
counterexamples pin shrinking a shape the registry does not fail on. So a
change to the evaluator, the scans or the shrinker that alters a verdict, a
mode, a draw or a shrunk shape fails here and names the law. A change meant
to alter them rewrites the fixture with

    PYTHONPATH=src python tests/test_reports.py --write

and lists every changed entry in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

from relalg.cli import main
from relalg.laws import REGISTRY, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import LAWS3, LAWS4, PLANTED  # noqa: E402
from test_terms import WRONG, wrong_run  # noqa: E402

FIXTURE = Path(__file__).with_name("reports.json")

# run_suite's keyword arguments at each setting, without the seed
SETTINGS = {
    "laws-size3": LAWS3,
    "laws-size4": LAWS4,
    "criterion-2": dict(max_size=3, samples=2000),
}
SEEDS = (31, 73)


def manifest_digest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["laws", "--manifest"])
    if code:
        raise RuntimeError(f"relalg laws --manifest exited {code}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _entry(r) -> dict:
    """A report's mode, instance count and first counterexample (None if it held)."""
    return {"mode": r.mode, "instances": r.instances,
            "counterexample": r.failures[0].to_dict() if r.failures else None}


@lru_cache(maxsize=None)
def report(setting: str, seed: int) -> dict:
    """Per law, its entry."""
    suite = run_suite(seed=seed, registry={**REGISTRY, **PLANTED}, **SETTINGS[setting])
    return {r.law_id: _entry(r) for r in suite.reports}


@lru_cache(maxsize=None)
def wrong_reports() -> dict:
    """Per law, the entry of its wrong statement's run."""
    return {law_id: _entry(wrong_run(law_id, statement, vars)[1]) for law_id, statement, vars in WRONG}


def runs() -> list[str]:
    return [f"{setting}@{seed}" for setting in SETTINGS for seed in SEEDS]


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_the_manifest_bytes_are_pinned():
    assert manifest_digest() == _fixture()["manifest_sha256"]


def test_every_report_is_pinned():
    pinned = _fixture()["runs"]
    assert sorted(pinned) == sorted(runs())
    for run in runs():
        setting, seed = run.split("@")
        got = report(setting, int(seed))
        changed = sorted(law for law in got.keys() | pinned[run].keys() if got.get(law) != pinned[run].get(law))
        assert not changed, (run, changed)


def test_every_wrong_statement_report_is_pinned():
    pinned, got = _fixture()["wrong"], wrong_reports()
    assert sorted(pinned) == sorted(got) and len(got) == len(WRONG)
    assert not sorted(law for law in got if got[law] != pinned[law])


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    def lines(entries: dict, indent: str) -> str:  # one law a line
        return f",\n{indent}".join(f"{json.dumps(law)}: {json.dumps(entry, ensure_ascii=False)}"
                                   for law, entry in sorted(entries.items()))

    blocks = []
    for run in runs():
        setting, seed = run.split("@")
        blocks.append(f'  {json.dumps(run)}: {{\n   {lines(report(setting, int(seed)), "   ")}\n  }}')
    runs_text = ",\n".join(blocks)
    FIXTURE.write_text(f'{{\n "manifest_sha256": {json.dumps(manifest_digest())},\n'
                       f' "runs": {{\n{runs_text}\n }},\n'
                       f' "wrong": {{\n  {lines(wrong_reports(), "  ")}\n }}\n}}\n', encoding="utf-8")
