"""Tests of the benchmark's own inputs, checks and trace arithmetic.

    python3 -m pytest bench

These do not import the program under test: the census rules are checked
with the benchmark's independent labelling code.
"""

from __future__ import annotations

import json
import os
import random

import pytest

import census
import run
import tracer

SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


@pytest.fixture(scope="module")
def le7_forms():
    forms = {}
    for m in census.classes_le7():
        form, odd = census.canonical(m, max_leaves=5040)
        forms[form] = odd
    return forms


def test_classes_le7_is_every_class(le7_forms):
    classes = census.classes_le7()
    counts = [sum(1 for m in classes if m[0] == n) for n in range(8)]
    assert counts == list(census.CLASS_COUNTS)
    assert all(census.satisfies_exchange(m) for m in classes)
    # pairwise non-isomorphic, so with the published counts: complete
    assert len(le7_forms) == len(classes)


def test_le7_survivors_match_full_chain_dims(le7_forms):
    survivors = [sum(1 for f, odd in le7_forms.items() if f[0] == n and not odd) for n in range(8)]
    assert survivors == [1, 2, 1, 0, 0, 0, 2, 18]


def test_canonical_is_labelling_invariant():
    rng = random.Random(3)
    for m in [census.wheel(5), census.top_root(), census.sparse_paving(rng, 9, 4, 14)]:
        labels = list(range(m[0]))
        rng.shuffle(labels)
        assert census.canonical(census.relabel(m, labels)) == census.canonical(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_census_file_rules(tmp_path, le7_forms, seed):
    path = census.census_file(str(tmp_path), seed)
    records = census.read_mtrd(path)
    forms = {}
    for m in records:
        assert census.satisfies_exchange(m)
        form, odd = census.canonical(m, max_leaves=5040)
        assert form not in forms, "a class appears in two records"
        forms[form] = odd
    # complete at n <= 7
    assert {f: o for f, o in forms.items() if f[0] <= 7} == le7_forms
    # closed under single-element deletion
    for form in forms:
        if form[0] >= 8:
            for e in range(form[0]):
                child, _ = census.canonical(census.delete(form, e), max_leaves=5040)
                assert child in forms, f"deletion of {form} missing"
    # every record written in a random labelling, not the canonical one
    sampled = [m for m in records if m[0] >= 8]
    assert sum(census.canonical(m)[0] != m for m in sampled) >= len(sampled) // 2
    # most classes survive at each sampled degree; both kinds of survivor
    info = census.sample(seed)
    assert set(info) == {f for f in forms if f[0] >= 8}
    assert census.rule_failures(info) == []
    for n in range(8, census.TOP + 1):
        at_n = [o for f, o in forms.items() if f[0] == n]
        assert 2 * at_n.count(False) > len(at_n)


def test_census_rules_catch_violations():
    info = census.sample(run.DEFAULT_SEED)
    dead = {f: dict(i, odd=True) for f, i in info.items()}
    assert any("survive" in msg for msg in census.rule_failures(dead))
    no_graphic = {f: dict(i, graphic=False) for f, i in info.items()}
    assert any("regular survivor" in msg for msg in census.rule_failures(no_graphic))


def test_generation_is_seeded(tmp_path):
    a = census.census_file(str(tmp_path / "a"), 5)
    b = census.census_file(str(tmp_path / "b"), 5)
    c = census.census_file(str(tmp_path / "b"), 6)
    assert open(a).read() == open(b).read()
    assert open(b).read() != open(c).read()


def _table(dims, betti):
    lines = ["spec,kind,n,r,dim,rank_out,rank_in,betti,certified"]
    for n, (d, b) in enumerate(zip(dims, betti)):
        lines.append(f"x,del,{n},,{d},{d - b},0,{b},exact")
    return "\n".join(lines) + "\n"


def test_output_checks():
    good = _table(run.ENUM7_DIMS, run.ENUM7_BETTI)
    assert run.check_enum7(good, 1) == []
    assert run.check_enum7(_table(run.ENUM7_DIMS, [1, 1, 0, 0, 0, 0, 1]), 1)
    assert run.check_algebra7("PASS unit n=0\nPASS counit-unit\n", 1) == []
    assert run.check_algebra7("PASS unit n=0\nFAIL bialgebra |a|=1\n", 1)
    assert run.check_algebra7("", 1)
    dims = run.CENSUS_DIMS_LE6 + [run.CENSUS_DIM_7] + [d for _, d, _ in run.CENSUS_GOLDEN_DEFAULT_SEED]
    betti = [0] * 8 + [b for _, _, b in run.CENSUS_GOLDEN_DEFAULT_SEED]
    assert run.check_census(_table(dims, betti), run.DEFAULT_SEED) == []
    assert run.check_census(_table(dims[:-1], betti[:-1]), run.DEFAULT_SEED)
    bad = _table(dims, betti).replace("x,del,3,,0,0,0,0", "x,del,3,,0,0,0,1")
    assert run.check_census(bad, run.HELD_OUT_SEED)


def test_self_time_subtracts_union_of_children():
    # parent 0..10 with children 1..4 and 3..6 (overlapping) and 8..9
    spans = [
        ("p", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),
        ("c", 0, 8.0, 9.0),
        ("d", 1, 2.0, 3.0),
    ]
    assert tracer._self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    trace = {"names": ["cli.main"], "spans": [[0, -1, 0, 10]], "counts": {},
             "missing": [], "t_start": 1.0, "t_main": 1.0,
             "cache_hits": 0, "cache_misses": 0}
    res = {"traced": [tracer.summarize(trace, 1.0, 0.99)], "traced_walls": [1.0], "walls": [1.0]}
    layer = {k: v["unit"] for k, v in run.per_layer(res).items()}
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {k: v["unit"] for k, v in run.end_to_end({"walls": [1.0], "rss": [1.0]}, 0.1).items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
