"""Tests of the benchmark itself: inputs, reference values, output checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math

import inputs
import oracle
import run
import tracer

PAPER_ARGS = ["--mode", "paper", "--format", "table"]
EXACT_ARGS = ["--mode", "exact", "--format", "json"]


def test_generator_is_deterministic_for_a_fixed_seed():
    assert inputs.generate(5, 300) == inputs.generate(5, 300)
    assert inputs.to_csv(inputs.generate(5, 300)) == inputs.to_csv(inputs.generate(5, 300))
    assert inputs.generate(5, 300) != inputs.generate(6, 300)


def test_generator_covers_every_regime_and_quotient_n():
    rows = inputs.generate(1, 5000)
    assert all(len(s.split(".")[1]) == 2 for r in rows for s in (*r.means, *r.sds))
    quotients = sum("/" in r.n for r in rows) / len(rows)
    assert 0.08 < quotients < 0.12
    for mode in ("paper", "exact"):
        shares = oracle.regime_shares([oracle.reference(r, mode) for r in rows])
        assert all(share > 0.01 for share in shares.values()), (mode, shares)


def test_csv_and_json_forms_carry_the_same_rows():
    rows = inputs.generate(3, 50)
    assert inputs.read_csv(inputs.to_csv(rows)) == rows
    studies = json.loads(inputs.to_json(rows))["studies"]
    assert [s["id"] for s in studies] == [r.id for r in rows]
    assert {str(s["n"]) for s in studies} == {r.n for r in rows}


def _corpus(name):
    return inputs.read_csv((run.PACKAGE_DIR / "data" / name).read_text(encoding="utf-8"))


def test_reference_matches_published_columns():
    for name, published in (
        ("suspect_studies.csv", oracle.PUBLISHED_SUSPECT),
        ("reference_studies.csv", oracle.PUBLISHED_REFERENCE),
    ):
        rows = _corpus(name)
        assert [r.id for r in rows] == list(published)
        for row in rows:
            problems = []
            oracle._check_rendered(row.id, published[row.id], oracle.reference(row, "paper"), problems)
            assert not problems


def test_exact_reference_lies_inside_paper_interval():
    for row in _corpus("reference_studies.csv") + inputs.generate(2, 2000):
        paper, exact = oracle.reference(row, "paper"), oracle.reference(row, "exact")
        assert exact.lower[1] >= paper.lower[0] * (1 - 1e-9)
        assert math.isinf(paper.upper[1]) or exact.upper[0] <= paper.upper[1] * (1 + 1e-9)


def test_rendered_values_parse():
    assert oracle.parse_rendered("4.95–9.41") == (4.95, 9.41)
    assert oracle.parse_rendered("13.95–∞") == (13.95, math.inf)
    assert oracle.parse_rendered("1") == (1.0, 1.0)
    assert oracle.parse_rendered("∞") == (math.inf, math.inf)


def _ledger_run(tmp_path, mode, corrupt=None):
    """Run compute on a small generated ledger, checking (corrupted) output."""
    rows = inputs.generate(9, 60)
    refs = [oracle.reference(r, mode) for r in rows]
    if mode == "paper":
        path, args, check = tmp_path / "l.csv", PAPER_ARGS, oracle.check_table
        path.write_text(inputs.to_csv(rows))
    else:
        path, args, check = tmp_path / "l.json", EXACT_ARGS, oracle.check_json
        path.write_text(inputs.to_json(rows))
    seen = []

    def checked(text):
        seen.append(text)
        return check(corrupt(text) if corrupt else text, rows, refs)

    op = run.Op()
    run.run_process(run.Invocation(["compute", "--input", str(path), *args], checked), tmp_path, op)
    assert seen, op.problems
    return op


def test_program_output_passes_its_checks(tmp_path):
    for mode in ("paper", "exact"):
        op = _ledger_run(tmp_path, mode)
        assert op.problems == []
        assert op.wall > op.setup > 0 and op.cpu > 0 and op.rss_mb > 0


def _below_one(text):
    # report the first V as 0.5: V is never below 1
    lines = text.splitlines(keepends=True)
    if lines[0].startswith("id "):
        fields = lines[1].split()
        fields[4] = "0.50"
        lines[1] = "  ".join(fields) + "\n"
        return "".join(lines)
    doc = json.loads(text)
    doc["rows"][0]["v_lower"] = 0.5
    return json.dumps(doc)


def test_corrupted_output_counts_as_failure(tmp_path):
    for mode in ("paper", "exact"):
        assert _ledger_run(tmp_path, mode, corrupt=_below_one).problems
        assert _ledger_run(tmp_path, mode, corrupt=lambda t: t[: len(t) // 2]).problems
    assert oracle.check_threshold("0.3191, 0.2505\n")
    good = "reps: 100000  seed: 42  v: 2\nP(V >= 2) = 0.2473  (mc stderr 0.0014)\n"
    assert oracle.check_simulate(good, 42, 100_000) == []
    assert oracle.check_simulate(good.replace("0.2473", "0.2474"), 42, 100_000)
    far = good.replace("seed: 42", "seed: 7").replace("0.2473", "0.2300")
    assert oracle.check_simulate(far, 7, 100_000)


def test_failed_process_is_a_failure(tmp_path):
    op = run.Op()
    run.run_process(run.Invocation(["compute", "--input", str(tmp_path / "missing.csv")], lambda t: []), tmp_path, op)
    assert op.problems and "exit code 2" in op.problems[0]


def test_traced_run_counts_calls_exactly(tmp_path):
    rows = inputs.generate(4, 40)
    path = tmp_path / "l.json"
    path.write_text(inputs.to_json(rows))
    refs = [oracle.reference(r, "exact") for r in rows]
    inv = run.Invocation(
        ["compute", "--input", str(path), *EXACT_ARGS],
        lambda text: oracle.check_json(text, rows, refs),
    )
    op = run.run_op([inv], tmp_path, traced=True)
    assert op.problems == []
    layers = tracer.layer_metrics(op.spans)
    assert layers["ledger.parse.rows"] == 40
    assert layers["engine.value.calls"] == 40
    assert layers["geometry.exact_floor.calls"] == 40
    assert layers["ledger.validate.calls_per_study"] == 3.0
    assert layers["geometry.contrast.calls_per_study"] == 3.0
    assert 0 < layers["geometry.exact_floor_s"] <= layers["geometry.variance_profile_s"]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: run.unit(k) for k in run.end_to_end([run.Op(wall=2.0, setup=1.0)], 1)}
    layer_names = (
        ["import.total_s", "import.numpy_s", "import.scipy_s", "import.evidential_self_s"]
        + list(tracer.layer_metrics({}))
        + ["cli.output_bytes", "trace.overhead_s"]
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.unit(k) for k in layer_names}


def test_cold_start_run_reports_every_metric(capsys):
    assert run.main(["--workload", "cold-start", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "items_per_s", "cpu_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
