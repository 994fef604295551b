import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import evidential
from evidential.cli import main, render_value
from evidential.engine import Case, EvidentialValue, Mode, combine, evidential_value
from evidential.ledger import StudyLedger, StudySummary

from helpers import CorrelationTriple, ledger_to_mapping, random_study, serialize_ledger

INF = math.inf
HEADER_LINE = b"id,n,x1,x2,x3,s1,s2,s3\n"


@pytest.fixture()
def suspect_csv(tmp_path, suspect):
    path = tmp_path / "suspect.csv"
    path.write_text(serialize_ledger(suspect), encoding="utf-8")
    return path


@pytest.fixture()
def reference_csv(tmp_path, reference):
    path = tmp_path / "reference.csv"
    path.write_text(serialize_ledger(reference), encoding="utf-8")
    return path


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- rendering ---------------------------------------------------------------

def test_render_point_interval_and_unbounded():
    assert render_value(EvidentialValue(3.9228, 3.9228, Case.MIDDLE, Mode.PAPER)) == "3.92"
    assert render_value(EvidentialValue(4.9476, 9.4121, Case.BELOW, Mode.PAPER)) == "4.95–9.41"
    assert render_value(EvidentialValue(13.9492, INF, Case.BELOW, Mode.PAPER)) == "13.95–∞"
    assert render_value(EvidentialValue(1.0, 1.0, Case.ABOVE, Mode.PAPER)) == "1"
    assert render_value(EvidentialValue(INF, INF, Case.BELOW, Mode.EXACT)) == "∞"
    # interval endpoints that agree at 2 decimals collapse, as printed tables do
    assert render_value(EvidentialValue(2.7173, 2.7184, Case.BELOW, Mode.PAPER)) == "2.72"


def test_rounding_is_half_up():
    assert render_value(EvidentialValue(2.675, 2.675, Case.MIDDLE, Mode.PAPER)) == "2.68"
    assert render_value(EvidentialValue(1.005, 1.005, Case.MIDDLE, Mode.PAPER)) == "1.01"


# --- compute ------------------------------------------------------------------

TABLE1_RENDERED = {
    "1": "3.92", "2": "4.68", "3": "4.26", "4": "2.72", "5": "3.21",
    "6": "4.95–9.41", "7": "4.43", "8": "13.95–∞",
    "9a": "2.10", "9b": "3.95", "10a": "4.94", "10b": "10.17–23.92",
}


def test_compute_table_matches_published_column(suspect_csv):
    code, out, err = run(["compute", "--input", str(suspect_csv)])
    assert code == 0 and err == ""
    lines = out.splitlines()
    for sid, want in TABLE1_RENDERED.items():
        row = next(l for l in lines if l.startswith(sid + " "))
        assert want in row


REFERENCE_RENDERED = {
    "Hagtvedt-l": "1.40", "Hagtvedt-2": "1.17", "Hunt": "1", "Jia": "1",
    "Kanten-l": "1.00",  # published as 1.001; table output is fixed at 2 decimals
    "Kanten-2": "1.75", "Lerouge-l": "1", "Lerouge-2": "12.23–13.01",
    "Lerouge-3": "1.01", "Lerouge-4": "1.21", "Malkoc": "5.26–5.27",
    "Polman": "1.34", "Rook-l": "1", "Rook-2": "1.69", "Smith-l": "1.01",
    "Smith-2": "1.26", "Smith-3": "1", "Smith-4": "4.04", "Smith-5": "1.63",
    "Smith-6": "1", "Smith-7": "1.02",
}


def test_compute_reference_rendered_column(reference):
    from evidential.cli import build_rows

    rows = build_rows(reference, Mode.PAPER)
    got = {r.study.id: r.v_rendered for r in rows}
    assert got == REFERENCE_RENDERED


def test_records_are_read_only(reference):
    from evidential.cli import build_rows
    from evidential.geometry import variance_profile
    from evidential.simulate import ModelParams, SimulationReport

    study = reference.studies[0]
    records = [
        study,
        reference,
        variance_profile(study),
        CorrelationTriple(0.0, 0.0, 0.0),
        evidential_value(study),
        combine([evidential_value(study)]),
        ModelParams((0, 0, 0), (1, 1, 1), 20),
        SimulationReport(1000, 1, 2.0, 0.25, 0.01),
        build_rows([study], Mode.PAPER)[0],
    ]
    for record in records:
        for name in (*getattr(record, "_fields", ("studies", "source")), "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_compute_table_is_byte_stable(suspect_csv):
    outputs = {run(["compute", "--input", str(suspect_csv)])[1] for _ in range(3)}
    assert len(outputs) == 1


def test_compute_footer_reports_products_and_tail(reference_csv):
    code, out, _ = run(["compute", "--input", str(reference_csv)])
    assert code == 0
    assert "empirical share with V >= 2: 3/21 = 0.1429" in out
    assert "posterior odds" in out
    # non-integer n rows carry a note marker and a notes section
    assert "notes:" in out
    assert "not an integer" in out


def test_compute_footer_prints_the_count_behind_the_share(tmp_path):
    # one unbounded V among 49: 1 / 49 * 49 is just below 1 in floats
    rows = b"a,20,1,2,3,1,1,1\n" + b"".join(b"b%d,20,10,0,0,1,1,1\n" % k for k in range(48))
    path = tmp_path / "share.csv"
    path.write_bytes(HEADER_LINE + rows)
    code, out, _ = run(["compute", "--input", str(path)])
    assert code == 0
    assert "empirical share with V >= 2: 1/49 = 0.0204\n" in out


def test_compute_footer_collapses_like_the_rows(tmp_path):
    # a below-regime interval whose ends agree at 2 decimals prints one
    # number in its row, and so do the product and the posterior odds
    path = tmp_path / "one.csv"
    path.write_bytes(HEADER_LINE + b"a,15,4.5,3.8,3.05,0.96,0.5,0.71\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    ev = evidential_value(StudySummary("a", 15, (4.5, 3.8, 3.05), (0.96, 0.5, 0.71)))
    assert ev.lower < ev.upper
    lines = out.splitlines()
    assert lines[1].split()[4] == "4.92"
    assert "product V: 4.92" in lines and "posterior odds (prior 1): 4.92" in lines


def test_compute_table_prints_huge_statistics_in_scientific_notation(tmp_path):
    # Z_V and Z_C are 7.3e300 here: fixed point would print 300 digits each
    path = tmp_path / "huge.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e300,-1e300,1e300,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    assert max(len(line) for line in out.splitlines()) <= 80
    assert "+7.3030e+300  +7.3030e+300  above" in out


def test_compute_json_writes_statistics_beyond_the_float_range_as_null(tmp_path):
    # Z_V is about 7e600 here; JSON has no Infinity, so it is null like V's ∞
    path = tmp_path / "huge.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e300,-1e300,1e300,1e-300,1e-300,1e-300\n")
    code, out, err = run(["compute", "--input", str(path), "--format", "json"])
    assert code == 0 and err == ""
    (row,) = json.loads(out, parse_constant=lambda name: pytest.fail(name))["rows"]
    assert (row["z_v"], row["z_c"], row["case"]) == (None, None, "above")


def test_compute_footer_renders_products_beyond_default_decimal_precision(
    tmp_path, suspect
):
    # 50 copies of study 1 (V = 3.92) multiply to ~4.6e29: a finite product
    # with more integer digits than the default decimal context holds
    row = suspect.studies[0]
    studies = [StudySummary(f"r{k}", row.n, row.means, row.sds) for k in range(50)]
    path = tmp_path / "many.csv"
    path.write_text(serialize_ledger(StudyLedger(studies)), encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 0 and err == ""
    product = combine([evidential_value(s, Mode.PAPER) for s in studies]).product_lower
    assert 1e26 <= product < INF
    line = next(l for l in out.splitlines() if l.startswith("product V: "))
    assert float(line.removeprefix("product V: ")) == pytest.approx(product, rel=1e-12)


def test_compute_json_report_is_the_golden_bytes(monkeypatch):
    # the one-line report of the bundled suspect corpus, its key order too
    monkeypatch.chdir(Path(evidential.__path__[0]) / "data")
    argv = ["compute", "--input", "suspect_studies.csv", "--mode", "exact", "--format", "json"]
    golden = Path(__file__).parent / "data" / "suspect_exact_report.json"
    assert run(argv) == (0, golden.read_text(encoding="utf-8"), "")


def test_compute_json_round_trips(suspect_csv, suspect):
    code, out, _ = run(["compute", "--input", str(suspect_csv), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 12
    from evidential.engine import evidential_value

    by_id = {row["id"]: row for row in doc["rows"]}
    assert by_id["8"]["v_upper"] is None  # unbounded encodes as null
    from evidential.engine import z_c_statistic, z_v_statistic

    for study in suspect:
        ev = evidential_value(study, Mode.PAPER)
        row = by_id[study.id]
        assert row["v_lower"] == pytest.approx(ev.lower, rel=1e-12)
        assert row["z_v"] == pytest.approx(z_v_statistic(study), rel=1e-12)
        assert row["z_c"] == pytest.approx(z_c_statistic(study), rel=1e-12)
        assert row["n"] == study.n
        assert tuple(row["means"]) == study.means
    assert doc["combined"]["product_upper"] is None
    assert doc["empirical_tail"]["v"] == 2.0


def test_compute_exact_mode(suspect_csv):
    code, out, _ = run(["compute", "--input", str(suspect_csv), "--mode", "exact"])
    assert code == 0
    row8 = next(l for l in out.splitlines() if l.startswith("8 "))
    assert "∞" in row8


def test_compute_prior_odds_scales_posterior(suspect_csv):
    _, out, _ = run([
        "compute", "--input", str(suspect_csv), "--format", "json",
        "--prior-odds", "0.001",
    ])
    doc = json.loads(out)
    assert doc["combined"]["posterior_odds_lower"] == pytest.approx(
        0.001 * doc["combined"]["product_lower"], rel=1e-12
    )


@pytest.mark.parametrize("odds", ["0", "nan", "inf"])
def test_compute_rejects_prior_odds_that_are_not_positive_and_finite(
    suspect_csv, odds, capsys
):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(suspect_csv), "--prior-odds", odds])
    assert exc.value.code == 2
    assert "--prior-odds: must be positive and finite" in capsys.readouterr().err


def test_compute_arithmetic_failure_names_the_study(tmp_path):
    # the contrast is 1e-320 against s0 = sqrt(6): V is about 3.3e319
    path = tmp_path / "odd.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1e-320,0,0,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: study 'a': overflow: math range error\n")


def test_compute_refuses_a_product_beyond_the_float_range(tmp_path):
    # each V is 3.3e149, so the product of three is 3.6e448: not unbounded
    path = tmp_path / "big.csv"
    rows = b"a,20,1e-150,0,0,1,1,1\nb,20,1e-150,0,0,1,1,1\nc,20,1e-150,0,0,1,1,1\n"
    path.write_bytes(HEADER_LINE + rows)
    for fmt in ("table", "json"):
        code, out, err = run(["compute", "--input", str(path), "--format", fmt])
        assert (code, out, err) == (
            1, "", "error: overflow: the product of the values exceeds the float range\n"
        ), fmt


def test_build_rows_computes_one_contrast_per_study(monkeypatch, reference):
    from evidential import geometry
    from evidential.cli import build_rows

    calls = []
    original = geometry.contrast

    def counted(means):
        calls.append(means)
        return original(means)

    # every module binding of contrast, as a tracer would see it
    for name, module in list(sys.modules.items()):
        if name.startswith("evidential.") and getattr(module, "contrast", None) is original:
            monkeypatch.setattr(module, "contrast", counted)
    for mode in (Mode.PAPER, Mode.EXACT):
        calls.clear()
        build_rows(reference, mode)
        assert len(calls) == len(reference), mode


def test_compute_reads_a_byte_order_mark(tmp_path, suspect_csv):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + suspect_csv.read_bytes())
    assert run(["compute", "--input", str(path)]) == run(
        ["compute", "--input", str(suspect_csv)]
    )


def test_compute_missing_file():
    code, out, err = run(["compute", "--input", "/nonexistent.csv"])
    assert code == 2 and out == "" and "cannot read" in err


def test_compute_empty_ledger(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,n,x1,x2,x3,s1,s2,s3\n", encoding="utf-8")
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2 and "no studies" in err and out == ""


MALFORMED_LEDGERS = {
    # file name: (content, what the diagnostic names)
    "bad_header.csv": (b"idx,n,x1\n1,2,3\n", "row 1: header must be"),
    "no_header.csv": (b"# nothing but a comment\n", "no_header.csv: no header row"),
    "array.json": (b"[1,2]\n", "array.json: a JSON ledger must be an object"),
    "latin1.csv": (HEADER_LINE + "Müller,20,1,2,3,1,1,1\n".encode("latin-1"), "cannot read"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LEDGERS))
def test_compute_malformed_ledger_is_an_input_error(tmp_path, name):
    content, names = MALFORMED_LEDGERS[name]
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and names in err
    if names == "cannot read":
        assert str(path) in err


def test_compute_partial_output_and_strict(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "id,n,x1,x2,x3,s1,s2,s3\n"
        "good,20,2.47,3.04,3.68,1.21,0.72,0.68\n"
        "bad,20,1,2,3,1,0,1\n",
        encoding="utf-8",
    )
    code, out, err = run(["compute", "--input", str(path)])
    assert code == 2
    assert "good" in out  # valid rows still reported
    assert "bad" in err
    code, out, err = run(["compute", "--input", str(path), "--strict"])
    assert code == 2 and out == ""
    assert "partial output" in err


# --- compute split across processes -----------------------------------------

SPLIT_ROWS = 2400


def split_ledger(tmp_path, fmt, edits=(), count=SPLIT_ROWS, source="split"):
    """*count* random studies as a CSV or JSON ledger file.  Each ``(k,
    line)`` edit replaces the k-th study with a CSV line, or in JSON with
    an entry."""
    rng = np.random.default_rng(count)
    ledger = StudyLedger([random_study(rng, f"s{k}") for k in range(count)], source)
    if fmt == "csv":
        lines = serialize_ledger(ledger).splitlines()
        for k, line in edits:
            lines[k + 1] = line
        text = "\n".join(lines) + "\n"
    else:
        doc = ledger_to_mapping(ledger)
        for k, entry in edits:
            doc["studies"][k] = entry
        text = json.dumps(doc)
    path = tmp_path / f"split.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def split_compute(monkeypatch):
    """Run compute with the number of processes forced; give its exit code,
    stdout and stderr, and how many runs it cut the rows into."""
    from evidential import _fork

    made = []
    runs = _fork.runs

    def counted(*args):
        cut = runs(*args)
        made.append(len(cut))
        return cut

    monkeypatch.setattr(_fork, "runs", counted)

    def compute(argv, processes):
        monkeypatch.setattr(_fork, "processes", lambda units, least: processes)
        made.clear()
        result = run(["compute", *argv])
        assert_no_child_left()
        return result, made[0]

    return compute


FORMATS = [(mode, fmt) for mode in ("paper", "exact") for fmt in ("table", "json")]

#: split ledgers: format, edits, source, and the exit codes of paper and
#: exact mode, table and JSON, then of --strict.  Errors are reported in row
#: order, and an evaluation error is the first study's of a serial run
SPLIT_CASES = {
    # a JSON source that holds the text the rows are spliced in at
    "json": ("json", [], 'a "rows": [] source', [0, 0, 0, 0, 0]),
    "csv": ("csv", [], "split", [0, 0, 0, 0, 0]),
    # parse errors in each of the three runs
    "bad_rows": (
        "csv",
        [(5, "bad,20,x,0,0,1,1,1"), (1000, "short,20,1"), (2300, "neg,20,1,2,3,1,-1,1")],
        "split",
        [2, 2, 2, 2, 2],
    ),
    "bad_entries": ("json", [(7, 5), (1700, {"id": "k", "n": 20})], "split", [2, 2, 2, 2, 2]),
    # the second of three runs has no study
    "empty_run": ("json", [(k, None) for k in range(800, 1600)], "split", [2, 2, 2, 2, 2]),
    # V beyond the float range in the second and third runs, after a bad row
    "v_overflow": (
        "csv",
        [(300, "bad,20,x"), (1000, "a,20,1e-320,0,0,1,1,1"), (2000, "b,20,1e-320,0,0,1,1,1")],
        "split",
        [1, 1, 1, 1, 2],
    ),
    # each V is 3.3e149: the product of one per run exceeds the float range
    "product_overflow": (
        "csv",
        [(k, f"big{k},20,1e-150,0,0,1,1,1") for k in (100, 1200, 2300)],
        "split",
        [1, 1, 1, 1, 1],
    ),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_compute_split_across_processes_gives_the_one_process_report(
    tmp_path, split_compute, case
):
    fmt, edits, source, codes = SPLIT_CASES[case]
    path = split_ledger(tmp_path, fmt, edits, source=source)
    got = []
    for options in [[f"--mode={m}", f"--format={f}"] for m, f in FORMATS] + [["--strict"]]:
        argv = ["--input", str(path), *options]
        serial, one = split_compute(argv, 1)
        assert (one, split_compute(argv, 3)) == (1, (serial, 3)), (case, options)
        got.append(serial[0])
    assert got == codes


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_compute_with_a_repeated_id_runs_as_one_run(tmp_path, split_compute):
    # each run checks its own rows for repeats, so a ledger that repeats an
    # id is one run: the repeat is found wherever it is
    path = split_ledger(tmp_path, "csv", [(2000, "s5,20,1,2,3,1,1,1")])
    serial, one = split_compute(["--input", str(path)], 1)
    assert split_compute(["--input", str(path)], 3) == (serial, 1)
    code, _, err = serial
    assert (code, err) == (2, "error: row 2002: duplicate study id 's5' (first at row 7)\n")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "fork"),
    reason="counts threads in /proc/self/task; sets its own CPU affinity",
)
def test_compute_splits_only_with_work_cpus_and_one_thread():
    # in a fresh interpreter, which runs one OS thread (the test process may
    # run OpenBLAS's): too few rows; enough; on one CPU, as `taskset -c 0`
    # runs it; and with a second thread
    code = (
        "import os, threading\n"
        "from evidential import _fork, cli\n"
        "least, cpus = cli._PROCESS_ROWS, os.sched_getaffinity(0)\n"
        "print(_fork.processes(2 * least - 1, least),"
        " _fork.processes(2 * least, least) == min(len(cpus), 2))\n"
        "os.sched_setaffinity(0, {min(cpus)})\n"
        "print(_fork.processes(10**6, least))\n"
        "os.sched_setaffinity(0, cpus)\n"
        "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
        "print(_fork.processes(10**6, least))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(evidential.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 True\n1\n1\n", "")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_compute_run_whose_child_dies_gives_the_serial_report(
    tmp_path, split_compute, monkeypatch
):
    # children that exit non-zero without a word: their runs are worked here
    from evidential import cli

    path = split_ledger(tmp_path, "csv", [(1000, "bad,20,x,0,0,1,1,1")])
    argv = ["--input", str(path), "--format", "json"]
    serial, _ = split_compute(argv, 1)
    parent, build_rows = os.getpid(), cli.build_rows

    def dying(studies, mode):
        if os.getpid() != parent:
            os._exit(3)
        return build_rows(studies, mode)

    monkeypatch.setattr(cli, "build_rows", dying)
    assert split_compute(argv, 3) == (serial, 3)


# --- threshold ------------------------------------------------------------------

def test_threshold_command_published_values():
    code, out, _ = run(["threshold", "--v", "2"])
    assert code == 0
    assert out == "0.3191, 0.2504\n"


def test_threshold_command_at_ten():
    code, out, _ = run(["threshold", "--v", "10"])
    assert code == 0
    assert out == "0.0608, 0.0485\n"


def test_threshold_command_near_one():
    code, out, _ = run(["threshold", "--v", "1.0001"])
    assert code == 0
    assert out.startswith("0.99")


def test_threshold_command_rejects_v_below_one():
    code, out, err = run(["threshold", "--v", "0.5"])
    assert code == 2 and "must exceed 1" in err


# --- simulate --------------------------------------------------------------------

def test_simulate_command_deterministic():
    argv = ["simulate", "--n", "20", "--sigma", "1,1,1", "--v", "2",
            "--reps", "2000", "--seed", "42"]
    first = run(argv)
    second = run(argv)
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "P(V >= 2) = 0." in out
    assert "mc stderr" in out


def test_simulate_command_rejects_zero_reps():
    code, _, err = run(["simulate", "--n", "20", "--sigma", "1,1,1",
                        "--reps", "0", "--seed", "1"])
    assert code == 2 and "reps" in err


def test_simulate_command_rejects_a_negative_seed():
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1",
                          "--reps", "2000", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be a non-negative integer\n")


def test_simulate_command_needs_three_sigmas():
    for sigma in ("1,1", "1,1,1,1"):
        code, out, err = run(["simulate", "--n", "20", "--sigma", sigma, "--reps", "2000"])
        message = "error: --sigma needs exactly three comma-separated values\n"
        assert (code, out, err) == (2, "", message), sigma


def test_simulate_defaults_to_v_2_and_seed_0():
    argv = ["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "1000"]
    code, out, err = run(argv)
    assert (code, out, err) == run([*argv, "--v", "2", "--seed", "0"])
    assert (code, err) == (0, "") and out.startswith("reps: 1000  seed: 0  v: 2\n")


@pytest.mark.parametrize(
    "argv, missing",
    [
        ([], "command"),
        (["threshold"], "--v"),
        (["simulate", "--sigma", "1,1,1", "--reps", "1000"], "--n"),
        (["simulate", "--n", "20", "--reps", "1000"], "--sigma"),
        (["simulate", "--n", "20", "--sigma", "1,1,1"], "--reps"),
    ],
)
def test_a_missing_command_or_option_is_a_usage_error(argv, missing, capsys):
    # argparse's own exit 2 and usage, never a traceback from the command
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: evidential")
    assert err.endswith(f"error: the following arguments are required: {missing}\n")


def test_simulate_command_rejects_bad_sigma():
    code, _, err = run(["simulate", "--n", "20", "--sigma", "1,1",
                        "--reps", "2000", "--seed", "1"])
    assert code == 2 and "sigma" in err
    for n, sigma, problem in (
        ("20", "nan,1,1", "mu and sigma must be finite"),
        ("20", "inf,1,1", "mu and sigma must be finite"),
        # finite sigmas whose sample sds overflow or vanish: the study of
        # the first such replication is refused, without a numpy warning;
        # at 1e-159 only a few sds underflow to 0, in replications that
        # are far from the threshold
        ("20", "1e300,1,1", "study 'sim': sds must be finite"),
        ("2", "1e-159,1,1", "study 'sim': sds must be positive"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["simulate", "--n", n, "--sigma", sigma,
                                  "--reps", "2000", "--seed", "1"])
        assert (code, out, err) == (2, "", f"error: {problem}\n"), sigma


def test_simulate_command_reports_an_overflow(monkeypatch):
    # sds of 1e154 are decided in numpy until one overflows and is refused
    code, out, err = run(["simulate", "--n", "2", "--sigma", "1e154,1e154,1e154",
                          "--reps", "1000", "--seed", "3"])
    assert (code, out, err) == (2, "", "error: study 'sim': sds must be finite\n")
    # an arithmetic failure of the estimate itself is a computation error
    from evidential import simulate

    def overflowing(**kwargs):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(simulate, "null_exceedance", overflowing)
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "1000"])
    assert (code, out, err) == (1, "", "error: overflow: Numerical result out of range\n")


def test_simulate_command_reports_running_out_of_memory(monkeypatch):
    # a huge --n asks numpy for a block it cannot allocate; the test only
    # raises the error, so that no test allocates a huge array
    from evidential import simulate

    message = "Unable to allocate 2.91 TiB for an array with shape (1, 4, 100000000000)"
    for args, problem in (((message,), f"out of memory: {message}"), ((), "out of memory")):

        def exhausted(**kwargs):
            raise MemoryError(*args)

        monkeypatch.setattr(simulate, "null_exceedance", exhausted)
        code, out, err = run(["simulate", "--n", "100000000000", "--sigma", "1,1,1",
                              "--reps", "1000"])
        assert (code, out, err) == (1, "", f"error: {problem}\n")


def test_simulate_command_labels_v_so_that_it_reads_back():
    # %g where it reads back as v (so 2 stays "2"), repr where %g rounds
    for v, label in (("2", "2"), ("1e300", "1e+300"),
                     ("1.0000001", "1.0000001"), ("2.0000001", "2.0000001")):
        code, out, _ = run(["simulate", "--n", "5", "--sigma", "1,1,1", "--v", v,
                            "--reps", "1000", "--seed", "1"])
        assert code == 0
        first, second = out.splitlines()
        assert first == f"reps: 1000  seed: 1  v: {label}"
        assert second.startswith(f"P(V >= {label}) = 0."), out


def test_simulate_command_refuses_a_non_finite_v():
    for v in ("inf", "1e400", "nan"):
        code, out, err = run(["simulate", "--n", "20", "--sigma", "1,1,1", "--v", v,
                              "--reps", "1000", "--seed", "1"])
        assert (code, out, err) == (2, "", "error: v must exceed 1 and be finite\n"), v


def test_simulate_command_split_across_processes_reports_the_serial_error(monkeypatch):
    from evidential import _fork

    monkeypatch.setattr(_fork, "processes", lambda units, least: 2)
    code, out, err = run(["simulate", "--n", "20", "--sigma", "1e300,1,1",
                          "--reps", "12289", "--seed", "1"])
    assert (code, out, err) == (2, "", "error: study 'sim': sds must be finite\n")
    assert_no_child_left()


SEED_42 = ["simulate", "--n", "20", "--sigma", "1,1,1", "--v", "2", "--reps", "100000",
           "--seed", "42"]


def cold(argv, env=(), **kwargs):
    # a fresh `python -m evidential.cli` as a shell starts it: its OpenBLAS
    # thread count its own, its stdout block-buffered; *env* adds variables
    drop = ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")
    env = {**{k: v for k, v in os.environ.items() if k not in drop}, **dict(env)}
    env["PYTHONPATH"] = os.path.dirname(evidential.__path__[0])
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return subprocess.Popen([sys.executable, "-m", "evidential.cli", *argv], env=env, **kwargs)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_output(argv):
    """The ``# -> `` lines the README shows under ``evidential`` *argv*."""
    lines = README.read_text(encoding="utf-8").splitlines()
    at = lines.index("evidential " + " ".join(argv)) + 1
    shown = []
    while at < len(lines) and lines[at].startswith("# -> "):
        shown.append(lines[at].removeprefix("# -> "))
        at += 1
    return shown


def readme_seed_42_lines():
    expected = readme_output(SEED_42)
    assert expected[1].startswith("P(V >= 2) = 0.2473 "), expected
    return expected


def test_cold_simulate_prints_the_readme_lines():
    # the command's own process rule, forking where it may
    out, err = cold(SEED_42).communicate(timeout=120)
    assert (out.splitlines(), err) == (readme_seed_42_lines(), "")


def test_cold_threshold_prints_the_readme_line():
    argv = ["threshold", "--v", "2"]
    out, err = cold(argv).communicate(timeout=60)
    assert (out.splitlines(), err) == (readme_output(argv), "")
    assert out == "0.3191, 0.2504\n"


def test_the_readme_library_example_runs_as_shown():
    # the python block under "## Library", in a fresh interpreter
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(evidential.__path__[0])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), code
    assert done.stdout.strip()


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "fork"),
    reason="lists open descriptors in /proc; forks",
)
def test_simulate_without_a_descriptor_for_a_pipe_runs_serially():
    # no descriptor is left for the pipe of a second process, which the
    # serial run does without: its run is counted here, as a failed fork's is
    code = (
        "import contextlib, os, resource, signal, sys  # signal: as a split run does\n"
        "from evidential import _fork, cli, simulate\n"
        "simulate.null_exceedance(20, (1, 1, 1), 2.0, 1000, 0)  # loads what a run needs\n"
        "_fork.processes = lambda units, least: 2\n"
        "open_fds = len(os.listdir('/proc/self/fd')) - 1  # less listdir's own\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (open_fds, hard))\n"
        "with contextlib.suppress(OSError):  # and fill any gap below the limit\n"
        "    while True:\n"
        "        os.dup(2)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(evidential.__path__[0])
    proc = subprocess.run([sys.executable, "-c", code, *SEED_42], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == readme_seed_42_lines()


def interrupt_once_forked(argv, target):
    # SIGINT to the caller alone, or to its whole group as a terminal sends
    # it, as soon as a child exists (even before fork returns in the
    # caller): no child may outlive the command, and none may finish its
    # run (seconds of work) before the command ends
    proc = cold(argv, start_new_session=True)
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                with open(children) as listing:
                    if listing.read().split():
                        break
            except FileNotFoundError:
                if proc.poll() is None:
                    pytest.skip("this kernel lists no children in /proc")
            assert proc.poll() is None and time.monotonic() < deadline, "never forked"
        if target == "caller":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:  # the group outlives the command only through a leftover child
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
    assert (proc.returncode, err) == (130, "error: interrupted\n")
    assert not left


FORKS = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="reads a process's children in /proc; forks only with 2+ CPUs",
)


@FORKS
@pytest.mark.parametrize("target", ["caller", "group"])
def test_ctrl_c_leaves_no_simulate_process(target):
    interrupt_once_forked(
        ["simulate", "--n", "20", "--sigma", "1,1,1", "--reps", "10000000"], target
    )


@FORKS
@pytest.mark.parametrize("target", ["caller", "group"])
def test_ctrl_c_leaves_no_compute_process(tmp_path, target):
    # each of two processes evaluates 10 000 studies, for about 0.4 s
    path = split_ledger(tmp_path, "csv", count=20_000)
    interrupt_once_forked(["compute", "--input", str(path), "--mode", "exact"], target)


def test_ctrl_c_is_one_line_and_exit_130(monkeypatch, suspect_csv):
    from evidential import cli

    def interrupted(studies, mode):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_rows", interrupted)
    assert run(["compute", "--input", str(suspect_csv)]) == (130, "", "error: interrupted\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}])
def test_output_that_cannot_be_written_is_one_line_and_exit_1(suspect_csv, env):
    # buffered, the report fails in the flush and its bytes stay in the
    # buffer, where the flush at exit would fail again; unbuffered, in the write
    with open("/dev/full", "w") as full:
        argv = ["compute", "--input", str(suspect_csv), "--mode", "exact"]
        proc = cold(argv, env, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err


def test_an_os_error_outside_the_write_is_not_called_one(monkeypatch, suspect_csv):
    from evidential import cli

    def out_of_descriptors(studies, mode):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(cli, "build_rows", out_of_descriptors)
    code, out, err = run(["compute", "--input", str(suspect_csv)])
    assert (code, out, err) == (1, "", "error: [Errno 24] Too many open files\n")


def test_a_value_error_in_evaluation_is_a_computation_error(monkeypatch, tmp_path):
    # a math domain error names its study and exits 1, as an overflow does
    from evidential import geometry

    def domain_error(study):
        raise ValueError("math domain error")

    monkeypatch.setattr(geometry, "variance_profile", domain_error)
    path = tmp_path / "one.csv"
    path.write_bytes(HEADER_LINE + b"a,20,1,2,3,1,1,1\n")
    code, out, err = run(["compute", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: study 'a': math domain error\n")


def test_a_closed_pipe_exits_1_without_a_message(suspect_csv):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = cold(["compute", "--input", str(suspect_csv)], stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


# --- entry point -------------------------------------------------------------------

def test_main_dispatches(capsys):
    assert main(["threshold", "--v", "2"]) == 0
    assert capsys.readouterr().out == "0.3191, 0.2504\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compute"])  # missing --input
    assert exc.value.code == 2
