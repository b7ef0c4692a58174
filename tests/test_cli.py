"""Front-end contract: flags, exit codes, documents, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from bvlab import cli, pipelines, statevector
from bvlab.bitstring import BitString
from bvlab.oracles import OracleKind
from bvlab.truthtable import bv_function, dump_table, pi_function


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BVLAB_THREADS", raising=False)


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr().out
    return status, out


def usage_error(capsys, *argv):
    """Exit code, stdout and stderr of one invocation."""
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    return status, json.loads(out)


def test_run_with_planted_key(capsys):
    status, doc = run_json(
        capsys, "run", "--algorithm", "ccnot-bva", "--gamma", "101"
    )
    assert status == 0
    assert doc["recovered"] == "101"
    assert doc["expected"] == "101"
    assert doc["matches"] is True
    assert doc["oracle_calls"] == 2
    assert doc["top_distribution"] == {"101": 1.0}
    assert all(c["ok"] for c in doc["stage_checks"])


def test_run_pi_reports_middle(capsys):
    status, doc = run_json(capsys, "run", "--algorithm", "pi", "--gamma", "0")
    assert status == 0
    assert doc["recovered"] == "0"
    assert doc["middle_distribution"] == {"0": 1.0}


def test_run_text_format(capsys):
    status, out = run_cli(
        capsys, "run", "--algorithm", "bva", "--gamma", "11", "--format", "text"
    )
    assert status == 0
    assert "recovered     11" in out
    assert "top distribution" in out
    assert "stage checks" in out


def test_run_from_promise_keeping_table(tmp_path, capsys):
    path = tmp_path / "f.tbl"
    path.write_text(dump_table(bv_function(BitString.parse("011"))))
    status, doc = run_json(
        capsys, "run", "--algorithm", "single-oracle-bva", "--table", str(path)
    )
    assert status == 0
    assert doc["recovered"] == "011"
    assert doc["promise_verified"] is True


def test_run_from_shifted_promise_table(tmp_path, capsys):
    path = tmp_path / "f.tbl"
    path.write_text(dump_table(pi_function(BitString.parse("110"))))
    status, doc = run_json(capsys, "run", "--algorithm", "pi", "--table", str(path))
    assert status == 0
    assert doc["promise_verified"] is True


def test_run_constant_one_table_fails(tmp_path, capsys):
    path = tmp_path / "const1.tbl"
    path.write_text("arity 2\n1111\n")
    status, doc = run_json(capsys, "run", "--algorithm", "bva", "--table", str(path))
    assert status == 1
    assert doc["promise_verified"] is False
    assert doc["recovered"] == "00"  # the run itself was deterministic


def test_run_non_deterministic_table_fails(tmp_path, capsys):
    path = tmp_path / "and.tbl"
    path.write_text("arity 2\n0001\n")
    status, doc = run_json(capsys, "run", "--algorithm", "bva", "--table", str(path))
    assert status == 1
    assert doc["recovered"] is None
    assert "failure" in doc


def test_run_usage_errors(tmp_path, capsys):
    status, _ = run_cli(capsys, "run", "--algorithm", "bva", "--gamma", "12")
    assert status == 2
    assert run_cli(
        capsys, "run", "--algorithm", "bva", "--gamma", "101", "--seed", "-1"
    ) == (2, "")
    status, _ = run_cli(
        capsys, "run", "--algorithm", "bva", "--table", str(tmp_path / "none.tbl")
    )
    assert status == 2
    bad = tmp_path / "bad.tbl"
    bad.write_text("arity 2\n01\n")
    status, _ = run_cli(capsys, "run", "--algorithm", "bva", "--table", str(bad))
    assert status == 2
    for tol in ("nan", "inf", "-1"):
        status, out, err = usage_error(
            capsys, "run", "--algorithm", "bva", "--gamma", "1", f"--tolerance={tol}"
        )
        assert (status, out) == (2, ""), tol
        assert "--tolerance" in err, tol
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algorithm", "bva"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--algorithm", "nope", "--gamma", "1"])
    assert exc.value.code == 2


def test_run_seeded_sample(capsys):
    status, doc = run_json(
        capsys, "run", "--algorithm", "bva", "--gamma", "110", "--seed", "9"
    )
    assert status == 0
    assert doc["sample"] == "110"  # point mass: any seed lands on the key


def test_output_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status, out = run_cli(
        capsys,
        "run", "--algorithm", "bva", "--gamma", "10", "--output", str(out_path),
    )
    assert status == 0
    assert out == ""
    assert json.loads(out_path.read_text())["recovered"] == "10"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    status, out, err = usage_error(
        capsys, "run", "--algorithm", "bva", "--gamma", "1", "--output", str(target)
    )
    assert (status, out) == (2, "")
    assert str(target) in err
    assert not target.exists()


def test_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("computed a document that cannot be written")

    for name in cli.ALGORITHMS:
        monkeypatch.setitem(cli.ALGORITHMS, name, (must_not_run, must_not_run))
    monkeypatch.setattr(cli, "run_all", must_not_run)
    monkeypatch.setattr(cli, "oracle_dense_matrix", must_not_run)
    a_file = tmp_path / "plain"
    a_file.write_text("")
    targets = {
        tmp_path / "missing" / "x.json": "No such file or directory",
        a_file / "x.json": "Not a directory",
        tmp_path: "Is a directory",
    }
    commands = [
        ["run", "--algorithm", "ccnot-bva", "--gamma", "1" * 20],
        ["sweep", "--n", "8"],
        ["certify", "--n", "4"],
        ["trace", "--algorithm", "pi", "--gamma", "101"],
    ]
    for target, reason in targets.items():
        for argv in commands:
            status, out, err = usage_error(capsys, *argv, "--output", str(target))
            assert (status, out) == (2, ""), argv
            assert err == f"error: cannot write --output {target}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_certify_exhaustive(capsys):
    status, doc = run_json(capsys, "certify", "--n", "2")
    assert status == 0
    assert doc["mode"] == "exhaustive"
    assert doc["functions_per_kind"] == 16
    assert doc["all_passed"] is True
    assert sorted(doc["kinds"]) == [
        "phase", "single-xor", "standard-bv", "toffoli", "two-register",
    ]
    entry = doc["kinds"]["phase"]
    assert entry["structure"] == "signed-diagonal"
    assert entry["unitary_failures"] == 0
    assert doc["kinds"]["toffoli"]["structure"] == "permutation"


def test_certify_random_mode(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CERTIFY_RANDOM_COUNT", 5)
    status, doc = run_json(capsys, "certify", "--n", "4", "--seed", "3")
    assert status == 0
    assert doc["mode"] == "random"
    assert doc["functions_per_kind"] == 5


def test_certify_random_documents_name_their_seed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CERTIFY_RANDOM_COUNT", 5)
    docs = [run_json(capsys, "certify", "--n", "4", "--seed", s)[1] for s in "03"]
    assert [doc["seed"] for doc in docs] == [0, 3]
    assert list(docs[1])[:3] == ["n", "mode", "seed"]
    status, text = run_cli(
        capsys, "certify", "--n", "4", "--seed", "3", "--format", "text"
    )
    assert status == 0
    assert text.startswith("oracle certification  n=4  mode=random  seed=3  ")
    # Exhaustive mode draws nothing, so it names no seed.
    assert "seed" not in run_json(capsys, "certify", "--n", "2", "--seed", "3")[1]
    text = run_cli(capsys, "certify", "--n", "2", "--format", "text")[1]
    assert "seed" not in text


def test_certify_capacity_and_usage(capsys):
    assert run_cli(capsys, "certify", "--n", "5")[0] == 2
    assert run_cli(capsys, "certify", "--n", "0")[0] == 2
    assert run_cli(capsys, "certify", "--n", "4", "--seed", "-1") == (2, "")
    for tol in ("-1", "nan", "-inf"):
        status, out, err = usage_error(
            capsys, "certify", "--n", "1", f"--tolerance={tol}"
        )
        assert (status, out) == (2, ""), tol
        assert "--tolerance" in err, tol


def test_oversize_certify_and_sweep_state_their_size_as_a_power_of_two(capsys):
    # 2**(2**14) and 2**16001 have more digits than int -> str converts.
    for argv, size in (
        (["certify", "--n", "14"], "would take 2**61 bytes"),
        (["sweep", "--n", "8000"], "would hold 2**16001 amplitudes"),
    ):
        status, out, err = usage_error(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(f"{size}\n"), err


def test_sweep_and_trace_refuse_a_bad_tolerance(capsys):
    for argv in (
        ["sweep", "--n", "1", "--tolerance=nan"],
        ["trace", "--algorithm", "pi", "--gamma", "1", "--tolerance=-1e-9"],
    ):
        status, out, err = usage_error(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert "--tolerance" in err, argv


def test_certify_tamper_hook_is_caught(capsys, monkeypatch):
    # Bend one entry of every two-register matrix: certification must fail.
    dense = cli.oracle_dense_matrix

    def bent(kind, f):
        matrix = dense(kind, f)
        if kind is OracleKind.TWO_REGISTER:
            matrix[0, 1] = 1.0 - matrix[0, 1]
        return matrix

    monkeypatch.setattr(cli, "oracle_dense_matrix", bent)
    status, doc = run_json(capsys, "certify", "--n", "1")
    assert status == 1
    assert doc["all_passed"] is False
    broken = doc["kinds"]["two-register"]
    assert broken["unitary_failures"] == 4  # every function's matrix was bent
    assert doc["kinds"]["toffoli"]["unitary_failures"] == 0


@pytest.mark.parametrize("bend", [False, True])
def test_certify_reads_each_oracle_matrix_once(capsys, monkeypatch, bend):
    # One signed-permutation read per matrix gives all three verdicts.  A
    # bent two-register matrix is no signed permutation, so its verdicts
    # come from the dense paths, with no second read.
    monkeypatch.setattr(cli, "CERTIFY_RANDOM_COUNT", 5)
    read = statevector._signed_permutation
    reads = []

    def counted(m):
        reads.append(len(m))
        return read(m)

    monkeypatch.setattr(statevector, "_signed_permutation", counted)
    dense = cli.oracle_dense_matrix

    def bent(kind, f):
        matrix = dense(kind, f)
        if bend and kind is OracleKind.TWO_REGISTER:
            matrix[0, 1] = 1.0 - matrix[0, 1]
        return matrix

    monkeypatch.setattr(cli, "oracle_dense_matrix", bent)
    status, doc = run_json(capsys, "certify", "--n", "4")
    assert len(reads) == 25
    assert status == (1 if bend else 0)
    assert doc["kinds"]["two-register"]["unitary_failures"] == (5 if bend else 0)


@pytest.mark.parametrize("row, col, value", [(0, 511, 1.0), (511, 0, float("nan"))])
def test_certify_catches_an_entry_in_a_zero_tile(capsys, monkeypatch, row, col, value):
    # Each 512 x 512 two-register matrix at n = 4 is block-diagonal in 2 x 2
    # blocks, so [0, 511] and [511, 0] lie in tiles that are otherwise zero.
    dense = cli.oracle_dense_matrix

    def bent(kind, f):
        matrix = dense(kind, f)
        if kind is OracleKind.TWO_REGISTER:
            matrix[row, col] = value
        return matrix

    monkeypatch.setattr(cli, "oracle_dense_matrix", bent)
    status, doc = run_json(capsys, "certify", "--n", "4")
    assert status == 1
    assert doc["all_passed"] is False
    failures = {key: count for key, count in doc["kinds"]["two-register"].items()
                if key.endswith("_failures")}
    assert failures == {"unitary_failures": 100, "hermitian_failures": 100,
                        "structure_failures": 100}
    assert doc["kinds"]["toffoli"]["unitary_failures"] == 0


def test_sweep(capsys):
    status, doc = run_json(capsys, "sweep", "--n", "2")
    assert status == 0
    assert doc["keys"] == 4
    assert doc["runs"] == 16
    assert doc["successes"] == 16
    assert doc["failures"] == []
    assert doc["all_passed"] is True
    assert doc["per_algorithm"]["bva"] == {"successes": 4, "oracle_calls": 4}
    assert doc["per_algorithm"]["ccnot-bva"] == {"successes": 4, "oracle_calls": 8}


def test_sweep_applies_each_first_layer_once(capsys, monkeypatch):
    layer, calls = pipelines.apply_hadamard_layer, []

    def count(state, qubits):
        calls.append(state.qubits)
        return layer(state, qubits)

    monkeypatch.setattr(pipelines, "apply_hadamard_layer", count)
    status, doc = run_json(capsys, "sweep", "--n", "3")
    assert status == 0 and doc["all_passed"] is True
    # One first layer per register layout (ccnot-bva and single-oracle-bva
    # share one), then each of the 8 x 4 runs' last layer.
    assert len(calls) == 3 + 32


def test_sweep_cap(capsys):
    assert run_cli(capsys, "sweep", "--n", "13")[0] == 2
    assert run_cli(capsys, "sweep", "--n", "4", "--cap", "3")[0] == 2


def test_sweep_thread_env(capsys, monkeypatch):
    # n=6 gives the two workers 64 keys, up to 13-qubit states, so their
    # runs interleave; n=8 reaches 17-qubit states, whose Hadamard layers
    # span several tiles while both workers' products may use BLAS threads.
    for n, threads in (("2", "4"), ("6", "2"), ("8", "2")):
        monkeypatch.setenv("BVLAB_THREADS", "1")
        status, serial = run_cli(capsys, "sweep", "--n", n)
        assert status == 0
        monkeypatch.setenv("BVLAB_THREADS", threads)
        status, threaded = run_cli(capsys, "sweep", "--n", n)
        assert status == 0
        assert serial == threaded, n
    # With the split size lowered to 17 qubits, both sweep workers split
    # their layers and compares on the shared pool.
    monkeypatch.setattr(statevector, "_SPLIT", 1 << 17)
    monkeypatch.setattr(statevector, "_usable_cpus", lambda: 2)
    walk, parts = statevector._walk, []

    def spy(count, step, buffers):
        parts.append(len(buffers))
        walk(count, step, buffers)

    monkeypatch.setattr(statevector, "_walk", spy)
    documents = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        parts.clear()
        status, out = run_cli(capsys, "sweep", "--n", "8")
        assert status == 0
        documents.append(out)
        assert max(parts) == int(threads)
    assert documents[0] == documents[1]
    monkeypatch.setenv("BVLAB_THREADS", "zero")
    assert run_cli(capsys, "sweep", "--n", "2")[0] == 2


@pytest.mark.parametrize("value", ["zero", "0", "-2", "1.5"])
def test_bad_thread_env_is_a_usage_error_on_every_command(capsys, monkeypatch, value):
    monkeypatch.setenv("BVLAB_THREADS", value)
    for argv in (
        ("run", "--algorithm", "bva", "--gamma", "101"),
        ("trace", "--algorithm", "pi", "--gamma", "1"),
        ("sweep", "--n", "2"),
        ("certify", "--n", "1"),
    ):
        status, out, err = usage_error(capsys, *argv)
        assert (status, out) == (2, ""), argv
        assert "BVLAB_THREADS" in err and "Traceback" not in err, argv


def test_sweep_workers_count_usable_cpus(capsys, monkeypatch):
    # A cpuset-limited container: os.cpu_count() is the host's 64 cores,
    # but the process may run on one.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    sizes = []
    pool_type = cli.ThreadPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return pool_type(max_workers=max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
    assert run_cli(capsys, "sweep", "--n", "3")[0] == 0
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setenv("BVLAB_THREADS", "5")
    assert run_cli(capsys, "sweep", "--n", "3")[0] == 0
    assert sizes == [1, 5]


# md5 of each document as the serial walks wrote it.
_SPLIT_DOCUMENTS = {
    ("run", "--algorithm", "ccnot-bva", "--gamma", "00101111001011011001"):
        "d93e88333931d990cf1c462cce219748",
    ("run", "--algorithm", "pi", "--gamma", "0000101001"):
        "bd17116abb11465db2393762d314fd9d",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_split_runs_keep_their_documents(threads):
    # The 22- and 21-qubit states of these runs split their layers and
    # compares wherever the host has two usable CPUs.
    for argv, md5 in _SPLIT_DOCUMENTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "bvlab", *argv],
            env=dict(os.environ, BVLAB_THREADS=threads),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.md5(proc.stdout).hexdigest() == md5, argv


def test_trace_stages_and_checks(capsys):
    status, doc = run_json(
        capsys, "trace", "--algorithm", "ccnot-bva", "--gamma", "11"
    )
    assert status == 0
    assert [s["name"] for s in doc["stages"]] == [
        "initial",
        "after-h-layer",
        "after-flip-oracle",
        "after-phase-oracle",
        "final",
    ]
    assert doc["all_checks_ok"] is True
    assert doc["recovered"] == "11"
    # The starting stage is one amplitude on |0...0 0 1>.
    assert doc["stages"][0]["state"] == ["0001\t1.000000000000\t0.000000000000"]
    assert all(c["ok"] for s in doc["stages"] for c in s["checks"])


def test_trace_pi_records_both_oracle_comparators(capsys):
    status, doc = run_json(capsys, "trace", "--algorithm", "pi", "--gamma", "10")
    assert status == 0
    oracle_stage = [s for s in doc["stages"] if s["name"] == "after-oracle"][0]
    assert len(oracle_stage["checks"]) == 2


def test_trace_cap(capsys):
    assert run_cli(
        capsys, "trace", "--algorithm", "bva", "--gamma", "1" * 9
    )[0] == 2


def test_text_renderers_smoke(capsys):
    for argv in (
        ["certify", "--n", "1", "--format", "text"],
        ["sweep", "--n", "1", "--format", "text"],
        ["trace", "--algorithm", "single-oracle-bva", "--gamma", "1",
         "--format", "text"],
    ):
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert "pass" in out


def test_repeat_invocations_are_identical(capsys):
    first = run_cli(capsys, "run", "--algorithm", "pi", "--gamma", "101",
                    "--seed", "42")
    second = run_cli(capsys, "run", "--algorithm", "pi", "--gamma", "101",
                     "--seed", "42")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bvlab", "run", "--algorithm", "bva",
         "--gamma", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["recovered"] == "1"


# The standard-library modules that bvlab's sources import by name.  What
# these and numpy load in turn is measured, not listed.
_STDLIB_IMPORTS = (
    "__future__", "argparse", "concurrent.futures.thread", "dataclasses", "enum",
    "errno", "functools", "json", "math", "operator", "os", "pathlib", "re", "sys",
    "typing",
)


def _loaded_modules(code):
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_importing_the_cli_loads_nothing_beyond_bvlab_numpy_and_named_stdlib():
    # Every CLI call pays for its imports: in a fresh interpreter, importing
    # bvlab.cli loads only bvlab itself and what a bare interpreter loads
    # for numpy and the standard-library modules named above.
    ours = _loaded_modules("import bvlab.cli")
    base = _loaded_modules("import numpy, " + ", ".join(_STDLIB_IMPORTS))
    extra = [m for m in ours - base if m.partition(".")[0] != "bvlab"]
    assert sorted(extra) == []
