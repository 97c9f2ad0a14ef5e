import json
import subprocess
import sys

import pytest

from countsample.bench import CSV_HEADER, rows_from_csv
from countsample import verify
from countsample.cli import EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
from countsample.oracle import PairCopyOracle
from countsample.verify import VERIFY_SUITES


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSampleCommand:
    def test_writes_sample_and_trace(self, tmp_path):
        out = tmp_path / "sample.json"
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "sample",
                "--oracle",
                "builtin:table:n=4,q=2,seed=3",
                "--mode",
                "efficient",
                "--seed",
                "11",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert rc == EXIT_OK
        payload = read_json(out)
        assert len(payload["values"]) == 4
        tr = read_json(trace)
        assert set(tr) == {"rounds", "total_queries", "a_history", "per_round"}

    def test_modes_agree_bitwise(self, tmp_path):
        payloads = []
        for mode in ("sequential", "efficient", "parallel"):
            out = tmp_path / f"{mode}.json"
            rc = main(
                [
                    "sample",
                    "--oracle",
                    "builtin:markov:n=12,q=2,seed=5",
                    "--mode",
                    mode,
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            assert rc == EXIT_OK
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for k in range(2):
            out = tmp_path / f"run{k}.json"
            main(["sample", "--oracle", "builtin:product:n=6,q=3,seed=1", "--seed", "7", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_product_parallel_one_round(self, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "sample",
                "--oracle",
                "builtin:product:n=8,q=2",
                "--mode",
                "parallel",
                "--trace",
                str(trace),
            ]
        )
        assert rc == EXIT_OK
        assert read_json(trace)["rounds"] == 1

    def test_missing_oracle_flag_is_usage_error(self, capsys):
        assert main(["sample", "--mode", "sequential"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_bad_oracle_file_is_oracle_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sample", "--oracle", str(bad)]) == EXIT_ORACLE
        assert "error" in capsys.readouterr().err

    def test_unknown_builtin_is_oracle_error(self):
        assert main(["sample", "--oracle", "builtin:nope:n=3"]) == EXIT_ORACLE

    @pytest.mark.parametrize("params", ["n=0,q=2", "n=-5,q=2", "n=8,q=-3", "n=8,q=0"])
    def test_empty_chain_is_oracle_error(self, params, tmp_path, capsys):
        out = tmp_path / "sample.json"
        rc = main(["sample", "--oracle", f"builtin:markov:{params}", "--out", str(out)])
        assert rc == EXIT_ORACLE
        assert "n and q must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_product_is_oracle_error(self, tmp_path, capsys):
        out = tmp_path / "sample.json"
        rc = main(["sample", "--oracle", "builtin:product:n=0", "--out", str(out)])
        assert rc == EXIT_ORACLE
        assert "n and q must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_file_roundtrip(self, tmp_path):
        from countsample.families import random_table

        oracle = random_table(3, 2, seed=8)
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(oracle.to_json()))
        out = tmp_path / "s.json"
        assert main(["sample", "--oracle", str(path), "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert len(read_json(out)["values"]) == 3


class TestBenchCommand:
    def test_csv_schema(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        fit_path = tmp_path / "fit.json"
        rc = main(
            [
                "bench",
                "--oracle-family",
                "markov",
                "--n-list",
                "16,32",
                "--q",
                "2",
                "--reps",
                "3",
                "--seed",
                "5",
                "--csv",
                str(csv_path),
                "--fit",
                str(fit_path),
            ]
        )
        assert rc == EXIT_OK
        text = csv_path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        rows = rows_from_csv(text)
        assert len(rows) == 6
        fit = read_json(fit_path)
        assert set(fit) == {"exponent", "intercept", "r_squared"}

    def test_single_rep_single_n(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        rc = main(
            ["bench", "--oracle-family", "paircopy", "--n-list", "8", "--reps", "1", "--csv", str(csv_path)]
        )
        assert rc == EXIT_OK
        assert len(csv_path.read_text().splitlines()) == 2

    def test_reproducible_modulo_wall_time(self, tmp_path):
        texts = []
        for k in range(2):
            p = tmp_path / f"b{k}.csv"
            main(
                ["bench", "--oracle-family", "markov", "--n-list", "16", "--reps", "2", "--seed", "1", "--csv", str(p)]
            )
            rows = [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
            texts.append(rows)
        assert texts[0] == texts[1]

    def test_bad_n_list(self, capsys):
        assert main(["bench", "--oracle-family", "markov", "--n-list", "a,b", "--csv", "/tmp/x.csv"]) == EXIT_USAGE
        capsys.readouterr()


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
    def test_suites_pass(self, suite, tmp_path):
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", suite, "--seed", "0", "--report", str(report)])
        assert rc == EXIT_OK
        data = read_json(report)
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])
        names = [c["name"] for c in data["checks"]]
        assert len(names) == len(set(names)), names

    def test_oracle_crash_is_not_scored_as_zero(self, monkeypatch):
        class Crashing(PairCopyOracle):
            def _marginal_probs(self, target, pins):
                raise IndexError("oracle bug")

        monkeypatch.setattr(verify, "pair_copy", lambda n, q: Crashing(n, q))
        with pytest.raises(IndexError):
            verify.run_suite("oracle-consistency", 0)

    def test_unknown_suite_usage_error(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE
        capsys.readouterr()


class TestHardnessCommand:
    def test_gen_query_probe_cycle(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        rc = main(
            ["hardness", "gen", "--n", "16", "--seed", "5", "--override", "2,8,2,4", "--out", str(inst)]
        )
        assert rc == EXIT_OK
        data = read_json(inst)
        assert data["n"] == 16 and data["r"] == 2

        rc = main(["hardness", "query", "--instance", str(inst), "--pin", ""])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "6"

        # pin everything to an off-support string eventually prints ZERO
        rc = main(["hardness", "query", "--instance", str(inst), "--pin", ",".join(f"{i}=0" for i in range(16))])
        out = capsys.readouterr().out.strip()
        assert rc == EXIT_OK
        assert out == "ZERO" or out.lstrip("-").isdigit()

        probe = tmp_path / "probe.json"
        rc = main(["hardness", "probe", "--instance", str(inst), "--trials", "100", "--seed", "2", "--out", str(probe)])
        assert rc == EXIT_OK
        assert len(read_json(probe)["blocks"]) == 2

    def test_sample_from_hardness_instance_file(self, tmp_path):
        inst = tmp_path / "inst.json"
        main(["hardness", "gen", "--n", "16", "--seed", "5", "--override", "2,8,2,4", "--out", str(inst)])
        out = tmp_path / "s.json"
        rc = main(["sample", "--oracle", str(inst), "--seed", "4", "--mode", "parallel", "--out", str(out)])
        assert rc == EXIT_OK
        assert len(read_json(out)["values"]) == 16

    def test_gen_infeasible_exit_two(self, capsys):
        rc = main(["hardness", "gen", "--n", "64", "--c", "1", "--seed", "0", "--out", "/tmp/never.json"])
        assert rc == EXIT_ORACLE
        assert "a_r >= m" in capsys.readouterr().err

    def test_malformed_override_is_usage_error(self, capsys):
        rc = main(["hardness", "gen", "--n", "16", "--override", "2,8,zap", "--out", "/tmp/x.json"])
        assert rc == EXIT_USAGE
        assert "override" in capsys.readouterr().err

    def test_an_instance_missing_a_code_exits_two(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["hardness", "gen", "--n", "16", "--seed", "5", "--override", "2,8,2,4", "--out", str(inst)])
        data = read_json(inst)
        data["codes"] = data["codes"][:1]
        inst.write_text(json.dumps(data))
        assert main(["sample", "--oracle", str(inst), "--seed", "4", "--out", str(tmp_path / "s.json")]) == EXIT_ORACLE
        assert main(["hardness", "query", "--instance", str(inst), "--pin", "0=1"]) == EXIT_ORACLE
        assert capsys.readouterr().out == ""

    def test_bad_pin_syntax(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["hardness", "gen", "--n", "16", "--seed", "5", "--override", "2,8,2,4", "--out", str(inst)])
        rc = main(["hardness", "query", "--instance", str(inst), "--pin", "zap"])
        assert rc == EXIT_ORACLE
        capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "countsample.cli", "sample", "--oracle", "builtin:product:n=4,q=2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4
