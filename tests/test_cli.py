"""End-to-end command-line behavior, driven in-process through main()."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crossvec import Family, family_from_text, inductive_lift, save_family, verify
from crossvec.cli import _HANDLERS, _SUBCOMMANDS, build_parser, main

from helpers import brute_max_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    """Parse tab-separated key/value lines into a dict (last wins)."""
    pairs = {}
    for line in out.splitlines():
        if "\t" in line:
            key, _, val = line.partition("\t")
            pairs[key] = val
    return pairs


class TestConstructVerifyPipeline:
    @pytest.mark.parametrize(
        "argv,k",
        [
            (("--kind", "product", "--k", "3", "--w", "4"), 3),
            (("--kind", "lex", "--k", "3", "--w", "3", "--coord-seq", "1,2"), 3),
            (("--kind", "cyclic", "--k", "5", "--target-rank", "9"), 5),
            (
                ("--kind", "cyclic", "--k", "4", "--target-rank", "7", "--with-fixup"),
                4,
            ),
            (("--kind", "nonranked"), 2),
            (("--kind", "weak", "--k", "4"), 4),
            (("--kind", "genproduct", "--ks", "2,2,4"), None),
        ],
    )
    def test_constructions_verify(self, capsys, tmp_path, argv, k):
        fam_path = tmp_path / "fam.txt"
        code, out, err = run_cli(capsys, "construct", *argv, "--out", str(fam_path))
        assert code == 0 and err == ""
        thresholds = ("--k", str(k)) if k is not None else ("--ks", "2,2,4")
        code, out, err = run_cli(
            capsys, "verify", "--input", str(fam_path), *thresholds
        )
        assert code == 0
        assert "verified" in out

    def test_construct_to_stdout_and_lift(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "product", "--k", "2", "--w", "2"
        )
        assert code == 0
        base = family_from_text(out)
        shifted = base.translate((0, 1))  # into [0,2)^2 for the lift
        base_path = tmp_path / "base.txt"
        base_path.write_text("w 2\n" + "".join(
            " ".join(str(c) for c in v) + "\n" for v in shifted
        ))
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "lift",
            "--k", "2", "--input", str(base_path), "--shift", "2",
        )
        assert code == 0
        lifted = family_from_text(out)
        assert len(lifted) == 4 and lifted.width == 3
        assert verify(lifted, 2).ok

    def test_verify_failure_lists_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("w 2\n0 2\n2 0\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(bad), "--k", "2")
        assert code == 1
        assert "violation\tcrossing" in out

    def test_negative_violation_cap_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("w 2\n0 2\n2 0\n")
        code, out, err = run_cli(
            capsys, "verify", "--input", str(bad), "--k", "2", "--violation-cap", "-1"
        )
        assert code == 2
        assert out == ""
        assert "violation_cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--input", "-", "--k", "2", "--deterministic"),
            ("bound", "--k", "2", "--w", "3", "--deterministic"),
            ("construct", "--kind", "product", "--k", "2", "--w", "2", "--format", "records"),
        ],
    )
    def test_flags_a_command_does_not_read_are_refused(self, capsys, argv):
        # Only search takes --deterministic, and construct writes a family
        # file, not a table: argparse refuses the flag with exit code 2.
        with pytest.raises(SystemExit) as ei:
            main(list(argv))
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,unread",
        [
            (
                ("--kind", "product", "--k", "2", "--w", "2", "--shift", "5",
                 "--with-fixup", "--coord-seq", "1"),
                "--coord-seq, --with-fixup, --shift",
            ),
            (("--kind", "product", "--k", "2", "--w", "2", "--ks", "2,2"), "--ks"),
            (("--kind", "lex", "--k", "2", "--w", "2", "--target-rank", "3"), "--target-rank"),
            (("--kind", "cyclic", "--k", "4", "--target-rank", "7", "--w", "3"), "--w"),
            (("--kind", "lift", "--k", "2", "--input", "base.txt", "--shift", "2",
              "--w", "3"), "--w"),
            (("--kind", "weak", "--k", "3", "--coord-seq", "1"), "--coord-seq"),
            (("--kind", "nonranked", "--k", "0"), "--k"),
            (("--kind", "nonranked", "--with-fixup"), "--with-fixup"),
            (("--kind", "genproduct", "--ks", "2,3", "--k", "2"), "--k"),
            (("--kind", "genproduct", "--ks", "2,3", "--w", "2", "--input", "base.txt"), "--input"),
        ],
    )
    def test_construct_refuses_flags_its_kind_does_not_read(
        self, capsys, tmp_path, monkeypatch, argv, unread
    ):
        # Each kind reads only its own flags (and --out); any other given
        # flag is refused before the family file is written.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "construct", *argv, "--out", "fam.txt")
        kind = argv[1]
        assert (code, out, err) == (2, "", f"error: --kind {kind} takes no {unread}\n")
        assert not (tmp_path / "fam.txt").exists()

    def test_fixup_for_wrong_residue_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "cyclic",
            "--k", "5", "--target-rank", "9", "--with-fixup",
        )
        assert code == 2
        assert "error" in err


class TestSearchCommand:
    def test_target_found(self, capsys, tmp_path):
        wit = tmp_path / "wit.txt"
        code, out, _ = run_cli(
            capsys, "search", "--k", "2", "--w", "3", "--target", "4",
            "--witness-out", str(wit), "--deterministic",
        )
        assert code == 0
        rec = records(out)
        assert "# witness" in out
        fam = family_from_text(wit.read_text())
        assert len(fam) == 4 and verify(fam, 2).ok

    def test_target_refuted_cites_compression_box(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "2", "--w", "3", "--target", "5",
            "--format", "records",
        )
        assert code == 1
        rec = records(out)
        assert rec["found"] == "no"
        assert rec["exhaustive"] == "yes"
        assert rec["box"] == "[0,4]^3"
        assert (
            "note: no family of size 5 in box [0,4]^3; refutation is global, "
            "as the box contains [0,4]^3;" in out
        )
        assert "certificate: exhaustive" in out

    @pytest.mark.parametrize(
        "ks,size,nodes,box,in_readme",
        (
            ("2,3,3", "9", "1903", "[0,9]^3", True),
            ("1,2,3", "6", "150", "[0,6]^3", False),
            ("2,3,4", "12", "23453", "[0,12]^3", True),
            ("2,2,5", "10", "14046", "[0,10]^3", True),
        ),
        ids=("2-3-3", "1-2-3", "2-3-4", "2-2-5"),
    )
    def test_per_coordinate_thresholds_certify(self, capsys, ks, size, nodes, box, in_readme):
        code, out, _ = run_cli(
            capsys, "search", "--ks", ks, "--w", "3", "--deterministic",
            "--format", "records",
        )
        assert code == 0
        rec = records(out)
        assert rec["exhaustive"] == "yes"
        assert (rec["best_size"], rec["nodes"], rec["box"]) == (size, nodes, box)
        if in_readme:
            # README quotes this run as "--ks <ks> ... certifies <size> in
            # <nodes>", the nodes with thousands separators.
            text = " ".join(TestReadmeExamples.README.read_text().split())
            quoted = re.search(rf"--ks {ks}\b.*? certifies (\d+) in ([\d,]+)", text)
            assert quoted, ks
            assert (quoted[1], quoted[2]) == (rec["best_size"], f"{int(rec['nodes']):,}")

    def test_free_search_known_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "3", "--w", "2", "--format", "records"
        )
        assert code == 0
        assert records(out)["best_size"] == "3"

    def test_explicit_box_matches_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "2", "--w", "2", "--box", "4,4",
            "--format", "records",
        )
        # [0,4]^2 contains [0,2]^2, so its maximum f(2,2) = 2 is global.
        assert code == 0
        rec = records(out)
        assert rec["truncated"] == "no"
        assert rec["exhaustive"] == "yes"
        expect, _ = brute_max_family((2, 2), (4, 4))
        assert rec["best_size"] == str(expect)

    def test_ranked(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "2", "--w", "4", "--ranked",
            "--format", "records",
        )
        assert code == 0
        assert records(out)["best_size"] == "8"

    def test_truncation_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--k", "2", "--w", "3", "--target", "5",
            "--node-limit", "1", "--format", "records",
        )
        assert code == 3
        assert records(out)["truncated"] == "yes"

    def test_memory_guard_truncates(self, capsys):
        # A refused ranked search still reports its seed, the product family.
        for argv, best in (
            (("--k", "2", "--w", "2", "--target", "60", "--memory-mb", "0.1"), "0"),
            (("--k", "2", "--w", "4", "--ranked", "--memory-mb", "0.0001"), "8"),
        ):
            code, out, _ = run_cli(capsys, "search", *argv, "--format", "records")
            assert code == 3
            assert records(out)["truncated"] == "yes"
            assert records(out)["best_size"] == best
            assert "note:" in out

    def test_deterministic_is_byte_identical(self, capsys):
        argv = (
            "search", "--k", "2", "--w", "3", "--deterministic",
            "--workers", "4", "--format", "records",
        )
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed" not in out1

    def test_refuted_target_is_byte_identical(self, capsys):
        # Refuting f(3,3) = 10 searches the compression box [0,9]^3, well
        # within the default limits.
        argv = ("search", "--k", "3", "--w", "3", "--target", "10", "--deterministic")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 1
        assert out1 == out2
        assert "box         [0,9]^3" in out1
        # --box 9,9,9 is the compression box for target 10: the same
        # search, byte for byte, down to `exhaustive yes`.
        code3, out3, _ = run_cli(capsys, *argv, "--box", "9,9,9")
        assert code3 == 1 and out3 == out1
        assert "exhaustive  yes" in out1

    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "search", "--w", "3")
        assert code == 2 and "exactly one of --k or --ks" in err
        code, _, err = run_cli(
            capsys, "search", "--k", "2", "--ks", "2,2", "--w", "2"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "search", "--k", "2", "--w", "3", "--ranked", "--target", "4"
        )
        assert code == 2 and "--ranked" in err
        code, _, err = run_cli(
            capsys, "search", "--k", "2", "--w", "3", "--box", "4,4"
        )
        assert code == 2 and "width" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--ks", "2,3", "--w", "5"),
            ("construct", "--kind", "genproduct", "--ks", "2,3", "--w", "5"),
            ("search", "--ks", "2,3", "--w", "5"),
        ],
    )
    def test_w_must_match_the_thresholds(self, capsys, argv):
        # --ks sets the width; a different --w is refused, not ignored.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: thresholds have width 2, expected 5\n"

    def test_w_equal_to_the_thresholds_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--ks", "2,3", "--w", "2", "--format", "records")
        assert code == 0 and records(out)["w"] == "2"
        code, out, _ = run_cli(capsys, "construct", "--kind", "genproduct", "--ks", "2,3", "--w", "2")
        assert code == 0 and out == run_cli(capsys, "construct", "--kind", "genproduct", "--ks", "2,3")[1]

    def test_thresholds_in_any_order(self, capsys, tmp_path):
        # As in the library, --ks need only be positive.
        code, out, _ = run_cli(
            capsys, "search", "--ks", "3,2", "--w", "2", "--format", "records"
        )
        assert code == 0
        assert records(out)["best_size"] == "3"
        fam = tmp_path / "fam.txt"
        fam.write_text("w 2\n0 2\n1 1\n2 0\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(fam), "--ks", "3,2")
        assert code == 0 and "verified" in out
        code, out, _ = run_cli(capsys, "construct", "--kind", "genproduct", "--ks", "3,2")
        assert code == 0
        fam.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "--input", str(fam), "--ks", "3,2", "--format", "records"
        )
        assert code == 0 and records(out)["size"] == "3"
        # bound reports the thresholds as given, with the values of any order.
        code, out, _ = run_cli(capsys, "bound", "--ks", "3,2", "--format", "records")
        code23, out23, _ = run_cli(capsys, "bound", "--ks", "2,3", "--format", "records")
        assert code == code23 == 0
        rec, rec23 = records(out), records(out23)
        assert rec.pop("ks") == "3,2" and rec23.pop("ks") == "2,3"
        assert rec == rec23 and (rec["lower"], rec["upper"]) == ("3", "3")

    def test_width_zero_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "search", "--k", "2", "--w", "0")
        assert code == 2 and out == ""
        assert err == "error: w must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--workers", "0"),
            ("--workers", "-4"),
            ("--node-limit", "-5"),
            ("--time-limit", "-1"),
            ("--time-limit", "nan"),
            ("--memory-mb", "0"),
            ("--memory-mb", "-8"),
        ],
    )
    def test_bad_limits_are_usage_errors(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "search", "--k", "2", "--w", "3", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be")

    def test_zero_limits_are_accepted(self, capsys):
        # A zero budget is a valid (if useless) limit: the run is truncated.
        for flag in ("--node-limit", "--time-limit"):
            code, out, _ = run_cli(
                capsys, "search", "--k", "2", "--w", "3", flag, "0",
                "--format", "records",
            )
            assert code == 3
            assert records(out)["truncated"] == "yes"


class TestReadmeExamples:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def check_shown(self, capsys, command):
        # The README shows the first lines of each output, then "...".
        block = self.README.read_text().split(f"$ {command}\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        shown = list(itertools.takewhile(lambda line: line != "...", lines))
        code, out, _ = run_cli(capsys, *command.split()[1:])
        assert code == 0
        assert shown and out.splitlines()[: len(shown)] == shown

    @pytest.mark.parametrize(
        "command",
        ("crossvec search --k 2 --w 3 --deterministic", "crossvec bound --k 3 --w 4"),
    )
    def test_shown_output_lines(self, capsys, command):
        self.check_shown(capsys, command)

    def test_compress_example(self, capsys, tmp_path, monkeypatch):
        # lift35.txt: the inductive lift from {(0,)} to width 5 at k = 3,
        # each stage translated so that every coordinate minimum is 0.
        f = Family(1, [(0,)])
        for _ in range(4):
            c = max(max(v) for v in f) + 1
            f = inductive_lift(f, 3, c)
            f = f.translate([-min(v[i] for v in f) for i in range(f.width)])
        monkeypatch.chdir(tmp_path)
        save_family(f, "lift35.txt")
        self.check_shown(capsys, "crossvec compress --input lift35.txt --k 3 --coord 1")


class TestBoundCommand:
    def test_python_dash_m_from_checkout(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "crossvec", "bound", "--k", "2", "--w", "4"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        table = dict(line.split(None, 1) for line in proc.stdout.splitlines())
        assert table["lower"].strip() == "8" and table["upper"].strip() == "12"


    def test_table_frozen_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--k", "2", "--w", "4", "--format", "records"
        )
        assert code == 0
        rec = records(out)
        assert rec["lower"] == "8"
        assert rec["upper"] == "12"
        assert rec["candidate:recursive"] == "12"

    def test_table_and_records_same_numbers(self, capsys):
        _, table, _ = run_cli(capsys, "bound", "--k", "3", "--w", "4")
        _, recs, _ = run_cli(
            capsys, "bound", "--k", "3", "--w", "4", "--format", "records"
        )
        rec = records(recs)
        for key in ("lower", "upper"):
            assert any(
                line.split()[0] == key and line.split()[-1] == rec[key]
                for line in table.splitlines()
            )

    def test_generalized(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--ks", "1,3,5", "--format", "records"
        )
        assert code == 0
        rec = records(out)
        assert rec["lower"] == rec["upper"] == "15"
        assert rec["exact"] == "True"

    def test_no_trust_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--k", "2", "--w", "4",
            "--no-trust-exact", "--format", "records",
        )
        assert code == 0
        assert records(out)["upper"] == "15"

    def test_requires_w(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--k", "2")
        assert code == 2

    def test_thresholds_take_no_trust_flag(self, capsys):
        # --no-trust-exact steers only the uniform-k recursion; beside
        # --ks it would be ignored, so it is refused before any output.
        code, out, err = run_cli(capsys, "bound", "--ks", "2,2,2,2", "--no-trust-exact")
        assert (code, out, err) == (2, "", "error: --ks takes no --no-trust-exact\n")


class TestPosetCommand:
    POSET = "elements a1 a2 b1 b2\na1 < a2\nb1 < b2\n"

    def test_width_and_lattice(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(self.POSET)
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path), "--format", "records"
        )
        assert code == 0
        rec = records(out)
        assert rec["width"] == "2"
        assert rec["maximum_antichains"] == "4"
        assert rec["lattice_width"] == "2"

    def test_wide_antichain(self, capsys, tmp_path):
        # One elements line of 1,200 labels: width and enumeration both
        # go deeper than the default recursion limit.
        path = tmp_path / "p.txt"
        path.write_text("elements " + " ".join(f"x{i}" for i in range(1200)) + "\n")
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path), "--format", "records"
        )
        assert code == 0
        rec = records(out)
        assert (rec["width"], rec["maximum_antichains"], rec["lattice_width"]) == ("1200", "1", "1")

    def test_contains(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(self.POSET)
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path),
            "--contains", "2", "--format", "records",
        )
        assert code == 0
        assert records(out)["contains_k_plus_k"] == "yes"
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path),
            "--contains", "3", "--format", "records",
        )
        assert code == 1
        assert records(out)["contains_k_plus_k"] == "no"

    def test_reduce(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(self.POSET)
        out_path = tmp_path / "fam.txt"
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path),
            "--reduce", "2", "--out", str(out_path),
        )
        assert code == 0
        fam = family_from_text(out_path.read_text())
        assert fam == Family(2, [(1, 2), (2, 1)])

    def test_cap_truncation_exit(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(self.POSET)
        code, out, _ = run_cli(
            capsys, "poset", "--input", str(path),
            "--cap", "2", "--format", "records",
        )
        assert code == 3
        assert records(out)["lattice"] == "truncated"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--reduce", "0"), "--reduce must be at least 1"),
            (("--reduce", "-2", "--out", "fam.txt"), "--reduce must be at least 1"),
            (("--contains", "2", "--reduce", "1"), "--contains takes no --reduce or --out"),
            (("--contains", "2", "--out", "fam.txt"), "--contains takes no --reduce or --out"),
            (("--out", "fam.txt"), "--out requires --reduce"),
            (("--contains", "2", "--cap", "0"), "--contains takes no --cap"),
            (("--contains", "2", "--cap", "5"), "--contains takes no --cap"),
        ],
    )
    def test_flag_conflicts_refused_before_output(self, capsys, tmp_path, monkeypatch, flags, message):
        path = tmp_path / "p.txt"
        path.write_text(self.POSET)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "poset", "--input", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "fam.txt").exists()

    def test_parse_error_carries_line(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("elements a b\na < q\n")
        code, _, err = run_cli(capsys, "poset", "--input", str(path))
        assert code == 2
        assert "line 2" in err


class TestCompressCommand:
    def test_shifted_pair(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("w 2\n0 3\n1 2\n")
        code, out, _ = run_cli(
            capsys, "compress", "--input", str(path),
            "--k", "2", "--coord", "2", "--format", "records",
        )
        assert code == 0
        rec = records(out)
        assert rec["coord_sum_before"] == "5"
        assert rec["coord_sum_after"] == "1"
        assert rec["levels"] == "0 1"
        assert family_from_text(out[out.index("w 2") :]) == Family(
            2, [(0, 1), (1, 0)]
        )

    def test_family_parse_error(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("w 2\n0 1\n0 1\n")
        code, _, err = run_cli(
            capsys, "compress", "--input", str(path), "--k", "2", "--coord", "1"
        )
        assert code == 2
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "compress", "--input", "no/such/file", "--k", "2", "--coord", "1"
        )
        assert code == 2

    # Verifies for ks = (1,3,1), and the uniform k = 3 compresses it to a
    # family that does not.
    MIXED = "w 3\n0 2 0\n9 1 0\n11 0 1\n"

    def test_per_coordinate_thresholds(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(self.MIXED)
        code, out, err = run_cli(
            capsys, "compress", "--input", str(path), "--ks", "1,3,1", "--coord", "1"
        )
        assert (code, err) == (0, "")
        fam = family_from_text(out[out.index("w 3") :])
        assert fam == Family(3, [(0, 2, 0), (1, 0, 1), (1, 1, 0)])
        assert verify(fam, (1, 3, 1)).ok

    def test_uniform_threshold_output_unchanged(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(self.MIXED)
        code, out, _ = run_cli(
            capsys, "compress", "--input", str(path), "--k", "3", "--coord", "1"
        )
        assert code == 0
        fam = family_from_text(out[out.index("w 3") :])
        assert fam == Family(3, [(0, 0, 1), (0, 2, 0), (1, 1, 0)])
        assert not verify(fam, (1, 3, 1)).ok

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--k", "3", "--ks", "1,3,1"), "exactly one of --k or --ks is required"),
            ((), "exactly one of --k or --ks is required"),
            (("--ks", "1,3"), "thresholds have width 2, expected 3"),
            (("--ks", "1,3,1,1"), "thresholds have width 4, expected 3"),
        ],
    )
    def test_threshold_flags_refused_before_output(self, capsys, tmp_path, monkeypatch, flags, message):
        path = tmp_path / "f.txt"
        path.write_text(self.MIXED)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "compress", "--input", str(path), "--coord", "1", "--out", "g.txt", *flags
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "g.txt").exists()


# The least arguments each subcommand's parser accepts, so that one more
# flag is an unrecognized argument rather than a missing one.
PARSER_MINIMUM = {
    "construct": ("--kind", "product"),
    "verify": ("--input", "f.txt"),
    "search": ("--w", "3"),
    "bound": (),
    "poset": ("--input", "p.txt"),
    "compress": ("--input", "f.txt", "--coord", "1"),
}
NAMES = [name for name, _, _ in _SUBCOMMANDS]


def parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserSplit:
    def test_table_names_every_handler(self):
        assert NAMES == list(_HANDLERS) == list(PARSER_MINIMUM)

    @pytest.mark.parametrize("name", NAMES)
    def test_one_subparser_prints_the_full_trees_help(self, capsys, name):
        one = parse_exit(capsys, build_parser(name), [name, "--help"])
        full = parse_exit(capsys, build_parser(), [name, "--help"])
        assert one == full
        assert one[0] == 0 and f"usage: crossvec {name} " in one[1]

    @pytest.mark.parametrize("name", NAMES)
    def test_unknown_flag_refused_as_by_the_full_tree(self, capsys, name):
        argv = [name, *PARSER_MINIMUM[name], "--no-such-flag"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        through_main = (exc.value.code, *capsys.readouterr())
        assert through_main == parse_exit(capsys, build_parser(), argv)
        assert through_main[0] == 2
        assert "unrecognized arguments: --no-such-flag" in through_main[2]
        assert "{" + ",".join(NAMES) + "}" in through_main[2]

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_required_value_refused_as_by_the_full_tree(self, capsys, name):
        argv = [name, "--format" if name != "construct" else "--kind"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        through_main = (exc.value.code, *capsys.readouterr())
        assert through_main == parse_exit(capsys, build_parser(), argv)
        assert through_main[0] == 2

    @pytest.mark.parametrize(
        "argv,code,stream",
        [([], 2, "err"), (["--help"], 0, "out"), (["bogus"], 2, "err")],
    )
    def test_top_level_names_every_subcommand(self, capsys, argv, code, stream):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == code
        text = captured.out if stream == "out" else captured.err
        assert "{" + ",".join(NAMES) + "}" in text
        if argv == ["--help"]:
            for name, help_line, _ in _SUBCOMMANDS:
                assert re.search(rf"^    {name} +{re.escape(help_line)}$", text, re.M)
        if argv == ["bogus"]:
            assert "invalid choice: 'bogus'" in text
