import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dpcount
from dpcount import cli, gw, verify
from dpcount.cli import build_parser, main, sweep_classes
from dpcount.gw import GWEngine
from dpcount.lattice import DivisorClass
from oracles import plane_count


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_computation_error_exits_one(self, capsys):
        assert main(["nbeta", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_success_exits_zero(self, capsys):
        assert main(["nbeta", "3;"]) == 0

    def test_k9_class_names_the_range(self, capsys):
        assert main(["nbeta", "1;0,0,0,0,0,0,0,0,0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: blow-up count k=9 is outside the allowed range 0..8\n"
        assert captured.out == ""


class TestSingleClassCommands:
    def test_nbeta(self, capsys):
        assert main(["nbeta", "3;1"]) == 0
        assert capsys.readouterr().out == "N=12\n"

    def test_cbeta(self, capsys):
        assert main(["cbeta", "4;"]) == 0
        out = capsys.readouterr().out
        assert out == "C=2304 first=1395 boundary=909 valid=true\n"

    def test_cbeta_json(self, capsys):
        assert main(["--format", "json", "cbeta", "2;"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["c"] == 0
        assert data["valid"] is False
        assert data["first_term"] == "3/2"

    def test_nbeta_json(self, capsys):
        assert main(["--format", "json", "nbeta", "5;"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 87304

    def test_a_literal_that_starts_with_minus_goes_after_double_dash(self, capsys):
        # argparse reads "-1;" as an option, so such a literal follows --
        assert main(["nbeta", "--", "-1;"]) == 0
        assert capsys.readouterr().out == "N=0\n"

    def test_cbeta_warning_goes_to_stderr(self, capsys):
        assert main(["cbeta", "2;"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "C=0 first=3/2 boundary=-3/2 valid=false\n"
        assert captured.err.startswith("warning: hypothesis N(-1;) > 0 fails; ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestSeeds:
    def test_k1(self, capsys):
        assert main(["seeds", "--k", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["1\t1;0\t1", "1\t1;1\t1", "1\t0;-1\t1"]

    def test_k1_json(self, capsys):
        assert main(["--format", "json", "seeds", "--k", "1"]) == 0
        assert capsys.readouterr().out == (
            '[{"k": 1, "cls": "1;0", "n": 1}, {"k": 1, "cls": "1;1", "n": 1}, '
            '{"k": 1, "cls": "0;-1", "n": 1}]\n'
        )

    def test_k8_includes_anticanonical(self, capsys):
        assert main(["seeds", "--k", "8"]) == 0
        assert "8\t3;1,1,1,1,1,1,1,1\t12" in capsys.readouterr().out.splitlines()

    def test_k8_stdout_is_pinned(self, capsys):
        # recorded on the brute-force (-1)-class search over all permutations
        assert main(["seeds", "--k", "8"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "544d2b2c153a2838a3cb2211fec187303859f4a518894eabc8e1ee6e3cbca923"
        )


class TestTable:
    def test_row_format(self, capsys):
        assert main(["table", "--k", "0", "--dmax", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0\t1;\t1\t0\tfalse", "0\t2;\t1\t0\tfalse", "0\t3;\t12\t24\ttrue"]

    def test_sweep_order_deterministic(self):
        swept = list(sweep_classes(2, 3, None))
        assert swept == sorted(swept, key=lambda b: (b.d, b.m))
        assert all(b.anticanonical_degree() >= 2 for b in swept)

    def test_degenerate_class_skipped_with_note(self, capsys):
        assert main(["table", "--k", "2", "--dmax", "2"]) == 0
        captured = capsys.readouterr()
        assert "note: skipped 2;2,2: cuspidal count for 2;2,2 is not an integer: 3/4\n" in captured.err
        assert "2;2,2" not in captured.out

    @pytest.mark.parametrize("k", ["-1", "9"])
    def test_k_out_of_range_names_range(self, capsys, k):
        assert main(["table", "--k", k, "--dmax", "2"]) == 1
        captured = capsys.readouterr()
        assert f"k={k} is outside the allowed range 0..8" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k", ["0", "1"])
    @pytest.mark.parametrize(
        "option, bounds", [("dmax", ["-1"]), ("mmax", ["3", "--mmax", "-1"])], ids=["dmax", "mmax"]
    )
    def test_negative_bound_names_the_rule(self, capsys, k, option, bounds):
        # at k = 0 a negative mmax once swept the plane classes, at k = 1 nothing
        assert main(["table", "--k", k, "--dmax", *bounds]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: table needs {option} >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("k, literals", [("0", ["1;", "2;"]), ("1", ["1;0", "2;0"])])
    def test_zero_bounds_stay_valid(self, capsys, k, literals):
        assert main(["table", "--k", k, "--dmax", "0"]) == 0
        assert main(["table", "--k", k, "--dmax", "2", "--mmax", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"{k}\t{cls}\t1\t0\tfalse" for cls in literals]
        assert captured.err == ""

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        assert main(["table", "--k", "1", "--dmax", "4"]) == 0
        plain = capsys.readouterr().out
        cache = str(tmp_path / "cache.tsv")
        assert main(["--cache-path", cache, "table", "--k", "1", "--dmax", "4"]) == 0
        cold = capsys.readouterr().out
        assert main(["--cache-path", cache, "table", "--k", "1", "--dmax", "4"]) == 0
        warm = capsys.readouterr().out
        assert plain == cold == warm

    def test_json_round_trip(self, capsys):
        assert main(["--format", "json", "table", "--k", "1", "--dmax", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert main(["table", "--k", "1", "--dmax", "3"]) == 0
        tsv = capsys.readouterr().out.splitlines()
        assert len(rows) == len(tsv) > 0
        types = {"k": int, "cls": str, "n": int, "c": int, "valid": bool}
        for row, line in zip(rows, tsv):
            # bool is an int subclass, so the types are compared exactly, and in field order
            assert [(field, type(value)) for field, value in row.items()] == list(types.items())
            assert line == f"{row['k']}\t{row['cls']}\t{row['n']}\t{row['c']}\t{json.dumps(row['valid'])}"


class TestCacheEnvVar:
    def test_env_var_controls_persistence(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.tsv"
        monkeypatch.setenv("DPCOUNT_CACHE", str(cache))
        assert main(["nbeta", "4;"]) == 0
        assert cache.exists()
        assert "v1\t0\t4;\t620" in cache.read_text().splitlines()

    def test_corrupt_cache_reported_not_trusted(self, capsys, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("v1\t0\t3;\t999999\nnot a record\n")
        # the corrupt line is reported; the well-formed (if wrong) line is used,
        # so the cache is authoritative for values it stores
        assert main(["--cache-path", str(cache), "nbeta", "2;"]) == 0
        captured = capsys.readouterr()
        assert "skipped corrupted cache line" in captured.err
        assert captured.out == "N=1\n"

    @staticmethod
    def aged(path):
        """Bytes and mtime of `path`, after setting its mtime back so a rewrite shows."""
        os.utime(path, ns=(10**18, 10**18))
        return path.read_bytes(), path.stat().st_mtime_ns

    def test_pure_hit_leaves_the_file_untouched(self, capsys, tmp_path):
        cache = tmp_path / "cache.tsv"
        assert main(["--cache-path", str(cache), "nbeta", "5;2,1,1"]) == 0
        before = self.aged(cache)
        assert main(["--cache-path", str(cache), "nbeta", "5;1,2,1"]) == 0
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before
        assert main(["--cache-path", str(cache), "nbeta", "5;"]) == 0  # a miss
        assert cache.stat().st_mtime_ns != before[1]
        assert "v1\t0\t5;\t87304" in cache.read_text().splitlines()
        assert capsys.readouterr().out == "N=18132\nN=18132\nN=87304\n"

    def test_unreduced_row_of_an_older_cache_answers_from_its_reduced_key(self, capsys, tmp_path):
        # 2;1,1,1 is canonical but not reduced: the transform at its three
        # points maps it to L, so N is the same and no value is computed
        cache = tmp_path / "cache.tsv"
        cache.write_text("v1\t3\t2;1,1,1\t1\n")
        before = self.aged(cache)
        assert main(["--cache-path", str(cache), "nbeta", "2;1,1,1"]) == 0
        assert capsys.readouterr() == ("N=1\n", "")
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before

    def test_unstripped_row_of_an_older_cache_answers_the_plane_class(self, capsys, tmp_path):
        # 4;1,1,1,0 is reduced; its 0 and 1s blow down to the plane quartic, so the
        # row answers 4; too.  A computed value would grow the memo with the
        # quartic's halves and rewrite the file.
        cache = tmp_path / "cache.tsv"
        cache.write_text("v1\t4\t4;1,1,1,0\t620\n")
        before = self.aged(cache)
        assert main(["--cache-path", str(cache), "nbeta", "4;"]) == 0
        assert main(["--cache-path", str(cache), "nbeta", "4;1,1,1,0"]) == 0
        assert capsys.readouterr() == ("N=620\nN=620\n", "")
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before


# sha256 of the cache file that `--cache-path F table --k 2 --dmax 4` writes into
# an empty path: 50 rows, recorded when the memo was still keyed by DivisorClass
TABLE_K2_D4_CACHE_SHA256 = "34bfab309082eba824583810da02d6e8c3e2c679b70f45b11433e0457caee37a"


class TestCacheRows:
    """Cache rows are (d, m) ints from file to memo and back: a hit builds no class per row."""

    @staticmethod
    def count_builds(monkeypatch):
        """A Counter whose "built" entry counts the `DivisorClass`es built from now on."""
        counter = Counter()
        post_init = DivisorClass.__post_init__

        def counted(self):
            counter["built"] += 1
            post_init(self)

        monkeypatch.setattr(DivisorClass, "__post_init__", counted)
        return counter

    def test_file_bytes_are_pinned(self, capsys, tmp_path):
        cache = tmp_path / "cache.tsv"
        assert main(["--cache-path", str(cache), "table", "--k", "2", "--dmax", "4"]) == 0
        data = cache.read_bytes()
        assert data.count(b"\n") == 50
        assert hashlib.sha256(data).hexdigest() == TABLE_K2_D4_CACHE_SHA256

    def test_loading_a_saved_file_builds_no_class(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.tsv"
        writer = GWEngine()
        for beta in sweep_classes(3, 5, None):
            writer.n_beta(beta)
        writer.save_cache(cache)
        rows = len(cache.read_text().splitlines())
        assert rows == writer.memo_size > 50
        built = self.count_builds(monkeypatch)
        reader = GWEngine()
        assert reader.load_cache(cache) == []
        assert reader._memo == writer._memo
        assert built["built"] == 0

    def test_a_pure_hit_builds_as_many_classes_whatever_the_row_count(self, capsys, tmp_path, monkeypatch):
        small, large = tmp_path / "small.tsv", tmp_path / "large.tsv"
        assert main(["--cache-path", str(small), "table", "--k", "1", "--dmax", "3"]) == 0
        assert main(["--cache-path", str(large), "table", "--k", "3", "--dmax", "5"]) == 0
        sizes = [len(path.read_text().splitlines()) for path in (small, large)]
        assert sizes[1] > 10 * sizes[0]
        capsys.readouterr()
        built = self.count_builds(monkeypatch)
        counts = []
        for path in (small, large):
            before = path.read_bytes()
            built.clear()
            assert main(["--cache-path", str(path), "nbeta", "3;1"]) == 0
            assert path.read_bytes() == before  # a pure hit
            counts.append(built["built"])
        assert capsys.readouterr() == ("N=12\nN=12\n", "")
        assert counts[0] == counts[1] <= 2

    def test_a_miss_on_an_unchanged_file_parses_each_row_once(self, capsys, tmp_path, monkeypatch):
        # save_cache merges the file on disk, but it holds the bytes main loaded, so it is not parsed again
        cache = tmp_path / "cache.tsv"
        assert main(["--cache-path", str(cache), "table", "--k", "3", "--dmax", "4"]) == 0
        rows = cache.read_text().splitlines()
        parsed = Counter()
        parse_class_key = gw.parse_class_key
        monkeypatch.setattr(gw, "parse_class_key", lambda text: parsed.update([text]) or parse_class_key(text))
        assert main(["--cache-path", str(cache), "nbeta", "7;"]) == 0  # a miss: the file is rewritten
        assert capsys.readouterr().out.endswith("N=14616808192\n")
        assert set(rows) < set(cache.read_text().splitlines())
        assert sum(parsed.values()) == len(rows)


class TestUnusableCachePath:
    """A cache path that cannot be read or written ends in one `error:` line and exit code 1."""

    def test_directory(self, capsys, tmp_path):
        assert main(["--cache-path", str(tmp_path), "nbeta", "4;"]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read cache {tmp_path}: Is a directory\n")

    def test_missing_directory(self, capsys, tmp_path):
        cache = tmp_path / "absent" / "cache.tsv"
        assert main(["--cache-path", str(cache), "nbeta", "4;"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "N=620\n"
        assert captured.err == f"error: cannot write cache {cache}: No such file or directory\n"
        assert not cache.parent.exists()

    def test_lines_that_are_not_utf8_are_skipped_and_not_merged(self, capsys, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(b"v1\t0\t3;\t12\nv1\t0\t7;\t1461\xff\n\xfe\xfe\n")
        assert main(["--cache-path", str(cache), "nbeta", "5;"]) == 0  # a miss: the file is rewritten
        out, err = capsys.readouterr()
        assert out == "N=87304\n"
        assert [line.split(": ")[0] for line in err.splitlines()] == [f"{cache}:2", f"{cache}:3"]
        assert all("skipped corrupted cache line" in line for line in err.splitlines())
        rows = cache.read_text(encoding="utf-8").splitlines()
        assert "v1\t0\t3;\t12" in rows and "v1\t0\t5;\t87304" in rows
        assert not any(row.startswith("v1\t0\t7;") for row in rows)


class TestVerifyCommand:
    def test_suite_choices_are_the_suites(self):
        # the parser lists the suites without importing `verify`
        assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))

    def test_classical_suite_passes(self, capsys):
        assert main(["verify", "--suite", "classical"]) == 0
        out = capsys.readouterr().out
        assert "C(4L) = 2304 expected 2304: ok" in out

    def test_blowup_suite_passes(self, capsys):
        assert main(["verify", "--suite", "blowup"]) == 0

    def test_consistency_suite_samples_up_to_k_8(self, capsys, monkeypatch):
        # the CLI asks for the suite's default draw: 200 classes of seed 1 with k <= 8 and
        # delta <= 10.  test_criterion_6_consistency_fuzz_large_k checks those 200 classes
        # and their k coverage, so here the suite checks only the first three of them
        calls = []
        sample = verify.random_classes

        def first_three(rng, count, **kwargs):
            seeded = rng.getstate() == random.Random(1).getstate()
            calls.append((seeded, count, kwargs["k_max"], kwargs["delta_max"]))
            return sample(rng, count, **kwargs)[:3]

        monkeypatch.setattr(verify, "random_classes", first_three)
        assert main(["verify", "--suite", "consistency"]) == 0
        assert capsys.readouterr().out == "consistency: 200 classes, all relations agree\n"
        assert calls == [(True, 200, 8, 10)]

    def test_cache_suite_names_a_wrong_row(self, capsys, tmp_path):
        cache = tmp_path / "cache.tsv"
        cache.write_text("v1\t0\t3;\t999999\nv1\t0\t4;\t620\nv1\t1\t5;2\t18132\n")
        before = cache.read_bytes()
        assert main(["--cache-path", str(cache), "verify", "--suite", "cache"]) == 1
        assert capsys.readouterr().out == (
            "FAIL 3;: cached 999999, fresh 12\n"
            "cache: 3 of 3 rows recomputed, DISAGREEMENTS FOUND\n"
        )
        assert cache.read_bytes() == before

    def test_cache_suite_passes_on_a_clean_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.tsv")
        assert main(["--cache-path", cache, "table", "--k", "1", "--dmax", "4"]) == 0
        capsys.readouterr()
        assert main(["--cache-path", cache, "verify", "--suite", "cache"]) == 0
        assert capsys.readouterr().out.endswith("rows recomputed, all agree\n")

    def test_cache_suite_samples_a_large_cache(self):
        engine = GWEngine()
        for d in range(1, 8):
            engine.n_beta(DivisorClass(d, ()))
        for d in range(1, 6):
            for a in range(d + 1):
                for b in range(a + 1):
                    engine.n_beta(DivisorClass(d, (a, b)))
        assert engine.memo_size > verify._CACHE_SAMPLES
        ok, lines = verify.cache_suite(engine)
        assert ok and lines == [
            f"cache: {verify._CACHE_SAMPLES} of {engine.memo_size} rows recomputed, all agree"
        ]

    def test_cache_suite_without_rows_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("DPCOUNT_CACHE", raising=False)
        assert main(["verify", "--suite", "cache"]) == 1
        assert capsys.readouterr().out.startswith("cache: no rows loaded")

    def test_classical_suite_json(self, capsys):
        assert main(["--format", "json", "verify", "--suite", "classical"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        record = json.loads(out)
        assert (record["suite"], record["ok"], len(record["lines"])) == ("classical", True, 11)
        assert "C(4L) = 2304 expected 2304: ok" in record["lines"]

    def test_failing_suite_json_exits_one(self, capsys, monkeypatch):
        monkeypatch.delenv("DPCOUNT_CACHE", raising=False)
        assert main(["--format", "json", "verify", "--suite", "cache"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "suite": "cache",
            "ok": False,
            "lines": ["cache: no rows loaded; give --cache-path or set DPCOUNT_CACHE"],
        }

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestReadmeExamples:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_examples_print_what_their_comments_say(self, capsys):
        # every README example whose comment is an exact output: the CLI lines through
        # `cli.main`, and the Library block run as written, one printed line per `# value`
        text = self.README.read_text(encoding="utf-8")
        cli_examples = re.findall(r"^dpcount (.+?) +# ([NC]=.*)$", text, re.M)
        cli_examples += re.findall(r"`dpcount (.+?)` \(([NC]=\S+)\)", text)
        assert [args for args, _ in cli_examples] == ['nbeta "3;1"', 'cbeta "4;"', 'nbeta -- "-1;"']
        for args, expected in cli_examples:
            assert main(shlex.split(args)) == 0, args
            assert capsys.readouterr().out == f"{expected}\n", args
        library = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        expected = re.findall(r"^print\(.*# (\S+)$", library, re.M)
        assert expected == ["620", "2304"]
        exec(library, {})
        assert capsys.readouterr().out.splitlines() == expected


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["nbeta", "3;"])
        assert args.format == "tsv"
        assert args.cache_path is None

    def test_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "8", "nbeta", "3;"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: dpcount")

    def test_build_parser_returns_a_new_parser_each_call(self):
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["nbeta"], ["nbeta", "3;1"]),  # a usage error, then a valid call
            (["--format", "json", "nbeta", "4;"], ["nbeta", "4;"]),
            (["--cache-path", "{cache}", "nbeta", "4;"], ["nbeta", "5;"]),
            (["--help"], ["seeds", "--k", "1"]),
        ],
    )
    def test_shared_parser_prints_what_a_new_parser_prints(
        self, capsys, monkeypatch, tmp_path, first, second
    ):
        monkeypatch.delenv("DPCOUNT_CACHE", raising=False)

        def run(tag):
            cache = tmp_path / f"{tag}.tsv"
            calls = []
            for argv in (first, second):
                try:
                    code = main([arg.format(cache=cache) for arg in argv])
                except SystemExit as exc:
                    code = ("exit", exc.code)
                calls.append((code, *capsys.readouterr()))
            rows = cache.read_text() if cache.exists() else None
            return calls, rows

        assert cli._parser() is cli._parser()
        shared = run("shared")
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert run("new") == shared


class TestFreshProcess:
    """A new interpreter, pointed at the dpcount this process imported, with no caller environment."""

    PACKAGE_ROOT = os.path.dirname(os.path.dirname(dpcount.__file__))
    ENV = {"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}

    def test_import_loads_no_dataclasses(self):
        # -S: no site packages, so no host's .pth files decide what is already imported
        code = (
            f"import sys; sys.path.insert(0, {self.PACKAGE_ROOT!r}); import dpcount, dpcount.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=self.ENV)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")

    def test_import_loads_no_fractions_until_a_cusp_count(self):
        # nbeta never needs fractions (nor the decimal it imports); cbeta imports it on first use
        code = (
            f"import sys; sys.path.insert(0, {self.PACKAGE_ROOT!r}); import dpcount, dpcount.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules))); dpcount.cli.main(['cbeta', '4;'])"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=self.ENV)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[]\nC=2304 first=1395 boundary=909 valid=true\n"

    def test_cli_loads_no_verify_until_the_verify_command(self):
        # the parser takes the suite names from a tuple; `verify` is imported by its command alone
        code = (
            f"import sys; sys.path.insert(0, {self.PACKAGE_ROOT!r}); import dpcount.cli; "
            "print('dpcount.verify' in sys.modules); dpcount.cli.main(['nbeta', '3;']); "
            "print('dpcount.verify' in sys.modules); dpcount.cli.main(['verify', '--suite', 'blowup']); "
            "print('dpcount.verify' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=self.ENV)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert lines[:3] == ["False", "N=12", "False"] and lines[-1] == "True"

    def test_import_loads_no_verify_until_a_check(self):
        # the relation checks live in `verify`; the engine's pinned delegates import it on their first call
        code = (
            f"import sys; sys.path.insert(0, {self.PACKAGE_ROOT!r}); import dpcount; "
            "engine, beta = dpcount.GWEngine(), dpcount.DivisorClass(4, (1, 1)); "
            "print(engine.n_beta(beta), 'dpcount.verify' in sys.modules); "
            "report = engine.consistency_check(beta); "
            "from dpcount import verify; "
            "print('dpcount.verify' in sys.modules, report == verify.consistency_check(engine, beta), "
            "report.consistent)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=self.ENV)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "620 False\nTrue True True\n")

    def test_a_cold_count_needs_no_recursion_depth(self, tmp_path):
        # the keys 150;, 149;, ... wait on each other on the solve's own task stack,
        # so a recursion limit of 60 frames, set after the imports, is enough
        cache = tmp_path / "cache.tsv"
        code = (
            f"import sys; sys.path.insert(0, {self.PACKAGE_ROOT!r}); from dpcount.cli import main; "
            f"sys.setrecursionlimit(60); sys.exit(main(['--cache-path', {str(cache)!r}, 'nbeta', '150;']))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=self.ENV)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"N={plane_count(150)}\n")
        assert cache.exists()

    def test_a_count_past_the_digit_limit_is_one_error_line(self, tmp_path):
        # N(130;) has 654 digits; the CLI prints counts in decimal and leaves Python's
        # process-wide int-to-str limit as it is, so such a count ends the command
        cache = tmp_path / "cache.tsv"
        env = {**self.ENV, "PYTHONPATH": self.PACKAGE_ROOT}
        argv = ["-X", "int_max_str_digits=640", "-m", "dpcount", "--cache-path", str(cache), "nbeta", "130;"]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: Exceeds the limit (640 digits) for integer string conversion")
        assert not cache.exists()

    def test_a_closed_stdout_exits_one_without_a_traceback(self, tmp_path):
        # `table --k 6 --dmax 3 | head -1`: the reader takes one line and closes the pipe,
        # which holds 4,096 bytes, so the rest of the 35,799 bytes of rows meets a closed stdout
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the pipe size cannot be set here")
        cache = tmp_path / "cache.tsv"
        env = {**self.ENV, "PYTHONPATH": self.PACKAGE_ROOT}
        argv = ["-m", "dpcount", "--cache-path", str(cache), "table", "--k", "6", "--dmax", "3"]
        read_end, write_end = os.pipe()
        fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen([sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as out:
            first = out.readline()
        stderr = proc.communicate(timeout=300)[1].decode()
        assert first == b"6\t1;0,0,0,0,0,0\t1\t0\tfalse\n"
        assert proc.returncode == 1
        assert "Traceback" not in stderr and "Error" not in stderr
        assert cache.exists()  # the values computed are kept
