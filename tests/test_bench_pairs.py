"""tools/bench_pairs.py's summary code on canned bench/run.py result lines,
its record of the code each side ran on small git trees, and the
environment it runs bench/run.py in, seen by a stub; no benchmark runs."""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "relations", "unit": "count", "better": "higher", "bound": 0.1},
]


def _line(wall, rss, relations=100, correct=True, failed=0, attempted=5):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "relations": {"value": relations, "unit": "count"},
        },
    }


class TestSummary:
    def test_quartiles_inclusive(self):
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_metric_wins_losses_ties_and_bound(self):
        m = bench_pairs.summarize_metric([8.0, 7.0, 9.0, 8.0], [4.0, 7.0, 10.0, 3.0], "lower", 0.25, "s")
        assert (m["change_wins"], m["change_losses"]) == (2, 1)  # the tie counts for neither
        assert m["parent"]["median"] == 8.0 and m["change"]["median"] == 5.5
        assert m["parent"]["runs"] == [8.0, 7.0, 9.0, 8.0]
        assert m["parent_iqr"] == 0.5  # q1 7.75, q3 8.25
        assert m["median_ratio_change_over_parent"] == 0.6875
        assert m["within_bound"] is True
        # 10.1 > 8 (1 + 0.25)
        assert bench_pairs.summarize_metric([8.0], [10.1], "lower", 0.25)["within_bound"] is False
        assert bench_pairs.summarize_metric([8.0], [10.0], "lower", 0.25)["within_bound"] is True

    def test_higher_is_better(self):
        m = bench_pairs.summarize_metric([100, 100], [120, 89], "higher", 0.1)
        assert (m["change_wins"], m["change_losses"]) == (1, 1)
        assert m["within_bound"] is True  # median 104.5 >= 90
        assert bench_pairs.summarize_metric([100], [89], "higher", 0.1)["within_bound"] is False

    def test_workload_and_claim(self):
        runs = [
            {"pair": i, "seed": 100 + i, "first": bench_pairs.order(i)[0],
             "parent": _line(7.5 + 0.1 * i, 110.6), "change": _line(4.0 + 0.1 * i, 82.0)}
            for i in range(10)
        ]
        runs[3]["change"] = _line(8.0, 82.0)  # one pair lost
        s = bench_pairs.summarize_workload(runs, SPECS)
        assert s["pairs"] == 10 and s["seeds"] == list(range(100, 110))
        assert s["all_correct"] is True
        assert s["attempted_ops"] == {"parent": 50, "change": 50}
        assert s["metrics"]["wall_s"]["change_wins"] == 9
        assert s["metrics"]["peak_rss_mb"]["change_wins"] == 10
        assert s["runs"] is runs  # every result line is kept
        c = bench_pairs.claim({"statistical": s}, "statistical", "wall_s")
        assert c["met"] is True and c["change_wins"] == 9
        assert c["median_gain"] == pytest.approx(7.95 - 4.55, abs=1e-4)
        # eight wins of ten is not nine tenths
        runs[5]["change"] = _line(9.0, 82.0)
        s = bench_pairs.summarize_workload(runs, SPECS)
        assert bench_pairs.claim({"w": s}, "w", "wall_s")["met"] is False

    def test_claim_needs_more_than_the_parent_spread(self):
        runs = [{"pair": i, "seed": 1, "first": "parent",
                 "parent": _line(v, 1.0), "change": _line(v - 0.1, 1.0)}
                for i, v in enumerate([5.0, 6.0, 7.0, 8.0, 9.0, 5.0, 6.0, 7.0, 8.0, 9.0])]
        s = bench_pairs.summarize_workload(runs, SPECS)
        c = bench_pairs.claim({"w": s}, "w", "wall_s")
        assert c["change_wins"] == 10 and c["met"] is False  # 0.1 < IQR 2.0

    def test_missing_and_failed_runs(self):
        runs = [
            {"pair": 0, "seed": 1, "first": "parent", "parent": _line(5.0, 80.0), "change": None},
            {"pair": 1, "seed": 2, "first": "change",
             "parent": _line(5.0, 80.0), "change": _line(4.0, 80.0, correct=False, failed=1)},
        ]
        s = bench_pairs.summarize_workload(runs, SPECS)
        assert s["all_correct"] is False
        assert s["failed_ops"] == {"parent": 0, "change": 1}
        assert s["metrics"]["wall_s"]["parent"]["runs"] == [5.0]  # the pair with no result is left out


class TestRunPairs:
    def test_pairs_alternate_and_cycle_seeds(self):
        calls = []

        def run(side, workload, seed):
            calls.append((side, workload, seed))
            return _line(1.0, 1.0)

        runs = bench_pairs.run_pairs(run, "headline", [7, 8, 9], 4)
        assert calls == [
            ("parent", "headline", 7), ("change", "headline", 7),
            ("change", "headline", 8), ("parent", "headline", 8),
            ("parent", "headline", 9), ("change", "headline", 9),
            ("change", "headline", 7), ("parent", "headline", 7),
        ]
        assert [r["first"] for r in runs] == ["parent", "change", "parent", "change"]

    def test_result_line(self):
        line = _line(3.9, 82.1)
        out = "note: outputs not compared\n" + json.dumps(line) + "\n\n"
        assert bench_pairs.result_line(out) == line
        assert bench_pairs.result_line("") is None
        assert bench_pairs.result_line("problem: x\nnot json\n") is None
        assert bench_pairs.result_line('{"correct": true}\n') is None


def _tree(root, text="x = 1\n"):
    """A checkout-shaped directory: one file each in src/ and bench/."""
    for rel, body in (("src/pkg/mod.py", text), ("bench/run.py", "print()\n")):
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(body)
    return str(root)


def _commit(root):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", root], check=True)
    subprocess.run(git + ["-C", root, "add", "-A"], check=True)
    subprocess.run(git + ["-C", root, "commit", "-q", "-m", "c"], check=True)
    return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


class TestRevision:
    @pytest.fixture(autouse=True)
    def _no_enclosing_repo(self, tmp_path, monkeypatch):
        # git looks no higher than tmp_path for a repository
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))

    def test_own_work_tree_records_its_commit(self, tmp_path):
        checkout = _tree(tmp_path / "repo")
        head = _commit(checkout)
        assert bench_pairs.revision(checkout) == head
        # an edited file is no longer that commit
        _tree(checkout, "x = 2\n")
        assert bench_pairs.revision(checkout) == "sha256:" + bench_pairs.content_hash(checkout)

    def test_export_records_a_content_hash(self, tmp_path):
        # an export inside another work tree must not take that tree's HEAD
        outer = _tree(tmp_path / "outer")
        head = _commit(outer)
        inside = _tree(tmp_path / "outer" / "export")
        alone = _tree(tmp_path / "alone")
        got = bench_pairs.revision(inside)
        assert got != head and got.startswith("sha256:")
        assert bench_pairs.revision(alone) == got  # the same files, the same hash
        # bytecode and earlier run outputs do not count; a changed source does
        os.makedirs(os.path.join(alone, "src", "pkg", "__pycache__"))
        open(os.path.join(alone, "src", "pkg", "__pycache__", "mod.pyc"), "wb").close()
        os.makedirs(os.path.join(alone, "bench", "runs"))
        open(os.path.join(alone, "bench", "runs", "out.json"), "w").close()
        assert bench_pairs.revision(alone) == got
        _tree(alone, "x = 2\n")
        assert bench_pairs.revision(alone) != got


_STUB_RUN = '''\
import json, os, sys
sys.path.insert(0, "src")
import stubmod
if sys.argv[sys.argv.index("--seconds") + 1] != "0":
    import latemod  # only timed runs import it
prefix = os.environ.get("PYTHONPYCACHEPREFIX")
listing = sorted(name for _, _, files in os.walk(prefix) for name in files) if prefix else None
print(json.dumps({"metrics": {}, "correct": True, "attempted": 1, "failed": 0,
                  "argv": sys.argv[1:], "x": stubmod.x,
                  "dont_write": os.environ.get("PYTHONDONTWRITEBYTECODE"), "prefix": prefix,
                  "prefix_listing": listing}))
'''


def _stub_checkout(root, x="1"):
    (root / "bench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "bench" / "run.py").write_text(_STUB_RUN)
    (root / "src" / "stubmod.py").write_text(f"x = {x}\n")
    (root / "src" / "latemod.py").write_text("y = 1\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    return root


class TestBenchRun:
    def test_run_sees_no_bytecode_cache(self, tmp_path):
        # a stub run.py reports the environment it saw; a stale __pycache__
        # in the checkout (compiled from x = 2, source now x = 1 with the
        # same size and mtime) is not read, and a timed run writes nothing
        # into its cache directory
        checkout = _stub_checkout(tmp_path / "checkout", x="2")
        module = checkout / "src" / "stubmod.py"
        stat = module.stat()
        pyc = py_compile.compile(str(module), cfile=importlib.util.cache_from_source(str(module)))
        module.write_text("x = 1\n")
        os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        plain = {k: v for k, v in os.environ.items() if not k.startswith("PYTHONPYCACHE")}
        stale = subprocess.run([sys.executable, "bench/run.py", "--seconds", "0"], cwd=checkout,
                               env=plain, capture_output=True, text=True, check=True)
        assert json.loads(stale.stdout)["x"] == 2  # a plain run reads the stale cache

        cache = tmp_path / "cache"
        line = bench_pairs.bench_run(str(checkout), str(cache), "headline", 7, 5)
        assert line["argv"] == ["--workload", "headline", "--seed", "7", "--seconds", "5",
                                "--trace", "0"]
        assert line["x"] == 1
        assert line["dont_write"] == "1"
        assert line["prefix"] == str(cache)
        assert line["prefix_listing"] == []
        assert not cache.exists()
        assert os.listdir(os.path.dirname(pyc)) == [os.path.basename(pyc)]

    def test_one_warmed_cache_per_side(self, tmp_path, monkeypatch):
        # main gives each side its own cache for the whole invocation; the
        # warm-up (--seconds 0) writes the bytecode of what it imports there,
        # and the timed runs read it but write none, not even for latemod,
        # which only they import
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        parent, change = _stub_checkout(tmp_path / "parent"), _stub_checkout(tmp_path / "change")
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--workloads", "headline", "--seeds", "3", "--pairs", "2",
                                 "--seconds", "1", "--out", str(out)]) == 0
        runs = json.loads(out.read_text())["workloads"]["headline"]["runs"]
        prefixes = {}
        for record in runs:
            for side in bench_pairs.SIDES:
                line = record[side]
                assert line["dont_write"] == "1"
                # json.decoder's bytecode is there too: the stdlib is cached
                modules = {n.split(".")[0] for n in line["prefix_listing"]}
                assert "stubmod" in modules and "decoder" in modules
                assert "latemod" not in modules
                prefixes.setdefault(side, set()).add(line["prefix"])
        assert len(prefixes["parent"]) == len(prefixes["change"]) == 1
        assert prefixes["parent"] != prefixes["change"]
        assert not any(os.path.exists(p) for s in prefixes.values() for p in s)
        for checkout in (parent, change):
            assert not (checkout / "src" / "__pycache__").exists()

    def test_paths_of_unequal_length_are_refused(self, tmp_path, capsys):
        # peak RSS depends on the checkout path's length, so main exits 2,
        # naming both lengths, before any run
        parent, change = _stub_checkout(tmp_path / "parent"), _stub_checkout(tmp_path / "change2")
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--workloads", "headline", "--seeds", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{len(str(parent))} characters" in err and f"--change path {len(str(change))}" in err
        assert not out.exists()
