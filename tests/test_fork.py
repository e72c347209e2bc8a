"""Forked workers: compare's three networks and the CLI's layout worker give the same results and
failures as one process, and leave no child behind."""

from __future__ import annotations

import importlib
import json
import os
import pickle
import signal
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import citemap.fork as fork_module
import citemap.pipeline as pipeline_module
from citemap.cli import main
from citemap.errors import ConfigError, StageError
from citemap.exports import write_json
from citemap.pipeline import PipelineConfig, compare_networks

from conftest import assert_no_children_left, run_cli_fresh, run_fresh, set_cpus

REPO = Path(__file__).resolve().parents[1]
COMPARISON_GOLDEN = REPO / "tests" / "golden" / "planted" / "comparison.json"
NO_CITING = "error: stage 'units' failed: no units for mode 'title-abstract' / set 'citing'\n"


def all_cited(planted_corpus, tmp_path):
    """The planted corpus with every document tagged cited: the citing network has no units."""
    lines = []
    for line in planted_corpus.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "document":
            record["set_tag"] = "cited"
        lines.append(json.dumps(record, sort_keys=True))
    path = tmp_path / "all_cited.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.usefixtures("deadline")
class TestFailureParity:
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_failing_variant_reports_as_a_sequential_run(self, planted_corpus, tmp_path, monkeypatch, capfd, cpus):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        assert main(["compare", "--corpus", str(all_cited(planted_corpus, tmp_path)), "--out", str(out)]) == 3
        captured = capfd.readouterr()
        assert captured.err == NO_CITING
        assert captured.out == ""
        assert not out.exists()
        assert_no_children_left()


class TestStageErrorPickle:
    @pytest.mark.parametrize("cause", [ValueError("no units"), ConfigError("bad resolution"), OSError(2, "gone")])
    def test_round_trip_keeps_stage_cause_and_message(self, cause):
        error = StageError("units", cause)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is StageError
        assert copy.stage == "units"
        assert type(copy.cause) is type(cause) and copy.cause.args == cause.args
        assert str(copy) == str(error)


def planted_1k(monkeypatch, tmp_path) -> PipelineConfig:
    """The benchmark's compare job on ``planted(1000, 400, 600)``, with its layout budget."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    corpora = importlib.import_module("corpora")
    path = corpora.write_jsonl(tmp_path / "planted_1k.jsonl", corpora.planted(1000, n_cited=400, n_citing=600))
    return PipelineConfig(corpus=str(path), min_occurrences=10, layout_max_iter=300)


@pytest.mark.usefixtures("deadline")
class TestForkedCompare:
    @pytest.mark.parametrize("corpus", ["golden", "planted_1k"])
    def test_same_report_on_one_and_four_cpus(self, corpus, planted_corpus, tmp_path, monkeypatch):
        if corpus == "golden":
            config = PipelineConfig(corpus=str(planted_corpus))
        else:
            config = planted_1k(monkeypatch, tmp_path)
        forks = []
        real_forked = fork_module.forked
        monkeypatch.setattr(fork_module, "forked", lambda run, tasks, workers: forks.append((tasks, workers))
                            or real_forked(run, tasks, workers))
        reports = {}
        for cpus in (1, 4):
            set_cpus(monkeypatch, cpus)
            path = write_json(tmp_path / f"comparison_{cpus}.json", asdict(compare_networks(config)))
            reports[cpus] = path.read_bytes()
            assert ((3, 3) in forks) == (cpus == 4)  # the three networks, one worker each
            assert_no_children_left()
        assert reports[4] == reports[1]
        if corpus == "golden":
            assert reports[1] == COMPARISON_GOLDEN.read_bytes()


# where a stage fails, and how: a stage failure, a crash (not a stage error), or a dead process. A network
# worker fails in its clustering; this process, which lays out the three maps, fails in a layout
COMPARE_FAILURES = [("child", "raise"), ("child", "crash"), ("child", "exit"), ("parent", "raise"), ("parent", "crash")]


@pytest.mark.usefixtures("deadline")
class TestFailingCompareWorker:
    """A compare worker that fails ends the call promptly, and every child is reaped."""

    @pytest.fixture
    def fail_in(self, monkeypatch):
        def arm(where: str, how: str) -> tuple[type[Exception], str]:
            stage = "layout" if where == "parent" else "cluster"
            parent, real_stage = os.getpid(), getattr(pipeline_module, stage)

            def failing_stage(*args, **kwargs):
                if (os.getpid() == parent) == (where == "parent"):
                    if how == "exit":
                        os._exit(1)
                    raise (ValueError if how == "raise" else RuntimeError)(f"injected {stage} failure")
                return real_stage(*args, **kwargs)

            monkeypatch.setattr(pipeline_module, stage, failing_stage)
            set_cpus(monkeypatch, 4)
            if how == "raise":
                return StageError, stage
            return RuntimeError if where == "parent" else ChildProcessError, stage
        return arm

    @pytest.mark.parametrize("where, how", COMPARE_FAILURES)
    def test_compare_raises(self, fail_in, where, how, planted_corpus, tmp_path, capsys):
        expected, stage = fail_in(where, how)
        start = time.monotonic()
        with pytest.raises(expected) as caught:
            compare_networks(PipelineConfig(corpus=str(planted_corpus)))
        assert time.monotonic() - start < 10.0
        assert_no_children_left()
        if expected is StageError:
            assert caught.value.stage == stage
            assert str(caught.value) == f"stage '{stage}' failed: injected {stage} failure"
        if expected is not RuntimeError:  # the CLI reports what it can act on, with exit code 3
            capsys.readouterr()
            assert main(["compare", "--corpus", str(planted_corpus), "--out", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == f"error: {caught.value}\n"
            assert_no_children_left()


@pytest.mark.usefixtures("deadline")
class TestForkedCall:
    def test_prepares_before_the_arguments_arrive(self, tmp_path):
        marker = tmp_path / "prepared"
        call = fork_module.ForkedCall(lambda a, b: (a + b, marker.exists()), marker.touch)
        while not marker.exists():  # the child prepares before anything is sent
            time.sleep(0.01)
        assert call(2, 3) == (5, True)
        call.close()
        assert_no_children_left()

    def test_close_stops_a_waiting_child(self):
        call = fork_module.ForkedCall(time.sleep, lambda: None)
        call.close()
        call.close()
        assert_no_children_left()

    def test_close_stops_a_working_child(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        call = fork_module.ForkedCall(time.sleep, lambda: None)
        previous = signal.signal(signal.SIGUSR1, interrupt)
        timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGUSR1))  # interrupts the wait for the result
        try:
            timer.start()
            with pytest.raises(KeyboardInterrupt):
                call(60)
        finally:
            timer.join()
            signal.signal(signal.SIGUSR1, previous)
        call.close()
        assert_no_children_left()

    def test_serves_calls_in_order(self):
        call = fork_module.ForkedCall(lambda text: (text[::-1], os.getpid()), lambda: None)
        texts = ["abc", "x" * 200_000 + "y", "d"]  # the second is larger than a pipe's buffer, both ways
        assert [call(text) for text in texts] == [(text[::-1], call.pid) for text in texts]
        call.close()
        assert_no_children_left()

    def test_killed_between_calls_fails_the_next_call(self):
        call = fork_module.ForkedCall(lambda a: a + 1, lambda: None)
        assert call(1) == 2
        os.kill(call.pid, signal.SIGKILL)
        with pytest.raises(ChildProcessError, match="exited with code -9"):
            call(2)
        assert_no_children_left()
        call.close()

    def test_close_after_calls_leaves_no_child(self):
        call = fork_module.ForkedCall(lambda a: a * 2, lambda: None)
        assert [call(a) for a in range(3)] == [0, 2, 4]
        call.close()
        call.close()
        assert_no_children_left()

    def test_raising_call_is_child_process_error(self, capfd):
        call = fork_module.ForkedCall(lambda: 1 / 0, lambda: None)
        with pytest.raises(ChildProcessError, match="exited with code 1"):
            call()
        call.close()
        assert_no_children_left()
        assert "ZeroDivisionError" in capfd.readouterr().err


def failing_layout_probe(how: str) -> str:
    """Probe code: the layout worker is killed as it starts the layout, or whichever process lays out raises."""
    action = {"killed": "if os.getpid() != parent: os.kill(os.getpid(), signal.SIGKILL)",
              "raise": "raise ValueError('injected')"}[how]
    return ("import signal; layout_module = sys.modules['citemap.layout']; parent = os.getpid(); "
            "lay_out = layout_module._lay_out\n"
            "def failing(*args):\n"
            f"    {action}\n"
            "    return lay_out(*args)\n"
            "layout_module._lay_out = failing")


# patches that interrupt a CLI run on two CPUs: one while it clusters, before the layout worker is called
INTERRUPTS = {
    "clustering": "import citemap.pipeline\ndef interrupt(*args):\n    raise KeyboardInterrupt\n"
                  "citemap.pipeline.cluster = interrupt",
    # one while it waits for the worker's map: an alarm, and a layout that would take 30 s
    "layout": "import signal, time\nlayout_module = sys.modules['citemap.layout']\n"
              "def interrupt(signum, frame):\n    raise KeyboardInterrupt\n"
              "signal.signal(signal.SIGALRM, interrupt)\n"
              "def slow(*args):\n    time.sleep(30)\n"
              "layout_module._lay_out = slow\ncall = fork.ForkedCall.__call__\n"
              "def alarmed(self, *args):\n    signal.setitimer(signal.ITIMER_REAL, 0.5)\n    return call(self, *args)\n"
              "fork.ForkedCall.__call__ = alarmed",
}


def numpy_uses_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS, whose thread count ``OPENBLAS_NUM_THREADS`` sets."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build configuration
        return False
    return "openblas" in blas.lower()


class TestLayoutWorker:
    """The CLI's layout worker, run in fresh interpreters: this test process has numpy loaded, so it forks none."""

    @pytest.mark.parametrize("command", ["layout", "export", "pipeline"])
    def test_same_files_with_and_without_the_worker(self, command, demo_corpus, tmp_path):
        outputs = {}
        for cpus in (1, 2):
            out = tmp_path / str(cpus)
            run = run_cli_fresh([command, "--corpus", demo_corpus, "--out", out], cpus=cpus)
            assert (run.code, run.workers, run.children_left, run.stderr) == (0, cpus - 1, False, "")
            outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"}
        assert outputs[2] == outputs[1]
        golden = REPO / "tests" / "golden" / "demo"
        assert all(data == (golden / name).read_bytes() for name, data in outputs[2].items())

    @pytest.mark.parametrize("argv, patch, stage", [
        (["--min-occurrences", "1000"], "", "lexicon"),  # while the worker may still import numpy
        ([], "import citemap.pipeline\ndef failing(*args):\n    raise ValueError('injected')\n"
             "citemap.pipeline.cluster = failing", "cluster"),  # the last stage before the layout
    ])
    def test_stage_failing_around_the_layout_reports_as_on_one_cpu(self, argv, patch, stage, demo_corpus, tmp_path):
        runs = {cpus: run_cli_fresh(["pipeline", "--corpus", demo_corpus, "--out", tmp_path / "out", *argv],
                                    patch, cpus=cpus) for cpus in (1, 2)}
        assert (runs[1].code, runs[2].code) == (3, 3)
        assert runs[1].stderr.startswith(f"error: stage '{stage}' failed: ")
        assert runs[2].stderr == runs[1].stderr
        assert (runs[2].workers, runs[2].numpy, runs[2].children_left) == (1, False, False)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("layout_limit, error", [
        (None, "stage 'cluster' failed: injected"),
        (5, "stage 'layout' failed: cannot lay out 31 terms, the limit is 5; raise --min-occurrences to keep fewer "
            "terms"),
    ])
    def test_compare_reports_the_first_failure_in_network_order(self, layout_limit, error, planted_corpus, tmp_path):
        # the clustering fails on the citing network alone, the planted corpus's only one of more than 40
        # terms (cited 31, citing 47, context 30); a lowered limit fails every layout, the cited map's first
        patch = ("import citemap.pipeline\ncluster = citemap.pipeline.cluster\n"
                 "def failing(sim, *args):\n"
                 "    if len(sim.terms) > 40:\n"
                 "        raise ValueError('injected')\n"
                 "    return cluster(sim, *args)\n"
                 "citemap.pipeline.cluster = failing\n")
        if layout_limit is not None:
            patch += f"sys.modules['citemap.layout'].MAX_LAYOUT_TERMS = {layout_limit}\n"
        runs = {cpus: run_cli_fresh(["compare", "--corpus", planted_corpus, "--out", tmp_path / "out"], patch, cpus)
                for cpus in (1, 2)}
        assert runs[1].stderr == f"error: {error}\n"
        assert runs[2].stderr == runs[1].stderr
        assert runs[1].code == runs[2].code == (3 if layout_limit is None else 2)
        assert (runs[2].workers, runs[2].numpy, runs[2].children_left) == (1, False, False)
        assert runs[1].children_left is False
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_oversized_map_is_config_error(self, cpus, demo_corpus, tmp_path):
        patch = "sys.modules['citemap.layout'].MAX_LAYOUT_TERMS = 5"
        run = run_cli_fresh(["pipeline", "--corpus", demo_corpus, "--out", tmp_path / "out"], patch, cpus=cpus)
        assert (run.code, run.workers, run.children_left) == (2, cpus - 1, False)
        assert run.stderr == ("error: stage 'layout' failed: cannot lay out 19 terms, the limit is 5; "
                              "raise --min-occurrences to keep fewer terms\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how, cpus, error", [
        ("killed", 2, "forked worker exited with code -9"),  # a dead process is an OSError: exit code 3
        ("raise", 1, "injected"),
        ("raise", 2, "injected"),  # raised in the worker, then again in the CLI process
    ])
    def test_failing_layout_fails_the_layout_stage(self, how, cpus, error, demo_corpus, tmp_path):
        argv = ["layout", "--corpus", demo_corpus, "--out", tmp_path / "out"]
        run = run_cli_fresh(argv, failing_layout_probe(how), cpus)
        assert (run.code, run.workers, run.children_left) == (3, cpus - 1, False)
        assert run.stderr == f"error: stage 'layout' failed: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_killed_worker_fails_compare_at_its_first_map(self, planted_corpus, tmp_path):
        argv = ["compare", "--corpus", planted_corpus, "--out", tmp_path / "out"]
        run = run_cli_fresh(argv, failing_layout_probe("killed"), cpus=2)
        assert (run.code, run.workers, run.numpy, run.children_left) == (3, 1, False, False)
        assert run.stderr == "error: stage 'layout' failed: forked worker exited with code -9\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("patch", list(INTERRUPTS.values()), ids=list(INTERRUPTS))
    def test_interrupt_stops_the_worker(self, patch, demo_corpus, tmp_path):
        start = time.monotonic()
        run = run_cli_fresh(["pipeline", "--corpus", demo_corpus, "--out", tmp_path / "out"], patch, cpus=2)
        assert (run.code, run.workers, run.children_left) == ("interrupted", 1, False)
        assert time.monotonic() - start < 20.0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("patch", list(INTERRUPTS.values()), ids=list(INTERRUPTS))
    def test_interrupt_stops_every_compare_child(self, patch, planted_corpus, tmp_path):
        # the network workers and the layout worker alike
        start = time.monotonic()
        run = run_cli_fresh(["compare", "--corpus", planted_corpus, "--out", tmp_path / "out"], patch, cpus=2)
        assert (run.code, run.workers, run.numpy, run.children_left) == ("interrupted", 1, False, False)
        assert time.monotonic() - start < 20.0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, patch, cpus", [
        ("pipeline", "", 1),
        ("pipeline", "import numpy", 2),
        *((command, "", 2) for command in ("ingest", "extract", "build", "cluster")),
    ])
    def test_no_worker(self, command, patch, cpus, demo_corpus, tmp_path):
        run = run_cli_fresh([command, "--corpus", demo_corpus, "--out", tmp_path], patch, cpus=cpus)
        assert (run.code, run.workers, run.children_left, run.stderr) == (0, 0, False, "")

    def test_failed_fork_lays_out_here(self, demo_corpus, tmp_path):
        patch = ("fork_once = os.fork\n"
                 "def fail_once():\n"
                 "    os.fork = fork_once\n"
                 "    raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
                 "os.fork = fail_once")
        run = run_cli_fresh(["export", "--corpus", demo_corpus, "--out", tmp_path], patch, cpus=2)
        assert (run.code, run.workers, run.numpy, run.children_left, run.stderr) == (0, 1, True, False, "")
        golden = REPO / "tests" / "golden" / "demo" / "map.tsv"
        assert (tmp_path / "map.tsv").read_bytes() == golden.read_bytes()

    @pytest.mark.skipif(fork_module.cpus() < 2, reason="needs two CPUs")
    def test_map_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path):
        # map_1k's job on its seed-1 corpus 0: a map of some 200 terms, whose positions a
        # threaded inverse changes in the last bits with the BLAS thread count
        if not numpy_uses_openblas():
            pytest.skip("the layout worker sets the thread count of OpenBLAS only")
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        corpora = importlib.import_module("corpora")
        corpus = corpora.write_jsonl(tmp_path / "pareto_1k.jsonl", corpora.pareto_topic(1000, 1000))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"layout_max_iter": 300}), encoding="utf-8")
        outputs = {}
        for label, affinity in (("one", {min(os.sched_getaffinity(0))}), ("all", os.sched_getaffinity(0))):
            out = tmp_path / label
            argv = ["pipeline", "--corpus", str(corpus), "--config", str(config), "--out", str(out),
                    "--mode", "title-abstract", "--set", "both", "--min-occurrences", "10"]
            result = run_fresh(f"import os, sys; os.sched_setaffinity(0, {sorted(affinity)!r}); "
                               f"from citemap.cli import main; sys.exit(main({argv!r}))")
            assert (result.returncode, result.stderr) == (0, "")
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            del manifest["parameters"]["corpus"], manifest["parameters"]["out_dir"]
            outputs[label] = [(out / "graph.json").read_bytes(), (out / "map.tsv").read_bytes(), manifest]
        assert outputs["all"] == outputs["one"]
