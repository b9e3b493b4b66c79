"""Tests of the SWF trace reader, checked against a line-by-line row oracle."""

import itertools
from pathlib import Path

import pytest

from repro.workload.swf import SWF_FIELDS, read_swf_columns

from tests.workload.swf_oracle import FIELDS, parse_swf, read_swf

MINI = Path(__file__).parent / "data" / "mini.swf"
SAMPLE = Path(__file__).parents[2] / "examples" / "data" / "sample.swf"

#: Lines the fixtures do not cover, each checked on its own.
EDGE_LINES = {
    "comment": "; a header line",
    "indented-comment": "   ;  indented comment",
    "blank": "",
    "whitespace": " \t ",
    "full": "7 3.5 1 12.25 6 -1 -1 5 30 -1 1 1 1 1 1 -1 -1 -1",
    "truncated": "8 4 0 9 3",
    "job-number-only": "9",
    "extra-fields": "10 5 0 8 2 -1 -1 2 10 -1 1 1 1 1 1 -1 -1 -1 99 100",
    "tabs": "11\t6\t0\t3\t4\t-1\t-1\t-1",
    "no-procs-known": "12 7 0 3 -1 -1 -1 -1",
    "zero-allocated": "13 8 0 3 0 -1 -1 0",
    "float-int-field": "14 9 0 3 2.0 -1 -1 4.7",
    "exponent": "15 1e2 0 2.5e1 2 -1 -1 2",
}

#: Malformed lines: (line, field the error must name).
MALFORMED_LINES = {
    "run-time": ("1 0 0 bogus 4", "run_time"),
    "submit-time": ("1 x 0 5 4", "submit_time"),
    "unused-int-field": ("2 3 0 5 4 -1 bogus 4", "used_memory"),
    "nan-int-field": ("3 3 0 5 nan 4", "allocated_procs"),
    "last-field": ("4 3 0 5 4 -1 -1 4 10 -1 1 1 1 1 1 -1 -1 oops", "think_time"),
}


def oracle_columns(jobs):
    return (
        [j.submit_time for j in jobs],
        [j.run_time for j in jobs],
        [j.procs for j in jobs],
    )


def as_lists(columns):
    return tuple(list(column) for column in columns)


class TestOracle:
    """What the row oracle reads from the fixture (it used to be the library parser)."""

    def test_fixture_parses_all_jobs(self):
        jobs = list(read_swf(str(MINI)))
        assert [j.job_number for j in jobs] == [1, 2, 3, 4, 5]

    def test_comments_and_blank_lines_skipped(self):
        text = MINI.read_text()
        assert text.count(";") > 1  # the fixture really exercises comments
        assert list(parse_swf(text.splitlines())) == list(read_swf(str(MINI)))

    def test_field_values(self):
        job = next(read_swf(str(MINI)))
        assert job.submit_time == 0.0
        assert job.wait_time == 2.0
        assert job.run_time == 10.0
        assert job.allocated_procs == 4
        assert job.requested_procs == 4
        assert job.user_id == 1

    def test_float_fields_are_floats(self):
        job = next(read_swf(str(MINI)))
        assert isinstance(job.submit_time, float)
        assert isinstance(job.run_time, float)
        assert isinstance(job.allocated_procs, int)

    def test_truncated_record_padded_with_sentinel(self):
        last = list(read_swf(str(MINI)))[-1]
        assert last.job_number == 5
        # Fields beyond the truncation point carry the SWF unknown value.
        assert last.queue == -1 and last.partition == -1 and last.think_time == -1.0

    def test_procs_falls_back_to_allocated(self):
        jobs = {j.job_number: j for j in read_swf(str(MINI))}
        assert jobs[1].procs == 4  # requested_procs present
        assert jobs[3].procs == 8  # requested_procs == -1 -> allocated_procs

    def test_malformed_field_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            list(parse_swf(["; header", "1 0 0 bogus 4"]))

    def test_field_order_matches_standard(self):
        assert FIELDS == SWF_FIELDS
        assert len(SWF_FIELDS) == 18
        assert SWF_FIELDS[0] == "job_number"
        assert SWF_FIELDS[1] == "submit_time"
        assert SWF_FIELDS[3] == "run_time"


class TestColumnsAgainstOracle:
    """``read_swf_columns`` reads every line as the oracle does."""

    @pytest.mark.parametrize("path", [MINI, SAMPLE], ids=["mini", "sample"])
    def test_every_fixture_line(self, path):
        submit, run, procs = read_swf_columns(str(path))
        assert as_lists((submit, run, procs)) == oracle_columns(list(read_swf(str(path))))
        assert (submit.typecode, run.typecode, procs.typecode) == ("d", "d", "i")

    @pytest.mark.parametrize("path", [MINI, SAMPLE], ids=["mini", "sample"])
    def test_every_fixture_line_on_its_own(self, path, tmp_path):
        """Each line read alone, so a line the whole-file pass masks still counts."""
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            single = tmp_path / f"line{lineno}.swf"
            single.write_text(line + "\n")
            expected = oracle_columns(list(parse_swf([line])))
            assert as_lists(read_swf_columns(str(single))) == expected, line

    @pytest.mark.parametrize("name", sorted(EDGE_LINES))
    def test_edge_line(self, name, tmp_path):
        line = EDGE_LINES[name]
        trace = tmp_path / "edge.swf"
        trace.write_text(f"; header\n{line}\n1 0 0 5 4 -1 -1 4\n")
        expected = oracle_columns(list(parse_swf(["; header", line, "1 0 0 5 4 -1 -1 4"])))
        assert as_lists(read_swf_columns(str(trace))) == expected

    def test_mini_columns(self):
        submit, run, procs = read_swf_columns(str(MINI))
        assert list(procs) == [4, 1, 8, 2, 16]
        assert len(submit) == len(run) == 5

    @pytest.mark.parametrize("name", sorted(MALFORMED_LINES))
    def test_malformed_line_raises_the_oracle_error(self, name, tmp_path):
        line, field = MALFORMED_LINES[name]
        lines = ["; header", "", "1 0 0 5 4 -1 -1 4", line, "2 3 0 5 4 -1 -1 4"]
        bad = tmp_path / "bad.swf"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as from_oracle:
            list(parse_swf(lines))
        with pytest.raises(ValueError) as from_columns:
            read_swf_columns(str(bad))
        assert str(from_columns.value) == str(from_oracle.value)
        assert str(from_columns.value).startswith(f"SWF line 4: field {field!r}")


class TestNonFiniteFields:
    """``nan`` and ``±inf`` parse as floats but are no SWF value.

    Accepted, an ``inf`` submit time ran a replay to ``simulated_time =
    inf`` and an ``inf`` run time livelocked it; in an integer field
    ``inf`` escaped as a bare ``OverflowError``.
    """

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", SWF_FIELDS)
    def test_every_field_rejects_the_token(self, field, token, tmp_path):
        tokens = "1 0 0 5 4 -1 -1 4 10 -1 1 1 1 1 1 -1 -1 -1".split()
        tokens[SWF_FIELDS.index(field)] = token
        lines = ["1 0 0 5 4 -1 -1 4", " ".join(tokens)]
        bad = tmp_path / "bad.swf"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as from_oracle:
            list(parse_swf(lines))
        with pytest.raises(ValueError) as from_columns:
            read_swf_columns(str(bad))
        assert str(from_columns.value) == str(from_oracle.value)
        assert str(from_columns.value) == f"SWF line 2: field {field!r} is not finite: {token!r}"

    def test_a_replay_fails_with_the_reader_error(self, tmp_path):
        from repro.experiments.runner import run
        from repro.experiments.scenario import Scenario
        from repro.workload.params import WorkloadParams
        from repro.workload.spec import TraceReplaySpec

        jobs = [line for line in SAMPLE.read_text().splitlines() if not line.startswith(";")]
        tokens = jobs[5].split()
        tokens[SWF_FIELDS.index("submit_time")] = "inf"
        jobs[5] = " ".join(tokens)
        trace = tmp_path / "slice.swf"
        trace.write_text("\n".join(jobs[:12]) + "\n")
        params = WorkloadParams(num_processes=4, num_resources=8, phi=2, seed=1)
        scenario = Scenario("with_loan", params, workload=TraceReplaySpec(path=str(trace)))
        with pytest.raises(ValueError, match="SWF line 6: field 'submit_time' is not finite"):
            run(scenario)


class TestMaxJobs:
    @pytest.mark.parametrize("max_jobs, kept", [(1, 1), (3, 3), (5, 5), (9, 5)])
    def test_max_jobs_caps_the_columns(self, max_jobs, kept):
        submit, run, procs = read_swf_columns(str(MINI), max_jobs)
        assert len(submit) == len(run) == len(procs) == kept
        jobs = list(itertools.islice(read_swf(str(MINI)), max_jobs))
        assert as_lists((submit, run, procs)) == oracle_columns(jobs)

    def test_lines_after_max_jobs_are_not_read(self, tmp_path):
        bad = tmp_path / "bad.swf"
        bad.write_text("1 0 0 5 4 -1 -1 4\n2 3 0 bogus 4\n")
        submit, _, _ = read_swf_columns(str(bad), max_jobs=1)
        assert list(submit) == [0.0]
